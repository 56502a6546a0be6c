"""Property-based cross-checks: the engine against the synchronous-sweep oracle.

The engine's correctness argument (see :mod:`repro.overlay.incremental`) is
that a partial round installs exactly what a full synchronous sweep
(``reselect_round()``, looped by ``sweep_*`` in ``tests/sweep_oracle.py``) would,
so both follow the same trajectory to the same fixed point.  These
tests let hypothesis hunt for counterexamples over random populations and
churn scripts, under full knowledge and under a small gossip radius.

Populations honour the paper's distinct-coordinate assumption (each axis is
a set of pairwise-distinct values), which is what the vectorised selection
paths rely on; the workload generators enforce the same invariant.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_oracle import sweep_apply_batch, sweep_build

from repro.overlay.network import BatchJoin, OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.base import NeighbourSelectionMethod
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection


def _populations(min_size=2, max_size=16, max_dimension=3):
    """Random populations with pairwise-distinct per-axis coordinates."""

    @st.composite
    def build(draw):
        count = draw(st.integers(min_value=min_size, max_value=max_size))
        dimension = draw(st.integers(min_value=2, max_value=max_dimension))
        axes = [
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=9999),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            for _ in range(dimension)
        ]
        return [
            make_peer(index, tuple(float(axis[index]) / 8 for axis in axes))
            for index in range(count)
        ]

    return build()


class PathDependentWrapper(EmptyRectangleSelection):
    """The same selection rule, declared path *dependent*: every non-empty
    candidate delta takes the conservative full recomputation (no method in
    ``src`` declares ``False``, so this is what reaches that arm)."""

    path_independent = False


class BaseDeltaRuleWrapper(NeighbourSelectionMethod):
    """The empty-rectangle rule with none of its batched paths: path
    independent, no index, no delta rule or install path of its own -- so
    additive verdicts reach the base class's ``select_many_additive``."""

    path_independent = True

    def select(self, reference, candidates):
        return EmptyRectangleSelection().select(reference, candidates)


_SELECTIONS = st.sampled_from(
    [
        EmptyRectangleSelection,
        lambda: OrthogonalHyperplanesSelection(k=1),
        lambda: OrthogonalHyperplanesSelection(k=2),
        lambda: KClosestSelection(k=2),
        PathDependentWrapper,
        BaseDeltaRuleWrapper,
    ]
)

_RADII = st.sampled_from([None, 2, 3])


@settings(max_examples=40, deadline=None)
@given(
    peers=_populations(),
    selection_factory=_SELECTIONS,
    gossip_radius=_RADII,
    seed=st.integers(min_value=0, max_value=999),
)
def test_insertion_convergence_matches_full_sweep(
    peers, selection_factory, gossip_radius, seed
):
    fast = OverlayNetwork.build_incremental(
        peers, selection_factory(), gossip_radius=gossip_radius, rng=random.Random(seed)
    )
    slow = sweep_build(
        peers, selection_factory(), gossip_radius=gossip_radius, rng=random.Random(seed)
    )
    assert fast.directed_neighbour_map() == slow.directed_neighbour_map()


@settings(max_examples=25, deadline=None)
@given(
    peers=_populations(min_size=4, max_size=14),
    selection_factory=_SELECTIONS,
    gossip_radius=_RADII,
    script_seed=st.integers(min_value=0, max_value=999),
)
def test_churn_script_matches_full_sweep_at_every_step(
    peers, selection_factory, gossip_radius, script_seed
):
    """Random interleavings of joins and departures stay in lockstep."""
    rng = random.Random(script_seed)
    fast, slow = (
        OverlayNetwork(selection_factory(), gossip_radius=gossip_radius) for _ in range(2)
    )
    alive = []
    pending = list(peers)
    while pending or (alive and rng.random() < 0.5):
        depart = alive and (not pending or rng.random() < 0.3)
        if depart:
            victim = rng.choice(alive)
            alive.remove(victim)
            fast.remove_and_converge(victim)
            sweep_apply_batch(slow, [victim])
        else:
            peer = pending.pop()
            bootstrap = {rng.choice(alive)} if alive else set()
            fast.insert_and_converge(peer, bootstrap=bootstrap)
            sweep_apply_batch(slow, [BatchJoin(peer, frozenset(bootstrap))])
            alive.append(peer.peer_id)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()


@settings(max_examples=40, deadline=None)
@given(peers=_populations(min_size=3, max_size=18))
def test_select_many_additive_agrees_with_full_selection(peers):
    """The vectorised skyline-update rule equals select() on the grown set."""
    joiner, existing = peers[-1], peers[:-1]
    selection = EmptyRectangleSelection()
    equilibrium = selection.compute_equilibrium(existing)
    updates = [
        (
            reference,
            [p for p in existing if p.peer_id in equilibrium[reference.peer_id]],
            [joiner],
        )
        for reference in existing
    ]
    delta_results = selection.select_many_additive(updates)
    for reference in existing:
        expected = selection.select(
            reference, [p for p in peers if p.peer_id != reference.peer_id]
        )
        got = delta_results.get(reference.peer_id)
        if got is None:
            assert expected == sorted(equilibrium[reference.peer_id])
        else:
            assert sorted(got) == expected
