"""Batched-epoch convergence: apply_batch semantics and equivalence.

The batched path's correctness story: applying a whole epoch of membership
events and converging once reaches the same fixed point (and, through the
delta stream, the byte-identical maintained stability tree) as converging
after every single event.  Hypothesis hunts for counterexamples over random
batched traces; unit tests pin the delta-stream contract on the degenerate
paths (emptying the overlay, leave+rejoin inside one epoch) and the
engine-invalidation contract of the :class:`ConvergenceError` path.
"""

import copy
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sweep_oracle import literal_links, sweep_apply_batch, sweep_converge

from repro.metrics.trees import tree_metrics
from repro.multicast.incremental import StabilityTreeMaintainer
from repro.multicast.stability import StabilityTreeBuilder
from repro.overlay.gossip import knowledge_sets
from repro.overlay.network import (
    BatchJoin,
    BatchLeave,
    BatchMove,
    ConvergenceError,
    OverlayNetwork,
)
from repro.overlay.peer import make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.workloads.peers import generate_peers_with_lifetimes


def _assert_links_are_literal(overlay):
    """``links(p)`` is exactly what its definition derives from the directed map."""
    links = {peer_id: set(overlay.links(peer_id)) for peer_id in overlay.peer_ids}
    assert links == literal_links(overlay)


def _peers(count, dimension=2):
    """Small fixed population with pairwise-distinct per-axis coordinates."""
    return [
        make_peer(index, tuple(float(index * dimension + axis) for axis in range(dimension)))
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# apply_batch semantics
# ----------------------------------------------------------------------
class TestApplyBatch:
    def test_empty_batch_is_a_no_op(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        assert overlay.apply_batch([]) == 0
        assert overlay.peer_count == 0

    def test_shorthand_events(self):
        peers = _peers(4)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        # PeerInfo is a join, a bare int is a leave.
        rounds = overlay.apply_batch(peers)
        assert rounds >= 1
        assert overlay.peer_ids == [0, 1, 2, 3]
        overlay.apply_batch([3])
        assert overlay.peer_ids == [0, 1, 2]

    def test_batch_move_relocates_and_reconverges(self):
        peers = _peers(5)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        new_coordinates = (100.0, 100.0)
        rounds = overlay.apply_batch([BatchMove(2, new_coordinates)])
        assert rounds >= 1
        assert tuple(overlay.peer(2).coordinates) == new_coordinates
        # The post-move fixed point matches an overlay built at the moved
        # coordinates from scratch.
        rebuilt = OverlayNetwork(EmptyRectangleSelection())
        rebuilt.apply_batch(
            [
                replace(peer, coordinates=new_coordinates) if peer.peer_id == 2 else peer
                for peer in peers
            ]
        )
        assert overlay.directed_neighbour_map() == rebuilt.directed_neighbour_map()

    def test_unsupported_event_rejected(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        with pytest.raises(TypeError):
            overlay.apply_batch(["join"])

    def test_batch_emptying_the_overlay_skips_convergence(self):
        peers = _peers(3)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        assert overlay.apply_batch([0, 1, 2]) == 0
        assert overlay.peer_count == 0

    def test_join_may_bootstrap_off_an_earlier_join_in_the_same_batch(self):
        peers = _peers(3)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(
            [
                BatchJoin(peers[0], bootstrap=frozenset()),
                BatchJoin(peers[1], bootstrap=frozenset({0})),
                BatchJoin(peers[2], bootstrap=frozenset({1})),
            ]
        )
        assert overlay.peer_ids == [0, 1, 2]

    def test_leave_then_rejoin_inside_one_batch_is_well_formed(self):
        peers = _peers(5)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        overlay.apply_batch(
            [BatchLeave(2), BatchJoin(peers[2], bootstrap=frozenset({0}))]
        )
        assert overlay.peer_ids == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("seed", range(8))
    def test_rejoin_at_other_coordinates_under_a_radius_matches_the_full_sweep(self, seed):
        """A leave and a rejoin of one id net to nothing in its knowers'
        windows, but the id may be back somewhere else: the peers that knew
        it a window ago recompute, as they do for a move.  (Before PR 20 the
        ones that had not selected it kept a selection computed at its old
        coordinates -- 36 of 40 seeds of this script diverged.)"""
        peers = generate_peers_with_lifetimes(14, 2, seed=seed)
        rng = random.Random(seed)
        fast, slow = (
            OverlayNetwork(EmptyRectangleSelection(), gossip_radius=2) for _ in range(2)
        )
        for peer in peers[:12]:
            bootstrap = frozenset({rng.randrange(peer.peer_id)}) if peer.peer_id else frozenset()
            fast.apply_batch([BatchJoin(peer, bootstrap=bootstrap)])
            sweep_apply_batch(slow, [BatchJoin(peer, bootstrap=bootstrap)])
        victim = rng.randrange(12)
        batch = [
            BatchLeave(victim),
            BatchJoin(
                replace(peers[victim], coordinates=peers[13].coordinates),
                bootstrap=frozenset({(victim + 1) % 12}),
            ),
        ]
        assert fast.apply_batch(batch) == sweep_apply_batch(slow, batch)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()


# ----------------------------------------------------------------------
# Delta-stream contract on the degenerate paths
# ----------------------------------------------------------------------
class TestDeltaStreamDegenerates:
    def test_remove_and_converge_to_empty_still_reports_the_leave(self):
        peers = _peers(2)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        recorder = overlay.delta_stream()
        overlay.remove_and_converge(1)
        assert overlay.remove_and_converge(0) == 0
        delta = recorder.drain()
        assert delta.departed == frozenset({0, 1})
        assert delta.joined == frozenset()

    def test_maintainer_survives_draining_down_to_empty(self):
        peers = _peers(3)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        maintainer = StabilityTreeMaintainer(overlay)
        overlay.apply_batch(peers)
        maintainer.refresh()
        for peer_id in (2, 1, 0):
            overlay.remove_and_converge(peer_id)
        delta = maintainer.refresh()
        assert delta.departed == frozenset({0, 1, 2})
        assert maintainer.engine.peer_count == 0
        assert maintainer.full_rebuilds == 1

    def test_leave_plus_rejoin_in_one_epoch_appears_as_both(self):
        peers = _peers(5)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        recorder = overlay.delta_stream()
        overlay.apply_batch(
            [BatchLeave(2), BatchJoin(peers[2], bootstrap=frozenset({0}))]
        )
        delta = recorder.drain()
        assert 2 in delta.departed and 2 in delta.joined

    def test_join_plus_leave_in_one_epoch_cancels(self):
        peers = _peers(5)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers[:4])
        recorder = overlay.delta_stream()
        overlay.apply_batch(
            [BatchJoin(peers[4], bootstrap=frozenset({0})), BatchLeave(4)]
        )
        delta = recorder.drain()
        assert 4 not in delta.joined and 4 not in delta.departed

    def test_leave_rejoin_epoch_keeps_the_maintained_tree_byte_identical(self):
        peers = _peers(6, dimension=3)
        overlay = OverlayNetwork(OrthogonalHyperplanesSelection(k=2))
        maintainer = StabilityTreeMaintainer(overlay)
        overlay.apply_batch(peers)
        maintainer.refresh()
        overlay.apply_batch(
            [BatchLeave(3), BatchJoin(peers[3], bootstrap=frozenset({0}))]
        )
        maintainer.refresh()
        expected = StabilityTreeBuilder().build(overlay.snapshot())
        assert maintainer.forest().preferred == dict(expected.preferred)


# ----------------------------------------------------------------------
# ConvergenceError invalidates the engine (regression)
# ----------------------------------------------------------------------
def _chain_overlay():
    """A bootstrap chain under a small gossip radius: needs 2 rounds."""
    overlay = OverlayNetwork(KClosestSelection(k=2), gossip_radius=2)
    for index, peer in enumerate(
        make_peer(i, (float(i), float(i % 3))) for i in range(10)
    ):
        overlay.add_peer(peer, bootstrap={index - 1} if index else ())
    return overlay


class TestConvergenceErrorRecovery:
    def test_engine_is_invalidated_on_the_exception_path(self):
        overlay = _chain_overlay()
        with pytest.raises(ConvergenceError):
            overlay.converge(max_rounds=1)
        assert overlay._engine is None  # noqa: SLF001 - the regression is internal

    def test_subsequent_converge_reaches_the_true_fixed_point(self):
        overlay = _chain_overlay()
        with pytest.raises(ConvergenceError):
            overlay.converge(max_rounds=1)
        overlay.converge()

        # The oracle fails the same way mid-trajectory (the first engine
        # round equals the first sweep) and continues on sweeps; both
        # recoveries must land on the same fixed point.
        reference = _chain_overlay()
        with pytest.raises(ConvergenceError):
            sweep_converge(reference, max_rounds=1)
        sweep_converge(reference)
        assert overlay.directed_neighbour_map() == reference.directed_neighbour_map()

    def test_the_error_says_what_was_still_moving(self):
        """Under a radius the peers left dirty are the ones whose ``I(P)``
        the last round's installs moved; the error carries their count, the
        lowest few ids and the radius, read before the engine is dropped."""
        overlay = _chain_overlay()
        before = knowledge_sets(overlay.adjacency(), 2)
        with pytest.raises(ConvergenceError) as raised:
            overlay.converge(max_rounds=1)
        after = knowledge_sets(overlay.adjacency(), 2)
        moving = sorted(peer_id for peer_id in after if before[peer_id] != after[peer_id])
        error = raised.value
        assert moving and error.dirty_count == len(moving)
        assert error.dirty_sample == tuple(moving[: 5])
        assert (error.rounds, error.gossip_radius) == (1, 2)
        assert f"{len(moving)} peers still dirty" in str(error)
        assert f"lowest ids {moving[: 5]}" in str(error)
        assert "gossip radius 2" in str(error)

    @pytest.mark.parametrize("gossip_radius", [1, 2, 3])
    def test_abort_inside_a_bounded_batch_rebuilds_the_maintained_knowledge(
        self, gossip_radius
    ):
        """Fault injection: ``ConvergenceError`` in the middle of ``apply_batch``.

        The aborted engine's maintained knowledge sets are dropped with it;
        the next incremental convergence adopts the live topology (equal to
        the BFS oracle afterwards) and ends where a full sweep started from
        the same post-abort state ends -- overlay and stability tree.  The
        bounded fixed point is path-dependent, so the twin is a copy of that
        state, not a fresh build.
        """
        peers = generate_peers_with_lifetimes(40, 2, seed=16)
        overlay = OverlayNetwork.build_incremental(
            peers[:30],
            EmptyRectangleSelection(),
            gossip_radius=gossip_radius,
            rng=random.Random(16),
        )
        maintainer = StabilityTreeMaintainer(overlay)
        maintainer.refresh()
        assert overlay._engine is not None  # noqa: SLF001 - live maintained state
        batch = [BatchLeave(3), BatchLeave(17)]
        batch += [
            BatchJoin(peer, bootstrap=frozenset({peer.peer_id - 1})) for peer in peers[30:]
        ]
        batch += [BatchMove(5, (0.123, 0.877)), BatchJoin(peers[3], bootstrap=frozenset({39}))]
        with pytest.raises(ConvergenceError):
            overlay.apply_batch(batch, max_rounds=1)
        assert overlay._engine is None  # noqa: SLF001
        twin = copy.deepcopy(overlay)

        overlay.converge()
        knowledge = overlay._engine._view._knowledge  # noqa: SLF001
        oracle = knowledge_sets(overlay.adjacency(), gossip_radius)
        assert {p: set(knowledge.known(p)) for p in overlay.peer_ids} == oracle

        sweep_converge(twin)
        assert overlay.directed_neighbour_map() == twin.directed_neighbour_map()
        maintainer.refresh()
        expected = StabilityTreeBuilder().build(twin.snapshot())
        assert maintainer.forest().preferred == dict(expected.preferred)


    @pytest.mark.parametrize(
        "selection_factory",
        [EmptyRectangleSelection, lambda: OrthogonalHyperplanesSelection(k=2)],
        ids=["empty-rectangle", "orthogonal"],
    )
    def test_abort_inside_a_full_knowledge_batch_rebuilds_the_row_map(self, selection_factory):
        """Fault injection: the columnar view adopting a populated overlay.

        The aborted engine takes its ``peer id -> row`` map with it, and the
        membership keeps changing while no engine exists to be told.  The
        next incremental convergence builds the map from the overlay's peers
        as they are then and reaches the equilibrium witness; from there the
        membership notes keep it exact.
        """
        peers = generate_peers_with_lifetimes(40, 2, seed=16)
        overlay = OverlayNetwork.build_incremental(
            peers[:30], selection_factory(), rng=random.Random(16)
        )
        batch = [BatchLeave(3), BatchLeave(17)]
        batch += [
            BatchJoin(peer, bootstrap=frozenset({peer.peer_id - 1})) for peer in peers[30:]
        ]
        batch += [BatchMove(5, (0.123, 0.877)), BatchJoin(peers[3], bootstrap=frozenset({39}))]
        with pytest.raises(ConvergenceError) as raised:
            overlay.apply_batch(batch, max_rounds=1)
        # Under full knowledge one installed round *is* the fixed point; only
        # the confirming round was cut -- which is why the message lists no
        # peers.
        assert raised.value.dirty_count == 0
        assert overlay._engine is None  # noqa: SLF001

        overlay.remove_peer(21)
        overlay.add_peer(replace(peers[17], coordinates=(0.456, 0.544)), bootstrap={0})
        overlay.move_peer(8, (0.789, 0.211))

        def assert_exact():
            rows = overlay._engine._view._rows  # noqa: SLF001 - the adopted map
            assert sorted(rows.alive_ids()) == overlay.peer_ids
            assert overlay.index.ids() == overlay.peer_ids
            witness = OverlayNetwork.build_equilibrium(overlay.peers(), selection_factory())
            assert overlay.directed_neighbour_map() == witness.directed_neighbour_map()

        overlay.converge()
        assert 17 in overlay and 21 not in overlay
        assert_exact()
        overlay.apply_batch([BatchLeave(30), BatchJoin(peers[21], bootstrap=frozenset({0}))])
        assert_exact()


# ----------------------------------------------------------------------
# Hypothesis: batched epochs == per-event convergence
# ----------------------------------------------------------------------
def _populations(min_size=4, max_size=14, max_dimension=3):
    """Random populations with pairwise-distinct per-axis coordinates.  No
    peer declares a lifetime, so a move moves ``T(P)`` (the first
    coordinate) too, and the maintained trees must follow it."""

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


_SELECTIONS = st.sampled_from(
    [
        EmptyRectangleSelection,
        lambda: OrthogonalHyperplanesSelection(k=2),
        lambda: KClosestSelection(k=2),
    ]
)


# Off both lattices the populations here are drawn from (integers, k/8), so a
# move target never lands on another peer's coordinate on any axis: shared
# per-axis values are outside the paper's distinct-coordinate envelope, where
# the paths may diverge.
_MOVE_SHIFT = 0.0625

# With moves of +0.25 (on the k/8 lattice) scripts over these two populations
# (and seeds) failed: a mover landed on another peer's per-axis value.
_SHARED_AXIS_VALUE_REGRESSIONS = [
    ([(0.0, 0.0), (0.125, 0.25), (0.25, 0.375), (0.375, 0.125)], 1),
    ([(1.125, 0.5), (0.5, 0.125), (1.0, 1.25), (0.25, 0.625)], 175),
]


def _pinned_regressions(**fixed):
    """One ``@example`` per pinned population, empty-rectangle selection."""

    def decorate(test):
        for points, script_seed in _SHARED_AXIS_VALUE_REGRESSIONS:
            test = example(
                peers=[make_peer(index, point) for index, point in enumerate(points)],
                selection_factory=EmptyRectangleSelection,
                script_seed=script_seed,
                **fixed,
            )(test)
        return test

    return decorate


def _random_batched_script(peers, rng):
    """A random trace: join/leave/move events partitioned into random epochs.

    Bootstrap contacts are pre-chosen against the evolving alive set, so the
    batched and the per-event replay perform byte-identical membership
    operations and only the convergence cadence differs.  Leaves and rejoins
    may share an epoch with their counterpart event; a move shifts the peer
    off the lattice from its original coordinates, which a rejoin restores.
    """
    lattice = [
        {peer.coordinates[axis] for peer in peers} for axis in range(peers[0].dimension)
    ]
    batches = []
    alive = []
    pending = list(peers)
    departed = []
    while pending or (alive and rng.random() < 0.4):
        batch = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if alive and (roll < 0.2 or not (pending or departed)):
                victim = rng.choice(alive)
                alive.remove(victim)
                batch.append(BatchLeave(victim))
                departed.append(victim)
            elif alive and roll < 0.35:
                mover = rng.choice(alive)
                original = next(p for p in peers if p.peer_id == mover)
                shifted = tuple(value + _MOVE_SHIFT for value in original.coordinates)
                assert all(
                    value not in lattice[axis] for axis, value in enumerate(shifted)
                ), f"move target {shifted} of peer {mover} repeats a per-axis coordinate"
                batch.append(BatchMove(mover, shifted))
            elif pending or departed:
                if departed and (not pending or roll < 0.5):
                    peer_id = departed.pop(rng.randrange(len(departed)))
                    peer = next(p for p in peers if p.peer_id == peer_id)
                else:
                    peer = pending.pop()
                bootstrap = frozenset({rng.choice(alive)}) if alive else frozenset()
                batch.append(BatchJoin(peer, bootstrap=bootstrap))
                alive.append(peer.peer_id)
            else:
                break
        if batch:
            batches.append(batch)
    return batches


@settings(max_examples=25, deadline=None)
@given(
    peers=_populations(),
    selection_factory=_SELECTIONS,
    script_seed=st.integers(min_value=0, max_value=999),
)
@_pinned_regressions()
def test_batched_epochs_match_per_event_convergence(peers, selection_factory, script_seed):
    """Per-epoch apply_batch == per-event converge, overlay and tree alike.

    After every epoch the batched overlay must equal the per-event one
    (under full knowledge the fixed point is a function of the surviving
    population), and the two maintained stability trees -- refreshed once
    per epoch vs once per event -- must be byte-identical, including the
    streaming metric bundles whenever the forest is a single tree.
    """
    rng = random.Random(script_seed)
    batches = _random_batched_script(peers, rng)

    fast = OverlayNetwork(selection_factory())
    slow = OverlayNetwork(selection_factory())
    fast_maintainer = StabilityTreeMaintainer(fast)
    slow_maintainer = StabilityTreeMaintainer(slow)

    for batch in batches:
        fast.apply_batch(batch)
        fast_maintainer.refresh()
        _assert_links_are_literal(fast)
        for event in batch:
            slow.apply_batch((event,))
            slow_maintainer.refresh()
            _assert_links_are_literal(slow)

        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        fast_forest = fast_maintainer.forest()
        slow_forest = slow_maintainer.forest()
        assert dict(fast_forest.preferred) == dict(slow_forest.preferred)
        assert dict(fast_forest.lifetimes) == dict(slow_forest.lifetimes)
        if fast.peer_count and fast_forest.is_single_tree():
            assert fast_maintainer.metrics() == slow_maintainer.metrics()

    # Both maintainers paid exactly one snapshot-scale rebuild: the bootstrap.
    assert fast_maintainer.full_rebuilds == 1
    assert slow_maintainer.full_rebuilds == 1
    # And the maintained tree equals the from-scratch snapshot build.
    if fast.peer_count:
        expected = StabilityTreeBuilder().build(fast.snapshot())
        assert fast_maintainer.forest().preferred == dict(expected.preferred)
        if fast_maintainer.forest().is_single_tree():
            assert fast_maintainer.metrics() == tree_metrics(
                expected.to_multicast_tree()
            )


@settings(max_examples=25, deadline=None)
@given(
    peers=_populations(),
    selection_factory=_SELECTIONS,
    gossip_radius=st.sampled_from([None, 2, 3]),
    script_seed=st.integers(min_value=0, max_value=999),
)
@_pinned_regressions(gossip_radius=None)
def test_batched_incremental_matches_batched_full_sweep(
    peers, selection_factory, gossip_radius, script_seed
):
    """apply_batch == the sweep oracle's batch, epoch by epoch.

    The engine's partial rounds install exactly what a full sweep would, so
    the two follow the same trajectory from the same post-batch state --
    under full knowledge and bounded gossip radii alike.
    """
    rng = random.Random(script_seed)
    batches = _random_batched_script(peers, rng)
    fast, slow = (
        OverlayNetwork(selection_factory(), gossip_radius=gossip_radius) for _ in range(2)
    )
    for batch in batches:
        fast.apply_batch(batch)
        sweep_apply_batch(slow, batch)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        _assert_links_are_literal(fast)
        _assert_links_are_literal(slow)
