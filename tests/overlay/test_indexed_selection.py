"""Property-based cross-checks: whole-column selection vs the scan oracles.

Under full knowledge every candidate set is the whole coordinate column,
which replaces the candidate-set scans, so the whole contract is
byte-identity: a whole-column ``select_many`` must produce the same
selection as the same method given the materialised candidate list, and an
:class:`~repro.overlay.network.OverlayNetwork` that owns an index must
reach, after every step of arbitrary interleavings of joins, leaves and
batched epochs, the fixed point of ``build_equilibrium`` (the method's own
full-population scan) in the round count of the synchronous-sweep oracle,
with the maintained stability tree equal to ``StabilityTreeBuilder`` over
its snapshot.  The overlay owns an index exactly when knowledge is full.

Populations honour the paper's distinct-coordinate assumption (the same
strategy the engine cross-checks use); distinct first coordinates double as
distinct lifetimes, so the stability tree is well-defined throughout.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_oracle import sweep_apply_batch, sweep_build, sweep_converge

from repro.geometry.index import SpatialIndex
from repro.multicast.incremental import StabilityTreeMaintainer
from repro.multicast.stability import StabilityTreeBuilder
from repro.overlay.network import BatchJoin, ConvergenceError, OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.base import MemberOf, NeighbourSelectionMethod
from repro.overlay.selection.empty_rectangle import (
    EmptyRectangleSelection,
    brute_force_empty_rectangle_neighbours,
)
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.overlay.selection.sign_vectors import SignCoefficientHyperplanesSelection


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


_SELECTIONS = st.sampled_from(
    [
        EmptyRectangleSelection,
        lambda: OrthogonalHyperplanesSelection(k=1),
        lambda: OrthogonalHyperplanesSelection(k=2),
        lambda: OrthogonalHyperplanesSelection(k=2, distance="l1"),
        lambda: SignCoefficientHyperplanesSelection(k=1),
        lambda: KClosestSelection(k=2),
        lambda: KClosestSelection(k=3, distance="linf"),
    ]
)


@settings(max_examples=60, deadline=None)
@given(peers=_populations(min_size=2, max_size=18), selection_factory=_SELECTIONS)
def test_indexed_select_equals_scan_select(peers, selection_factory):
    """Whole-column ``select_many`` == ``select(candidates)`` for every
    reference peer, batched and one reference at a time.

    The column holds the whole population including the reference (the
    overlay's maintenance contract); the scan receives the same population
    as a candidate list.  Byte-identical output lists are required -- same
    ids in the same order.
    """
    selection = selection_factory()
    member_of = MemberOf.adapt(peers)
    batched = selection.select_many(peers, member_of=member_of)
    for reference in peers:
        scan = selection.select(reference, peers)
        single = selection.select_many([reference], member_of=member_of)
        assert single[reference.peer_id] == scan  # byte-identical: same ids, same order
        assert batched[reference.peer_id] == scan


@pytest.mark.parametrize("dimension", [2, 3])
def test_a_reference_outside_the_index_is_placed_by_its_own_coordinates(dimension):
    """Whole-column ``select_many`` for 20 peers ``P`` the column does not
    hold: the 2-D kernel and the presorted pass alike read ``P``'s position
    from ``P`` and select among exactly what the column holds."""
    rng = random.Random(dimension)
    peers = [make_peer(peer_id, tuple(rng.uniform(0.0, 100.0) for _ in range(dimension)))
             for peer_id in range(60)]
    stored, outside = peers[:40], peers[40:]
    member_of = MemberOf.adapt(stored)
    selection = EmptyRectangleSelection()
    batched = selection.select_many(outside, member_of=member_of)
    for reference in outside:
        expected = brute_force_empty_rectangle_neighbours(reference, stored)
        assert selection.select_many([reference], member_of=member_of)[
            reference.peer_id
        ] == expected
        assert batched[reference.peer_id] == expected


@settings(max_examples=30, deadline=None)
@given(
    peers=_populations(min_size=4, max_size=14),
    selection_factory=_SELECTIONS,
    script_seed=st.integers(min_value=0, max_value=999),
)
def test_indexed_overlay_tracks_scan_overlay_under_churn(
    peers, selection_factory, script_seed
):
    """Join/leave/batch schedules stay on the oracles: maps, rounds and trees.

    The production overlay and a sweep-oracle overlay replay the identical
    schedule -- single insertions and departures, plus whole epochs through
    ``apply_batch`` -- with a live stability-tree maintainer on the
    production one.  After every step its directed neighbour map must equal
    ``build_equilibrium`` of the alive peers (the method's own scan of the
    whole population), its round count the oracle's, its maintained parents
    ``StabilityTreeBuilder`` over its snapshot, and its owned index must
    hold exactly the alive population.
    """
    rng = random.Random(script_seed)
    overlay = OverlayNetwork(selection_factory())
    oracle = OverlayNetwork(selection_factory())
    maintainer = None
    alive = []
    pending = list(peers)
    while pending or (alive and rng.random() < 0.4):
        action = rng.random()
        if alive and len(alive) >= 2 and action < 0.2:
            # One batched epoch: a couple of leaves and joins, one converge.
            events = []
            for victim in rng.sample(alive, min(2, len(alive) - 1)):
                events.append(victim)
                alive.remove(victim)
            while pending and rng.random() < 0.6:
                joiner = pending.pop()
                bootstrap = frozenset({rng.choice(alive)}) if alive else frozenset()
                events.append(BatchJoin(joiner, bootstrap=bootstrap))
                alive.append(joiner.peer_id)
        elif alive and (not pending or action < 0.35):
            victim = rng.choice(alive)
            alive.remove(victim)
            events = [victim]
        else:
            joiner = pending.pop()
            bootstrap = frozenset({rng.choice(alive)}) if alive else frozenset()
            events = [BatchJoin(joiner, bootstrap=bootstrap)]
            alive.append(joiner.peer_id)
        assert overlay.apply_batch(events) == sweep_apply_batch(oracle, events)
        if maintainer is None and overlay.peer_count:
            maintainer = StabilityTreeMaintainer(overlay)
        witness = OverlayNetwork.build_equilibrium(overlay.peers(), selection_factory())
        assert overlay.directed_neighbour_map() == witness.directed_neighbour_map()
        assert overlay.index is not None
        assert overlay.index.ids() == overlay.peer_ids
        if maintainer is not None:
            maintainer.refresh()
            expected = StabilityTreeBuilder().build(overlay.snapshot())
            assert maintainer.engine.parent_map() == dict(expected.preferred)


@settings(max_examples=15, deadline=None)
@given(
    peers=_populations(min_size=4, max_size=12),
    selection_factory=_SELECTIONS,
    gossip_radius=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=999),
)
def test_bounded_gossip_radius_falls_back_to_scans(
    peers, selection_factory, gossip_radius, seed
):
    """Under a gossip radius the overlay owns no index and scans.

    Candidate sets are per-peer bounded-hop subsets there, which a shared
    index cannot answer; the engine lands where the synchronous-sweep
    oracle does.  The overlay still owns one coordinate column, which the
    selection reads, holding exactly the alive peers.
    """
    overlay = OverlayNetwork.build_incremental(
        peers,
        selection_factory(),
        gossip_radius=gossip_radius,
        rng=random.Random(seed),
    )
    oracle = sweep_build(
        peers, selection_factory(), rng=random.Random(seed), gossip_radius=gossip_radius
    )
    assert overlay.index is None and oracle.index is None
    assert overlay.directed_neighbour_map() == oracle.directed_neighbour_map()
    ids, coordinates = overlay._column.columns()  # noqa: SLF001 - the owned column
    assert dict(zip(ids.tolist(), map(tuple, coordinates.tolist()))) == {
        peer.peer_id: tuple(peer.coordinates) for peer in overlay.peers()
    }


@settings(max_examples=20, deadline=None)
@given(peers=_populations(min_size=3, max_size=14), selection_factory=_SELECTIONS)
def test_build_equilibrium_populates_the_owned_index(peers, selection_factory):
    """The bulk equilibrium builder must leave the index membership-exact.

    ``build_equilibrium`` fills the peer map directly rather than through
    ``add_peer``; a stale-empty index there would silently poison every
    later indexed convergence, so membership is part of the contract.
    """
    overlay = OverlayNetwork.build_equilibrium(peers, selection_factory())
    assert overlay.index is not None
    assert overlay.index.ids() == overlay.peer_ids
    # A follow-up indexed convergence stays on the fixed point, in the
    # round count of the sweep oracle from the same state.
    equilibrium = overlay.directed_neighbour_map()
    oracle = OverlayNetwork.build_equilibrium(peers, selection_factory())
    assert overlay.converge() == sweep_converge(oracle) == 1
    assert overlay.directed_neighbour_map() == equilibrium
    assert oracle.directed_neighbour_map() == equilibrium


def test_convergence_error_invalidation_matches_scan_path():
    """The ``ConvergenceError`` contract holds on the indexed path.

    A too-small ``max_rounds`` raises on the engine and on the sweep oracle;
    the aborted engine is invalidated (next convergence rebootstraps
    all-dirty), the owned index -- maintained by membership, untouched by
    convergence failures -- still mirrors the population exactly, and the
    recovery convergence lands on the oracle's fixed point in its round
    count.
    """
    rng = random.Random(42)
    peers = [
        make_peer(i, (float(v) / 8, float(w) / 8))
        for i, (v, w) in enumerate(
            zip(rng.sample(range(9999), 30), rng.sample(range(9999), 30))
        )
    ]
    overlay = OverlayNetwork(EmptyRectangleSelection())
    oracle = OverlayNetwork(EmptyRectangleSelection())
    for peer in peers[:20]:
        overlay.add_peer(peer)
        oracle.add_peer(peer)
    overlay.converge()
    sweep_converge(oracle)
    for peer in peers[20:]:
        overlay.add_peer(peer)
        oracle.add_peer(peer)
    with pytest.raises(ConvergenceError):
        overlay.converge(max_rounds=1)
    with pytest.raises(ConvergenceError):
        sweep_converge(oracle, max_rounds=1)
    assert overlay._engine is None  # noqa: SLF001 - invalidated by the abort
    assert overlay.index is not None
    assert overlay.index.ids() == overlay.peer_ids  # membership survived the abort
    assert overlay.converge() == sweep_converge(oracle)
    assert overlay.directed_neighbour_map() == oracle.directed_neighbour_map()
    witness = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
    assert overlay.directed_neighbour_map() == witness.directed_neighbour_map()


def test_index_drains_to_empty_with_the_overlay():
    """Removing every peer leaves an empty but alive index."""
    peers = [make_peer(i, (float(i), float(i * 7 % 13))) for i in range(8)]
    overlay = OverlayNetwork(EmptyRectangleSelection())
    for peer in peers:
        overlay.insert_and_converge(peer)
    for peer in peers:
        overlay.remove_and_converge(peer.peer_id)
    assert overlay.peer_count == 0
    assert overlay.index is not None and len(overlay.index) == 0
    assert overlay.index.dimension == 2  # retained for the next join
    overlay.insert_and_converge(make_peer(99, (1.0, 2.0)))
    assert overlay.index.ids() == [99]
    # An empty overlay accepts a population of any dimension; the index must
    # follow rather than reject the first joiner of the new population.
    overlay.remove_and_converge(99)
    overlay.insert_and_converge(make_peer(7, (1.0, 2.0, 3.0)))
    assert overlay.index.dimension == 3
    assert overlay.index.ids() == [7]


@pytest.mark.parametrize("gossip_radius", [None, 2], ids=["full_knowledge", "radius_2"])
def test_a_live_engine_follows_the_column_a_drained_overlay_replaces(gossip_radius):
    """A drained overlay starts its column over when the next population has
    another dimension, and the engine stays alive across the drain: its
    view must read the overlay's column as it is now, never the one it
    adopted."""
    first = [make_peer(i, (float(i), float(i * 7 % 13))) for i in range(8)]
    second = [make_peer(20 + i, (float(i), float(i * 5 % 11), float(i * 3 % 7)))
              for i in range(4)]
    overlay = OverlayNetwork(EmptyRectangleSelection(), gossip_radius=gossip_radius)
    for peer in first:
        overlay.insert_and_converge(peer)
    for peer in first:
        overlay.remove_and_converge(peer.peer_id)
    assert overlay.peer_count == 0 and overlay._engine is not None  # noqa: SLF001
    oracle = OverlayNetwork(EmptyRectangleSelection(), gossip_radius=gossip_radius)
    for peer in second:
        overlay.insert_and_converge(peer)
        oracle.add_peer(peer)
        sweep_converge(oracle)
    assert overlay._column.dimension == 3  # noqa: SLF001 - the replaced column
    equilibrium = OverlayNetwork.build_equilibrium(second, EmptyRectangleSelection())
    assert overlay.directed_neighbour_map() == equilibrium.directed_neighbour_map()
    assert overlay.directed_neighbour_map() == oracle.directed_neighbour_map()


class _SelectOnly(NeighbourSelectionMethod):
    """The Orthogonal L1 rule through ``select`` alone: no batched path of
    its own, so the base class's loops answer every batch."""

    def __init__(self):
        self._rule = OrthogonalHyperplanesSelection(k=1, distance="l1")

    def select(self, reference, candidates):
        return self._rule.select(reference, candidates)


@pytest.mark.parametrize(
    ("selection_factory", "gossip_radius", "owns_index"),
    [
        (EmptyRectangleSelection, None, True),
        (lambda: OrthogonalHyperplanesSelection(k=2), None, True),
        (EmptyRectangleSelection, 2, False),
        (lambda: OrthogonalHyperplanesSelection(k=2), 2, False),
        (_SelectOnly, None, True),
        (_SelectOnly, 2, False),
    ],
    ids=["er_full", "hp_full", "er_radius_2", "hp_radius_2", "select_only_full",
         "select_only_radius_2"],
)
def test_an_overlay_owns_an_index_exactly_under_full_knowledge(
    selection_factory, gossip_radius, owns_index
):
    """``index is not None`` iff full knowledge, whatever the method, for
    the constructor and both bulk builders; an owned index is the overlay's
    one coordinate column."""
    selection = selection_factory()
    assert owns_index == (gossip_radius is None)
    peers = [make_peer(i, (float(i), float(9 - i) / 3)) for i in range(6)]
    for overlay in (
        OverlayNetwork(selection, gossip_radius=gossip_radius),
        OverlayNetwork.build_incremental(peers, selection, gossip_radius=gossip_radius),
    ):
        assert (overlay.index is not None) == owns_index
        assert overlay.index in (None, overlay._column)  # noqa: SLF001
    if gossip_radius is None:
        overlay = OverlayNetwork.build_equilibrium(peers, selection)
        assert (overlay.index is not None) == owns_index


def test_a_select_only_method_under_full_knowledge_converges_to_its_equilibrium():
    """A method with nothing but ``select`` is answered by the base class's
    whole-column loop, lands on its ``build_equilibrium``, and takes no
    ``index=`` anywhere; a batch with neither candidate sets nor a column is
    refused by name."""
    overlay = OverlayNetwork(_SelectOnly())
    assert overlay.index is not None
    peers = [make_peer(i, (float(i), float(9 - i))) for i in range(6)]
    for peer in peers:
        overlay.insert_and_converge(peer)
    witness = OverlayNetwork.build_equilibrium(peers, _SelectOnly())
    assert overlay.directed_neighbour_map() == witness.directed_neighbour_map()
    index = SpatialIndex()
    with pytest.raises(TypeError, match="unexpected keyword argument 'index'"):
        overlay.selection.select_many([], {}, index=index)
    with pytest.raises(TypeError, match="unexpected keyword argument 'index'"):
        overlay.selection.select_many_additive([], index=index)
    with pytest.raises(TypeError, match="candidates_by_peer or member_of"):
        overlay.selection.select_many(peers)


def _rotated_pair(near):
    """The origin, ``near`` and ``near`` rotated left by one axis, whose keys
    differ only in the summation order, and 60 far peers: the numpy paths
    need 48 or more candidates."""
    dimension = len(near)
    return [make_peer(0, [0.0] * dimension), make_peer(1, near),
            make_peer(2, near[1:] + near[:1])] + [
        make_peer(i, [0.3 + 0.001 * i + 0.0001 * j for j in range(dimension)])
        for i in range(10, 70)]


def test_insertion_and_equilibrium_agree_on_a_summation_order_tie():
    """The python scan squared with ``(x - y) ** 2`` (libm ``pow``) and numpy
    with ``x * x``; the two once gave peer 0 different neighbours here."""
    peers = _rotated_pair((0.10255203114768215, 0.15639034825485046, 0.013807357091860789))
    selection = OrthogonalHyperplanesSelection(k=1)
    incremental = OverlayNetwork.build_incremental(peers, selection, rng=random.Random(0))
    equilibrium = OverlayNetwork.build_equilibrium(peers, selection)
    assert incremental.directed_neighbour_map() == equilibrium.directed_neighbour_map()


def test_scan_numpy_and_index_agree_at_eight_dimensions():
    """numpy's ``.sum(axis=1)`` adds eight or more columns pairwise, not left
    to right, and once ranked peer 2 first where the scan and the index
    ranked peer 1."""
    peers = _rotated_pair((0.10694253070906821, 0.1997498779565849, 0.13815114249571533,
                           0.044550264396397435, 0.1797785919507678, 0.16138438507011152,
                           0.1495363214598558, 0.1822527934805366))
    selection = KClosestSelection(k=1, distance="l1")
    reference = peers[0]
    scan = selection.select(reference, peers)
    assert selection.select_many([reference], {0: peers})[0] == scan
    whole_column = selection.select_many([reference], member_of=MemberOf.adapt(peers))
    assert whole_column[0] == scan == [1]
