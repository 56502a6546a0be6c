"""Property-based cross-checks: index-backed selection vs the scan oracles.

The spatial index exists to *replace* the candidate-set scans, so the whole
contract is byte-identity: a selection method given ``index=`` must produce
the same selection as the same method given the materialised candidate
list, and an :class:`~repro.overlay.network.OverlayNetwork` that owns an
index must reach, after every step of arbitrary interleavings of joins,
leaves and batched epochs, the fixed point of ``build_equilibrium`` (the
method's own full-population scan) in the round count of the
synchronous-sweep oracle, with the maintained stability tree equal to
``StabilityTreeBuilder`` over its snapshot.  The overlay owns an index
exactly when knowledge is full and the method reads one.

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
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
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
    """``select(index=)`` == ``select(candidates)`` for every reference peer.

    The index holds the whole population including the reference (the
    overlay's maintenance contract); the scan receives the same population
    as a candidate list.  Byte-identical output lists are required -- same
    ids in the same order -- as is agreement of the batched ``select_many``
    entry point the convergence engine uses.
    """
    selection = selection_factory()
    assert selection.supports_index
    index = SpatialIndex()
    for peer in peers:
        index.insert(peer.peer_id, peer.coordinates)
    batched = selection.select_many(peers, {}, index=index)
    for reference in peers:
        scan = selection.select(reference, peers)
        fast = selection.select(reference, (), index=index)
        assert fast == scan  # byte-identical: same ids, same emission order
        assert batched[reference.peer_id] == fast


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


class _ArbitraryDistance(OrthogonalHyperplanesSelection):
    """A Hyperplanes method under a callable distance: no indexed path."""

    def __init__(self):
        super().__init__(k=1, distance=lambda a, b: sum(abs(x - y) for x, y in zip(a, b)))


@pytest.mark.parametrize(
    ("selection_factory", "gossip_radius", "owns_index"),
    [
        (EmptyRectangleSelection, None, True),
        (lambda: OrthogonalHyperplanesSelection(k=2), None, True),
        (EmptyRectangleSelection, 2, False),
        (lambda: OrthogonalHyperplanesSelection(k=2), 2, False),
        (_ArbitraryDistance, None, False),
        (_ArbitraryDistance, 2, False),
    ],
    ids=["er_full", "hp_full", "er_radius_2", "hp_radius_2", "no_index_full", "no_index_radius_2"],
)
def test_an_overlay_owns_an_index_exactly_when_its_selection_reads_one(
    selection_factory, gossip_radius, owns_index
):
    """``index is not None`` iff full knowledge and ``supports_index``, for
    the constructor and both bulk builders; an owned index is the overlay's
    one coordinate column."""
    selection = selection_factory()
    assert owns_index == (gossip_radius is None and selection.supports_index)
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


def test_unsupported_methods_never_receive_an_index():
    """A selection without an indexed path keeps the overlay on scans."""
    overlay = OverlayNetwork(_ArbitraryDistance())
    assert not overlay.selection.supports_index
    assert overlay.index is None
    peers = [make_peer(i, (float(i), float(9 - i))) for i in range(6)]
    for peer in peers:
        overlay.insert_and_converge(peer)
    witness = OverlayNetwork.build_equilibrium(peers, _ArbitraryDistance())
    assert overlay.directed_neighbour_map() == witness.directed_neighbour_map()
    index = SpatialIndex()
    with pytest.raises(TypeError, match="no index-backed selection path"):
        overlay.selection.select_many([], {}, index=index)
    with pytest.raises(TypeError, match="unexpected keyword argument 'index'"):
        overlay.selection.select_many_additive([], index=index)


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
    index = SpatialIndex()
    for peer in peers:
        index.insert(peer.peer_id, peer.coordinates)
    reference = peers[0]
    scan = selection.select(reference, peers)
    assert selection.select_many([reference], {0: peers})[0] == scan
    assert selection.select(reference, (), index=index) == scan == [1]
