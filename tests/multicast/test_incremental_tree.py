"""Event-driven multicast layer: equivalence with the snapshot-batch path.

The maintenance engine's correctness story is that every repair preserves
the tree invariants and that, driven from the overlay delta stream, the
maintained forest is *byte-identical* to a from-scratch
``build_stability_tree`` over the current snapshot -- with the streaming
metric bundle matching ``tree_metrics`` and the connectivity feed's root
count and verdict matching the snapshot forest and networkx.  These tests
let hypothesis hunt for counterexamples over random populations and churn
scripts (mirroring ``tests/overlay/test_incremental_properties.py``), plus
unit coverage for the repair API and the feed's fallback scan.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.trees import tree_metrics
from repro.multicast.dissemination import departure_health_series
from repro.multicast.incremental import (
    OverlayConnectivityFeed,
    StabilityTreeMaintainer,
    TreeDelta,
    TreeMaintenanceEngine,
)
from repro.multicast.stability import StabilityTreeBuilder
from repro.multicast.tree import MulticastTree, TreeValidationError
from repro.experiments.trace_runner import region_radius_for_fraction
from repro.overlay.network import BatchJoin, BatchLeave, BatchMove, OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.workloads.peers import generate_peers_with_lifetimes
from repro.workloads.traces import mass_departure_trace


# ----------------------------------------------------------------------
# Repair API of MulticastTree
# ----------------------------------------------------------------------
class TestTreeRepairAPI:
    @pytest.fixture()
    def tree(self):
        return MulticastTree(0, {0: None, 1: 0, 2: 0, 3: 1, 4: 3})

    def test_add_leaf_updates_children_and_depths(self, tree):
        tree.add_leaf(5, 2)
        assert tree.parent(5) == 2
        assert tree.children(2) == (5,)
        assert tree.depth(5) == 2
        tree.revalidate()

    def test_remove_leaf(self, tree):
        tree.remove_leaf(4)
        assert 4 not in tree
        assert tree.children(3) == ()
        tree.revalidate()

    def test_remove_non_leaf_rejected(self, tree):
        with pytest.raises(TreeValidationError):
            tree.remove_leaf(1)
        with pytest.raises(TreeValidationError):
            tree.remove_leaf(0)

    def test_reparent_shifts_subtree_depths(self, tree):
        tree.reparent(3, 2)
        assert tree.parent(3) == 2
        assert tree.depth(3) == 2
        assert tree.depth(4) == 3
        assert tree.children(1) == ()
        assert tree.children(2) == (3,)
        tree.revalidate()

    def test_reparent_under_descendant_rejected(self, tree):
        with pytest.raises(TreeValidationError):
            tree.reparent(1, 4)
        with pytest.raises(TreeValidationError):
            tree.reparent(0, 1)

    def test_revalidate_catches_corruption(self, tree):
        tree._parents[4] = 2  # noqa: SLF001 - deliberate corruption
        with pytest.raises(TreeValidationError):
            tree.revalidate()

    def test_metrics_summary_matches_standalone_metrics(self):
        rng = random.Random(1234)
        for _ in range(20):
            count = rng.randrange(1, 40)
            parents = {0: None}
            for node in range(1, count):
                parents[node] = rng.randrange(node)
            tree = MulticastTree(0, parents)
            summary = tree.metrics_summary()
            assert summary["height"] == tree.height()
            assert summary["diameter"] == tree.diameter()
            assert summary["max_degree"] == tree.maximum_degree()
            assert summary["avg_degree"] == tree.average_degree()
            assert summary["leaves"] == len(tree.leaves())

    def test_departure_health_series_shrinks_leaf_first(self):
        rng = random.Random(9)
        parents = {0: None}
        for node in range(1, 30):
            parents[node] = rng.randrange(node)
        tree = MulticastTree(0, parents)
        # Depth-descending order removes only leaves, so the replay is stable.
        order = sorted((n for n in tree.nodes() if n != 0), key=tree.depth, reverse=True)
        samples, report = departure_health_series(tree, order + [0])
        assert report.non_leaf_departures == 0
        assert report.departures == 30
        assert [s.size for s in samples] == list(range(29, 0, -1))
        assert all(s.is_single_tree for s in samples)
        # The original tree is untouched (the replay works on a copy).
        assert tree.size == 30


# ----------------------------------------------------------------------
# TreeMaintenanceEngine invariants
# ----------------------------------------------------------------------
class TestMaintenanceEngine:
    def test_lifetime_invariant_enforced(self):
        engine = TreeMaintenanceEngine()
        engine.apply(TreeDelta(joined={1: 10.0, 2: 20.0}))
        engine.apply(TreeDelta(reparented={1: 2}))
        with pytest.raises(TreeValidationError):
            engine.apply(TreeDelta(reparented={2: 1}))

    def test_duplicate_lifetimes_rejected(self):
        engine = TreeMaintenanceEngine()
        engine.add_peer(1, 5.0)
        with pytest.raises(ValueError):
            engine.add_peer(2, 5.0)

    def test_departed_peer_orphans_children(self):
        engine = TreeMaintenanceEngine()
        engine.apply(TreeDelta(joined={1: 1.0, 2: 2.0, 3: 3.0}))
        engine.apply(TreeDelta(reparented={1: 2, 2: 3}))
        assert engine.roots() == [3]
        engine.apply(TreeDelta(departed=frozenset((2,))))
        assert engine.parent(1) is None
        assert engine.roots() == [1, 3]

    def test_leave_then_rejoin_inside_one_delta_is_well_formed(self):
        # The delta-stream contract: a departure followed by a re-join in one
        # window appears in both groups, with the rejoined peer's fresh
        # parent in reparented; all three at once must apply cleanly.
        engine = TreeMaintenanceEngine()
        engine.apply(TreeDelta(joined={1: 1.0, 2: 2.0}))
        engine.apply(TreeDelta(reparented={1: 2}))
        engine.apply(
            TreeDelta(joined={1: 1.5}, departed=frozenset((1,)), reparented={1: 2})
        )
        assert engine.lifetime(1) == 1.5
        assert engine.parent(1) == 2

    def test_rejoin_window_reattaches_children_to_the_fresh_instance(self):
        # Regression: a peer leaves and rejoins before one refresh().  Its
        # ex-children's recomputed parent equals their pre-delta parent id,
        # but the engine's departure phase orphans them -- the maintainer
        # must re-issue the link onto the rejoined instance.
        child, parent = make_peer(2, (0.25, 0.25)), make_peer(3, (0.375, 0.375))
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.insert_and_converge(parent, bootstrap=set())
        overlay.insert_and_converge(child, bootstrap={3})
        maintainer = StabilityTreeMaintainer(overlay)
        assert maintainer.forest().preferred == {2: 3, 3: None}
        overlay.remove_and_converge(3)
        overlay.insert_and_converge(parent, bootstrap={2})
        maintainer.refresh()
        expected = StabilityTreeBuilder().build(overlay.snapshot())
        assert dict(maintainer.forest().preferred) == dict(expected.preferred)
        assert maintainer.forest().preferred[2] == 3

    def test_streaming_metrics_match_batch_metrics(self):
        rng = random.Random(77)
        engine = TreeMaintenanceEngine()
        population = list(range(1, 30))
        for peer in population:
            engine.add_peer(peer, float(peer))
        for _ in range(200):
            child = rng.choice(population)
            parent = rng.choice([None] + [p for p in population if p > child])
            engine.set_parent(child, parent)
            # Re-attach everything below the maximum so the forest is a tree
            # often enough to exercise the metrics bundle.
            if engine.is_single_tree():
                assert engine.metrics() == tree_metrics(engine.tree())
        # Force a single tree and compare once more.
        for peer in population[:-1]:
            engine.set_parent(peer, population[-1])
        assert engine.is_single_tree()
        assert engine.metrics() == tree_metrics(engine.tree())


# ----------------------------------------------------------------------
# OverlayConnectivityFeed vs networkx
# ----------------------------------------------------------------------
def test_two_single_root_components_fall_back_once_and_a_bridging_join_heals():
    """Each component has one root, so the root count alone cannot answer:
    the fallback BFS says split; a join linked into both components makes
    the larger-lifetime root the only one, and no further scan runs."""
    overlay = OverlayNetwork(EmptyRectangleSelection(), gossip_radius=2)
    feed = OverlayConnectivityFeed(overlay)
    a1, a2 = make_peer(0, (1.0, 1.5)), make_peer(1, (2.0, 2.5))
    b1, b2 = make_peer(2, (10.0, 10.5)), make_peer(3, (11.0, 11.5))
    overlay.apply_batch([
        BatchJoin(a1, bootstrap=frozenset()), BatchJoin(a2, bootstrap=frozenset({0})),
        BatchJoin(b1, bootstrap=frozenset()), BatchJoin(b2, bootstrap=frozenset({2})),
    ])
    assert not feed.is_connected()
    assert (feed.root_count, feed.rebuilds) == (2, 1)
    assert not nx.is_connected(overlay.snapshot().to_networkx())
    overlay.insert_and_converge(make_peer(4, (5.0, 5.5)), bootstrap={0, 2})
    assert feed.is_connected()
    assert (feed.root_count, feed.rebuilds) == (1, 1)
    assert nx.is_connected(overlay.snapshot().to_networkx())


def _feed_agrees(feed, overlay):
    """Query the feed; its verdict must be networkx's and its roots the
    snapshot rule's.  Returns the verdict."""
    snapshot = overlay.snapshot()
    connected = feed.is_connected()
    graph = snapshot.to_networkx()
    assert connected == (graph.number_of_nodes() == 0 or nx.is_connected(graph))
    roots = StabilityTreeBuilder().build(snapshot).roots()
    assert sorted(feed._roots) == roots  # noqa: SLF001 - the certificate under test
    assert feed.root_count == len(roots)
    return connected


def _converged(count, seed):
    peers = generate_peers_with_lifetimes(count, 2, seed=seed)
    return peers, OverlayNetwork.build_incremental(peers, EmptyRectangleSelection())


class TestOverlayConnectivityFeed:
    def test_an_empty_overlay_is_connected_without_a_root(self):
        feed = OverlayConnectivityFeed(OverlayNetwork(EmptyRectangleSelection()))
        assert feed.is_connected()
        assert (feed.root_count, feed.rebuilds) == (0, 0)

    def test_a_feed_built_on_a_converged_overlay_starts_from_its_one_root(self):
        _, overlay = _converged(20, seed=3)
        feed = OverlayConnectivityFeed(overlay)
        assert _feed_agrees(feed, overlay)
        assert (feed.root_count, feed.rebuilds) == (1, 0)

    def test_an_isolated_joiner_is_a_second_root_until_converge_links_it(self):
        peers, overlay = _converged(13, seed=4)
        overlay.remove_and_converge(peers[12].peer_id)
        feed = OverlayConnectivityFeed(overlay)
        overlay.add_peer(peers[12], bootstrap=())
        assert not _feed_agrees(feed, overlay)
        assert (feed.root_count, feed.rebuilds) == (2, 1)
        overlay.converge()
        assert _feed_agrees(feed, overlay)
        assert (feed.root_count, feed.rebuilds) == (1, 1)

    def test_every_query_of_a_split_overlay_runs_its_own_scan(self):
        peers, overlay = _converged(13, seed=4)
        overlay.remove_and_converge(peers[12].peer_id)
        feed = OverlayConnectivityFeed(overlay)
        overlay.add_peer(peers[12], bootstrap=())
        for queries in (1, 2, 3):
            assert not feed.is_connected()
            assert feed.rebuilds == queries

    def test_the_departed_root_hands_over_to_the_next_longest_lived_peer(self):
        peers, overlay = _converged(20, seed=6)
        feed = OverlayConnectivityFeed(overlay)
        by_lifetime = sorted(peers, key=lambda peer: peer.lifetime, reverse=True)
        for peer in by_lifetime[:5]:
            overlay.remove_and_converge(peer.peer_id)
            assert _feed_agrees(feed, overlay)
        assert (feed.root_count, feed.rebuilds) == (1, 0)

    def test_a_leave_and_rejoin_inside_one_window_is_re_read_as_a_fresh_peer(self):
        peers, overlay = _converged(16, seed=8)
        feed = OverlayConnectivityFeed(overlay)
        for peer in peers[:4]:
            overlay.remove_and_converge(peer.peer_id)
            overlay.insert_and_converge(peer, bootstrap={peers[10].peer_id})
            assert _feed_agrees(feed, overlay)
        assert feed.rebuilds == 0

    def test_a_join_and_leave_inside_one_window_is_never_seen(self):
        peers, overlay = _converged(12, seed=9)
        overlay.remove_and_converge(peers[11].peer_id)
        feed = OverlayConnectivityFeed(overlay)
        overlay.insert_and_converge(peers[11], bootstrap={peers[0].peer_id})
        overlay.remove_and_converge(peers[11].peer_id)
        assert _feed_agrees(feed, overlay)
        assert feed.root_count == 1

    def test_a_move_that_changes_a_lifetime_retests_the_mover_and_its_links(self):
        """The move raises the mover's first coordinate, its ``T(P)``: it
        becomes the longest-lived peer, and the former root, now outlived by
        a link, stops being one."""
        points = [(0.5, 0.5), (0.75, 0.125), (0.25, 0.875), (0.875, 0.625)]
        overlay = OverlayNetwork(EmptyRectangleSelection())
        feed = OverlayConnectivityFeed(overlay)
        overlay.apply_batch([make_peer(index, point) for index, point in enumerate(points)])
        assert _feed_agrees(feed, overlay)
        overlay.apply_batch([BatchMove(2, (0.9375, 0.875))])
        assert _feed_agrees(feed, overlay)
        assert (feed.root_count, feed.rebuilds) == (1, 0)

    def test_extra_roots_of_a_connected_overlay_are_answered_by_the_scan(self):
        """K-closest is no orthant rule: a peer whose K nearest peers all
        leave earlier is a root, yet the overlay stays connected."""
        peers = generate_peers_with_lifetimes(16, 2, seed=3)
        overlay = OverlayNetwork(KClosestSelection(k=3))
        feed = OverlayConnectivityFeed(overlay)
        overlay.apply_batch(peers)
        assert _feed_agrees(feed, overlay)
        assert feed.root_count > 1
        assert feed.rebuilds == 1

    def test_tracker_is_a_read_only_alias_of_the_feed(self):
        feed = OverlayConnectivityFeed(OverlayNetwork(EmptyRectangleSelection()))
        assert feed.tracker is feed
        with pytest.raises(AttributeError):
            feed.tracker = object()


_MASS_DEPARTURE_SELECTIONS = {
    # Empty-rectangle overlays reconverge connected; 2-closest ones split
    # after the regional outage and when the region rejoins.
    "empty-rectangle": (EmptyRectangleSelection, {True}),
    "2-closest": (lambda: KClosestSelection(k=2), {True, False}),
}


@pytest.mark.parametrize("name", sorted(_MASS_DEPARTURE_SELECTIONS))
def test_feed_matches_networkx_through_a_mass_departure_and_rejoin(name):
    selection_factory, expected_verdicts = _MASS_DEPARTURE_SELECTIONS[name]
    seed = 2
    peers = generate_peers_with_lifetimes(40, 2, seed=seed)
    center = tuple(peers[0].coordinates)
    trace = mass_departure_trace(
        peers,
        center=center,
        radius=region_radius_for_fraction(peers, center, 0.4),
        epoch_length=5.0,
        rejoin_after_epochs=1,
        seed=seed,
    )
    overlay = OverlayNetwork(selection_factory())
    feed = OverlayConnectivityFeed(overlay)
    rng = random.Random(seed)

    def materialize(batch):
        for event in batch.events:
            if event.kind == "leave":
                yield BatchLeave(event.peer_id)
            else:
                contacts = {rng.choice(overlay.peer_ids)} if overlay.peer_count else ()
                yield BatchJoin(peers[event.peer_id], bootstrap=frozenset(contacts))

    verdicts = []
    for batch in trace.batches:
        overlay.apply_batch(materialize(batch))
        snapshot = overlay.snapshot()
        verdicts.append(feed.is_connected())
        assert verdicts[-1] == nx.is_connected(snapshot.to_networkx())
        assert feed.root_count == len(StabilityTreeBuilder().build(snapshot).roots())
    assert set(verdicts) == expected_verdicts
    if expected_verdicts == {True}:
        # One root is a theorem under full knowledge with an orthant rule.
        assert feed.rebuilds == 0
    else:
        # Every split was answered by the fallback scan.
        assert feed.rebuilds >= verdicts.count(False) > 0


# ----------------------------------------------------------------------
# Hypothesis: maintainer vs snapshot rebuild under arbitrary schedules
# ----------------------------------------------------------------------
def _populations(min_size=2, max_size=14, max_dimension=3):
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
        lambda: KClosestSelection(k=2),
    ]
)


@settings(max_examples=25, deadline=None)
@given(
    peers=_populations(min_size=4, max_size=14),
    selection_factory=_SELECTIONS,
    script_seed=st.integers(min_value=0, max_value=999),
)
def test_maintained_tree_matches_snapshot_rebuild_at_every_step(
    peers, selection_factory, script_seed
):
    """Arbitrary join/leave/reselect schedules: engine == snapshot rebuild.

    After every event the maintained parent map must equal a from-scratch
    ``StabilityTreeBuilder`` build over the current snapshot, the streaming
    metric bundle must equal ``tree_metrics`` of the rebuilt tree whenever
    the forest is a single tree, and the delta-fed connectivity feed must
    agree with a networkx recomputation and count the rebuilt forest's roots.
    """
    rng = random.Random(script_seed)
    overlay = OverlayNetwork(selection_factory())
    maintainer = StabilityTreeMaintainer(overlay)
    feed = OverlayConnectivityFeed(overlay)
    builder = StabilityTreeBuilder()

    info_by_id = {peer.peer_id: peer for peer in peers}
    alive = []
    pending = list(peers)
    while pending or (alive and rng.random() < 0.5):
        roll = rng.random()
        if alive and roll < 0.15:
            # Full synchronous sweep: rewrites every neighbour set outside
            # the incremental engine; the delta stream must still cover it.
            overlay.reselect_round()
        elif alive and roll < 0.25:
            # Leave then immediate rejoin of the same id: both land inside
            # one refresh window, so the drained delta carries the peer as
            # departed *and* joined (and usually re-parented too).
            victim = rng.choice(alive)
            overlay.remove_and_converge(victim)
            bootstrap = {rng.choice([p for p in alive if p != victim])} if len(alive) > 1 else set()
            overlay.insert_and_converge(info_by_id[victim], bootstrap=bootstrap)
        elif alive and (not pending or roll < 0.4):
            victim = rng.choice(alive)
            alive.remove(victim)
            overlay.remove_and_converge(victim)
        else:
            peer = pending.pop()
            bootstrap = {rng.choice(alive)} if alive else set()
            overlay.insert_and_converge(peer, bootstrap=bootstrap)
            alive.append(peer.peer_id)

        maintainer.refresh()
        snapshot = overlay.snapshot()
        expected = builder.build(snapshot)
        forest = maintainer.forest()
        assert dict(forest.preferred) == dict(expected.preferred)
        assert dict(forest.lifetimes) == dict(expected.lifetimes)
        if snapshot.peer_count and forest.is_single_tree():
            assert maintainer.metrics() == tree_metrics(expected.to_multicast_tree())

        graph = snapshot.to_networkx()
        expected_connected = graph.number_of_nodes() == 0 or nx.is_connected(graph)
        assert feed.is_connected() == expected_connected
        assert feed.root_count == len(expected.roots())

    assert maintainer.full_rebuilds == 1


def test_consumers_follow_the_overlay_through_a_rebinding_full_sweep():
    """Regression: the consumers read the overlay in place, through a full
    sweep too.  A sweep used to *rebind* ``OverlayNetwork._neighbours``, and
    the tracker's first draft, which captured the dict in a closure, kept
    reading the stale one.  The sweep installs through
    ``install_selections`` in place now; this pins that it no longer
    rebinds and that the consumers stay exact.  Join, sweep, leave,
    leave-then-rejoin in one window -- exact after every step."""
    peers = generate_peers_with_lifetimes(12, 2, seed=5)
    overlay = OverlayNetwork(EmptyRectangleSelection())
    assert overlay.index is not None
    maintainer = StabilityTreeMaintainer(overlay)
    feed = OverlayConnectivityFeed(overlay)
    builder = StabilityTreeBuilder()

    def assert_exact():
        maintainer.refresh()
        snapshot = overlay.snapshot()
        assert maintainer.forest().preferred == dict(builder.build(snapshot).preferred)
        assert feed.is_connected() == nx.is_connected(snapshot.to_networkx())
        assert feed.root_count == len(builder.build(snapshot).roots())

    for peer in peers[:10]:
        bootstrap = {overlay.peer_ids[0]} if overlay.peer_count else set()
        overlay.insert_and_converge(peer, bootstrap=bootstrap)
        assert_exact()
    before = overlay._neighbours  # noqa: SLF001 - the former hazard
    overlay.add_peer(peers[10], bootstrap={peers[0].peer_id})
    overlay.reselect_round()
    assert overlay._neighbours is before  # noqa: SLF001
    assert_exact()
    overlay.remove_and_converge(peers[3].peer_id)
    assert_exact()
    overlay.reselect_round()
    overlay.remove_and_converge(peers[0].peer_id)
    overlay.insert_and_converge(peers[0], bootstrap={peers[5].peer_id})
    assert_exact()
    overlay.insert_and_converge(peers[11], bootstrap={peers[0].peer_id})
    assert_exact()
    assert maintainer.full_rebuilds == 1


def test_a_move_that_changes_a_lifetime_reparents_the_mover():
    """``T(P)`` is the first coordinate, which a move changes; ``refresh()``
    re-admits the mover at its new lifetime (the maintainer used to keep
    ``{2: 3, 3: None}`` here)."""
    points = [(0.5, 0.5), (0.75, 0.125), (0.25, 0.875), (0.875, 0.625)]
    overlay = OverlayNetwork(EmptyRectangleSelection())
    maintainer = StabilityTreeMaintainer(overlay)
    overlay.apply_batch([make_peer(index, point) for index, point in enumerate(points)])
    maintainer.refresh()
    overlay.apply_batch([BatchMove(2, (0.9375, 0.875))])
    maintainer.refresh()
    expected = StabilityTreeBuilder().build(overlay.snapshot())
    assert maintainer.engine.parent_map() == dict(expected.preferred)
    assert {2: None, 3: 2}.items() <= maintainer.engine.parent_map().items()
    assert maintainer.engine.lifetime(2) == 0.9375


@settings(max_examples=25, deadline=None)
@given(
    peers=_populations(min_size=3, max_size=16),
    script_seed=st.integers(min_value=0, max_value=999),
    k=st.integers(min_value=1, max_value=3),
)
def test_hyperplane_additive_rule_agrees_with_full_selection(peers, script_seed, k):
    """The per-region top-K delta rule equals select() on the grown set."""
    joiner, existing = peers[-1], peers[:-1]
    selection = OrthogonalHyperplanesSelection(k=k)
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
    assert delta_results is not None
    for reference in existing:
        expected = sorted(
            selection.select(
                reference, [p for p in peers if p.peer_id != reference.peer_id]
            )
        )
        got = delta_results.get(reference.peer_id)
        if got is None:
            assert expected == sorted(equilibrium[reference.peer_id])
        else:
            assert sorted(got) == expected


@settings(max_examples=25, deadline=None)
@given(
    peers=_populations(min_size=4, max_size=14),
    selection_factory=_SELECTIONS,
    script_seed=st.integers(min_value=0, max_value=999),
)
def test_multi_peer_bootstrap_joins_keep_the_maintained_tree_exact(
    peers, selection_factory, script_seed
):
    """Joins wired to *several* bootstrap contacts stay on the delta contract.

    ``add_peer`` installs the whole bootstrap set as the joiner's first
    selection through the shared selection-change notification; both
    endpoints of every bootstrap edge must land in ``touched`` or the
    maintained tree silently diverges.  The pre-convergence check is the
    sharp one: right after the join, the bootstrap edges are the *only*
    adjacency the joiner has, and the bootstrap contacts' preferred parents
    may already have changed.
    """
    rng = random.Random(script_seed)
    overlay = OverlayNetwork(selection_factory())
    maintainer = StabilityTreeMaintainer(overlay)
    builder = StabilityTreeBuilder()

    def assert_exact():
        expected = builder.build(overlay.snapshot())
        assert maintainer.forest().preferred == dict(expected.preferred)

    alive = []
    for peer in peers:
        bootstrap = (
            set(rng.sample(alive, rng.randint(1, min(3, len(alive)))))
            if alive
            else set()
        )
        overlay.add_peer(peer, bootstrap=bootstrap)
        alive.append(peer.peer_id)
        maintainer.refresh()
        assert_exact()
        overlay.converge()
        maintainer.refresh()
        assert_exact()
        if len(alive) > 1 and rng.random() < 0.25:
            victim = rng.choice(alive)
            alive.remove(victim)
            overlay.remove_and_converge(victim)
            maintainer.refresh()
            assert_exact()
    assert maintainer.full_rebuilds == 1
