"""Event-driven multicast layer: equivalence with the snapshot-batch path.

The maintenance engine's correctness story is that every repair preserves
the tree invariants and that, driven from the overlay delta stream, the
maintained forest is *byte-identical* to a from-scratch
``build_stability_tree`` over the current snapshot -- with the streaming
metric bundle matching ``tree_metrics`` and the incremental connectivity
tracker matching a networkx recomputation.  These tests let hypothesis hunt
for counterexamples over random populations and churn scripts (mirroring
``tests/overlay/test_incremental_properties.py``), plus unit coverage for
the repair API and the tracker's epoch-rebuild behaviour.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.trees import tree_metrics
from repro.multicast.dissemination import departure_health_series
from repro.multicast.incremental import (
    IncrementalConnectivity,
    OverlayConnectivityFeed,
    StabilityTreeMaintainer,
    TreeDelta,
    TreeMaintenanceEngine,
)
from repro.multicast.stability import StabilityTreeBuilder
from repro.multicast.tree import MulticastTree, TreeValidationError
from repro.experiments.trace_runner import region_radius_for_fraction
from repro.overlay.network import BatchJoin, BatchLeave, OverlayNetwork
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
        overlay.insert_and_converge(parent, bootstrap=set(), incremental=True)
        overlay.insert_and_converge(child, bootstrap={3}, incremental=True)
        maintainer = StabilityTreeMaintainer(overlay)
        assert maintainer.forest().preferred == {2: 3, 3: None}
        overlay.remove_and_converge(3, incremental=True)
        overlay.insert_and_converge(parent, bootstrap={2}, incremental=True)
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
# IncrementalConnectivity vs networkx
# ----------------------------------------------------------------------
# One networkx graph is both the adjacency the tracker reads in place and
# the oracle; the helpers below edit it and report the edit the way the
# overlay's delta stream does -- both endpoints of a changed edge rechecked,
# a removed node removed.
def _tracker_over(graph):
    """A tracker reading ``graph``; ``graph[n]`` raises ``KeyError`` off-graph."""
    tracker = IncrementalConnectivity(graph.__getitem__)
    for node in graph:
        tracker.add_node(node)
    tracker.recheck(graph)
    return tracker


def _add_node(tracker, graph, node):
    graph.add_node(node)
    tracker.add_node(node)


def _add_edge(tracker, graph, u, v):
    graph.add_edge(u, v)
    tracker.recheck((u, v))


def _remove_edge(tracker, graph, u, v):
    graph.remove_edge(u, v)
    tracker.recheck((u, v))


def _remove_node(tracker, graph, node):
    graph.remove_node(node)
    tracker.remove_node(node)


def _forest_edges(tracker):
    return {
        (node, other)
        for node, certified in tracker._forest.items()
        for other in certified
        if node < other
    }


def _assert_certificate(tracker, graph):
    """The forest-neighbour sets: symmetric, acyclic, real and -- clean -- spanning.

    Reads private state only, so asserting repairs nothing.  ``graph`` is the
    undirected graph the tracker reads.
    """
    forest = tracker._forest
    assert set(forest) == set(graph)
    for node, certified in forest.items():
        assert node not in certified
        for other in certified:
            assert node in forest[other]
            assert graph.has_edge(node, other)
    edges = _forest_edges(tracker)
    spanning = nx.Graph()
    spanning.add_nodes_from(forest)
    spanning.add_edges_from(edges)
    assert not spanning or nx.is_forest(spanning)
    if not tracker._dirty:
        assert len(edges) == tracker.node_count - tracker._components
        if not tracker._loose:
            assert tracker._components == nx.number_connected_components(graph)


class TestIncrementalConnectivity:
    def test_matches_networkx_under_random_edit_scripts(self):
        rng = random.Random(4242)
        for _ in range(10):
            graph = nx.Graph()
            tracker = _tracker_over(graph)
            nodes = []
            next_id = 0
            for _ in range(120):
                action = rng.random()
                if action < 0.3 or len(nodes) < 2:
                    _add_node(tracker, graph, next_id)
                    nodes.append(next_id)
                    next_id += 1
                elif action < 0.6:
                    _add_edge(tracker, graph, *rng.sample(nodes, 2))
                elif action < 0.8 and graph.number_of_edges():
                    _remove_edge(tracker, graph, *rng.choice(list(graph.edges())))
                else:
                    victim = rng.choice(nodes)
                    _remove_node(tracker, graph, victim)
                    nodes.remove(victim)
                expected_components = nx.number_connected_components(graph)
                assert tracker.component_count() == expected_components
                expected = graph.number_of_nodes() == 0 or nx.is_connected(graph)
                assert tracker.is_connected() == expected
                _assert_certificate(tracker, graph)

    def test_pure_growth_needs_no_rebuilds(self):
        graph = nx.Graph()
        tracker = _tracker_over(graph)
        for node in range(50):
            _add_node(tracker, graph, node)
            if node:
                _add_edge(tracker, graph, node - 1, node)
            assert tracker.is_connected()
        assert tracker.rebuilds == 0
        _assert_certificate(tracker, graph)

    def test_deletion_batches_rebuild_once_per_query(self):
        graph = nx.star_graph(9)
        tracker = _tracker_over(graph)
        assert tracker.is_connected()
        for node in range(1, 5):
            _remove_edge(tracker, graph, 0, node)
        assert not tracker.is_connected()
        assert tracker.rebuilds == 1
        assert tracker.component_count() == 5
        assert tracker.rebuilds == 1  # clean epoch, no further rebuild

    def test_chord_around_the_cut_is_found_by_the_fallback_scan(self):
        """Path a-x-y-b certifies; the chord (a, b) touches no loose node."""
        a, x, y, b = range(4)
        graph = nx.path_graph([a, x, y, b])
        tracker = _tracker_over(graph)
        assert tracker.is_connected()
        # Added to a connected graph: ignored by the clean query, so the
        # certificate is the path whatever order the links are read in.
        _add_edge(tracker, graph, a, b)
        assert tracker.is_connected()
        assert _forest_edges(tracker) == {(a, x), (x, y), (y, b)}
        _remove_edge(tracker, graph, x, y)
        assert tracker.is_connected()
        assert (tracker.rebuilds, tracker.full_scans) == (1, 1)
        _assert_certificate(tracker, graph)

    def test_genuine_cut_heals_without_another_scan(self):
        graph = nx.path_graph(4)
        tracker = _tracker_over(graph)
        assert tracker.is_connected()
        _remove_edge(tracker, graph, 1, 2)
        assert tracker.component_count() == 2
        assert not tracker.same_component(0, 3)
        assert (tracker.rebuilds, tracker.full_scans) == (1, 1)
        scanned = tracker.edges_scanned
        _add_edge(tracker, graph, 3, 0)
        assert tracker.is_connected()
        assert tracker.same_component(1, 2)
        assert (tracker.rebuilds, tracker.full_scans) == (1, 1)
        assert tracker.edges_scanned == scanned
        _assert_certificate(tracker, graph)

    def test_deleting_non_certificate_edges_never_rebuilds(self):
        graph = nx.complete_graph(5)
        tracker = _tracker_over(graph)
        assert tracker.is_connected()
        certificate = _forest_edges(tracker)
        assert len(certificate) == 4
        for u, v in sorted(set(graph.edges()) - certificate):
            _remove_edge(tracker, graph, u, v)
            assert not tracker._dirty
        assert tracker.is_connected()
        assert tracker.component_count() == 1
        assert (tracker.rebuilds, tracker.edges_scanned) == (0, 0)
        assert _forest_edges(tracker) == certificate == set(graph.edges())
        _assert_certificate(tracker, graph)

    def test_an_orientation_swap_keeps_the_certificate_edge(self):
        """The overlay's edges are directed selections read as undirected links:
        dropping one of two orientations, or replacing ``a -> b`` by
        ``b -> a`` inside one window, leaves the link -- and the certificate,
        and the epoch -- as they were."""
        a, b = 0, 1
        selected = nx.DiGraph([(a, b), (b, a)])
        graph = selected.to_undirected(as_view=True)
        tracker = _tracker_over(graph)
        assert tracker.is_connected()
        selected.remove_edge(a, b)
        tracker.recheck((a, b))
        assert not tracker._dirty
        selected.remove_edge(b, a)
        selected.add_edge(a, b)
        tracker.recheck((a, b))
        assert not tracker._dirty
        assert tracker.is_connected()
        assert _forest_edges(tracker) == {(a, b)}
        assert (tracker.rebuilds, tracker.edges_scanned) == (0, 0)
        _assert_certificate(tracker, graph)

    def test_a_node_removed_and_re_added_in_one_window_is_certified_by_its_new_edges(self):
        graph = nx.path_graph(4)
        tracker = _tracker_over(graph)
        assert tracker.is_connected()
        # Node 1 leaves and comes back linked to 3 instead of 0 and 2,
        # before anyone queries.
        _remove_node(tracker, graph, 1)
        _add_node(tracker, graph, 1)
        _add_edge(tracker, graph, 1, 3)
        assert tracker.component_count() == 2
        assert tracker.same_component(1, 2) and not tracker.same_component(0, 1)
        assert _forest_edges(tracker) == {(1, 3), (2, 3)}
        assert tracker.rebuilds == 1
        _assert_certificate(tracker, graph)

    def test_an_unreported_certificate_deletion_is_out_of_contract(self):
        """Documented limit: the tracker stores no graph, so a certificate
        edge that vanishes with *neither* endpoint rechecked keeps
        certifying; rechecking either endpoint restores the truth."""
        graph = nx.path_graph(3)
        tracker = _tracker_over(graph)
        assert tracker.is_connected()
        graph.remove_edge(1, 2)
        assert tracker.is_connected()  # stale, by contract
        tracker.recheck((2,))
        assert tracker.component_count() == 2
        _assert_certificate(tracker, graph)

    def test_same_component_names_the_untracked_node_before_any_repair(self):
        graph = nx.path_graph([1, 2])
        tracker = _tracker_over(graph)
        assert tracker.is_connected()
        _remove_edge(tracker, graph, 1, 2)  # dirty: a query would have to repair
        for pair in ((1, 99), (99, 1)):
            with pytest.raises(KeyError, match="node 99 is not tracked"):
                tracker.same_component(*pair)
        assert tracker.rebuilds == 0

    def test_recheck_names_the_untracked_node(self):
        tracker = _tracker_over(nx.path_graph(2))
        with pytest.raises(KeyError, match="node 7 is not tracked"):
            tracker.recheck((0, 7))

    def test_an_untracked_neighbour_is_named_with_the_node_being_scanned(self):
        """What a stale adjacency looks like from inside: the neighbour
        function still names a node the tracker was told to forget."""
        graph = nx.path_graph(3)
        graph.add_node(9)  # a second component, so no scan stops early
        tracker = _tracker_over(graph)
        tracker.remove_node(2)  # ... but the graph keeps linking 1 to it
        with pytest.raises(KeyError, match="links node 1 to node 2, which is not tracked"):
            tracker.is_connected()


# Few nodes and long scripts make cycles common, and with them the forest
# cuts that only a chord heals (the fallback scan).
_EDIT_NODE_CAP = 8
_EDIT_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["add_node", "remove_node", "add_edge", "add_edge", "remove_edge", "remove_edge"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    min_size=40,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(steps=_EDIT_STEPS)
def test_connectivity_certificate_matches_networkx_under_directed_edit_scripts(steps):
    """One orientation at a time, queries at random: tracker == networkx.

    The edits are directed pairs, as the overlay's selections are, in one
    ``DiGraph`` whose undirected view is both what the tracker reads and the
    oracle -- so ``(u, v)`` can leave while ``(v, u)`` keeps the link.  A
    step only queries when its flag says so, which leaves dirty windows of
    every length between repairs.  The certificate's structural invariants
    are read off the private state after every step (reading repairs
    nothing); the verdicts are held to networkx at every query.
    """
    directed = nx.DiGraph()
    graph = directed.to_undirected(as_view=True)
    tracker = _tracker_over(graph)
    nodes = []
    next_id = 0

    def query(first, second):
        assert tracker.component_count() == nx.number_connected_components(graph)
        assert tracker.is_connected() == (not nodes or nx.is_connected(graph))
        for offset in range(min(3, len(nodes))):
            one = nodes[(first + offset) % len(nodes)]
            other = nodes[(second + 2 * offset) % len(nodes)]
            assert tracker.same_component(one, other) == nx.has_path(graph, one, other)
        _assert_certificate(tracker, graph)

    for action, first, second, queried in steps:
        if len(nodes) < 2 or (action == "add_node" and len(nodes) < _EDIT_NODE_CAP):
            _add_node(tracker, directed, next_id)
            nodes.append(next_id)
            next_id += 1
        elif action == "remove_node":
            _remove_node(tracker, directed, nodes.pop(first % len(nodes)))
        elif action in ("add_node", "add_edge"):
            source = nodes[first % len(nodes)]
            target = nodes[second % len(nodes)]
            if source != target:
                _add_edge(tracker, directed, source, target)
        elif directed.number_of_edges():
            edges = sorted(directed.edges())
            _remove_edge(tracker, directed, *edges[first % len(edges)])
        _assert_certificate(tracker, graph)
        if queried:
            query(first, second)
    query(0, 0)


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

    verdicts = set()
    for batch in trace.batches:
        overlay.apply_batch(materialize(batch))
        graph = overlay.snapshot().to_networkx()
        assert feed.is_connected() == nx.is_connected(graph)
        assert feed.tracker.component_count() == nx.number_connected_components(graph)
        _assert_certificate(feed.tracker, graph)
        verdicts.add(feed.is_connected())
    assert verdicts == expected_verdicts
    if expected_verdicts == {True}:
        assert feed.tracker.full_scans == 0


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
    the forest is a single tree, and the delta-fed connectivity tracker must
    agree with a networkx recomputation.
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
            overlay.remove_and_converge(victim, incremental=True)
            bootstrap = {rng.choice([p for p in alive if p != victim])} if len(alive) > 1 else set()
            overlay.insert_and_converge(
                info_by_id[victim], bootstrap=bootstrap, incremental=True
            )
        elif alive and (not pending or roll < 0.4):
            victim = rng.choice(alive)
            alive.remove(victim)
            overlay.remove_and_converge(victim, incremental=True)
        else:
            peer = pending.pop()
            bootstrap = {rng.choice(alive)} if alive else set()
            overlay.insert_and_converge(peer, bootstrap=bootstrap, incremental=True)
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

    assert maintainer.full_rebuilds == 1


def test_consumers_follow_the_overlay_through_a_rebinding_full_sweep():
    """Regression: the consumers read the overlay in place, and a full sweep
    *rebinds* ``OverlayNetwork._neighbours``.  A consumer that captured the
    dict (the tracker's first draft did, in a closure) keeps reading the old
    one: the next departure is stripped from the new dict only, the stale
    one still names the departed peer, and the query dies inside the
    union-find.  Join, sweep, leave, leave-then-rejoin in one window --
    exact after every step."""
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
        graph = snapshot.to_networkx()
        assert feed.is_connected() == nx.is_connected(graph)
        assert feed.tracker.component_count() == nx.number_connected_components(graph)
        _assert_certificate(feed.tracker, graph)

    for peer in peers[:10]:
        bootstrap = {overlay.peer_ids[0]} if overlay.peer_count else set()
        overlay.insert_and_converge(peer, bootstrap=bootstrap, incremental=True)
        assert_exact()
    before = overlay._neighbours  # noqa: SLF001 - the hazard under test
    overlay.add_peer(peers[10], bootstrap={peers[0].peer_id})
    overlay.reselect_round()
    assert overlay._neighbours is not before  # noqa: SLF001
    assert_exact()
    overlay.remove_and_converge(peers[3].peer_id, incremental=True)
    assert_exact()
    overlay.reselect_round()
    overlay.remove_and_converge(peers[0].peer_id, incremental=True)
    overlay.insert_and_converge(peers[0], bootstrap={peers[5].peer_id}, incremental=True)
    assert_exact()
    overlay.insert_and_converge(peers[11], bootstrap={peers[0].peer_id}, incremental=True)
    assert_exact()
    assert maintainer.full_rebuilds == 1


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
        overlay.converge(incremental=True)
        maintainer.refresh()
        assert_exact()
        if len(alive) > 1 and rng.random() < 0.25:
            victim = rng.choice(alive)
            alive.remove(victim)
            overlay.remove_and_converge(victim, incremental=True)
            maintainer.refresh()
            assert_exact()
    assert maintainer.full_rebuilds == 1
