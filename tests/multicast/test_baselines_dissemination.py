"""Unit tests for the baselines and the dissemination / churn analysis."""

import random

import pytest

from repro.multicast.baselines import (
    bfs_tree,
    flood_multicast,
    random_parent_tree,
    random_spanning_tree,
    sequential_unicast_tree,
)
from repro.multicast.dissemination import disseminate, simulate_departures
from repro.multicast.space_partition import SpacePartitionTreeBuilder
from repro.multicast.stability import StabilityTreeBuilder
from repro.multicast.tree import MulticastTree


class TestFlooding:
    def test_reaches_everyone_with_many_messages(self, topology_2d):
        result = flood_multicast(topology_2d, root=0)
        assert result.reached == set(topology_2d.peers)
        # Flooding pays roughly one message per directed edge; always more
        # than the N - 1 of the space-partitioning construction on any
        # overlay with more edges than a tree.
        assert result.messages_sent > topology_2d.peer_count - 1
        assert result.messages_sent + 0 >= 2 * topology_2d.edge_count() - (
            topology_2d.peer_count - 1
        )
        assert result.duplicate_deliveries == result.messages_sent - (
            topology_2d.peer_count - 1
        )

    def test_space_partition_sends_fewer_messages_than_flooding(self, topology_2d):
        flood = flood_multicast(topology_2d, root=0)
        construction = SpacePartitionTreeBuilder().build(topology_2d, root=0)
        assert construction.messages_sent < flood.messages_sent

    def test_unknown_root(self, topology_2d):
        with pytest.raises(KeyError):
            flood_multicast(topology_2d, root=12345)


class TestTreeBaselines:
    def test_bfs_tree_is_a_shortest_path_tree(self, topology_2d):
        tree = bfs_tree(topology_2d, root=0)
        assert tree.size == topology_2d.peer_count
        # BFS depth is minimal: no other spanning tree can have smaller height.
        sp_tree = SpacePartitionTreeBuilder().build(topology_2d, root=0).tree
        assert tree.height() <= sp_tree.height()

    def test_random_spanning_tree_spans_and_is_seed_deterministic(self, topology_2d):
        a = random_spanning_tree(topology_2d, root=0, rng=random.Random(5))
        b = random_spanning_tree(topology_2d, root=0, rng=random.Random(5))
        assert a.size == topology_2d.peer_count
        assert a.parent_map() == b.parent_map()

    def test_random_spanning_tree_edges_are_overlay_edges(self, topology_2d):
        tree = random_spanning_tree(topology_2d, root=0, rng=random.Random(1))
        for parent, child in tree.edges():
            assert child in topology_2d.adjacency[parent]

    def test_sequential_unicast_is_a_star(self, topology_2d):
        tree = sequential_unicast_tree(topology_2d, root=0)
        assert tree.height() == 1
        assert tree.maximum_degree() == topology_2d.peer_count - 1

    def test_random_parent_links_cover_every_peer(self, topology_2d):
        links = random_parent_tree(topology_2d, rng=random.Random(2))
        assert set(links) == set(topology_2d.peers)
        for peer_id, parent in links.items():
            if parent is not None:
                assert parent in topology_2d.adjacency[peer_id]

    def test_unknown_roots(self, topology_2d):
        for factory in (bfs_tree, sequential_unicast_tree):
            with pytest.raises(KeyError):
                factory(topology_2d, 99999)
        with pytest.raises(KeyError):
            random_spanning_tree(topology_2d, 99999)


class TestDissemination:
    def test_costs_match_tree_shape(self):
        tree = MulticastTree(0, {0: None, 1: 0, 2: 0, 3: 1})
        report = disseminate(tree)
        assert report.messages_sent == 3
        assert report.delivered_peers == 4
        assert report.max_hops == 2
        assert report.average_hops == pytest.approx((1 + 1 + 2) / 3)
        assert report.delivery_ratio == 1.0

    def test_single_node_tree(self):
        report = disseminate(MulticastTree.single_node(4))
        assert report.messages_sent == 0
        assert report.max_hops == 0
        assert report.delivery_ratio == 1.0


class TestDepartureSimulation:
    def test_stability_tree_never_disconnects_under_lifetime_order(self, lifetime_topology):
        tree = StabilityTreeBuilder().build(lifetime_topology).to_multicast_tree()
        lifetimes = {pid: info.lifetime for pid, info in lifetime_topology.peers.items()}
        order = sorted(lifetimes, key=lifetimes.get)
        report = simulate_departures(tree, order)
        assert report.is_stable
        assert report.non_leaf_departures == 0
        assert report.orphaned_peer_events == 0
        assert report.departures == len(order)

    def test_lifetime_oblivious_tree_disconnects(self, lifetime_topology):
        lifetimes = {pid: info.lifetime for pid, info in lifetime_topology.peers.items()}
        order = sorted(lifetimes, key=lifetimes.get)
        # Root the BFS tree at the shortest-lived peer: it departs first and
        # still has children, so at least one disconnection must occur.
        tree = bfs_tree(lifetime_topology, root=order[0])
        report = simulate_departures(tree, order, stop_at_root=False)
        assert not report.is_stable
        assert report.non_leaf_departures >= 1
        assert report.orphaned_peer_events >= 1
        assert order[0] in report.disconnecting_peers

    def test_departures_of_unknown_peers_are_ignored(self):
        tree = MulticastTree(0, {0: None, 1: 0})
        report = simulate_departures(tree, [42, 1, 0])
        assert report.departures == 2
        assert report.is_stable

    def test_stop_at_root(self):
        tree = MulticastTree(0, {0: None, 1: 0, 2: 1})
        stopped = simulate_departures(tree, [0, 2, 1], stop_at_root=True)
        full = simulate_departures(tree, [0, 2, 1], stop_at_root=False)
        assert stopped.departures == 1
        assert full.departures == 3
        assert not stopped.is_stable  # the root left while it had children
