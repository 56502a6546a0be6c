"""Unit tests for repro.overlay.topology."""

import pytest

from repro.overlay.peer import make_peer
from repro.overlay.topology import TopologySnapshot, undirected_closure


def make_snapshot(directed):
    peers = {peer_id: make_peer(peer_id, (float(peer_id), 0.0)) for peer_id in directed}
    return TopologySnapshot.from_directed(peers, directed)


class TestUndirectedClosure:
    def test_reverse_edges_are_added(self):
        adjacency = undirected_closure({0: {1}, 1: set(), 2: {1}})
        assert adjacency == {0: {1}, 1: {0, 2}, 2: {1}}

    def test_self_loops_are_ignored(self):
        adjacency = undirected_closure({0: {0, 1}, 1: set()})
        assert adjacency == {0: {1}, 1: {0}}

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            undirected_closure({0: {5}})


class TestTopologySnapshot:
    def test_degrees_and_edges(self):
        snapshot = make_snapshot({0: {1, 2}, 1: set(), 2: {1}})
        assert snapshot.degree(0) == 2
        assert snapshot.degree(1) == 2
        assert snapshot.edge_count() == 3
        assert snapshot.edges() == {(0, 1), (0, 2), (1, 2)}

    def test_maximum_and_average_degree(self):
        snapshot = make_snapshot({0: {1, 2, 3}, 1: set(), 2: set(), 3: set()})
        assert snapshot.maximum_degree() == 3
        assert snapshot.average_degree() == pytest.approx(6 / 4)

    def test_peers_without_selection_still_present(self):
        peers = {i: make_peer(i, (float(i), 0.0)) for i in range(3)}
        snapshot = TopologySnapshot.from_directed(peers, {0: {1}})
        assert snapshot.peer_count == 3
        assert snapshot.degree(2) == 0

    def test_connectivity(self):
        connected = make_snapshot({0: {1}, 1: {2}, 2: set()})
        disconnected = make_snapshot({0: {1}, 1: set(), 2: {3}, 3: set()})
        assert connected.is_connected()
        assert not disconnected.is_connected()

    def test_empty_topology_is_connected_and_degreeless(self):
        snapshot = TopologySnapshot.from_directed({}, {})
        assert snapshot.is_connected()
        assert snapshot.maximum_degree() == 0
        assert snapshot.average_degree() == 0.0

    def test_to_networkx_carries_attributes(self):
        peers = {
            0: make_peer(0, (1.0, 2.0)),
            1: make_peer(1, (3.0, 4.0)),
        }
        snapshot = TopologySnapshot.from_directed(peers, {0: {1}, 1: set()})
        graph = snapshot.to_networkx()
        assert graph.number_of_nodes() == 2
        assert graph.number_of_edges() == 1
        assert graph.nodes[0]["coordinates"] == (1.0, 2.0)
        assert graph.nodes[0]["lifetime"] == 1.0
        assert graph.nodes[1]["lifetime"] == 3.0
