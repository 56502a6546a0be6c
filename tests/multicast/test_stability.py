"""Unit and integration tests for the Section 3 stability construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast.stability import (
    PreferredNeighbourForest,
    StabilityTreeBuilder,
    build_stability_tree,
    choose_preferred_parent,
)
from repro.multicast.tree import TreeValidationError
from repro.overlay.network import OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.overlay.topology import TopologySnapshot
from repro.workloads.peers import generate_peers_with_lifetimes


def hand_topology():
    """Four peers on a path, lifetimes 10 < 20 < 30 < 40."""
    peers = {
        0: make_peer(0, (10.0, 0.0)),
        1: make_peer(1, (20.0, 1.0)),
        2: make_peer(2, (30.0, 2.0)),
        3: make_peer(3, (40.0, 3.0)),
    }
    directed = {0: {1}, 1: {2}, 2: {3}, 3: set()}
    return TopologySnapshot.from_directed(peers, directed)


class TestPeerLifetime:
    def test_the_builder_reads_the_first_coordinate(self):
        forest = StabilityTreeBuilder().build(hand_topology())
        assert forest.lifetimes == {0: 10.0, 1: 20.0, 2: 30.0, 3: 40.0}


@st.composite
def _rule_cases(draw):
    """A peer, its links and lifetimes drawn from a tiny pool, so links that
    tie each other, links that tie the peer and empty links are all common."""
    links = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=8, unique=True))
    pool = st.sampled_from([1.0, 2.0, 3.0, 4.0])
    lifetimes = {peer: draw(pool) for peer in [0, *links]}
    return links, lifetimes


@settings(max_examples=300, deadline=None)
@given(case=_rule_cases())
def test_choose_preferred_parent_is_its_definition(case):
    links, lifetimes = case
    T = lifetimes
    definition = max((n for n in links if T[n] > T[0]), key=lambda n: (T[n], -n), default=None)
    assert choose_preferred_parent(0, links, lifetimes) == definition


class TestHandBuiltTopology:
    def test_chain_forms_a_tree_ordered_by_lifetime(self):
        forest = StabilityTreeBuilder().build(hand_topology())
        assert forest.preferred == {0: 1, 1: 2, 2: 3, 3: None}
        assert forest.is_single_tree()
        assert forest.root_has_largest_lifetime()
        assert forest.parents_outlive_children()
        assert forest.lifetime_violations() == []
        tree = forest.to_multicast_tree()
        assert tree.root == 3
        assert tree.height() == 3

    def test_a_link_counts_whichever_end_selected_it(self):
        """Peer 0 selects nobody; the longer-lived peers that selected it
        are its links all the same."""
        peers = {
            0: make_peer(0, (10.0, 0.0)),
            1: make_peer(1, (20.0, 1.0)),
            2: make_peer(2, (30.0, 2.0)),
        }
        topology = TopologySnapshot.from_directed(peers, {0: set(), 1: {0, 2}, 2: {0}})
        assert StabilityTreeBuilder().build(topology).preferred == {0: 2, 1: 2, 2: None}

    def test_equal_lifetimes_fall_to_the_smaller_id(self):
        lifetimes = {0: 1.0, 5: 3.0, 7: 3.0}
        assert choose_preferred_parent(0, [7, 5], lifetimes) == 5

    def test_a_link_as_old_as_the_peer_is_not_a_parent(self):
        assert choose_preferred_parent(0, [3, 4], {0: 2.0, 3: 2.0, 4: 1.0}) is None

    def test_no_links_no_parent(self):
        assert choose_preferred_parent(0, [], {0: 1.0}) is None

    def test_duplicate_lifetimes_rejected(self):
        peers = {
            0: make_peer(0, (10.0, 0.0)),
            1: make_peer(1, (10.0, 1.0)),
        }
        topology = TopologySnapshot.from_directed(peers, {0: {1}, 1: set()})
        with pytest.raises(ValueError, match="distinct"):
            StabilityTreeBuilder().build(topology)

    def test_disconnected_lifetime_order_gives_a_forest(self):
        """Two isolated components produce two roots, not a single tree."""
        peers = {
            0: make_peer(0, (10.0, 0.0)),
            1: make_peer(1, (20.0, 1.0)),
            2: make_peer(2, (30.0, 2.0)),
            3: make_peer(3, (40.0, 3.0)),
        }
        directed = {0: {1}, 1: set(), 2: {3}, 3: set()}
        topology = TopologySnapshot.from_directed(peers, directed)
        forest = StabilityTreeBuilder().build(topology)
        assert forest.roots() == [1, 3]
        assert not forest.is_single_tree()
        with pytest.raises(TreeValidationError):
            forest.to_multicast_tree()
        # The longest-lived peer is still a root.
        assert forest.root_has_largest_lifetime()


class TestOnOrthogonalOverlays:
    @pytest.mark.parametrize("dimension", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_paper_invariants_hold(self, dimension, k):
        peers = generate_peers_with_lifetimes(60, dimension, seed=dimension * 10 + k)
        topology = OverlayNetwork.build_equilibrium(
            peers, OrthogonalHyperplanesSelection(k=k)
        ).snapshot()
        forest = StabilityTreeBuilder().build(topology)
        assert forest.is_single_tree()
        assert forest.root_has_largest_lifetime()
        assert forest.parents_outlive_children()
        tree = forest.to_multicast_tree()
        lifetimes = {pid: info.lifetime for pid, info in topology.peers.items()}
        root = max(lifetimes, key=lifetimes.get)
        assert tree.root == root
        for node in tree.nodes():
            parent = tree.parent(node)
            if parent is not None:
                assert lifetimes[parent] > lifetimes[node]

    def test_convenience_wrapper(self, lifetime_topology):
        tree = build_stability_tree(lifetime_topology)
        assert tree.size == lifetime_topology.peer_count

    def test_forest_peer_count(self, lifetime_topology):
        forest = StabilityTreeBuilder().build(lifetime_topology)
        assert forest.peer_count == lifetime_topology.peer_count


class TestEmptyForest:
    def test_empty_forest_is_trivially_valid(self):
        forest = PreferredNeighbourForest(preferred={}, lifetimes={})
        assert forest.is_single_tree()
        assert forest.root_has_largest_lifetime()
        assert forest.parents_outlive_children()
        assert forest.roots() == []
