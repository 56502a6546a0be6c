"""Property-based tests (hypothesis) for the two multicast constructions.

These are the paper's headline claims, checked on randomly generated
populations rather than fixed fixtures:

* Section 2: the construction reaches every peer exactly once with ``N - 1``
  messages, per-peer fanout is bounded by ``2^D``, and the responsibility
  zones handed to the children of any peer are disjoint, exclude the peer and
  lie inside its own zone.
* Section 3: the preferred-neighbour links always form a single tree rooted
  at the longest-lived peer with lifetimes decreasing towards the leaves, and
  replaying departures in lifetime order never disconnects the tree.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.multicast.dissemination import simulate_departures
from repro.multicast.space_partition import SpacePartitionTreeBuilder
from repro.multicast.stability import StabilityTreeBuilder
from repro.multicast.zones import zones_are_disjoint
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.workloads.peers import generate_peers, generate_peers_with_lifetimes

population = st.tuples(
    st.integers(min_value=2, max_value=40),   # peer count
    st.integers(min_value=2, max_value=4),    # dimension
    st.integers(min_value=0, max_value=10_000),  # seed
)

stability_population = st.tuples(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),    # K
    st.integers(min_value=0, max_value=10_000),
)

relaxed = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(population)
@relaxed
def test_space_partition_reaches_everyone_with_n_minus_1_messages(params):
    count, dimension, seed = params
    peers = generate_peers(count, dimension, seed=seed)
    topology = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection()).snapshot()
    root = peers[seed % count].peer_id
    result = SpacePartitionTreeBuilder().build(topology, root)
    assert result.messages_sent == count - 1
    assert result.duplicate_deliveries == 0
    assert result.delivered_everywhere
    assert result.reached_count == count


@given(population)
@relaxed
def test_space_partition_fanout_and_zone_invariants(params):
    count, dimension, seed = params
    peers = generate_peers(count, dimension, seed=seed)
    topology = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection()).snapshot()
    root = peers[0].peer_id
    result = SpacePartitionTreeBuilder().build(topology, root)
    bound = 2**dimension
    tree = result.tree
    for node in tree.nodes():
        children = tree.children(node)
        assert len(children) <= bound
        child_zones = [result.zones[child] for child in children]
        assert zones_are_disjoint(child_zones)
        node_coordinates = topology.peers[node].coordinates
        for child, zone in zip(children, child_zones):
            assert zone.contains(topology.peers[child].coordinates)
            assert not zone.contains(node_coordinates)
            assert zone.intersect(result.zones[node]) == zone


@given(stability_population)
@relaxed
def test_stability_tree_invariants(params):
    count, dimension, k, seed = params
    peers = generate_peers_with_lifetimes(count, dimension, seed=seed)
    topology = OverlayNetwork.build_equilibrium(
        peers, OrthogonalHyperplanesSelection(k=k)
    ).snapshot()
    forest = StabilityTreeBuilder().build(topology)
    assert forest.is_single_tree()
    assert forest.root_has_largest_lifetime()
    assert forest.parents_outlive_children()

    tree = forest.to_multicast_tree()
    lifetimes = {pid: info.lifetime for pid, info in topology.peers.items()}
    departure_order = sorted(lifetimes, key=lifetimes.get)
    report = simulate_departures(tree, departure_order)
    assert report.is_stable


@given(stability_population)
@relaxed
def test_stability_tree_degree_is_bounded_by_overlay_degree(params):
    """A peer's tree degree cannot exceed its overlay degree plus one."""
    count, dimension, k, seed = params
    peers = generate_peers_with_lifetimes(count, dimension, seed=seed)
    topology = OverlayNetwork.build_equilibrium(
        peers, OrthogonalHyperplanesSelection(k=k)
    ).snapshot()
    tree = StabilityTreeBuilder().build(topology).to_multicast_tree()
    for node in tree.nodes():
        assert tree.degree(node) <= topology.degree(node) + 1
