"""Integration tests: the message-level protocol against the offline builders.

The figure benchmarks use the offline (full-knowledge equilibrium) builders;
these tests are the evidence that the message-level protocol -- joins,
gossip, reselection, construction requests -- produces the same topologies
and trees on small instances, which is what justifies using the offline
builders in their place.
"""


import pytest

from repro.multicast.space_partition import SpacePartitionTreeBuilder
from repro.multicast.stability import PreferredNeighbourForest, StabilityTreeBuilder
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.simulation.protocol import CONSTRUCT, GossipConfig, PeerProcess, TreeRecorder
from repro.simulation.runner import (
    run_dissemination_probe,
    run_gossip_overlay,
    run_multicast_over_gossip_overlay,
)
from repro.workloads.peers import generate_peers, generate_peers_with_lifetimes


class TestGossipConfig:
    def test_defaults_are_valid(self):
        config = GossipConfig()
        assert config.broadcast_radius >= 2
        assert config.tmax > config.gossip_period

    def test_broadcast_radius_below_two_rejected(self):
        with pytest.raises(ValueError):
            GossipConfig(broadcast_radius=1)

    def test_tmax_must_exceed_gossip_period(self):
        with pytest.raises(ValueError):
            GossipConfig(gossip_period=5.0, tmax=5.0)

    def test_periods_must_be_positive(self):
        with pytest.raises(ValueError):
            GossipConfig(gossip_period=0.0)


class TestTreeRecorder:
    def test_duplicate_deliveries_are_counted_not_recorded(self):
        recorder = TreeRecorder(root=0)
        assert recorder.record_delivery(1, 0) is True
        assert recorder.record_delivery(1, 2) is False
        assert recorder.duplicate_deliveries == 1
        assert recorder.to_tree().parent(1) == 0
        assert recorder.reached_peers() == {0, 1}


class TestGossipOverlayConvergence:
    def test_converges_to_the_full_knowledge_equilibrium(self):
        peers = generate_peers(22, 2, seed=11)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=40.0, seed=1
        )
        equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert simulated.snapshot().edges() == equilibrium.snapshot().edges()

    def test_orthogonal_selection_also_converges(self):
        peers = generate_peers_with_lifetimes(18, 2, seed=5)
        simulated = run_gossip_overlay(
            peers, OrthogonalHyperplanesSelection(k=1), settle_time=40.0, seed=2
        )
        snapshot = simulated.snapshot()
        assert snapshot.is_connected()
        assert snapshot.peer_count == 18

    def test_gossip_traffic_is_accounted(self):
        peers = generate_peers(10, 2, seed=3)
        simulated = run_gossip_overlay(peers, EmptyRectangleSelection(), settle_time=10.0)
        assert simulated.overlay_stats.count("announce") > 0
        assert simulated.overlay_stats.messages_sent >= simulated.overlay_stats.count("announce")

    def test_preferred_links_form_the_papers_stability_tree(self):
        """``PAPER_CLAIMS["stability_tree"]`` on the protocol's own links: one
        tree, rooted at the largest T(P), T decreasing towards the leaves --
        and the links are the snapshot builder's over the settled overlay."""
        peers = generate_peers_with_lifetimes(15, 2, seed=9)
        simulated = run_gossip_overlay(
            peers, OrthogonalHyperplanesSelection(k=2), settle_time=40.0, seed=4
        )
        forest = PreferredNeighbourForest(
            preferred=simulated.preferred_neighbours(),
            lifetimes={p.peer_id: p.lifetime for p in peers},
        )
        assert forest.is_single_tree()
        assert forest.root_has_largest_lifetime()
        assert forest.parents_outlive_children()
        assert forest.preferred == StabilityTreeBuilder().build(simulated.snapshot()).preferred

    def test_the_live_monitor_and_the_probe_root_follow_the_rule(self):
        """The protocol, the live monitor and the probe's root pick read
        lifetimes as the snapshot builder does."""
        peers = generate_peers(12, 2, seed=3)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=25.0, seed=3, maintain_tree=True
        )
        expected = StabilityTreeBuilder().build(simulated.snapshot()).preferred
        assert simulated.preferred_neighbours() == expected
        assert dict(simulated.tree_monitor.forest().preferred) == expected
        longest_lived = max(peers, key=lambda p: p.lifetime).peer_id
        assert run_dissemination_probe(simulated).root == longest_lived

    def test_invalid_runner_parameters(self):
        peers = generate_peers(4, 2, seed=0)
        with pytest.raises(ValueError):
            run_gossip_overlay(peers, EmptyRectangleSelection(), join_interval=0.0)


class TestMessageLevelConstruction:
    def test_matches_the_offline_builder_and_sends_n_minus_1_messages(self):
        peers = generate_peers(20, 2, seed=21)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=40.0, seed=3
        )
        root = peers[0].peer_id
        outcome = run_multicast_over_gossip_overlay(simulated, root)

        assert outcome.construction_messages == len(peers) - 1
        assert outcome.result.duplicate_deliveries == 0
        assert outcome.result.delivered_everywhere
        assert outcome.network_stats.count(CONSTRUCT) == len(peers) - 1

        offline = SpacePartitionTreeBuilder().build(simulated.snapshot(), root)
        assert outcome.result.tree.parent_map() == offline.tree.parent_map()

    def test_unknown_root_rejected(self):
        peers = generate_peers(6, 2, seed=2)
        simulated = run_gossip_overlay(peers, EmptyRectangleSelection(), settle_time=10.0)
        with pytest.raises(KeyError):
            run_multicast_over_gossip_overlay(simulated, root=404)

    def test_back_to_back_sessions_do_not_share_state(self):
        peers = generate_peers(16, 2, seed=13)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=40.0, seed=5
        )
        first = run_multicast_over_gossip_overlay(simulated, peers[0].peer_id)
        second = run_multicast_over_gossip_overlay(simulated, peers[1].peer_id)
        assert first.result.tree.root == peers[0].peer_id
        assert second.result.tree.root == peers[1].peer_id
        assert second.result.delivered_everywhere
        assert second.construction_messages == len(peers) - 1

    def test_in_flight_messages_from_a_previous_session_are_ignored(self):
        peers = generate_peers(16, 2, seed=17)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=40.0, seed=6
        )
        # Cut the first session short so its construction messages are still
        # in flight when the second session starts.
        truncated = run_multicast_over_gossip_overlay(
            simulated, peers[0].peer_id, extra_time=0.0
        )
        assert not truncated.result.delivered_everywhere
        second = run_multicast_over_gossip_overlay(simulated, peers[1].peer_id)
        # Without session isolation the stale messages would be recorded into
        # the second recorder as spurious parents/duplicates.
        assert second.result.tree.root == peers[1].peer_id
        assert second.result.delivered_everywhere
        assert second.result.duplicate_deliveries == 0


class TestPeerProcessLifecycle:
    def test_join_twice_rejected(self):
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.network import SimulatedNetwork

        engine = SimulationEngine()
        network = SimulatedNetwork(engine)
        peers = generate_peers(2, 2, seed=1)
        process = PeerProcess(
            peers[0],
            engine=engine,
            network=network,
            selection=EmptyRectangleSelection(),
            config=GossipConfig(),
        )
        process.join([peers[1]])
        with pytest.raises(RuntimeError):
            process.join([])

    def test_departed_peer_stops_participating(self):
        peers = generate_peers(8, 2, seed=7)
        simulated = run_gossip_overlay(peers, EmptyRectangleSelection(), settle_time=20.0)
        victim = peers[3].peer_id
        simulated.processes[victim].leave()
        assert not simulated.processes[victim].is_alive
        assert not simulated.network.is_registered(victim)

    def test_construction_before_joining_rejected(self):
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.network import SimulatedNetwork

        engine = SimulationEngine()
        network = SimulatedNetwork(engine)
        peers = generate_peers(1, 2, seed=1)
        process = PeerProcess(
            peers[0],
            engine=engine,
            network=network,
            selection=EmptyRectangleSelection(),
            config=GossipConfig(),
        )
        with pytest.raises(RuntimeError):
            process.initiate_construction(TreeRecorder(peers[0].peer_id))
