"""The real-network model: distributions, loss, bandwidth and equivalence.

Three layers of guarantees:

* **Model unit behaviour** -- latency distributions respect their bounds,
  the loss draw drops the advertised fraction, bandwidth serialises a burst
  FIFO, and every stochastic draw comes from an independent per-directed-link
  seeded stream (RPL004: one link's traffic never perturbs another's draws).
* **Seeded regression** -- the default network (the degenerate model:
  constant latency, zero loss, no bandwidth cap) reproduces a pinned digest
  of a seeded run: message and byte counts per kind, final clock, processed
  events, and a settled topology equal to the analytic fixed point.
* **Loss tolerance** -- under i.i.d. loss the settled overlay still equals
  the full-knowledge analytic fixed point, and the dissemination probe
  reaches every alive peer (latencies then include the retransmission
  penalty).
"""

import dataclasses

import pytest

import numpy as np

from repro.geometry.rectangle import HyperRectangle, Interval
from repro.overlay.gossip import ExistenceAnnouncement
from repro.overlay.network import OverlayNetwork
from repro.overlay.peer import NetworkAddress, make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.simulation.engine import SimulationEngine
from repro.simulation.netmodel import (
    HEADER_BYTES,
    ConstantLatency,
    LinkModel,
    LognormalLatency,
    UniformLatency,
    _payload_bytes,
    estimate_message_bytes,
)
from repro.simulation.protocol import (
    ConstructionRequest,
    LinkNotice,
    ProbeRequest,
    ReliablePayload,
)
from repro.simulation.network import SimulatedNetwork
from repro.simulation.runner import run_dissemination_probe, run_gossip_overlay
from repro.workloads.peers import generate_peers, generate_peers_with_lifetimes


# ----------------------------------------------------------------------
# Latency distributions
# ----------------------------------------------------------------------
class TestLatencyDistributions:
    def test_constant_consumes_no_randomness(self):
        distribution = ConstantLatency(0.02)
        # No generator is needed at all -- the degenerate fast path relies
        # on this staying true.
        assert distribution.sample(None) == 0.02

    def test_uniform_respects_bounds(self):
        distribution = UniformLatency(0.005, 0.03)
        rng = np.random.default_rng(1)
        samples = [distribution.sample(rng) for _ in range(200)]
        assert all(0.005 <= s <= 0.03 for s in samples)
        assert len(set(samples)) > 100  # actually random, not constant

    def test_lognormal_median_is_where_it_says(self):
        distribution = LognormalLatency(0.02, 0.5)
        rng = np.random.default_rng(2)
        samples = sorted(distribution.sample(rng) for _ in range(2001))
        assert samples[1000] == pytest.approx(0.02, rel=0.15)
        assert all(s > 0 for s in samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.1)
        with pytest.raises(ValueError):
            UniformLatency(-0.1, 0.2)
        with pytest.raises(ValueError):
            UniformLatency(0.3, 0.2)
        with pytest.raises(ValueError):
            LognormalLatency(0.0, 0.5)
        with pytest.raises(ValueError):
            LognormalLatency(0.02, -1.0)

    def test_describe(self):
        assert "constant" in ConstantLatency(0.01).describe()
        assert "uniform" in UniformLatency(0.0, 0.1).describe()
        assert "lognormal" in LognormalLatency(0.02, 0.5).describe()


# ----------------------------------------------------------------------
# Byte estimator
# ----------------------------------------------------------------------
class TestByteEstimator:
    def test_headers_and_kind_always_charged(self):
        assert estimate_message_bytes("ping", None) == HEADER_BYTES + 4

    def test_scalars_strings_and_collections(self):
        assert estimate_message_bytes("x", 7) == HEADER_BYTES + 1 + 8
        assert estimate_message_bytes("x", "abc") == HEADER_BYTES + 1 + 3
        assert estimate_message_bytes("x", (1.0, 2.0)) == HEADER_BYTES + 1 + 16

    def test_dataclasses_are_walked_recursively(self):
        info = make_peer(3, (1.0, 2.0))
        size = estimate_message_bytes("announce", info)
        # id + 2 coordinates + host string + port, at least.
        assert size > HEADER_BYTES + len("announce") + 3 * 8

    def test_mappings_count_keys_and_values(self):
        # Regression: a dict used to fall through to the scalar fallback
        # and count 8 bytes no matter what it carried.
        assert estimate_message_bytes("x", {}) == HEADER_BYTES + 1
        assert estimate_message_bytes("x", {"ab": (1.0, 2.0)}) == HEADER_BYTES + 1 + 2 + 16
        nested = {"k": {"inner": "abcd"}}
        assert estimate_message_bytes("x", nested) == HEADER_BYTES + 1 + 1 + 5 + 4

    def test_estimator_recurses_into_every_protocol_payload_dataclass(self):
        # Every payload dataclass the protocol actually puts on the wire:
        # the estimate must equal the sum over its fields (no payload class
        # silently hitting the 8-byte scalar fallback), and must exceed one
        # scalar whenever the class carries more than one scalar's worth.
        payloads = [
            LinkNotice(life=1, seq=3, departed_at=4.5),
            ProbeRequest(session=1, issued_at=2.0),
            ConstructionRequest(
                session=1,
                zone=HyperRectangle([Interval.closed(0.0, 1.0), Interval.closed(0.0, 1.0)]),
            ),
            ExistenceAnnouncement(
                origin=1,
                coordinates=(0.5, 0.5),
                address=NetworkAddress(host="127.0.0.1", port=4000),
                issued_at=0.0,
                remaining_hops=3,
            ),
        ]
        payloads.append(ReliablePayload(msg_id=7, payload=payloads[0]))
        for payload in payloads:
            total = _payload_bytes(payload)
            field_sum = sum(
                _payload_bytes(getattr(payload, field.name))
                for field in dataclasses.fields(payload)
            )
            assert total == field_sum, type(payload).__name__
            assert total > 8, type(payload).__name__


# ----------------------------------------------------------------------
# The link model
# ----------------------------------------------------------------------
class TestLinkModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LinkModel(0.01, loss_rate=1.0)
        with pytest.raises(ValueError):
            LinkModel(0.01, loss_rate=-0.1)
        with pytest.raises(ValueError):
            LinkModel(0.01, bandwidth_bytes_per_second=0.0)

    def test_degenerate_detection(self):
        assert LinkModel(0.01).is_degenerate
        assert LinkModel(ConstantLatency(0.5)).is_degenerate
        assert not LinkModel(0.01, loss_rate=0.01).is_degenerate
        assert not LinkModel(UniformLatency(0.0, 0.1)).is_degenerate
        assert not LinkModel(0.01, bandwidth_bytes_per_second=1e6).is_degenerate

    def test_degenerate_delivery_is_exact_constant(self):
        model = LinkModel(0.25)
        assert model.delivery_time(1, 2, 1000, 3.0) == 3.25

    def test_loss_fraction_matches_the_rate(self):
        model = LinkModel(0.01, loss_rate=0.2, seed=5)
        outcomes = [model.delivery_time(0, 1, 100, 0.0) for _ in range(2000)]
        lost = sum(1 for outcome in outcomes if outcome is None)
        assert 0.15 < lost / len(outcomes) < 0.25

    def test_per_link_streams_are_independent(self):
        # Drawing heavily on link (0, 1) must not change what (2, 3) yields.
        quiet = LinkModel(UniformLatency(0.0, 1.0), seed=9)
        busy = LinkModel(UniformLatency(0.0, 1.0), seed=9)
        for _ in range(500):
            busy.delivery_time(0, 1, 100, 0.0)
        assert busy.delivery_time(2, 3, 100, 0.0) == quiet.delivery_time(2, 3, 100, 0.0)

    def test_streams_are_seed_deterministic(self):
        first = LinkModel(LognormalLatency(0.02, 0.5), loss_rate=0.1, seed=4)
        second = LinkModel(LognormalLatency(0.02, 0.5), loss_rate=0.1, seed=4)
        sequence = [first.delivery_time(1, 2, 64, 0.0) for _ in range(50)]
        assert sequence == [second.delivery_time(1, 2, 64, 0.0) for _ in range(50)]

    def test_bandwidth_serialises_a_burst_fifo(self):
        # 1000 bytes/s, zero propagation delay: three 500-byte messages sent
        # at t=0 drain at 0.5s spacing.
        model = LinkModel(0.0, bandwidth_bytes_per_second=1000.0, seed=0)
        times = [model.delivery_time(0, 1, 500, 0.0) for _ in range(3)]
        assert times == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(1.5)]
        # The queue belongs to the directed link: the reverse direction is idle.
        assert model.delivery_time(1, 0, 500, 0.0) == pytest.approx(0.5)

    def test_queue_drains_between_sends(self):
        model = LinkModel(0.0, bandwidth_bytes_per_second=1000.0, seed=0)
        assert model.delivery_time(0, 1, 500, 0.0) == pytest.approx(0.5)
        # Sent after the link went idle: no queueing delay.
        assert model.delivery_time(0, 1, 500, 10.0) == pytest.approx(10.5)

    def test_reset_rewinds_the_rng_streams(self):
        model = LinkModel(LognormalLatency(0.02, 0.5), loss_rate=0.1, seed=4)
        fresh = LinkModel(LognormalLatency(0.02, 0.5), loss_rate=0.1, seed=4)
        first = [model.delivery_time(1, 2, 64, 0.0) for _ in range(50)]
        model.reset()
        assert [model.delivery_time(1, 2, 64, 0.0) for _ in range(50)] == first
        assert first == [fresh.delivery_time(1, 2, 64, 0.0) for _ in range(50)]

    def test_reset_clears_bandwidth_frontiers(self):
        model = LinkModel(0.0, bandwidth_bytes_per_second=1000.0, seed=0)
        assert model.delivery_time(0, 1, 500, 0.0) == pytest.approx(0.5)
        assert model.delivery_time(0, 1, 500, 0.0) == pytest.approx(1.0)
        model.reset()
        # The absolute-time FIFO frontier is gone -- the link is not still
        # "busy until 1.0" from before the reset.
        assert model.delivery_time(0, 1, 500, 0.0) == pytest.approx(0.5)


class TestNetworkWithLinkModel:
    def test_lost_messages_are_counted_not_delivered(self):
        engine = SimulationEngine()
        network = SimulatedNetwork(engine, link_model=LinkModel(0.01, loss_rate=0.5, seed=3))
        received = []
        network.register(1, received.append)
        for _ in range(400):
            network.send(0, 1, "ping", None)
        engine.run()
        stats = network.stats
        assert stats.messages_sent == 400
        assert stats.messages_lost > 0
        assert stats.messages_lost + len(received) == 400
        assert stats.messages_delivered == len(received)

    def test_byte_accounting(self):
        engine = SimulationEngine()
        network = SimulatedNetwork(engine, link_model=LinkModel(0.01))
        network.register(1, lambda message: None)
        network.send(0, 1, "ping", None)
        engine.run()
        expected = estimate_message_bytes("ping", None)
        assert network.stats.bytes_sent == expected
        assert network.stats.bytes_delivered == expected
        assert network.stats.bytes_of("ping") == expected

    def test_model_reuse_across_networks_is_rejected(self):
        model = LinkModel(0.01, loss_rate=0.1, seed=3)
        SimulatedNetwork(SimulationEngine(), link_model=model)
        with pytest.raises(ValueError, match="already attached"):
            SimulatedNetwork(SimulationEngine(), link_model=model)
        model.reset()
        SimulatedNetwork(SimulationEngine(), link_model=model)

    def test_reset_model_reruns_byte_identically(self):
        # Regression: the per-link RNG positions and absolute-time
        # busy_until frontiers used to survive silently into a second run,
        # so two "identical" runs sharing one model diverged.
        peers = generate_peers_with_lifetimes(10, 2, seed=6)
        model = LinkModel(
            UniformLatency(0.005, 0.02),
            loss_rate=0.05,
            bandwidth_bytes_per_second=50_000.0,
            seed=6,
        )
        first = run_gossip_overlay(
            peers, EmptyRectangleSelection(), network=model, settle_time=20.0, seed=6
        )
        model.reset()
        second = run_gossip_overlay(
            peers, EmptyRectangleSelection(), network=model, settle_time=20.0, seed=6
        )
        assert second.snapshot().edges() == first.snapshot().edges()
        assert second.overlay_stats.messages_sent == first.overlay_stats.messages_sent
        assert second.overlay_stats.by_kind == first.overlay_stats.by_kind
        assert second.engine.now == first.engine.now


# ----------------------------------------------------------------------
# Seeded runs
# ----------------------------------------------------------------------
class TestSeededRuns:
    def test_default_network_run_reproduces_its_pinned_digest(self):
        """18 peers, seed 11, settle 25 s on the default network.  The digest
        was recorded on the scalar constant-latency network the link model
        replaced; the default model replays its message history exactly, not
        merely its fixed point."""
        peers = generate_peers_with_lifetimes(18, 2, seed=11)
        run = run_gossip_overlay(peers, EmptyRectangleSelection(), settle_time=25.0, seed=11)
        stats = run.overlay_stats
        assert (stats.messages_sent, stats.bytes_sent) == (32_933, 3_025_060)
        assert stats.by_kind == {
            "ack": 178, "announce": 32_577, "link-close": 27, "link-open": 151
        }
        assert (run.engine.now, run.engine.processed_events) == (59.0, 34_403)
        equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert run.snapshot().edges() == equilibrium.snapshot().edges()
        assert len(run.snapshot().edges()) == 62

    def test_lossy_overlay_still_reaches_the_analytic_fixed_point(self):
        peers = generate_peers(22, 2, seed=11)
        simulated = run_gossip_overlay(
            peers,
            EmptyRectangleSelection(),
            network=LinkModel(0.01, loss_rate=0.05, seed=7),
            settle_time=60.0,
            seed=1,
        )
        equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert simulated.snapshot().edges() == equilibrium.snapshot().edges()
        # Loss actually happened; the protocol absorbed it.
        assert simulated.overlay_stats.messages_lost > 0


# ----------------------------------------------------------------------
# The dissemination probe
# ----------------------------------------------------------------------
class TestDisseminationProbe:
    def test_probe_reaches_every_peer_on_a_lossless_overlay(self):
        peers = generate_peers_with_lifetimes(12, 2, seed=3)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=25.0, seed=3
        )
        probe = run_dissemination_probe(simulated)
        assert probe.unreached_peers == set()
        assert set(probe.latencies) == set(simulated.processes)
        assert probe.latencies[probe.root] == 0.0
        others = {p: v for p, v in probe.latencies.items() if p != probe.root}
        assert all(v > 0 for v in others.values())
        assert probe.statistics.count == len(peers)
        assert probe.statistics.p99 >= probe.statistics.p50

    def test_probe_root_defaults_to_the_maintained_tree_root(self):
        peers = generate_peers_with_lifetimes(10, 2, seed=5)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=25.0, seed=5
        )
        probe = run_dissemination_probe(simulated)
        # The default root is the longest-lived peer without an alive parent:
        # its preferred-neighbour slot is empty.
        assert simulated.processes[probe.root].preferred_neighbour is None

    def test_probe_absorbs_loss_through_retransmission(self):
        peers = generate_peers_with_lifetimes(14, 2, seed=8)
        simulated = run_gossip_overlay(
            peers,
            EmptyRectangleSelection(),
            network=LinkModel(0.01, loss_rate=0.1, seed=8),
            settle_time=40.0,
            seed=8,
        )
        probe = run_dissemination_probe(simulated, extra_time=40.0)
        assert probe.unreached_peers == set()
        # The probe traffic is counted separately (stats were reset).
        assert probe.network_stats.count("probe") > 0

    def test_explicit_unknown_root_rejected(self):
        peers = generate_peers_with_lifetimes(6, 2, seed=2)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=20.0, seed=2
        )
        with pytest.raises(KeyError):
            run_dissemination_probe(simulated, root=999)
