"""Unit tests for the simulated message network."""

import pytest

from repro.simulation.engine import SimulationEngine
from repro.simulation.netmodel import LinkModel
from repro.simulation.network import SimulatedNetwork


@pytest.fixture()
def engine():
    return SimulationEngine()


class TestDelivery:
    def test_message_is_delivered_after_latency(self, engine):
        network = SimulatedNetwork(engine, link_model=LinkModel(0.5))
        received = []
        network.register(1, lambda msg: received.append((engine.now, msg.payload)))
        network.send(0, 1, "ping", "hello")
        engine.run()
        assert received == [(0.5, "hello")]

    def test_message_metadata(self, engine):
        network = SimulatedNetwork(engine, link_model=LinkModel(0.0))
        captured = []
        network.register(2, captured.append)
        network.send(7, 2, "construct", {"zone": None})
        engine.run()
        message = captured[0]
        assert message.sender == 7
        assert message.recipient == 2
        assert message.kind == "construct"
        assert message.sent_at == 0.0

    def test_negative_constant_latency_rejected(self, engine):
        with pytest.raises(ValueError):
            SimulatedNetwork(engine, link_model=LinkModel(-1.0))


class TestRegistration:
    def test_duplicate_registration_rejected(self, engine):
        network = SimulatedNetwork(engine)
        network.register(1, lambda msg: None)
        with pytest.raises(ValueError):
            network.register(1, lambda msg: None)

    def test_messages_to_unregistered_peers_are_dropped(self, engine):
        network = SimulatedNetwork(engine, link_model=LinkModel(0.0))
        network.send(0, 99, "ping", None)
        engine.run()
        assert network.stats.messages_sent == 1
        assert network.stats.messages_dropped == 1
        assert network.stats.messages_delivered == 0

    def test_unregister_stops_delivery(self, engine):
        network = SimulatedNetwork(engine, link_model=LinkModel(1.0))
        received = []
        network.register(1, lambda msg: received.append(msg))
        network.send(0, 1, "ping", None)
        network.unregister(1)
        engine.run()
        assert received == []
        assert network.stats.messages_dropped == 1
        assert not network.is_registered(1)


class TestCounters:
    def test_per_kind_counters(self, engine):
        network = SimulatedNetwork(engine, link_model=LinkModel(0.0))
        network.register(1, lambda msg: None)
        for _ in range(3):
            network.send(0, 1, "announce", None)
        network.send(0, 1, "construct", None)
        engine.run()
        assert network.stats.count("announce") == 3
        assert network.stats.count("construct") == 1
        assert network.stats.count("unknown") == 0
        assert network.stats.messages_sent == 4
        assert network.stats.messages_delivered == 4

    def test_reset_stats(self, engine):
        network = SimulatedNetwork(engine, link_model=LinkModel(0.0))
        network.register(1, lambda msg: None)
        network.send(0, 1, "announce", None)
        engine.run()
        network.reset_stats()
        assert network.stats.messages_sent == 0
        assert network.stats.by_kind == {}
