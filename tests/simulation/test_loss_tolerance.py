"""Reordering and duplicate-delivery edge cases of the loss-tolerant protocol.

A real network reorders and duplicates.  The protocol's defences:

* link notices carry ``(life, seq)`` stamps and receivers apply them in
  order, so a ``link-open`` overtaken by its ``link-close`` cannot
  resurrect the link, and a departure notice retransmitted from a peer's
  *previous* life cannot evict the links of its rejoined life;
* reliable messages travel in :class:`ReliablePayload` envelopes -- the
  receiver acks every copy (acks may be lost too) but processes only the
  first, so a retransmitted construction request is never recorded twice;
* a leave-then-rejoin under loss settles with the rejoined peer woven back
  in, even while the old life's blind departure retransmissions are still
  in flight.
"""

from repro.multicast.zones import initial_zone
from repro.overlay.peer import make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.simulation.engine import SimulationEngine
from repro.simulation.netmodel import LinkModel
from repro.simulation.network import SimulatedNetwork
from repro.simulation.protocol import (
    ACK,
    CONSTRUCT,
    LINK_CLOSE,
    LINK_OPEN,
    ConstructionRequest,
    GossipConfig,
    LinkNotice,
    PeerProcess,
    ReliablePayload,
    TreeRecorder,
)
from repro.simulation.runner import run_gossip_overlay
from repro.workloads.peers import generate_peers_with_lifetimes

#: A sender id that never corresponds to a registered process: raw stamped
#: sends from it exercise the receiver-side logic in isolation.
GHOST = 99


def _lone_process():
    """One joined peer on an otherwise empty, zero-latency network."""
    engine = SimulationEngine()
    network = SimulatedNetwork(engine, link_model=LinkModel(0.0))
    process = PeerProcess(
        make_peer(1, (5.0, 5.0)),
        engine=engine,
        network=network,
        selection=EmptyRectangleSelection(),
        config=GossipConfig(),
    )
    process.join([])
    return engine, network, process


class TestNoticeOrdering:
    def test_open_overtaken_by_its_close_cannot_resurrect_the_link(self):
        engine, network, process = _lone_process()
        # The close (seq=2) overtakes the open (seq=1) in flight.
        network.send(GHOST, 1, LINK_CLOSE, LinkNotice(life=1, seq=2))
        engine.run(until=engine.now + 1.0)
        network.send(GHOST, 1, LINK_OPEN, LinkNotice(life=1, seq=1))
        engine.run(until=engine.now + 1.0)
        assert GHOST not in process.link_targets

    def test_in_order_notices_apply_normally(self):
        engine, network, process = _lone_process()
        network.send(GHOST, 1, LINK_OPEN, LinkNotice(life=1, seq=1))
        engine.run(until=engine.now + 1.0)
        assert GHOST in process.link_targets
        network.send(GHOST, 1, LINK_CLOSE, LinkNotice(life=1, seq=2))
        engine.run(until=engine.now + 1.0)
        assert GHOST not in process.link_targets
        # A later re-open (higher seq) is fresh again.
        network.send(GHOST, 1, LINK_OPEN, LinkNotice(life=1, seq=3))
        engine.run(until=engine.now + 1.0)
        assert GHOST in process.link_targets

    def test_duplicate_notice_is_idempotent(self):
        engine, network, process = _lone_process()
        for _ in range(3):
            network.send(GHOST, 1, LINK_OPEN, LinkNotice(life=1, seq=1))
        engine.run(until=engine.now + 1.0)
        assert GHOST in process.link_targets

    def test_old_life_departure_cannot_evict_the_new_lifes_links(self):
        engine, network, process = _lone_process()
        # The ghost rejoined: its new life (life=2) opened a link.
        network.send(GHOST, 1, LINK_OPEN, LinkNotice(life=2, seq=1))
        engine.run(until=engine.now + 1.0)
        assert GHOST in process.link_targets
        # A blind departure retransmission from the ghost's previous life
        # arrives late.  Its stamp (1, 7) is behind (2, 1): discarded.
        network.send(
            GHOST, 1, LINK_CLOSE, LinkNotice(life=1, seq=7, departed_at=0.25)
        )
        engine.run(until=engine.now + 1.0)
        assert GHOST in process.link_targets

    def test_new_life_restarts_above_the_old_lifes_stamps(self):
        engine, network, process = _lone_process()
        network.send(GHOST, 1, LINK_CLOSE, LinkNotice(life=1, seq=9, departed_at=0.1))
        engine.run(until=engine.now + 1.0)
        # The next life's very first notice (life=2, seq=1) outranks any
        # stamp of life 1, however many retransmissions it reached.
        network.send(GHOST, 1, LINK_OPEN, LinkNotice(life=2, seq=1))
        engine.run(until=engine.now + 1.0)
        assert GHOST in process.link_targets


class TestDuplicateReliableDelivery:
    def test_retransmitted_construct_is_recorded_once_but_acked_each_time(self):
        engine, network, process = _lone_process()
        recorder = TreeRecorder(GHOST)
        process.attach_recorder(recorder)
        request = ConstructionRequest(session=recorder.session, zone=initial_zone(2))
        envelope = ReliablePayload(msg_id=5, payload=request)
        for _ in range(3):
            network.send(GHOST, 1, CONSTRUCT, envelope)
        engine.run(until=engine.now + 1.0)
        # Processed once: one recorded delivery, no duplicate bookkeeping
        # (the reliable layer suppressed the copies before the recorder).
        assert recorder.reached_peers() == {GHOST, 1}  # root + the one delivery
        assert recorder.duplicate_deliveries == 0
        # But every copy was acked -- the sender's first ack may be lost.
        assert network.stats.count(ACK) == 3

    def test_distinct_msg_ids_are_distinct_messages(self):
        engine, network, process = _lone_process()
        recorder = TreeRecorder(GHOST)
        process.attach_recorder(recorder)
        request = ConstructionRequest(session=recorder.session, zone=initial_zone(2))
        network.send(GHOST, 1, CONSTRUCT, ReliablePayload(msg_id=1, payload=request))
        network.send(GHOST, 1, CONSTRUCT, ReliablePayload(msg_id=2, payload=request))
        engine.run(until=engine.now + 1.0)
        # The second is a genuine (if redundant) delivery: the recorder sees
        # it and counts the duplicate, exactly as in the lossless protocol.
        assert recorder.duplicate_deliveries == 1
        assert network.stats.count(ACK) == 2


class TestRejoinUnderLoss:
    def test_leave_and_rejoin_settles_with_the_peer_woven_back_in(self):
        peers = generate_peers_with_lifetimes(10, 2, seed=21)
        simulated = run_gossip_overlay(
            peers,
            EmptyRectangleSelection(),
            network=LinkModel(0.01, loss_rate=0.1, seed=21),
            settle_time=25.0,
            seed=21,
        )
        victim = simulated.processes[peers[4].peer_id]
        victim.leave()
        # Rejoin while the old life's blind departure retransmissions are
        # still scheduled (backoff spans several seconds).
        simulated.engine.run(until=simulated.engine.now + 0.5)
        victim.join([peers[0]])
        simulated.engine.run(until=simulated.engine.now + 30.0)

        assert victim.is_alive
        assert victim.neighbours
        # The rejoined life's links survived the old life's late closes:
        # somebody links back to the victim, and nobody still holds a
        # departure tombstone that keeps it evicted.
        assert any(
            victim.peer_id in process.link_targets
            for peer_id, process in simulated.processes.items()
            if peer_id != victim.peer_id and process.is_alive
        )
        snapshot = simulated.alive_snapshot()
        assert victim.peer_id in snapshot.peers
        assert snapshot.is_connected()

    def test_departure_closes_are_not_acked(self):
        # Departure notices are blind repeats: the sender unregisters, so
        # receivers must not ack them (the acks would be undeliverable and
        # would inflate the dropped count forever).
        peers = generate_peers_with_lifetimes(8, 2, seed=5)
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), settle_time=20.0, seed=5
        )
        acks_before = simulated.network.stats.count(ACK)
        simulated.processes[peers[3].peer_id].leave()
        simulated.engine.run(until=simulated.engine.now + 0.1)
        assert simulated.network.stats.count(ACK) == acks_before
