"""Discrete-event simulation of the distributed protocol.

The paper evaluates its algorithms with a multi-threaded Python simulation
framework.  This package is the reproduction's equivalent substrate: a
deterministic discrete-event engine (:mod:`repro.simulation.engine`), an
in-memory message network with latencies and per-kind counters
(:mod:`repro.simulation.network`), a real network model with latency
distributions, loss and bandwidth queueing
(:mod:`repro.simulation.netmodel`), peer processes that run the join /
gossip / neighbour-selection / multicast-construction protocol message by
message (:mod:`repro.simulation.protocol`) and high-level runners that
assemble whole experiments (:mod:`repro.simulation.runner`).

Determinism is the deliberate difference from the paper's threads: with a
seeded event queue every run is exactly reproducible, while the protocol code
paths exercised (messages sent, handlers run) are the same.
"""

from repro.simulation.engine import Event, SimulationEngine
from repro.simulation.netmodel import (
    ConstantLatency,
    LinkModel,
    LognormalLatency,
    UniformLatency,
    estimate_message_bytes,
)
from repro.simulation.network import Message, NetworkStats, SimulatedNetwork
from repro.simulation.protocol import GossipConfig, PeerProcess, TreeRecorder
from repro.simulation.runner import (
    DisseminationProbeResult,
    GossipSimulationResult,
    MulticastSimulationResult,
    run_dissemination_probe,
    run_gossip_overlay,
    run_multicast_over_gossip_overlay,
)

__all__ = [
    "Event",
    "SimulationEngine",
    "Message",
    "NetworkStats",
    "SimulatedNetwork",
    "ConstantLatency",
    "UniformLatency",
    "LognormalLatency",
    "LinkModel",
    "estimate_message_bytes",
    "GossipConfig",
    "PeerProcess",
    "TreeRecorder",
    "DisseminationProbeResult",
    "GossipSimulationResult",
    "MulticastSimulationResult",
    "run_dissemination_probe",
    "run_gossip_overlay",
    "run_multicast_over_gossip_overlay",
]
