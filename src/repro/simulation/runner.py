"""High-level simulation runners.

These functions assemble engines, networks and peer processes into the two
experiment shapes of the paper:

* :func:`run_gossip_overlay` -- peers join one at a time, gossip their
  existence ``BR`` hops away, and keep reselecting neighbours until the
  topology settles; the paper's overlay-construction procedure, with real
  messages.
* :func:`run_multicast_over_gossip_overlay` -- on top of a settled overlay,
  one peer initiates a Section 2 multicast tree construction; the number of
  ``construct`` messages observed on the network is the quantity behind the
  paper's ``N - 1`` claim.

:func:`run_gossip_overlay` optionally replays a *churn schedule* -- leave
events interleaved with the joins, e.g. the ones generated by
:mod:`repro.workloads.churn` -- exercising the departure protocol and the
dirty-set reselection fast path under realistic membership dynamics.

The dirty-set reselect tick of :class:`~repro.simulation.protocol.PeerProcess`
is what lets the message-level replay scale to hundreds of peers
(``benchmarks/test_message_replay_scaling.py``), so the protocol validates
the offline equilibrium builders well beyond toy instances.

With ``maintain_tree=True`` the runner additionally keeps the Section 3
stability tree *live across churn*: every peer process reports its joins,
leaves and preferred-neighbour changes to a :class:`LiveStabilityTreeMonitor`
(the protocol-side producer of the delta-stream contract documented in
:mod:`repro.overlay.incremental`), which repairs a
:class:`repro.multicast.incremental.TreeMaintenanceEngine` in place and
records a tree-health-over-time series -- no per-event snapshot rebuilds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.metrics.latency import LatencyStatistics, latency_statistics
from repro.multicast.dissemination import TreeHealthSample
from repro.multicast.incremental import TreeDelta, TreeMaintenanceEngine
from repro.multicast.space_partition import ConstructionResult, PickStrategy
from repro.multicast.stability import PreferredNeighbourForest
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import NeighbourSelectionMethod
from repro.overlay.topology import TopologySnapshot
from repro.simulation.engine import SimulationEngine
from repro.simulation.netmodel import LinkModel
from repro.simulation.network import NetworkStats, SimulatedNetwork
from repro.simulation.protocol import (
    CONSTRUCT,
    GossipConfig,
    PeerProcess,
    ProbeRecorder,
    TreeRecorder,
)
from repro.workloads.churn import ChurnEvent

__all__ = [
    "DisseminationProbeResult",
    "GossipSimulationResult",
    "LiveStabilityTreeMonitor",
    "MulticastSimulationResult",
    "run_dissemination_probe",
    "run_gossip_overlay",
    "run_multicast_over_gossip_overlay",
]


class LiveStabilityTreeMonitor:
    """Maintains the Section 3 tree from protocol events, one repair at a time.

    Attached to every :class:`~repro.simulation.protocol.PeerProcess` of a
    run (see ``run_gossip_overlay(maintain_tree=True)``); each membership
    event or preferred-neighbour change becomes a minimal
    :class:`~repro.multicast.incremental.TreeDelta` against the maintained
    engine.  Lifetimes are read as :attr:`PeerInfo.lifetime
    <repro.overlay.peer.PeerInfo.lifetime>`, the first coordinate -- exactly
    the value the protocol's preferred-neighbour rule compares -- so the
    engine's lifetime invariant mirrors the protocol's choice rule.

    The protocol is asynchronous: a peer can briefly prefer a neighbour
    whose departure notice is still in flight, or keep children pointing at
    a peer that just left.  The monitor maps a preferred link onto a peer it
    no longer tracks to "no parent" and lets the engine orphan the children
    of a departed peer; the follow-up eviction events re-attach everyone, so
    at settle time the maintained forest equals the processes' own preferred
    links (the seeded equivalence test asserts exactly that).
    """

    def __init__(self) -> None:
        self._engine = TreeMaintenanceEngine()
        self._health: List[TreeHealthSample] = []
        self._events = 0

    # -- PeerProcess listener interface ---------------------------------
    def on_join(self, info: PeerInfo) -> None:
        """A peer (re-)entered the system."""
        self._events += 1
        if info.peer_id in self._engine:
            self._engine.apply(TreeDelta(departed=frozenset((info.peer_id,))))
        self._engine.apply(TreeDelta(joined={info.peer_id: info.lifetime}))
        self._sample()

    def on_leave(self, peer_id: int) -> None:
        """A peer left; children it still had become roots until re-attached."""
        self._events += 1
        if peer_id in self._engine:
            self._engine.apply(TreeDelta(departed=frozenset((peer_id,))))
        self._sample()

    def on_preferred_change(self, peer_id: int, parent: Optional[int]) -> None:
        """A peer's preferred tree neighbour changed."""
        if peer_id not in self._engine:
            return
        if parent is not None and parent not in self._engine:
            # The preferred target's departure notice beat this event to us;
            # the peer re-selects once its own eviction lands.
            parent = None
        if parent != self._engine.parent(peer_id):
            self._engine.apply(TreeDelta(reparented={peer_id: parent}))

    # -- Results ---------------------------------------------------------
    @property
    def engine(self) -> TreeMaintenanceEngine:
        """The maintained engine (streaming metrics, repair counters)."""
        return self._engine

    @property
    def membership_events(self) -> int:
        """Joins and leaves observed."""
        return self._events

    @property
    def health_series(self) -> List[TreeHealthSample]:
        """One tree-health sample per membership event, in order."""
        return list(self._health)

    def forest(self) -> PreferredNeighbourForest:
        """Immutable snapshot of the maintained preferred-neighbour forest."""
        return self._engine.forest()

    def _sample(self) -> None:
        self._health.append(self._engine.health_sample(self._events))


@dataclass
class GossipSimulationResult:
    """Everything produced by a message-level overlay construction run."""

    engine: SimulationEngine
    network: SimulatedNetwork
    processes: Dict[int, PeerProcess]
    overlay_stats: NetworkStats
    tree_monitor: Optional[LiveStabilityTreeMonitor] = None

    def snapshot(self) -> TopologySnapshot:
        """Topology snapshot of the current (post-settling) neighbour sets."""
        peers = {peer_id: process.info for peer_id, process in self.processes.items()}
        directed = {
            peer_id: frozenset(process.neighbours)
            for peer_id, process in self.processes.items()
        }
        return TopologySnapshot.from_directed(peers, directed)

    def preferred_neighbours(self) -> Dict[int, Optional[int]]:
        """The Section 3 preferred neighbour currently held by every peer."""
        return {
            peer_id: process.preferred_neighbour
            for peer_id, process in self.processes.items()
        }

    def alive_snapshot(self) -> TopologySnapshot:
        """Topology snapshot restricted to the peers still in the system.

        A run stopped mid-churn can leave an alive peer still selecting a
        just-departed neighbour (the link-close notice in flight, or a stale
        announcement inside the ``Tmax`` window); those edges are dropped
        here, since the view is the overlay among alive peers.
        """
        peers = {
            peer_id: process.info
            for peer_id, process in self.processes.items()
            if process.is_alive
        }
        alive_ids = frozenset(peers)
        directed = {
            peer_id: frozenset(self.processes[peer_id].neighbours) & alive_ids
            for peer_id in peers
        }
        return TopologySnapshot.from_directed(peers, directed)

    def total_selection_invocations(self) -> int:
        """Full-candidate-set selection invocations over every peer process."""
        return sum(p.selection_invocations for p in self.processes.values())

    def total_additive_updates(self) -> int:
        """Additive-delta shortcut applications over every peer process."""
        return sum(p.additive_updates for p in self.processes.values())

    def total_reselect_ticks(self) -> int:
        """Reselect ticks executed, summed over every peer process."""
        return sum(p.reselect_ticks for p in self.processes.values())

    def total_reselect_skips(self) -> int:
        """Reselect ticks resolved without any selection work at all."""
        return sum(p.reselect_skips for p in self.processes.values())


@dataclass
class MulticastSimulationResult:
    """Outcome of a message-level Section 2 construction session."""

    result: ConstructionResult
    construction_messages: int
    network_stats: NetworkStats


def run_gossip_overlay(
    peers: Sequence[PeerInfo],
    selection: NeighbourSelectionMethod,
    *,
    config: Optional[GossipConfig] = None,
    join_interval: float = 2.0,
    settle_time: float = 30.0,
    network: Optional[LinkModel] = None,
    seed: int = 0,
    pick_strategy: str = PickStrategy.MEDIAN,
    churn: Optional[Sequence[ChurnEvent]] = None,
    maintain_tree: bool = False,
) -> GossipSimulationResult:
    """Build an overlay by letting peers join one at a time and gossip.

    Parameters
    ----------
    peers:
        The population, in join order (ignored for scheduling when ``churn``
        is given, but still the id-to-identifier mapping).
    selection:
        Neighbour selection method every peer applies.
    config:
        Gossip timing parameters (defaults to :class:`GossipConfig`'s).
    join_interval:
        Simulated seconds between consecutive joins; must be large enough for
        a couple of gossip rounds so the overlay converges between
        insertions, as in the paper.  Unused when ``churn`` is given.
    settle_time:
        Extra simulated time after the last join (or churn event) before the
        run stops.
    network:
        A :class:`~repro.simulation.netmodel.LinkModel` supplying per-link
        latency distributions, loss and bandwidth queueing; ``None`` (the
        default) is a fresh ``LinkModel()``: a constant 0.01 s one-way
        latency, no loss, no bandwidth cap.
    seed:
        Seed controlling bootstrap choices and per-peer tick phases.
    churn:
        Optional membership schedule (:class:`repro.workloads.churn.ChurnEvent`
        sequence).  When given, joins and leaves happen at the scheduled
        times instead of at ``join_interval`` steps; every event's
        ``peer_id`` must belong to ``peers``, a join's bootstrap contact is
        drawn (seeded) from the peers alive at the event time, and leaves of
        peers that already left (or never joined) are ignored.
    maintain_tree:
        ``True`` attaches a :class:`LiveStabilityTreeMonitor` to every peer
        process: the Section 3 stability tree is repaired in place on every
        membership event and preferred-neighbour change (no snapshot
        rebuilds), and a tree-health-over-time series is recorded.  The
        monitor is returned on the result's ``tree_monitor`` field.
    """
    if join_interval <= 0 or settle_time < 0:
        raise ValueError("join_interval must be positive and settle_time non-negative")
    gossip_config = config if config is not None else GossipConfig()
    rng = random.Random(seed)
    engine = SimulationEngine()
    simulated_network = SimulatedNetwork(engine, link_model=network)
    processes: Dict[int, PeerProcess] = {}
    monitor = LiveStabilityTreeMonitor() if maintain_tree else None

    def make_process(info: PeerInfo) -> PeerProcess:
        process = PeerProcess(
            info,
            engine=engine,
            network=simulated_network,
            selection=selection,
            config=gossip_config,
            pick_strategy=pick_strategy,
            rng=random.Random(rng.randrange(1 << 30)),
        )
        if monitor is not None:
            process.attach_tree_listener(monitor)
        processes[info.peer_id] = process
        return process

    if churn is None:
        joined: List[PeerInfo] = []
        for index, info in enumerate(peers):
            process = make_process(info)
            bootstrap = [rng.choice(joined)] if joined else []
            join_time = index * join_interval
            engine.schedule(
                join_time,
                lambda p=process, b=bootstrap: p.join(b),
                description=f"join {info.peer_id}",
            )
            joined.append(info)
        horizon = (len(peers) - 1) * join_interval + settle_time if peers else 0.0
    else:
        info_by_id = {info.peer_id: info for info in peers}
        events = sorted(churn)
        unsupported = sorted({e.kind for e in events} - {"join", "leave"})
        if unsupported:
            # The message-level replay has no mobility: a "move" would change
            # a peer's identifier mid-life, which the protocol does not model
            # (the batched-epoch pipeline's apply_batch does).
            raise ValueError(
                f"the message-level replay supports join/leave only, got {unsupported}"
            )
        unknown = sorted({e.peer_id for e in events} - set(info_by_id))
        if unknown:
            raise ValueError(f"churn events reference unknown peer ids {unknown}")
        join_ids = [e.peer_id for e in events if e.kind == "join"]
        if len(join_ids) != len(set(join_ids)):
            duplicates = sorted({p for p in join_ids if join_ids.count(p) > 1})
            raise ValueError(
                f"churn schedules one join per peer; duplicate joins for {duplicates}"
            )

        def join_event(peer_id: int) -> None:
            alive = sorted(
                other
                for other, process in processes.items()
                if process.is_alive and other != peer_id
            )
            bootstrap = [processes[rng.choice(alive)].info] if alive else []
            processes[peer_id].join(bootstrap)

        def leave_event(peer_id: int) -> None:
            process = processes.get(peer_id)
            if process is not None and process.is_alive:
                process.leave()

        for event in events:
            if event.kind == "join":
                make_process(info_by_id[event.peer_id])
                engine.schedule(
                    event.time,
                    lambda pid=event.peer_id: join_event(pid),
                    description=f"join {event.peer_id}",
                )
            else:
                engine.schedule(
                    event.time,
                    lambda pid=event.peer_id: leave_event(pid),
                    description=f"leave {event.peer_id}",
                )
        horizon = (events[-1].time + settle_time) if events else 0.0

    engine.run(until=horizon)
    return GossipSimulationResult(
        engine=engine,
        network=simulated_network,
        processes=processes,
        overlay_stats=simulated_network.stats,
        tree_monitor=monitor,
    )


def run_multicast_over_gossip_overlay(
    overlay: GossipSimulationResult,
    root: int,
    *,
    extra_time: float = 30.0,
) -> MulticastSimulationResult:
    """Run one Section 2 construction session over a settled gossip overlay.

    The network counters are reset first, so the reported message count is
    the construction traffic only (gossip keeps running underneath, exactly
    as it would in the real system, but is counted separately by kind).

    The session is isolated from any previous one over the same overlay:
    every peer's previously attached :class:`TreeRecorder` is replaced by
    this session's, and construction messages carry the session token, so
    requests still in flight from an earlier session are ignored rather
    than recorded into the new tree.

    When the overlay was run with ``maintain_tree=True``, its
    :class:`LiveStabilityTreeMonitor` stays attached throughout the
    construction session: gossip, membership events and preferred-neighbour
    changes that happen *during* the session keep repairing the stability
    tree live, so the Section 3 tree is current both before and after the
    Section 2 construction without any snapshot rebuild.
    """
    if root not in overlay.processes:
        raise KeyError(f"root {root} is not a peer of the simulated overlay")
    engine = overlay.engine
    network = overlay.network
    network.reset_stats()

    recorder = TreeRecorder(root)
    for process in overlay.processes.values():
        process.attach_recorder(recorder)
    overlay.processes[root].initiate_construction(recorder)
    engine.run(until=engine.now + extra_time)

    tree = recorder.to_tree()
    alive_peers: Set[int] = {
        peer_id for peer_id, process in overlay.processes.items() if process.is_alive
    }
    unreached = alive_peers - recorder.reached_peers()
    construction_result = ConstructionResult(
        tree=tree,
        messages_sent=network.stats.count(CONSTRUCT),
        duplicate_deliveries=recorder.duplicate_deliveries,
        unreached_peers=unreached,
        zones=recorder.zones(),
    )
    return MulticastSimulationResult(
        result=construction_result,
        construction_messages=network.stats.count(CONSTRUCT),
        network_stats=network.stats,
    )


@dataclass
class DisseminationProbeResult:
    """Per-peer dissemination latencies of one probe down the maintained tree."""

    root: int
    #: Peer id -> seconds from the root's send to the peer's first receipt.
    latencies: Dict[int, float]
    #: Alive peers the probe never reached within the probe window (peers
    #: whose preferred-neighbour chain was broken, or whose copy was lost
    #: more times than the retransmission budget covers).
    unreached_peers: Set[int]
    statistics: LatencyStatistics
    network_stats: NetworkStats


def run_dissemination_probe(
    overlay: GossipSimulationResult,
    *,
    root: Optional[int] = None,
    extra_time: float = 30.0,
) -> DisseminationProbeResult:
    """Measure per-peer dissemination latency down the maintained tree.

    The probe floods from ``root`` along the Section 3 preferred-neighbour
    edges, inverted into parent -> children lists over the *alive* peers:
    each peer that receives the probe records ``now - issued_at`` (its
    latency from the root's send) and forwards to its children.  Probe
    messages are sent reliably, so under loss a peer's measured latency
    includes the retransmission penalty -- exactly the quantity the paper's
    Tier-1 latency claims are about.

    ``root`` defaults to the longest-lived alive peer without an alive
    parent (the root of the main maintained tree).  Like the multicast
    runner, network counters are reset first, so the reported stats are the
    probe traffic only.
    """
    alive = {
        peer_id: process
        for peer_id, process in overlay.processes.items()
        if process.is_alive
    }
    if not alive:
        raise ValueError("cannot probe an overlay with no alive peers")
    children: Dict[int, List[int]] = {}
    parents: Dict[int, Optional[int]] = {}
    for peer_id in sorted(alive):
        parent = alive[peer_id].preferred_neighbour
        if parent is not None and parent not in alive:
            parent = None
        parents[peer_id] = parent
        if parent is not None:
            children.setdefault(parent, []).append(peer_id)
    if root is None:
        roots = [peer_id for peer_id, parent in parents.items() if parent is None]
        root = max(roots, key=lambda peer_id: alive[peer_id].info.lifetime)
    elif root not in alive:
        raise KeyError(f"root {root} is not an alive peer of the simulated overlay")

    engine = overlay.engine
    overlay.network.reset_stats()
    recorder = ProbeRecorder(root)
    for peer_id, process in alive.items():
        process.attach_probe(recorder, children.get(peer_id, ()))
    alive[root].initiate_probe()
    engine.run(until=engine.now + extra_time)

    latencies = recorder.latencies()
    return DisseminationProbeResult(
        root=root,
        latencies=latencies,
        unreached_peers=set(alive) - set(latencies),
        statistics=latency_statistics(latencies.values()),
        network_stats=overlay.network.stats,
    )
