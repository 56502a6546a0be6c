"""Ablations: design choices the paper states but does not quantify.

Five ablations complement the figure reproductions (ids A1-A4 and A8):

* **Baseline comparison (A1)** -- the introduction motivates the work with
  "existing solutions send many messages"; this ablation measures the
  construction message cost and tree quality of the Section 2 algorithm
  against flooding, a BFS tree, a random spanning tree and sequential
  unicast on the same overlay.
* **Pick strategy (A2)** -- Section 2 picks the *median*-distance neighbour
  of each orthant region; this ablation compares median against nearest,
  farthest and random picks.
* **Churn (A3)** -- Section 3 claims departures never disconnect the tree;
  this ablation replays lifetime-ordered departures against the stability
  tree and against lifetime-oblivious alternatives and counts disconnection
  events.
* **Overlay churn (A4)** -- the paper's churn experiments replay departures
  only against the multicast *tree*; this ablation replays joins and
  lifetime-ordered departures against the *overlay* itself, converging after
  every membership event on the incremental reselection engine (the fast
  path that makes per-event convergence affordable), and reports the
  reconvergence effort and whether the overlay ever disconnects.  The
  connectivity verdict comes from an
  :class:`repro.multicast.incremental.OverlayConnectivityFeed`, which counts
  the roots of the Section 3 forest over the overlay's links, told where to
  look by the overlay delta stream -- no per-event graph reconstruction, no
  second copy of the graph; only a query that finds more than one root
  runs a BFS over the links.
* **Network model (A8)** -- the message-level replay under the real-network
  :class:`~repro.simulation.netmodel.LinkModel`: the same seeded population
  is settled under the ideal constant-latency network and under arms with
  per-link latency distributions, i.i.d. loss and bandwidth queueing.  The
  rows report the traffic (messages, bytes, retransmissions of the reliable
  notices), whether the settled overlay still reaches the full-knowledge
  analytic fixed point, and the per-peer dissemination-latency percentiles
  of a probe down the maintained Section 3 tree -- the protocol's
  loss-tolerance story, quantified.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.common import (
    build_section2_topology,
    build_section3_topology,
    derive_seed,
    sample_roots,
)
from repro.experiments.config import ExperimentScale, resolve_scale
from repro.metrics.paths import path_statistics
from repro.metrics.reporting import format_table
from repro.multicast.baselines import (
    bfs_tree,
    flood_multicast,
    random_spanning_tree,
    sequential_unicast_tree,
)
from repro.multicast.dissemination import simulate_departures
from repro.multicast.incremental import OverlayConnectivityFeed
from repro.multicast.space_partition import PickStrategy, SpacePartitionTreeBuilder
from repro.multicast.stability import StabilityTreeBuilder
from repro.multicast.tree import MulticastTree
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.simulation.netmodel import (
    ConstantLatency,
    LinkModel,
    LognormalLatency,
    UniformLatency,
)
from repro.simulation.runner import run_dissemination_probe, run_gossip_overlay
from repro.workloads.peers import generate_peers_with_lifetimes

__all__ = [
    "BaselineComparisonRow",
    "PickStrategyRow",
    "ChurnRow",
    "OverlayChurnRow",
    "NetworkModelRow",
    "AblationResult",
    "run_baseline_comparison",
    "run_pick_strategy_ablation",
    "run_churn_ablation",
    "run_overlay_churn_ablation",
    "run_network_model_ablation",
]


@dataclass(frozen=True)
class BaselineComparisonRow:
    """Construction cost and tree quality of one strategy on one overlay."""

    strategy: str
    dimension: int
    peer_count: int
    construction_messages: int
    duplicate_deliveries: int
    tree_height: int
    maximum_tree_degree: int


@dataclass(frozen=True)
class PickStrategyRow:
    """Path statistics of the Section 2 construction under one pick strategy."""

    strategy: str
    dimension: int
    sessions: int
    maximum_longest_path: int
    average_longest_path: float


@dataclass(frozen=True)
class ChurnRow:
    """Departure-robustness of one tree-building strategy."""

    strategy: str
    dimension: int
    k: int
    peer_count: int
    departures: int
    disconnection_events: int
    orphaned_peer_events: int


@dataclass(frozen=True)
class OverlayChurnRow:
    """Overlay-level reconvergence effort during one churn phase."""

    phase: str
    dimension: int
    k: int
    events: int
    total_rounds: int
    maximum_rounds_per_event: int
    disconnected_events: int
    connectivity_rebuilds: int


@dataclass(frozen=True)
class NetworkModelRow:
    """One network-model arm of ablation A8."""

    arm: str
    dimension: int
    peers: int
    network: str
    messages_sent: int
    messages_lost: int
    retransmissions: int
    bytes_sent: int
    equilibrium_match: bool
    probe_p50_ms: float
    probe_p99_ms: float
    probe_unreached: int
    wall_seconds: float


@dataclass(frozen=True)
class AblationResult:
    """Rows of one ablation with a generic table view."""

    name: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def to_table(self) -> str:
        """Plain-text table of the ablation's rows."""
        return format_table(list(self.headers), [list(row) for row in self.rows])


def run_baseline_comparison(
    scale: Optional[ExperimentScale] = None,
    *,
    dimension: int = 2,
) -> Tuple[List[BaselineComparisonRow], AblationResult]:
    """A1: Section 2 construction versus flooding / BFS / random / unicast."""
    resolved = scale if scale is not None else resolve_scale()
    seed = derive_seed(resolved.seed, 10, dimension)
    topology = build_section2_topology(resolved.peer_count, dimension, seed=seed)
    root = min(topology.peers)
    peer_count = topology.peer_count

    rows: List[BaselineComparisonRow] = []

    construction = SpacePartitionTreeBuilder().build(topology, root)
    rows.append(
        BaselineComparisonRow(
            strategy="space-partition",
            dimension=dimension,
            peer_count=peer_count,
            construction_messages=construction.messages_sent,
            duplicate_deliveries=construction.duplicate_deliveries,
            tree_height=construction.tree.height(),
            maximum_tree_degree=construction.tree.maximum_degree(),
        )
    )

    flood = flood_multicast(topology, root)
    rows.append(
        BaselineComparisonRow(
            strategy="flooding",
            dimension=dimension,
            peer_count=peer_count,
            construction_messages=flood.messages_sent,
            duplicate_deliveries=flood.duplicate_deliveries,
            tree_height=flood.tree.height(),
            maximum_tree_degree=flood.tree.maximum_degree(),
        )
    )

    for name, tree in (
        ("bfs-tree", bfs_tree(topology, root)),
        ("random-spanning-tree", random_spanning_tree(topology, root, rng=random.Random(seed))),
        ("sequential-unicast", sequential_unicast_tree(topology, root)),
    ):
        # Building these trees decentralizedly would require flooding-level
        # message counts; attribute the flooding cost to BFS/random and the
        # star cost (N - 1 direct sends) to sequential unicast.
        messages = flood.messages_sent if name != "sequential-unicast" else peer_count - 1
        rows.append(
            BaselineComparisonRow(
                strategy=name,
                dimension=dimension,
                peer_count=peer_count,
                construction_messages=messages,
                duplicate_deliveries=0,
                tree_height=tree.height(),
                maximum_tree_degree=tree.maximum_degree(),
            )
        )

    table = AblationResult(
        name="baseline-comparison",
        headers=("strategy", "D", "peers", "messages", "duplicates", "height", "max degree"),
        rows=tuple(
            (
                row.strategy,
                row.dimension,
                row.peer_count,
                row.construction_messages,
                row.duplicate_deliveries,
                row.tree_height,
                row.maximum_tree_degree,
            )
            for row in rows
        ),
    )
    return rows, table


def run_pick_strategy_ablation(
    scale: Optional[ExperimentScale] = None,
    *,
    dimension: int = 2,
) -> Tuple[List[PickStrategyRow], AblationResult]:
    """A2: median versus nearest / farthest / random region picks."""
    resolved = scale if scale is not None else resolve_scale()
    seed = derive_seed(resolved.seed, 11, dimension)
    topology = build_section2_topology(resolved.peer_count, dimension, seed=seed)
    roots = sample_roots(
        topology.peers.keys(), resolved.root_sample, seed=derive_seed(resolved.seed, 12, dimension)
    )

    rows: List[PickStrategyRow] = []
    for strategy in PickStrategy.ALL:
        builder = SpacePartitionTreeBuilder(
            pick_strategy=strategy, rng=random.Random(seed)
        )
        results = builder.build_from_every_root(topology, roots=roots)
        stats = path_statistics(result.tree for result in results.values())
        rows.append(
            PickStrategyRow(
                strategy=strategy,
                dimension=dimension,
                sessions=len(roots),
                maximum_longest_path=stats.maximum,
                average_longest_path=stats.average,
            )
        )

    table = AblationResult(
        name="pick-strategy",
        headers=("strategy", "D", "sessions", "max longest path", "avg longest path"),
        rows=tuple(
            (
                row.strategy,
                row.dimension,
                row.sessions,
                row.maximum_longest_path,
                row.average_longest_path,
            )
            for row in rows
        ),
    )
    return rows, table


def run_overlay_churn_ablation(
    scale: Optional[ExperimentScale] = None,
    *,
    dimension: int = 3,
    k: int = 2,
) -> Tuple[List[OverlayChurnRow], AblationResult]:
    """A4: per-event overlay reconvergence under joins and departures.

    Every peer joins one at a time and the overlay converges after every
    join (the paper's insertion procedure); then peers depart in lifetime
    order with the overlay reconverging after every departure.  All
    convergence runs on the incremental reselection engine -- the churn loop
    this ablation exists to exercise -- and the row records how many
    reselection rounds the engine needed and whether the overlay was ever
    observed disconnected after settling.  The connectivity check runs on
    the delta-fed :class:`OverlayConnectivityFeed`, so no graph is
    reconstructed inside the per-event loop; ``connectivity_rebuilds``
    counts the queries that found more than one stability-forest root and
    fell back to a BFS over the links (none here: under full knowledge with
    an orthant rule and lifetimes on the first axis, one root is a theorem).
    """
    resolved = scale if scale is not None else resolve_scale()
    seed = derive_seed(resolved.seed, 14, dimension, k)
    peers = generate_peers_with_lifetimes(resolved.peer_count, dimension, seed=seed)
    rng = random.Random(seed)
    overlay = OverlayNetwork(OrthogonalHyperplanesSelection(k=k))
    feed = OverlayConnectivityFeed(overlay)

    rows: List[OverlayChurnRow] = []
    join_rounds: List[int] = []
    join_disconnected = 0
    for peer in peers:
        if overlay.peer_count == 0:
            overlay.add_peer(peer, bootstrap=())
            feed.sync()
            continue
        bootstrap = {rng.choice(overlay.peer_ids)}
        join_rounds.append(
            overlay.insert_and_converge(peer, bootstrap=bootstrap)
        )
        if not feed.is_connected():
            join_disconnected += 1
    join_rebuilds = feed.rebuilds
    rows.append(
        OverlayChurnRow(
            phase="join",
            dimension=dimension,
            k=k,
            events=len(join_rounds),
            total_rounds=sum(join_rounds),
            maximum_rounds_per_event=max(join_rounds, default=0),
            disconnected_events=join_disconnected,
            connectivity_rebuilds=join_rebuilds,
        )
    )

    departure_order = sorted(
        peers, key=lambda peer: (peer.lifetime, peer.peer_id)
    )
    leave_rounds: List[int] = []
    leave_disconnected = 0
    for peer in departure_order:
        leave_rounds.append(overlay.remove_and_converge(peer.peer_id))
        if overlay.peer_count > 1 and not feed.is_connected():
            leave_disconnected += 1
    # The last one or two departures skip the connectivity query (a 0/1-peer
    # overlay is trivially connected); fold them in so the feed mirrors the
    # final overlay state.
    feed.sync()
    rows.append(
        OverlayChurnRow(
            phase="leave",
            dimension=dimension,
            k=k,
            events=len(leave_rounds),
            total_rounds=sum(leave_rounds),
            maximum_rounds_per_event=max(leave_rounds, default=0),
            disconnected_events=leave_disconnected,
            connectivity_rebuilds=feed.rebuilds - join_rebuilds,
        )
    )

    table = AblationResult(
        name="overlay-churn",
        headers=(
            "phase",
            "D",
            "K",
            "events",
            "rounds",
            "max rounds",
            "disconnected",
            "fallback scans",
        ),
        rows=tuple(
            (
                row.phase,
                row.dimension,
                row.k,
                row.events,
                row.total_rounds,
                row.maximum_rounds_per_event,
                row.disconnected_events,
                row.connectivity_rebuilds,
            )
            for row in rows
        ),
    )
    return rows, table


def run_churn_ablation(
    scale: Optional[ExperimentScale] = None,
    *,
    dimension: int = 3,
    k: int = 2,
    procedure: str = "equilibrium",
) -> Tuple[List[ChurnRow], AblationResult]:
    """A3: lifetime-ordered departures against stability and oblivious trees.

    ``procedure="insertion"`` builds the underlying overlay with the
    paper-literal insert-one-converge loop (on the incremental engine)
    instead of the direct equilibrium jump.
    """
    resolved = scale if scale is not None else resolve_scale()
    seed = derive_seed(resolved.seed, 13, dimension, k)
    topology = build_section3_topology(
        resolved.peer_count, dimension, k, seed=seed, procedure=procedure
    )
    peer_count = topology.peer_count

    lifetimes = {peer_id: info.lifetime for peer_id, info in topology.peers.items()}
    departure_order = sorted(lifetimes, key=lifetimes.get)

    rows: List[ChurnRow] = []

    stability_tree = StabilityTreeBuilder().build(topology).to_multicast_tree()
    candidates: List[Tuple[str, MulticastTree]] = [("stability", stability_tree)]

    longest_lived = departure_order[-1]
    candidates.append(("bfs-from-longest-lived", bfs_tree(topology, longest_lived)))
    candidates.append(
        (
            "random-spanning-tree",
            random_spanning_tree(topology, longest_lived, rng=random.Random(seed)),
        )
    )

    for name, tree in candidates:
        report = simulate_departures(tree, departure_order)
        rows.append(
            ChurnRow(
                strategy=name,
                dimension=dimension,
                k=k,
                peer_count=peer_count,
                departures=report.departures,
                disconnection_events=report.non_leaf_departures,
                orphaned_peer_events=report.orphaned_peer_events,
            )
        )

    table = AblationResult(
        name="churn",
        headers=("strategy", "D", "K", "peers", "departures", "disconnections", "orphaned"),
        rows=tuple(
            (
                row.strategy,
                row.dimension,
                row.k,
                row.peer_count,
                row.departures,
                row.disconnection_events,
                row.orphaned_peer_events,
            )
            for row in rows
        ),
    )
    return rows, table


def run_network_model_ablation(
    scale: Optional[ExperimentScale] = None,
    *,
    dimension: int = 2,
    replay_cap: int = 24,
) -> Tuple[List[NetworkModelRow], AblationResult]:
    """A8: the message-level replay under realistic link models.

    Settles the same seeded population four times -- under the ideal
    degenerate network (constant latency, no loss, the simulator's default)
    and under arms that add i.i.d. loss, wider latency distributions and a
    per-link bandwidth cap -- then probes the
    maintained Section 3 tree for per-peer dissemination latencies.  Each
    row reports the overlay-construction traffic (messages, bytes and the
    retransmissions the reliable link notices paid), whether the settled
    overlay still equals the full-knowledge analytic fixed point, and the
    probe's p50/p99.  The population is capped at ``replay_cap`` peers so
    the sweep stays affordable inside ``ablations``/``all`` CLI runs; the
    scaling measurement lives in ``benchmarks/test_network_model_scaling.py``.
    """
    resolved = scale if scale is not None else resolve_scale()
    count = min(resolved.peer_count, replay_cap)
    seed = derive_seed(resolved.seed, 18, dimension, count)
    peers = generate_peers_with_lifetimes(count, dimension, seed=seed)
    equilibrium = OverlayNetwork.build_equilibrium(
        peers, EmptyRectangleSelection()
    ).snapshot().edges()

    arms = (
        ("ideal", LinkModel(ConstantLatency(0.01), seed=seed)),
        ("loss-5%", LinkModel(ConstantLatency(0.01), loss_rate=0.05, seed=seed)),
        (
            "uniform+loss-5%",
            LinkModel(UniformLatency(0.005, 0.03), loss_rate=0.05, seed=seed),
        ),
        (
            "lognormal+loss-10%+bw",
            LinkModel(
                LognormalLatency(0.02, 0.5),
                loss_rate=0.10,
                bandwidth_bytes_per_second=2_000_000.0,
                seed=seed,
            ),
        ),
    )

    rows = []
    for arm, model in arms:
        started = time.perf_counter()
        simulated = run_gossip_overlay(
            peers,
            EmptyRectangleSelection(),
            settle_time=40.0,
            network=model,
            seed=seed,
        )
        overlay_stats = simulated.overlay_stats
        messages_sent = overlay_stats.messages_sent
        messages_lost = overlay_stats.messages_lost
        bytes_sent = overlay_stats.bytes_sent
        retransmissions = sum(
            process.retransmissions for process in simulated.processes.values()
        )
        match = simulated.snapshot().edges() == equilibrium
        probe = run_dissemination_probe(simulated, extra_time=30.0)
        wall_seconds = time.perf_counter() - started
        rows.append(
            NetworkModelRow(
                arm=arm,
                dimension=dimension,
                peers=count,
                network=model.describe(),
                messages_sent=messages_sent,
                messages_lost=messages_lost,
                retransmissions=retransmissions,
                bytes_sent=bytes_sent,
                equilibrium_match=match,
                probe_p50_ms=probe.statistics.p50 * 1000.0,
                probe_p99_ms=probe.statistics.p99 * 1000.0,
                probe_unreached=len(probe.unreached_peers),
                wall_seconds=wall_seconds,
            )
        )

    table = AblationResult(
        name="network-model",
        headers=(
            "arm",
            "D",
            "peers",
            "messages",
            "lost",
            "retrans",
            "bytes",
            "eq match",
            "p50 [ms]",
            "p99 [ms]",
            "unreached",
            "wall [s]",
        ),
        rows=tuple(
            (
                row.arm,
                row.dimension,
                row.peers,
                row.messages_sent,
                row.messages_lost,
                row.retransmissions,
                row.bytes_sent,
                row.equilibrium_match,
                f"{row.probe_p50_ms:.1f}",
                f"{row.probe_p99_ms:.1f}",
                row.probe_unreached,
                f"{row.wall_seconds:.2f}",
            )
            for row in rows
        ),
    )
    return rows, table

