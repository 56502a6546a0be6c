"""The five workloads: inputs from a seed, set-up, timed body, checks.

Every workload is closed-loop with one client: the next epoch or phase
starts when the previous one returned.  Only the public ``repro`` API is
used.  The program receives generated inputs (peers, event batches, derived
integer seeds for its own modelled randomness) -- never ``--seed`` itself.

What ``--seed`` draws is what the geometry and the network see: coordinates,
lifetimes, move targets, the link model's loss and latency streams.  The
*shape* of a workload -- the Poisson trace, who moves, leaves and bootstraps
off whom, the simulator's join/leave schedule -- comes from ``SHAPE_SEED``,
a constant like the sizes, so every seed measures the same amount of work
(seed-drawn shapes moved ``wall_s`` by 10-20 % between seeds, and one
simulator schedule in ten isolated a joiner whose bootstrap contact left).

Shape shared by all five (see :class:`Workload`):

* ``prepare`` -- set-up, untimed by the body's stopwatch: generate inputs,
  assert the per-axis distinctness the vectorised geometry silently relies
  on, build the objects, do the bulk join.
* ``install`` -- traced pass only: wrap the layers' public functions.
* ``body`` -- the timed region(s), as stopwatch laps; harness-level spans
  name the layer each direct call belongs to.
* ``verify`` -- correctness checks after the body, outside every lap.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import repro.simulation.network as simulation_network
from repro.geometry.hyperplane import HyperplaneSet
from repro.geometry.index import brute_force_orthant_skyline, brute_force_region_top_k
from repro.metrics.latency import percentile
from repro.multicast import (
    OverlayConnectivityFeed,
    SpacePartitionTreeBuilder,
    StabilityTreeBuilder,
    StabilityTreeMaintainer,
    build_stability_tree,
)
from repro.overlay.incremental import OverlayDeltaRecorder
from repro.overlay.network import BatchJoin, BatchLeave, BatchMove, OverlayNetwork
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.simulation.engine import SimulationEngine
from repro.simulation.netmodel import LinkModel, LognormalLatency
from repro.simulation.network import SimulatedNetwork
from repro.simulation.runner import (
    run_dissemination_probe,
    run_gossip_overlay,
    run_multicast_over_gossip_overlay,
)
from repro.workloads.churn import interleaved_join_leave_schedule
from repro.workloads.coordinates import DEFAULT_VMAX
from repro.workloads.peers import generate_peers_with_lifetimes
from repro.workloads.traces import poisson_trace

from .tracing import Tracer

__all__ = ["Ops", "Stopwatch", "WORKLOADS", "Workload"]

#: Seed of every workload's shape.  5 reproduces the figures the benchmark
#: was specified with: ``poisson_trace(800, session_mean=800, epoch_length=5,
#: seed=5)`` is 419 epochs / 1600 events / peak 505 alive.
SHAPE_SEED = 5
#: Generous on purpose: a convergence that needs more rounds is a failed
#: operation (ConvergenceError), not a reason to stop the benchmark.
MAX_ROUNDS = 80
#: References sampled for the brute-force selection check.
CHECK_SAMPLE = 32


# ----------------------------------------------------------------------
# Measuring and accounting helpers
# ----------------------------------------------------------------------
class _Lap:
    __slots__ = ("_watch", "_wall", "_cpu")

    def __init__(self, watch: "Stopwatch") -> None:
        self._watch = watch

    def __enter__(self) -> None:
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        watch = self._watch
        watch.laps.append(wall)
        watch.wall += wall
        watch.cpu += cpu


class Stopwatch:
    """Accumulates the timed laps of one body: wall, CPU and each lap."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.laps: List[float] = []

    def lap(self) -> _Lap:
        return _Lap(self)


class Ops:
    """Attempted / failed operations; feeds ``failed_share``.

    Attempted = epochs, phases and constructions plus every correctness
    check.  This is the boundary that must keep running: an exception inside
    an operation (``ConvergenceError`` included) fails that operation and is
    recorded, and the benchmark goes on to report it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def attempt(self, label: str, operation: Callable[..., Any], *args: Any) -> Any:
        """Run one operation; returns its result, or ``None`` if it raised."""
        self.attempted += 1
        try:
            return operation(*args)
        except Exception as error:  # noqa: BLE001 - see class docstring
            self._fail(f"{label}: {type(error).__name__}: {error}")
            return None

    def check(self, label: str, passed: bool) -> None:
        """Record one correctness check."""
        self.attempted += 1
        if not passed:
            self._fail(f"check failed: {label}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def derive(seed: int, label: str) -> int:
    """A decorrelated integer input derived from the benchmark seed."""
    return random.Random(f"{label}:{seed}").getrandbits(31)


def require_distinct_axes(label: str, points: Iterable[Sequence[float]]) -> None:
    """Reject inputs with a repeated coordinate value on any axis.

    The vectorised geometry (skyline dominance, box-emptiness symmetry)
    assumes pairwise-distinct per-axis coordinates and diverges *silently*
    without them, so every generated peer and move target is checked here,
    before anything is timed.
    """
    columns: List[List[float]] = []
    for point in points:
        if not columns:
            columns = [[] for _ in point]
        for axis, value in enumerate(point):
            columns[axis].append(value)
    for axis, values in enumerate(columns):
        if len(set(values)) != len(values):
            raise ValueError(
                f"{label}: generated inputs repeat a coordinate on axis {axis}; "
                "the selection geometry requires distinct per-axis coordinates"
            )


def _epoch_percentiles(laps: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(laps)
    return {
        "epoch_p50_ms": percentile(ordered, 0.50) * 1000.0,
        "epoch_p90_ms": percentile(ordered, 0.90) * 1000.0,
    }


# ----------------------------------------------------------------------
# Correctness oracles (literal definitions, read-only on the overlay)
# ----------------------------------------------------------------------
def _sample_ids(overlay: OverlayNetwork, rng: random.Random) -> List[int]:
    ids = overlay.peer_ids
    return ids if len(ids) <= CHECK_SAMPLE else sorted(rng.sample(ids, CHECK_SAMPLE))


def _check_empty_rectangle(overlay: OverlayNetwork, rng: random.Random, ops: Ops, tag: str) -> None:
    """Settled selection == brute-force per-orthant skylines, on a sample."""
    points = {peer.peer_id: peer.coordinates for peer in overlay.peers()}
    for peer_id in _sample_ids(overlay, rng):
        expected: set = set()
        for signs in product((-1, 1), repeat=len(points[peer_id])):
            expected.update(
                brute_force_orthant_skyline(points, points[peer_id], signs, exclude=(peer_id,))
            )
        ops.check(f"{tag}: selection of {peer_id} equals brute-force skyline",
                  expected == overlay.selected_neighbours(peer_id))


def _check_hyperplanes(overlay: OverlayNetwork, k: int, rng: random.Random, ops: Ops) -> None:
    """Settled selection == brute-force per-region top-k, on a sample."""
    points = {peer.peer_id: peer.coordinates for peer in overlay.peers()}
    for peer_id in _sample_ids(overlay, rng):
        origin = points[peer_id]
        regions = brute_force_region_top_k(
            points, origin, HyperplaneSet.orthogonal(len(origin)), k, order=2.0,
            exclude=(peer_id,),
        )
        expected = {member for members in regions.values() for member in members}
        ops.check(f"selection of {peer_id} equals brute-force region top-{k}",
                  expected == overlay.selected_neighbours(peer_id))


def _check_tree(overlay: OverlayNetwork, maintainer: StabilityTreeMaintainer, ops: Ops,
                tag: str) -> None:
    """Maintained stability tree == the snapshot builder's preferred parents."""
    expected = StabilityTreeBuilder().build(overlay.snapshot()).preferred
    ops.check(f"{tag}: maintained parent map equals the snapshot rule",
              maintainer.engine.parent_map() == expected)


# ----------------------------------------------------------------------
# Wrappers of the traced pass
# ----------------------------------------------------------------------
def trace_overlay(tracer: Tracer, overlay: OverlayNetwork) -> None:
    """Wrap the overlay, its index and its selection method (instances)."""
    for method in ("add_peer", "remove_peer", "move_peer"):
        tracer.patch(overlay, method, "overlay.membership")
    tracer.patch(overlay, "converge", "overlay.converge",
                 lambda args, rounds: tracer.count("overlay.converge_rounds", rounds))
    tracer.patch(overlay, "install_selections", "overlay.install_selections")

    index = overlay.index
    if index is not None:
        for query in ("orthant_skyline", "region_top_k", "nearest_k"):
            tracer.patch(index, query, f"index.{query}")
        for write in ("insert", "remove", "move"):
            tracer.patch(index, write, "index.maintain")

    selection = overlay.selection

    def full_batch(args: tuple, _result: Any) -> None:
        # install_many's default body answers its full references through
        # select_many; count them once, at the outer entry.
        if tracer.current() != "selection.install_many":
            tracer.count("selection.full_references", len(args[0]))

    tracer.patch(selection, "install_many", "selection.install_many", full_batch)
    tracer.patch(selection, "select_many", "selection.select_many", full_batch)
    tracer.patch(
        selection, "select_many_additive", "selection.select_many_additive",
        lambda args, _result: tracer.count("selection.additive_updates", len(args[0])),
    )


def trace_simulator(tracer: Tracer, selection: Any, link_model: LinkModel) -> None:
    """Wrap the simulator's per-message path.

    ``SimulatedNetwork`` and ``SimulationEngine`` are built inside
    ``run_gossip_overlay``, so these two are class-level; the byte estimator
    is the name ``repro.simulation.network`` bound at import.
    """
    tracer.patch(SimulatedNetwork, "send", "sim.send")
    tracer.patch(SimulationEngine, "schedule", "sim.engine_schedule")
    tracer.patch(simulation_network, "estimate_message_bytes", "sim.estimate_bytes")
    tracer.patch(link_model, "delivery_time", "sim.delivery_time")
    for entry in ("select", "select_additive"):
        tracer.patch(selection, entry, "sim.selection")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class State:
    """What ``prepare`` hands to ``body`` / ``verify`` (fresh per repeat)."""

    check_rng: random.Random
    generate_s: float = 0.0
    generated_events: int = 0
    overlay: Optional[OverlayNetwork] = None
    maintainer: Optional[StabilityTreeMaintainer] = None
    feed: Optional[OverlayConnectivityFeed] = None
    epochs: List[Sequence[Any]] = field(default_factory=list)
    delta_recorder: Optional[OverlayDeltaRecorder] = None
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """One workload: ``prepare`` / ``install`` / ``body`` / ``verify``.

    The base also holds what the overlay workloads share: the live tree, the
    epoch as a user of that tree runs it, and the epoch loop.
    """

    name = ""

    def prepare(self, seed: int, size: Dict[str, float]) -> State:
        raise NotImplementedError

    def install(self, state: State, tracer: Tracer) -> None:
        trace_overlay(tracer, state.overlay)
        # overlay.delta_touched: a recorder of the harness's own, drained
        # between laps (its note_touch cost is part of the tracing overhead).
        state.delta_recorder = state.overlay.delta_stream()

    def body(self, state: State, watch: Stopwatch, tracer: Tracer, ops: Ops) -> Dict[str, Any]:
        raise NotImplementedError

    def verify(self, state: State, out: Dict[str, Any], ops: Ops) -> None:
        raise NotImplementedError

    # -- shared pieces --------------------------------------------------
    def _attach_live_tree(self, state: State) -> None:
        state.maintainer = StabilityTreeMaintainer(state.overlay)
        state.feed = OverlayConnectivityFeed(state.overlay)

    def _epoch(self, state: State, tracer: Tracer, number: int, events: Sequence[Any]) -> bool:
        """One epoch as the live-tree user runs it; returns connectivity."""
        with tracer.span("overlay.apply_batch"):
            state.overlay.apply_batch(events, max_rounds=MAX_ROUNDS)
        with tracer.span("tree.refresh"):
            state.maintainer.refresh()
        with tracer.span("connectivity.query"):
            connected = state.feed.is_connected()
        with tracer.span("metrics.health_sample"):
            state.maintainer.engine.health_sample(number)
        return connected

    def _run_epochs(
        self,
        state: State,
        watch: Stopwatch,
        tracer: Tracer,
        ops: Ops,
        paused_checks: Optional[Callable[[int], None]] = None,
    ) -> Dict[str, Any]:
        baseline = self._counters(state)
        events = touched = 0
        for number, batch in enumerate(state.epochs):
            with watch.lap():
                connected = ops.attempt(f"epoch {number}", self._epoch, state, tracer, number, batch)
            ops.check(f"epoch {number}: overlay connected", bool(connected))
            events += len(batch)
            touched += self._drain_touched(state)
            if paused_checks is not None:
                paused_checks(number)
        out: Dict[str, Any] = {
            "events": events, "samples": len(state.epochs), "delta_touched": touched,
        }
        out.update(_epoch_percentiles(watch.laps))
        out["counters"] = self._counters_since(state, baseline)
        return out

    @staticmethod
    def _drain_touched(state: State) -> int:
        recorder = state.delta_recorder
        return len(recorder.drain().touched) if recorder is not None else 0

    def _counters_since(self, state: State, baseline: Dict[str, int]) -> Dict[str, int]:
        return {key: value - baseline[key] for key, value in self._counters(state).items()}

    @staticmethod
    def _counters(state: State) -> Dict[str, int]:
        """Public counters of the live objects (deltas are reported)."""
        index = state.overlay.index
        return {
            "index.rebuilds": index.rebuilds if index is not None else 0,
            "tree.reparent_ops": state.maintainer.engine.reparent_operations,
            "tree.full_rebuilds": state.maintainer.full_rebuilds,
            "connectivity.rebuilds": state.feed.tracker.rebuilds,
        }


class ColdConvergeEr2d(Workload):
    name = "cold_converge_er2d"

    def prepare(self, seed: int, size: Dict[str, float]) -> State:
        count = int(size["peers"])
        started = time.perf_counter()
        peers = generate_peers_with_lifetimes(count, 2, seed=derive(seed, "cold.peers"))
        generate_s = time.perf_counter() - started
        require_distinct_axes(self.name, (peer.coordinates for peer in peers))
        # Chain bootstrap: every joiner knows the previous one.
        joins = [BatchJoin(peers[0], bootstrap=frozenset())] + [
            BatchJoin(peer, bootstrap=frozenset({previous.peer_id}))
            for previous, peer in zip(peers, peers[1:])
        ]
        rng = random.Random(derive(seed, "cold.choices"))
        state = State(
            check_rng=rng, generate_s=generate_s, generated_events=count,
            overlay=OverlayNetwork(EmptyRectangleSelection()), epochs=[joins],
            extra={"root": peers[rng.randrange(count)].peer_id},
        )
        self._attach_live_tree(state)
        return state

    def body(self, state: State, watch: Stopwatch, tracer: Tracer, ops: Ops) -> Dict[str, Any]:
        overlay, maintainer, feed = state.overlay, state.maintainer, state.feed
        baseline = self._counters(state)
        joins = state.epochs[0]
        out: Dict[str, Any] = {"events": len(joins), "samples": 1}

        def converge() -> None:
            with tracer.span("overlay.apply_batch"):
                overlay.apply_batch(joins, max_rounds=MAX_ROUNDS)

        def constructions() -> None:
            with tracer.span("tree.refresh"):
                maintainer.refresh()
            with tracer.span("connectivity.query"):
                out["connected"] = feed.is_connected()
            with tracer.span("overlay.snapshot"):
                snapshot = overlay.snapshot()
            with tracer.span("multicast.space_partition_build"):
                out["construction"] = SpacePartitionTreeBuilder().build(
                    snapshot, state.extra["root"]
                )
            with tracer.span("multicast.stability_build"):
                out["stability_tree"] = build_stability_tree(snapshot)

        with watch.lap():
            ops.attempt("first full convergence", converge)
        with watch.lap():
            ops.attempt("tree refresh and constructions", constructions)
        out["converge_s"] = watch.laps[0]
        out["delta_touched"] = self._drain_touched(state)
        out["counters"] = self._counters_since(state, baseline)
        construction = out.get("construction")
        if construction is not None:
            out["construct_msgs"] = construction.messages_sent
            out["construct_msgs_per_peer"] = construction.messages_sent / (len(joins) - 1)
        return out

    def verify(self, state: State, out: Dict[str, Any], ops: Ops) -> None:
        overlay = state.overlay
        count = overlay.peer_count
        ops.check("overlay connected", bool(out.get("connected")))
        construction = out.get("construction")
        ops.check("space-partition construction sends exactly N-1 messages",
                  construction is not None and construction.messages_sent == count - 1)
        ops.check("space-partition construction reaches everyone",
                  construction is not None and construction.delivered_everywhere
                  and construction.reached_count == count)
        tree = out.get("stability_tree")
        ops.check("stability tree spans everyone", tree is not None and tree.size == count)
        _check_empty_rectangle(overlay, state.check_rng, ops, "settled")
        _check_tree(overlay, state.maintainer, ops, "settled")


class ChurnTraceEr2d(Workload):
    name = "churn_trace_er2d"

    def prepare(self, seed: int, size: Dict[str, float]) -> State:
        count = int(size["ids"])
        started = time.perf_counter()
        peers = generate_peers_with_lifetimes(count, 2, seed=derive(seed, "churn.peers"))
        trace = poisson_trace(
            count, session_mean=size["session_mean"], epoch_length=size["epoch_length"],
            seed=SHAPE_SEED,
        )
        generate_s = time.perf_counter() - started
        require_distinct_axes(self.name, (peer.coordinates for peer in peers))
        trace.validate()
        # Bootstrap contacts are inputs too: drawn here, against the alive
        # set each join will see (earlier joins of the same batch included).
        rng = random.Random(derive(SHAPE_SEED, "churn.bootstraps"))
        alive: List[int] = []
        epochs: List[Sequence[Any]] = []
        for batch in trace.batches:
            events: List[Any] = []
            for event in batch.events:
                if event.kind == "join":
                    contacts = frozenset({rng.choice(alive)}) if alive else frozenset()
                    events.append(BatchJoin(peers[event.peer_id], bootstrap=contacts))
                    alive.append(event.peer_id)
                else:
                    events.append(BatchLeave(event.peer_id))
                    alive.remove(event.peer_id)
            epochs.append(events)
        state = State(
            check_rng=random.Random(derive(seed, "churn.checks")),
            generate_s=generate_s, generated_events=trace.event_count,
            overlay=OverlayNetwork(EmptyRectangleSelection()), epochs=epochs,
        )
        self._attach_live_tree(state)
        return state

    def body(self, state: State, watch: Stopwatch, tracer: Tracer, ops: Ops) -> Dict[str, Any]:
        # The Poisson trace drains to empty, so "settled" checks run with the
        # clock paused at the quartile epochs.  Read-only on purpose: a
        # reselect_round() here would invalidate the engine and perturb the
        # epochs that follow.
        last = len(state.epochs) - 1
        quartiles = {last // 4: "25%", last // 2: "50%", (3 * last) // 4: "75%"}

        def paused_checks(number: int) -> None:
            tag = quartiles.get(number)
            if tag is not None:
                _check_empty_rectangle(state.overlay, state.check_rng, ops, tag)
                _check_tree(state.overlay, state.maintainer, ops, tag)

        return self._run_epochs(state, watch, tracer, ops, paused_checks)

    def verify(self, state: State, out: Dict[str, Any], ops: Ops) -> None:
        ops.check("the trace drained the overlay", state.overlay.peer_count == 0)
        ops.check("the maintained tree drained too", state.maintainer.engine.peer_count == 0)


def _mobility_script(
    peers: Sequence[PeerInfo],
    alive_count: int,
    epochs: int,
    shape: random.Random,
    rng: random.Random,
) -> Tuple[List[BatchJoin], List[Sequence[Any]], List[Tuple[float, ...]]]:
    """Bulk joins, then ``epochs`` batches of {1 move, 1 leave, 1 join}.

    ``shape`` picks who moves, leaves and bootstraps off whom; ``rng`` draws
    the move targets, by rejection against every coordinate value in play
    (a superset of the alive set), per axis.
    """
    dimension = peers[0].dimension
    used = [{peer.coordinates[axis] for peer in peers} for axis in range(dimension)]

    def fresh_point() -> Tuple[float, ...]:
        point = []
        for axis in range(dimension):
            value = rng.uniform(0.0, DEFAULT_VMAX)
            while value in used[axis]:
                value = rng.uniform(0.0, DEFAULT_VMAX)
            used[axis].add(value)
            point.append(value)
        return tuple(point)

    joins = [BatchJoin(peers[0], bootstrap=frozenset())] + [
        BatchJoin(peers[position], bootstrap=frozenset({peers[shape.randrange(position)].peer_id}))
        for position in range(1, alive_count)
    ]
    alive = [peer.peer_id for peer in peers[:alive_count]]
    script: List[Sequence[Any]] = []
    targets: List[Tuple[float, ...]] = []
    for epoch in range(epochs):
        mover = shape.choice(alive)
        leaver = shape.choice([peer_id for peer_id in alive if peer_id != mover])
        alive.remove(leaver)
        target = fresh_point()
        targets.append(target)
        joiner = peers[alive_count + epoch]
        script.append((
            BatchMove(mover, target),
            BatchLeave(leaver),
            BatchJoin(joiner, bootstrap=frozenset({shape.choice(alive)})),
        ))
        alive.append(joiner.peer_id)
    return joins, script, targets


class _MobilityWorkload(Workload):
    """Bulk join in set-up, then timed {move, leave, join} epochs."""

    dimension = 2
    gossip_radius: Optional[int] = None

    def selection(self) -> Any:
        raise NotImplementedError

    def bulk_join(self, overlay: OverlayNetwork, joins: Sequence[BatchJoin]) -> None:
        overlay.apply_batch(joins, max_rounds=MAX_ROUNDS)

    def prepare(self, seed: int, size: Dict[str, float]) -> State:
        alive_count, epochs = int(size["alive"]), int(size["epochs"])
        started = time.perf_counter()
        peers = generate_peers_with_lifetimes(
            alive_count + epochs, self.dimension, seed=derive(seed, f"{self.name}.peers")
        )
        generate_s = time.perf_counter() - started
        rng = random.Random(derive(seed, f"{self.name}.targets"))
        shape = random.Random(derive(SHAPE_SEED, f"{self.name}.script"))
        joins, script, targets = _mobility_script(peers, alive_count, epochs, shape, rng)
        require_distinct_axes(self.name, [peer.coordinates for peer in peers] + targets)
        overlay = OverlayNetwork(self.selection(), gossip_radius=self.gossip_radius)
        self.bulk_join(overlay, joins)
        state = State(
            check_rng=rng, generate_s=generate_s,
            generated_events=alive_count + 3 * epochs, overlay=overlay, epochs=script,
        )
        self._attach_live_tree(state)
        return state

    def body(self, state: State, watch: Stopwatch, tracer: Tracer, ops: Ops) -> Dict[str, Any]:
        return self._run_epochs(state, watch, tracer, ops)

    def verify(self, state: State, out: Dict[str, Any], ops: Ops) -> None:
        _check_tree(state.overlay, state.maintainer, ops, "settled")
        # Last: the full sweep invalidates the incremental engine.
        ops.check("a final full reselect_round() changes nothing (fixed point)",
                  state.overlay.reselect_round() is False)


class MobilityTraceHp3d(_MobilityWorkload):
    name = "mobility_trace_hp3d"
    dimension = 3
    k = 2

    def selection(self) -> Any:
        return OrthogonalHyperplanesSelection(k=self.k)

    def verify(self, state: State, out: Dict[str, Any], ops: Ops) -> None:
        _check_hyperplanes(state.overlay, self.k, state.check_rng, ops)
        super().verify(state, out, ops)


class BoundedGossipEr2d(_MobilityWorkload):
    name = "bounded_gossip_er2d"
    gossip_radius = 2

    def selection(self) -> Any:
        return EmptyRectangleSelection()

    def bulk_join(self, overlay: OverlayNetwork, joins: Sequence[BatchJoin]) -> None:
        # One at a time, converging after each (the paper's procedure): with
        # knowledge bounded to two hops, a single batch of all the joins
        # splits the overlay on roughly one seed in seven.
        for join in joins:
            overlay.apply_batch((join,), max_rounds=MAX_ROUNDS)


class GossipSimLossy(Workload):
    name = "gossip_sim_lossy"

    def prepare(self, seed: int, size: Dict[str, float]) -> State:
        count = int(size["peers"])
        started = time.perf_counter()
        peers = generate_peers_with_lifetimes(count, 2, seed=derive(seed, "sim.peers"))
        churn = interleaved_join_leave_schedule(
            count, join_interval=0.5, leave_fraction=0.2, holdoff=6.0,
            seed=SHAPE_SEED,
        )
        generate_s = time.perf_counter() - started
        require_distinct_axes(self.name, (peer.coordinates for peer in peers))
        link_model = LinkModel(
            LognormalLatency(0.02, 0.5), loss_rate=0.03, bandwidth_bytes_per_second=1e6,
            seed=derive(seed, "sim.links"),
        )
        return State(
            check_rng=random.Random(derive(seed, "sim.choices")),
            generate_s=generate_s, generated_events=len(churn),
            extra={
                "peers": peers, "churn": churn, "link_model": link_model,
                "selection": EmptyRectangleSelection(),
                "protocol_seed": SHAPE_SEED,
                "settle_time": size["settle_time"], "extra_time": size["extra_time"],
            },
        )

    def install(self, state: State, tracer: Tracer) -> None:
        trace_simulator(tracer, state.extra["selection"], state.extra["link_model"])

    def body(self, state: State, watch: Stopwatch, tracer: Tracer, ops: Ops) -> Dict[str, Any]:
        extra = state.extra
        out: Dict[str, Any] = {"events": len(extra["churn"]), "samples": 1}

        def overlay_phase() -> Any:
            with tracer.span("sim.overlay_phase"):
                return run_gossip_overlay(
                    extra["peers"], extra["selection"], network=extra["link_model"],
                    churn=extra["churn"], settle_time=extra["settle_time"],
                    seed=extra["protocol_seed"], maintain_tree=True,
                )

        def probe_phase(result: Any) -> Any:
            with tracer.span("sim.probe_phase"):
                return run_dissemination_probe(result, extra_time=extra["extra_time"])

        def construct_phase(result: Any, root: int) -> Any:
            with tracer.span("sim.construct_phase"):
                return run_multicast_over_gossip_overlay(
                    result, root, extra_time=extra["extra_time"]
                )

        with watch.lap():
            result = ops.attempt("overlay phase", overlay_phase)
        if result is None:
            return out
        out["result"] = result
        out["overlay_phase_s"] = watch.laps[0]
        stats = result.overlay_stats
        out["sim_stats"] = (stats.messages_sent, stats.bytes_sent, stats.messages_lost)
        out["sim_msgs_per_s"] = stats.messages_sent / watch.laps[0]
        out["sim_bytes_mb"] = stats.bytes_sent / 1e6
        # Clock paused: the settled neighbour sets, before the later phases
        # run more gossip over them.
        out["settled_neighbours"] = {
            peer_id: frozenset(process.neighbours)
            for peer_id, process in result.processes.items() if process.is_alive
        }
        with watch.lap():
            probe = ops.attempt("dissemination probe", probe_phase, result)
        if probe is None:
            return out
        out["probe"] = probe
        out["probe_p90_ms"] = probe.statistics.p90 * 1000.0
        with watch.lap():
            construction = ops.attempt("multicast construction", construct_phase, result, probe.root)
        if construction is not None:
            alive = len(out["settled_neighbours"])
            out["construction"] = construction
            out["construct_msgs"] = construction.construction_messages
            out["construct_msgs_per_peer"] = construction.construction_messages / (alive - 1)
        return out

    def verify(self, state: State, out: Dict[str, Any], ops: Ops) -> None:
        """Per alive peer: settled at the equilibrium, probed, constructed."""
        settled = out.get("settled_neighbours", {})
        infos = [peer for peer in state.extra["peers"] if peer.peer_id in settled]
        equilibrium = OverlayNetwork.build_equilibrium(infos, EmptyRectangleSelection())
        probe, construction = out.get("probe"), out.get("construction")
        ops.check("some peers are alive at settle time", bool(settled))
        for peer_id in sorted(settled):
            ops.check(f"peer {peer_id}: neighbour set equals the equilibrium",
                      settled[peer_id] == equilibrium.selected_neighbours(peer_id))
            ops.check(f"peer {peer_id}: probe reached",
                      probe is not None and peer_id in probe.latencies)
            ops.check(f"peer {peer_id}: construction reached",
                      construction is not None
                      and peer_id not in construction.result.unreached_peers)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        ColdConvergeEr2d(), ChurnTraceEr2d(), MobilityTraceHp3d(),
        BoundedGossipEr2d(), GossipSimLossy(),
    )
}
