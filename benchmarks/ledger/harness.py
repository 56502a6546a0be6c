"""Run one workload in this process: repeats, medians, the traced pass.

``measure`` is what both entry points and the smoke test call.  The
end-to-end pass runs the body on fresh state with **no wrapper installed**,
several times, and reports medians over the repeats -- except ``wall_s``
(and ``events_per_s``, its reciprocal), which is the sum over the body's
laps of the fastest run of each lap (:func:`steady_wall`); the traced pass
runs the body once more with the layers' public functions wrapped (and once
without, as its own reference for ``trace.overhead_share``).  Nothing is
written anywhere: the result is returned, and ``main`` prints it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from . import spec
from .tracing import ROOT, Tracer
from .workloads import WORKLOADS, Ops, State, Stopwatch, Workload

__all__ = ["Repeat", "main", "measure"]

#: A repeat whose wall exceeds its CPU time by more than this share waited
#: on something other than its own work (another process, paging).
DISTURBED_SHARE = 0.15
#: Set-ups per run, so ``setup_s`` is a median of several.
MIN_SETUPS = 3
#: Under ``--seconds`` at least this many repeats run, however long one body
#: takes: ``steady_wall`` needs every lap to have met an undisturbed host at
#: least once.
MIN_TIMED_REPEATS = 3


class Repeat:
    """One body on fresh state: its stopwatch, outputs and tracer."""

    def __init__(self, workload: Workload, state: State) -> None:
        self.workload = workload
        self.state = state
        self.watch = Stopwatch()
        self.tracer = Tracer()
        self.out: Dict[str, Any] = {}

    @property
    def disturbed(self) -> bool:
        return self.watch.wall > self.watch.cpu * (1.0 + DISTURBED_SHARE)

    def run(self, ops: Ops, *, traced: bool = False) -> "Repeat":
        workload, tracer = self.workload, self.tracer
        if traced:
            workload.install(self.state, tracer)
        try:
            self.out = workload.body(self.state, self.watch, tracer, ops)
        finally:
            tracer.remove()
        workload.verify(self.state, self.out, ops)
        return self

    def summary(self) -> Dict[str, Any]:
        """The numbers that outlive this repeat.

        Only numbers do: holding every repeat's overlay would make
        ``peak_rss_mb`` depend on how many repeats fitted the budget.
        """
        out, wall = self.out, self.watch.wall
        values = {"wall_s": wall, "events_per_s": out["events"] / wall}
        for name in (
            "converge_s", "epoch_p50_ms", "epoch_p90_ms", "sim_msgs_per_s",
            "construct_msgs_per_peer", "probe_p90_ms", "sim_bytes_mb",
        ):
            if name in out:
                values[name] = out[name]
        return {
            "values": values, "wall": wall, "cpu": self.watch.cpu, "laps": self.watch.laps,
            "events": out["events"],
            "inner_samples": out["samples"], "sim_stats": out.get("sim_stats"),
        }


def steady_wall(lap_rows: Sequence[Sequence[float]]) -> float:
    """The body's wall with every lap at the fastest of its repeats.

    The repeats replay the same inputs, so lap ``i`` is the same work in
    each.  The host this runs on slows a process down by 1.3x-2x for seconds
    at a time (a busy neighbour on the core), which moves the median of
    three to six whole bodies by 20 % from one run to the next; the fastest
    run of a 20-100 ms lap is the lap on a quiet core, and the sum of those
    moved by 2-7 % in the same runs.  Every term is a measured lap.
    """
    return sum(min(laps) for laps in zip(*lap_rows))


def measure(
    name: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    repeats: Optional[int] = None,
    trace: bool = False,
    scale: str = "full",
    import_s: float = 0.0,
) -> Dict[str, Any]:
    """Measure one workload; returns the ledger record of this process.

    Give ``repeats`` for a fixed number of fresh-state repeats (a disturbed
    repeat is rerun once), or ``seconds`` to repeat until the timed work is
    as close to that as whole bodies get (at least ``MIN_TIMED_REPEATS``
    times; the budget is fixed, so disturbed repeats are only marked).  With
    ``trace`` one
    untraced repeat is the reference for one traced repeat, and the record
    also carries the per-layer metrics.
    """
    workload = WORKLOADS[name]
    ops = Ops()
    prepare_samples: List[float] = []

    def fresh(at_scale: str = scale) -> Repeat:
        # The previous repeat's cyclic garbage (peer processes, engines) is
        # not this repeat's memory or work: drop it before anything is timed.
        gc.collect()
        started = time.perf_counter()
        state = workload.prepare(seed, spec.SIZES[name][at_scale])
        if at_scale == scale:
            prepare_samples.append(time.perf_counter() - started)
        return Repeat(workload, state)

    # Warm-up: the same body once at smoke scale, so lazy imports, numpy's
    # first calls and code caches are paid before anything is timed.
    started = time.perf_counter()
    fresh("smoke").run(Ops())
    warmup_s = time.perf_counter() - started
    prepare_samples.clear()

    done: List[Dict[str, Any]] = []
    disturbed = 0

    def enough() -> bool:
        if trace or not done:
            return bool(done)
        if repeats is not None:
            return len(done) >= repeats
        # Stop where one more body would overshoot by more than this falls short.
        timed = sum(summary["wall"] for summary in done)
        return len(done) >= MIN_TIMED_REPEATS and timed * (1 + 0.5 / len(done)) >= (seconds or 0.0)

    while not enough():
        repeat = fresh().run(ops)
        if repeat.disturbed:
            disturbed += 1
            if repeats is not None:
                repeat = fresh().run(ops)
        done.append(repeat.summary())
        del repeat
    walls = [summary["wall"] for summary in done]

    per_layer = layer_self_s = None
    sim_stats = [summary["sim_stats"] for summary in done]
    if trace:
        repeat = fresh().run(ops, traced=True)
        per_layer = _per_layer(repeat, statistics.median(walls))
        layer_self_s = _layer_self_seconds(repeat)
        sim_stats.append(repeat.summary()["sim_stats"])
        del repeat
    while len(prepare_samples) < MIN_SETUPS:
        fresh()

    # Simulated quantities repeat exactly for a fixed seed -- traced or not.
    if sim_stats[0] is not None and len(sim_stats) > 1:
        ops.check("sim messages_sent / bytes_sent / messages_lost identical across repeats",
                  all(other == sim_stats[0] for other in sim_stats[1:]))

    samples: Dict[str, List[float]] = {}
    for summary in done:
        for metric, value in summary["values"].items():
            samples.setdefault(metric, []).append(value)
    steady = {"wall_s": steady_wall([summary["laps"] for summary in done])}
    steady["events_per_s"] = done[0]["events"] / steady["wall_s"]
    samples["setup_s"] = [import_s + warmup_s + prepare_s for prepare_s in prepare_samples]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    samples["failed_share"] = [ops.failed / ops.attempted]

    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "repeats": len(done),
        "disturbed_repeats": disturbed,
        "inner_samples": done[0]["inner_samples"],
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "cpu_s": [summary["cpu"] for summary in done],
        "end_to_end": {
            metric.name: {
                "value": steady.get(metric.name, statistics.median(samples[metric.name])),
                "unit": metric.unit,
                "samples": samples[metric.name],
            }
            for metric in spec.END_TO_END
            if metric.name in samples
        },
    }
    if per_layer is not None:
        record["per_layer"] = per_layer
        record["layer_self_s"] = layer_self_s
    return record


def _per_layer(repeat: Repeat, untraced_wall: float) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one traced repeat (0 where a layer idled)."""
    tracer, out, state = repeat.tracer, repeat.out, repeat.state
    wall = repeat.watch.wall
    seconds, calls = tracer.seconds, tracer.calls
    counts = dict(out.get("counters", {}))
    counts.update(tracer.counts)
    self_s = tracer.self_seconds(wall)

    full = counts.get("selection.full_references", 0)
    additive = counts.get("selection.additive_updates", 0)
    values: Dict[str, float] = {
        "workloads.generate_s": state.generate_s,
        "workloads.events": state.generated_events,
        "overlay.engine_self_s": self_s.get("overlay.converge", 0.0),
        "overlay.delta_touched": out.get("delta_touched", 0),
        "selection.full_share": full / (full + additive) if full + additive else 0.0,
        "multicast.construct_msgs": out.get("construct_msgs", 0),
        "trace.overhead_share": (wall - untraced_wall) / untraced_wall,
        "trace.unattributed_share": self_s[ROOT] / wall,
    }
    for span in (
        "overlay.membership", "overlay.converge", "overlay.install_selections",
        "selection.install_many", "selection.select_many", "selection.select_many_additive",
        "index.orthant_skyline", "index.region_top_k", "index.nearest_k", "index.maintain",
        "tree.refresh", "connectivity.query",
        "sim.engine_schedule", "sim.send", "sim.estimate_bytes", "sim.delivery_time",
        "sim.selection",
    ):
        values[f"{span}_s"] = seconds(span)
        values[f"{span}_calls"] = calls(span)
    for span in (
        "overlay.snapshot", "multicast.space_partition_build", "multicast.stability_build",
        "metrics.health_sample", "sim.overlay_phase", "sim.probe_phase", "sim.construct_phase",
    ):
        values[f"{span}_s"] = seconds(span)
    values["sim.handler_self_s"] = self_s.get("sim.overlay_phase", 0.0)

    result = out.get("result")
    if result is not None:
        stats = result.overlay_stats
        counts.update({
            "sim.engine_events": result.engine.processed_events,
            "sim.engine_cancelled": result.engine.cancelled_events,
            "sim.messages_sent": stats.messages_sent,
            "sim.messages_lost": stats.messages_lost,
            "sim.messages_dropped": stats.messages_dropped,
            "sim.bytes_sent": stats.bytes_sent,
            "sim.selection_full": result.total_selection_invocations(),
            "sim.selection_additive": result.total_additive_updates(),
            "sim.reselect_ticks": result.total_reselect_ticks(),
            "sim.reselect_skips": result.total_reselect_skips(),
            "sim.retransmissions": sum(p.retransmissions for p in result.processes.values()),
        })
    values.update(counts)
    return {
        metric.name: {"value": values.get(metric.name, 0), "unit": metric.unit}
        for metric in spec.PER_LAYER
    }


def _layer_self_seconds(repeat: Repeat) -> Dict[str, float]:
    """Span self times summed by layer; they add up to the traced wall."""
    layers: Dict[str, float] = {}
    for span, value in repeat.tracer.self_seconds(repeat.watch.wall).items():
        layer = spec.layer_of(span)
        layers[layer] = layers.get(layer, 0.0) + value
    return layers


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def contract_metrics(record: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """The metrics of the result line: every ``BENCHMARK.json`` end-to-end
    metric, or (traced) every per-layer one."""
    end_to_end = record["end_to_end"]
    if not trace:
        return {
            metric.name: {"value": end_to_end[metric.name]["value"], "unit": metric.unit}
            for metric in spec.contract_end_to_end()
        }
    # The workload-specific end-to-end metrics ride along, from this
    # process's *untraced* repeat, so one traced run is self-contained.
    reported = {**end_to_end, **record["per_layer"]}
    return {
        metric.name: {"value": reported.get(metric.name, {"value": 0})["value"], "unit": metric.unit}
        for metric in spec.contract_per_layer()
    }


def print_record(record: Dict[str, Any], stream: Any = sys.stdout) -> None:
    """Every metric by name, with its unit and (end to end) sample count."""
    name = record["workload"]
    traced = "per_layer" in record
    print(
        f"== {name} (seed {record['seed']}): "
        + ("traced pass, one reference body and one traced body"
           if traced else
           f"end to end, {record['repeats']} repeat(s) x {record['inner_samples']} inner "
           f"sample(s), {record['disturbed_repeats']} disturbed"),
        file=stream,
    )
    if traced:
        for metric, entry in record["per_layer"].items():
            print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}", file=stream)
        for metric, entry in record["end_to_end"].items():
            print(f"{name}  reference body: {metric} = {entry['value']:.6g} {entry['unit']}",
                  file=stream)
        layers = record["layer_self_s"]
        total = sum(layers.values())
        for layer, value in sorted(layers.items(), key=lambda item: -item[1]):
            print(f"{name}  self[{layer}] = {value:.4f} s ({value / total:.1%} of traced wall)",
                  file=stream)
    else:
        for metric, entry in record["end_to_end"].items():
            print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}"
                  f"  (n={len(entry['samples'])})", file=stream)
    print(f"{name}  operations: {record['attempted']} attempted, {record['failed']} failed",
          file=stream)
    for failure in record["failures"]:
        print(f"{name}  FAILED {failure}", file=stream)


def main(argv: Sequence[str], *, import_s: float = 0.0) -> int:
    """``run.py``: one workload, one process, the result as the last line."""
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat the body until this much timed work accumulated")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed number of repeats instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="also print the full ledger record as one 'LEDGER {json}' line")
    args = parser.parse_args(argv)
    record = measure(
        args.workload, args.seed, seconds=args.seconds, repeats=args.repeats,
        trace=bool(args.trace), import_s=import_s,
    )
    print_record(record)
    if args.record:
        print("LEDGER " + json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": contract_metrics(record, bool(args.trace)),
    }))
    return 0
