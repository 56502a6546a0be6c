"""Tier-1 smoke test of the perf ledger: all five workloads at the fixed tiny
scale, both passes, in a few seconds.  It guards the benchmark's *shape* --
names, units, zero failures, exact repeatability, wrapper removal -- not its
numbers."""

import json
import re
from pathlib import Path

import pytest

import repro.simulation.network as simulation_network
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import SimulatedNetwork

from . import spec
from .compare import verdict
from .harness import contract_metrics, measure
from .workloads import require_distinct_axes

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _class_level_patch_points():
    return (
        SimulatedNetwork.__dict__["send"],
        SimulationEngine.__dict__["schedule"],
        simulation_network.estimate_message_bytes,
    )


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_reports_every_metric_exactly_and_cleans_up(workload):
    originals = _class_level_patch_points()
    first = measure(workload, spec.DEFAULT_SEED, repeats=1, trace=True, scale="smoke")
    second = measure(workload, spec.DEFAULT_SEED, repeats=1, trace=True, scale="smoke")

    # The traced pass left nothing behind: the patched attributes are the
    # original objects again.
    assert _class_level_patch_points() == originals

    assert first["failed"] == 0, first["failures"]
    assert first["end_to_end"]["failed_share"]["value"] == 0

    # Every BENCHMARK.json metric is reported, named and with its unit.
    for trace, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        reported = contract_metrics(first, trace)
        assert set(reported) == {entry["name"] for entry in declared}
        for entry in declared:
            assert NAME.fullmatch(entry["name"])
            assert reported[entry["name"]]["unit"] == entry["unit"]
            assert isinstance(reported[entry["name"]]["value"], (int, float))
    for entry in BENCHMARK["end_to_end"]:
        assert contract_metrics(first, False)[entry["name"]]["value"] > 0

    # Simulated (exact) metrics and counters repeat across two runs.
    for metric in spec.END_TO_END:
        if metric.exact and metric.applies_to(workload):
            assert (first["end_to_end"][metric.name]["value"]
                    == second["end_to_end"][metric.name]["value"])
    for name in ("sim.messages_sent", "sim.bytes_sent", "sim.messages_lost",
                 "sim.engine_events", "multicast.construct_msgs", "overlay.converge_rounds"):
        assert first["per_layer"][name]["value"] == second["per_layer"][name]["value"]

    # Layers a workload bypasses stay at zero calls.
    if workload in ("bounded_gossip_er2d", "gossip_sim_lossy"):
        for name, entry in first["per_layer"].items():
            if name.startswith("index.") and name.endswith("_calls"):
                assert entry["value"] == 0


def test_benchmark_json_agrees_with_the_spec():
    assert NAME.fullmatch("".join(BENCHMARK["paths"][0].split("/")))
    assert {entry["name"]: entry["why"] for entry in BENCHMARK["workloads"]} == {
        name: spec.WORKLOADS[name] for name in spec.CONTRACT_WORKLOADS
    }
    assert BENCHMARK["run_seconds"] == spec.CONTRACT_RUN_SECONDS
    for declared, metrics in (
        (BENCHMARK["end_to_end"], spec.contract_end_to_end()),
        (BENCHMARK["per_layer"], spec.contract_per_layer()),
    ):
        assert [(e["name"], e["unit"], e["better"]) for e in declared] == [
            (m.name, m.unit, m.better) for m in metrics
        ]
    assert {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]} == spec.CONTRACT_BOUNDS


def test_inputs_with_a_repeated_axis_value_are_rejected():
    require_distinct_axes("ok", [(1.0, 2.0), (3.0, 4.0)])
    with pytest.raises(ValueError, match="axis 1"):
        require_distinct_axes("bad", [(1.0, 2.0), (3.0, 2.0)])


def test_compare_verdicts():
    wall = next(m for m in spec.END_TO_END if m.name == "wall_s")
    exact = next(m for m in spec.END_TO_END if m.name == "sim_bytes_mb")

    def entry(*samples):
        return {"value": sorted(samples)[len(samples) // 2], "samples": list(samples)}

    assert verdict(wall, entry(1.0, 1.01, 1.02), entry(1.05, 1.06, 1.07)).endswith("within bound")
    assert verdict(wall, entry(1.0, 1.01, 1.02), entry(1.2, 1.21, 1.22)).endswith("REGRESSION")
    assert verdict(wall, entry(1.0, 1.1, 1.3), entry(1.0, 1.15, 1.3)).endswith("unresolved")
    assert verdict(wall, entry(1.0, 1.1, 1.3), entry(0.7, 0.8, 0.9)).endswith("within bound")
    assert verdict(exact, entry(26.2), entry(26.2)).endswith("identical")
    assert verdict(exact, entry(26.2), entry(26.3)).endswith("DIFFERS")
