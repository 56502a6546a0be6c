"""Benchmark: batched-epoch convergence on an N >= 1000 churn trace.

The batched-epoch path (:meth:`repro.overlay.network.OverlayNetwork.apply_batch`)
pays one convergence per *epoch*, so a long churn trace costs engine rounds
proportional to its epoch count.  This benchmark generates a Poisson
join/leave trace with >= 2000 events whose alive population crosses 1000
peers and replays it with the live observability stack attached
(stability-tree maintainer with streaming metrics, union-find
connectivity), holding it to

* the oracles: the final overlay is the full-knowledge equilibrium of the
  survivors (``build_equilibrium``) and the maintained parents are the
  snapshot rule (``StabilityTreeBuilder``) over it;
* an absolute wall-clock budget (measured 97-104 s on a 2-vCPU box).

Marked ``slow`` like the other minutes-scale replays: the CI tier-1 job
deselects it (``-m "not slow"``); the weekly scheduled benchmark job and
local runs execute it.
"""

import pytest
from conftest import persist_bench_record, print_report

from repro.experiments.common import derive_seed
from repro.experiments.trace_runner import TraceRunner
from repro.metrics.reporting import format_table
from repro.multicast.stability import StabilityTreeBuilder
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers_with_lifetimes
from repro.workloads.traces import poisson_trace

pytestmark = pytest.mark.slow

_PEER_COUNT = 1300
_DIMENSION = 3
_SESSION_MEAN = 4000.0
_EPOCH_LENGTH = 120.0
_PEAK_FLOOR = 1000
_EVENT_FLOOR = 2000
_WALL_BUDGET_SECONDS = 300.0


def test_batched_epochs_make_long_churn_traces_tractable(scale):
    seed = derive_seed(scale.seed, 23, _PEER_COUNT)
    peers = generate_peers_with_lifetimes(_PEER_COUNT, _DIMENSION, seed=seed)
    trace = poisson_trace(
        _PEER_COUNT,
        session_mean=_SESSION_MEAN,
        epoch_length=_EPOCH_LENGTH,
        seed=seed,
    )
    assert trace.event_count >= _EVENT_FLOOR
    result = TraceRunner(peers, EmptyRectangleSelection, bootstrap_seed=seed).run(trace)
    peak = max(sample.peer_count for sample in result.samples)
    assert peak >= _PEAK_FLOOR
    assert result.always_connected
    assert result.full_rebuilds == 1

    survivors = [peers[peer_id] for peer_id in sorted(result.final_neighbours)]
    equilibrium = OverlayNetwork.build_equilibrium(survivors, EmptyRectangleSelection())
    assert result.final_neighbours == equilibrium.directed_neighbour_map()
    expected = StabilityTreeBuilder().build(equilibrium.snapshot())
    assert result.final_parents == dict(expected.preferred)

    print_report(
        f"Batched-epoch convergence [N={_PEER_COUNT}, {trace.event_count} events, "
        f"peak {peak} alive]",
        format_table(
            ["epochs", "events", "engine rounds", "reparents", "wall [s]"],
            [[
                result.epoch_count,
                result.total_events,
                result.total_rounds,
                result.reparent_operations,
                f"{result.wall_seconds:.1f}",
            ]],
        ),
        f"live tree health: max height {result.maximum_height}, max degree "
        f"{result.maximum_degree}, connectivity rebuilds {result.connectivity_rebuilds}",
        "final overlay == equilibrium of the survivors, maintained parents == snapshot rule",
    )
    assert result.wall_seconds <= _WALL_BUDGET_SECONDS
    persist_bench_record(
        "trace_convergence_batched",
        peer_count=_PEER_COUNT,
        wall_seconds=result.wall_seconds,
        wall_budget_seconds=_WALL_BUDGET_SECONDS,
        trace_events=trace.event_count,
        peak_alive=peak,
        engine_rounds=result.total_rounds,
    )
