"""Experiment drivers: one module per figure panel of the paper, plus ablations.

Each driver builds the paper's workload at a configurable scale
(:mod:`repro.experiments.config`), runs the relevant construction and returns
a result object with the measured series, a plain-text table and a shape
comparison against the values digitized from the paper's Figure 1
(:mod:`repro.experiments.paper_data`).  The benchmark harness in
``benchmarks/`` is a thin timing wrapper around these drivers.
"""

from repro.experiments.config import SCALES, ExperimentScale, resolve_scale
from repro.experiments.figure1a import Figure1aResult, Figure1aRow, run_figure1a
from repro.experiments.figure1b import Figure1bResult, Figure1bRow, run_figure1b
from repro.experiments.figure1c import Figure1cResult, Figure1cRow, run_figure1c
from repro.experiments.figure1d_e import (
    StabilitySweepResult,
    StabilitySweepRow,
    run_figure1d,
    run_figure1e,
    run_stability_sweep,
)
from repro.experiments.ablations import (
    AblationResult,
    BaselineComparisonRow,
    ChurnRow,
    PickStrategyRow,
    run_baseline_comparison,
    run_churn_ablation,
    run_pick_strategy_ablation,
)
from repro.experiments.trace_runner import (
    EpochSample,
    TraceRunner,
    TraceRunResult,
    TraceScenarioRow,
    run_trace_scenarios,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "resolve_scale",
    "Figure1aRow",
    "Figure1aResult",
    "run_figure1a",
    "Figure1bRow",
    "Figure1bResult",
    "run_figure1b",
    "Figure1cRow",
    "Figure1cResult",
    "run_figure1c",
    "StabilitySweepRow",
    "StabilitySweepResult",
    "run_stability_sweep",
    "run_figure1d",
    "run_figure1e",
    "AblationResult",
    "BaselineComparisonRow",
    "PickStrategyRow",
    "ChurnRow",
    "run_baseline_comparison",
    "run_pick_strategy_ablation",
    "run_churn_ablation",
    "EpochSample",
    "TraceRunner",
    "TraceRunResult",
    "TraceScenarioRow",
    "run_trace_scenarios",
]
