"""Command-line interface: run the paper's experiments from a shell.

Run in place as ``PYTHONPATH=src python -m repro.cli <command>``, or, once
the package is installed (``pip install -e .``), as the ``repro`` console
script that ``pyproject.toml`` registers.  Sub-commands map one-to-one onto
the experiment drivers:

* ``figure1a`` / ``figure1b`` / ``figure1c`` -- the Section 2 panels,
* ``figure1d`` / ``figure1e`` -- the Section 3 sweep (diameter / degree view),
* ``ablations`` -- the construction-strategy, region-pick and tree-churn
  ablations (A1-A3), the overlay-churn reconvergence ablation (A4) and the
  real-network link-model ablation (A8),
* ``network`` -- the A8 link-model sweep alone (loss, latency
  distributions, bandwidth queueing, dissemination-latency percentiles);
  what the CI smoke job runs,
* ``trace`` -- the churn-trace scenarios (Poisson, flash crowd, mass
  departure, diurnal wave) replayed through the batched-epoch path with
  live tree and connectivity metrics,
* ``all`` -- every experiment above in sequence.

Every command accepts ``--scale smoke|bench|paper`` (default: the
``REPRO_SCALE`` environment variable, then ``bench``) and prints plain-text
tables -- the same ones the benchmark harness prints.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.ablations import (
    run_baseline_comparison,
    run_churn_ablation,
    run_overlay_churn_ablation,
    run_network_model_ablation,
    run_pick_strategy_ablation,
)
from repro.experiments.trace_runner import run_trace_scenarios
from repro.experiments.config import SCALES, resolve_scale
from repro.experiments.figure1a import run_figure1a
from repro.experiments.figure1b import run_figure1b
from repro.experiments.figure1c import run_figure1c
from repro.experiments.figure1d_e import run_stability_sweep
from repro.metrics.reporting import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of the PODC 2010 multicast-tree paper.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="experiment scale (default: $REPRO_SCALE, then 'bench')",
    )
    parser.add_argument(
        "command",
        choices=[
            "figure1a",
            "figure1b",
            "figure1c",
            "figure1d",
            "figure1e",
            "ablations",
            "network",
            "trace",
            "all",
        ],
        help="which experiment to run",
    )
    return parser


def _print_block(title: str, body: str) -> None:
    banner = "=" * 72
    print(f"{banner}\n{title}\n{banner}\n{body}\n")


def _run_figure1a(scale) -> None:
    result = run_figure1a(scale)
    _print_block(f"Figure 1(a) - overlay degree vs dimension [{result.scale_name}]", result.to_table())


def _run_figure1b(scale) -> None:
    result = run_figure1b(scale)
    _print_block(
        f"Figure 1(b) - longest root-to-leaf path vs dimension [{result.scale_name}]",
        result.to_table(),
    )


def _run_figure1c(scale) -> None:
    result = run_figure1c(scale)
    _print_block(
        f"Figure 1(c) - overlay degree vs peer count (D=2) [{result.scale_name}]",
        result.to_table(),
    )


def _run_stability(scale, *, view: str) -> None:
    result = run_stability_sweep(scale)
    series = result.diameter_series() if view == "diameter" else result.degree_series()
    label = "tree diameter" if view == "diameter" else "max tree degree"
    rows = [
        [f"D={dimension}", k, value]
        for dimension in sorted(series)
        for k, value in series[dimension]
    ]
    panel = "1(d)" if view == "diameter" else "1(e)"
    _print_block(
        f"Figure {panel} - {label} vs K [{result.scale_name}] "
        f"(invariants hold: {result.all_invariants_hold()})",
        format_table(["dimension", "K", label], rows),
    )


def _run_ablations(scale) -> None:
    for title, runner in (
        ("Ablation A1 - construction strategies", run_baseline_comparison),
        ("Ablation A2 - region pick strategy", run_pick_strategy_ablation),
        ("Ablation A3 - departures vs tree strategy", run_churn_ablation),
        ("Ablation A4 - overlay churn reconvergence", run_overlay_churn_ablation),
        ("Ablation A8 - real-network link models", run_network_model_ablation),
    ):
        _, table = runner(scale)
        _print_block(f"{title} [{scale.name}]", table.to_table())


def _run_network(scale) -> None:
    _, table = run_network_model_ablation(scale)
    _print_block(f"Ablation A8 - real-network link models [{scale.name}]", table.to_table())


def _run_trace(scale) -> None:
    _, table = run_trace_scenarios(scale)
    _print_block(
        f"Churn-trace scenarios - batched-epoch replay [{scale.name}]",
        table.to_table(),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = build_parser().parse_args(argv)

    command = arguments.command
    scale = resolve_scale(arguments.scale)
    if command in ("figure1a", "all"):
        _run_figure1a(scale)
    if command in ("figure1b", "all"):
        _run_figure1b(scale)
    if command in ("figure1c", "all"):
        _run_figure1c(scale)
    if command in ("figure1d", "all"):
        _run_stability(scale, view="diameter")
    if command in ("figure1e", "all"):
        _run_stability(scale, view="degree")
    if command in ("ablations", "all"):
        _run_ablations(scale)
    if command == "network":
        # "all" covers A8 through _run_ablations; the standalone subcommand
        # exists so the CI smoke job can run just the link-model sweep.
        _run_network(scale)
    if command in ("trace", "all"):
        _run_trace(scale)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
