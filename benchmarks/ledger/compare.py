"""Judge ledger B against ledger A, metric by metric, workload by workload.

For every (end-to-end metric, workload) both values are printed with their
base and a verdict:

* ``identical`` / ``DIFFERS`` -- exact (simulated) metrics must not move;
* ``within bound`` -- B's median is no worse than A's by more than the bound;
* ``REGRESSION`` -- it is worse by more than the bound;
* ``unresolved`` -- the repeats of either side spread wider than the bound,
  so "unchanged" cannot be claimed (unless every B repeat beats every A
  repeat, or every B repeat is worse and the medians differ by more than the
  bound).

The exit status is non-zero on any ``REGRESSION`` or ``DIFFERS``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from . import spec

__all__ = ["compare", "verdict"]


def _spread(samples: Sequence[float]) -> float:
    """Range of the repeats as a share of their median."""
    middle = statistics.median(samples)
    return (max(samples) - min(samples)) / middle if middle else 0.0


def verdict(metric: spec.Metric, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """The verdict for one metric on one workload, with its figures."""
    base, other = a["value"], b["value"]
    if metric.exact:
        word = "identical" if base == other else "DIFFERS"
        return f"A={base:.6g} B={other:.6g} {metric.unit}  exact  {word}"
    lower = metric.better == "lower"
    worse_by = ((other - base) if lower else (base - other)) / base
    spread = max(_spread(a["samples"]), _spread(b["samples"]))
    if spread > metric.bound:
        if lower:
            b_wins = max(b["samples"]) < min(a["samples"])
            b_loses = min(b["samples"]) > max(a["samples"])
        else:
            b_wins = min(b["samples"]) > max(a["samples"])
            b_loses = max(b["samples"]) < min(a["samples"])
        if b_wins:
            word = "within bound"
        elif b_loses and worse_by > metric.bound:
            word = "REGRESSION"
        else:
            word = "unresolved"
    else:
        word = "REGRESSION" if worse_by > metric.bound else "within bound"
    return (
        f"A={base:.6g} B={other:.6g} {metric.unit}  worse by {worse_by:+.1%} of A"
        f"  (bound {metric.bound:.0%}, spread {spread:.1%}, n={len(a['samples'])}/"
        f"{len(b['samples'])})  {word}"
    )


def compare(ledger_a: Dict[str, Any], ledger_b: Dict[str, Any], lines: List[str]) -> int:
    """Append one line per (workload, metric) to ``lines``; returns the exit status."""
    for side, ledger in (("A", ledger_a), ("B", ledger_b)):
        origin = ledger["provenance"]
        lines.append(
            f"{side}: {origin['git_sha'][:12]} seed {ledger['seed']} repeats "
            f"{ledger['repeats']} on {origin['cpu_model']} x{origin['nproc']}, "
            f"python {origin['python']}, numpy {origin['numpy']}"
        )
    if ledger_a["seed"] != ledger_b["seed"]:
        lines.append("note: the seeds differ, so exact metrics are expected to differ")
    status = 0
    for workload in spec.WORKLOADS:
        a, b = ledger_a["workloads"][workload], ledger_b["workloads"][workload]
        for metric in spec.END_TO_END:
            if not metric.applies_to(workload):
                continue
            if metric.name not in a["end_to_end"] or metric.name not in b["end_to_end"]:
                # The phase that produces it failed on one side.
                line = "not measured on both sides  DIFFERS"
            else:
                line = verdict(metric, a["end_to_end"][metric.name], b["end_to_end"][metric.name])
            lines.append(f"{workload}  {metric.name}  {line}")
            if line.endswith(("REGRESSION", "DIFFERS")):
                status = 1
    return status
