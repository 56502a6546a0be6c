"""Shared benchmark configuration.

Every benchmark regenerates one figure panel (or textual claim / ablation) of
the paper at the scale selected by the ``REPRO_SCALE`` environment variable
(``bench`` by default, ``paper`` for the paper's full parameters -- see
``repro.experiments.config``).  Each benchmark prints the measured table and,
where the paper reports a series, the shape comparison against the values
digitized from Figure 1.

The minutes-scale (``slow``-marked) benchmarks additionally *persist* their
headline numbers through :func:`persist_bench_record`: one
``benchmarks/results/BENCH_<scenario>.json`` record per scenario (scenario,
``N``, wall-clock, and either the absolute budget it is held to or the
measured speedup over a baseline arm with its asserted floor), so the perf
trajectory is machine-readable across PRs instead of living only in captured
stdout.  Records are committed when a PR moves the numbers (the trajectory
is diffable in-repo); the weekly CI job additionally uploads the directory
as a build artifact.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Optional

import pytest

from repro.experiments.config import ExperimentScale, resolve_scale

#: Where the machine-readable benchmark records land (one file per scenario,
#: overwritten per run so the newest numbers are always the file's content).
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_configure(config: pytest.Config) -> None:
    """Register the marker carried by the heavyweight replay benchmarks."""
    config.addinivalue_line(
        "markers",
        "slow: minutes-scale benchmark; the CI tier-1 job deselects these "
        '(-m "not slow")',
    )


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale every benchmark in this session runs at."""
    resolved = resolve_scale()
    print(f"\n[repro] benchmark scale: {resolved.name} (N={resolved.peer_count})")
    return resolved


def print_report(title: str, table: str, *extra_lines: str) -> None:
    """Print a benchmark's measured table in a recognisable block."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}\n{table}")
    for line in extra_lines:
        print(line)
    print(banner)


def peak_rss_mb() -> Optional[float]:
    """Peak resident-set size of this process in MB, or ``None`` if unknown.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalised to MB
    so the ``peak_rss_mb`` record field is platform-comparable.  The schema
    types the field but keeps it optional, exactly for environments where
    ``resource`` is unavailable (e.g. Windows): :func:`persist_bench_record`
    leaves a ``None`` out of the record.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    kilobytes = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if platform.system() == "Darwin":  # pragma: no cover - darwin reports bytes
        kilobytes /= 1024.0
    if kilobytes <= 0:  # pragma: no cover - defensive
        return None
    return round(kilobytes / 1024.0, 1)


def persist_bench_record(
    scenario: str,
    *,
    peer_count: int,
    wall_seconds: float,
    speedup: Optional[float] = None,
    speedup_floor: Optional[float] = None,
    **extra,
) -> Path:
    """Write one benchmark's headline numbers to ``BENCH_<scenario>.json``.

    ``wall_seconds`` is the measured arm's wall-clock; a benchmark that
    also times a baseline arm passes ``speedup``, its headline ratio, and
    ``speedup_floor``, the value its assertion enforces.  Extra keyword
    fields (budgets, baseline wall-clocks, event counts, ...) are stored
    verbatim; a field that is ``None`` is left out of the record, never
    written as ``null``.  Returns the written path.
    """
    record = {
        "scenario": scenario,
        "peer_count": peer_count,
        "wall_seconds": round(wall_seconds, 3),
        "speedup": None if speedup is None else round(speedup, 2),
        "speedup_floor": speedup_floor,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        **extra,
    }
    record = {key: value for key, value in record.items() if value is not None}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{scenario}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"[repro] benchmark record persisted: {path}")
    return path
