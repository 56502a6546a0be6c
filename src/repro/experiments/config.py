"""Experiment scales: smoke, bench and paper-scale parameter sets.

Every figure driver takes an :class:`ExperimentScale`.  The paper's
experiments use ``N = 1000`` peers (up to ``N = 5000`` in Figure 1 (c)),
build a multicast tree from *every* peer, and sweep ``D = 2..10`` and
``K = 1..50``; running all of that takes long enough that it is not a useful
default for a test suite or a benchmark run.  Three scales are provided:

* ``smoke`` -- seconds; used by the integration tests.
* ``bench`` -- minutes for the whole benchmark suite; the default for
  ``pytest benchmarks/``.  Trends (who wins, how series grow) are already
  clearly visible at this scale.
* ``paper`` -- the paper's parameters; select it by exporting
  ``REPRO_SCALE=paper`` before running the benchmarks.

The scale used by benchmarks is resolved by :func:`resolve_scale` from the
``REPRO_SCALE`` environment variable, so reproducing the paper-scale numbers
is a one-variable change, not a code change.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["ExperimentScale", "SCALES", "resolve_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Parameter set shared by the figure drivers.

    Attributes
    ----------
    name:
        Scale identifier ("smoke", "bench", "paper").
    peer_count:
        ``N`` used by Figure 1 (a), (b), (d) and (e).
    scaling_peer_counts:
        The ``N`` sweep of Figure 1 (c).
    section2_dimensions:
        The ``D`` sweep of Figure 1 (a) and (b).
    section3_dimensions:
        The ``D`` sweep of Figure 1 (d) and (e).
    k_values:
        The ``K`` sweep of Figure 1 (d) and (e).
    root_sample:
        Number of initiating peers sampled for Figure 1 (b); ``None`` means
        every peer initiates once, as in the paper.
    seed:
        Workload seed; the drivers derive per-configuration seeds from it.
    """

    name: str
    peer_count: int
    scaling_peer_counts: Tuple[int, ...]
    section2_dimensions: Tuple[int, ...]
    section3_dimensions: Tuple[int, ...]
    k_values: Tuple[int, ...]
    root_sample: Optional[int]
    seed: int = 20100725  # PODC 2010 started on July 25th.

    def __post_init__(self) -> None:
        if self.peer_count < 2:
            raise ValueError("peer_count must be at least 2")
        if not self.scaling_peer_counts:
            raise ValueError("scaling_peer_counts must not be empty")
        if any(d < 2 for d in self.section2_dimensions + self.section3_dimensions):
            raise ValueError("all dimensions must be at least 2")
        if any(k < 1 for k in self.k_values):
            raise ValueError("all K values must be at least 1")
        if self.root_sample is not None and self.root_sample < 1:
            raise ValueError("root_sample must be positive when given")


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        peer_count=60,
        scaling_peer_counts=(30, 60, 90),
        section2_dimensions=(2, 3),
        section3_dimensions=(2, 3, 4),
        k_values=(1, 2, 4, 8),
        root_sample=8,
    ),
    "bench": ExperimentScale(
        name="bench",
        peer_count=250,
        scaling_peer_counts=(100, 175, 250, 400),
        section2_dimensions=(2, 3, 4, 5),
        section3_dimensions=(2, 3, 5, 7, 10),
        k_values=(1, 2, 5, 10, 20, 35, 50),
        root_sample=40,
    ),
    "paper": ExperimentScale(
        name="paper",
        peer_count=1000,
        scaling_peer_counts=(100, 400, 700, 1000, 4000),
        section2_dimensions=(2, 3, 4, 5),
        section3_dimensions=tuple(range(2, 11)),
        k_values=tuple(range(1, 51)),
        root_sample=None,
    ),
}

SCALE_ENVIRONMENT_VARIABLE = "REPRO_SCALE"


def resolve_scale(name: Optional[str] = None) -> ExperimentScale:
    """Return the requested scale, or the one selected by ``REPRO_SCALE``.

    Precedence: explicit ``name`` argument, then the environment variable,
    then ``"bench"``.
    """
    if name is None:
        name = os.environ.get(SCALE_ENVIRONMENT_VARIABLE, "bench")
    key = name.strip().lower()
    try:
        return SCALES[key]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise ValueError(f"unknown experiment scale {name!r}; known: {known}") from None
