"""Distance functions used by the neighbour selection methods.

The Hyperplanes neighbour selection family selects, within each region, the
``K`` peers closest to the reference peer "using a distance function".  The
Section 2 experiments sort neighbours inside each orthant region by the L1
distance.  This module provides the standard Minkowski family plus a small
registry so that selection methods can be configured by name.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

__all__ = [
    "manhattan_distance",
    "euclidean_distance",
    "chebyshev_distance",
    "minkowski_distance",
    "get_distance",
    "DISTANCE_FUNCTIONS",
]

DistanceFunction = Callable[[Sequence[float], Sequence[float]], float]


def _check_dimensions(a: Sequence[float], b: Sequence[float]) -> None:
    if len(a) != len(b):
        raise ValueError(
            f"cannot compute a distance between points of dimension {len(a)} and {len(b)}"
        )


def manhattan_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """L1 distance: sum of absolute per-axis differences."""
    _check_dimensions(a, b)
    return float(sum(abs(x - y) for x, y in zip(a, b)))


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """L2 distance: square root of the sum of squared per-axis differences."""
    _check_dimensions(a, b)
    return math.sqrt(sum((x - y) * (x - y) for x, y in zip(a, b)))


def chebyshev_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """L-infinity distance: largest absolute per-axis difference."""
    _check_dimensions(a, b)
    return float(max(abs(x - y) for x, y in zip(a, b)))


def minkowski_distance(a: Sequence[float], b: Sequence[float], p: float = 2.0) -> float:
    """Minkowski distance of order ``p`` (``p >= 1``)."""
    if p < 1:
        raise ValueError(f"Minkowski order must be >= 1, got {p}")
    _check_dimensions(a, b)
    if math.isinf(p):
        return chebyshev_distance(a, b)
    return float(sum(abs(x - y) ** p for x, y in zip(a, b)) ** (1.0 / p))


DISTANCE_FUNCTIONS: Dict[str, DistanceFunction] = {
    "l1": manhattan_distance,
    "manhattan": manhattan_distance,
    "l2": euclidean_distance,
    "euclidean": euclidean_distance,
    "linf": chebyshev_distance,
    "chebyshev": chebyshev_distance,
}


def get_distance(name: str) -> DistanceFunction:
    """Look up a distance function by name.

    Recognised names: ``l1``/``manhattan``, ``l2``/``euclidean``,
    ``linf``/``chebyshev`` (case-insensitive).
    """
    key = name.strip().lower()
    try:
        return DISTANCE_FUNCTIONS[key]
    except KeyError:
        known = ", ".join(sorted(set(DISTANCE_FUNCTIONS)))
        raise ValueError(f"unknown distance function {name!r}; known: {known}") from None
