"""Distance functions used by the neighbour selection methods.

The Hyperplanes neighbour selection family selects, within each region, the
``K`` peers closest to the reference peer "using a distance function".  The
Section 2 experiments sort neighbours inside each orthant region by the L1
distance.  This module provides the standard Minkowski family plus a small
registry so that selection methods can be configured by name.  Sums add
left to right in a loop, as the numpy and index paths do: the builtin
``sum`` is compensated from Python 3.12 on.
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
    "MINKOWSKI_ORDERS",
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
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x - y)
    return total


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """L2 distance: square root of the sum of squared per-axis differences."""
    _check_dimensions(a, b)
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return math.sqrt(total)


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
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x - y) ** p
    return total ** (1.0 / p)


#: Every accepted distance name, with the Minkowski order it names: the
#: one list both the functions below and the Hyperplanes array pass read.
MINKOWSKI_ORDERS: Dict[str, float] = {
    "l1": 1.0,
    "manhattan": 1.0,
    "l2": 2.0,
    "euclidean": 2.0,
    "linf": math.inf,
    "chebyshev": math.inf,
}

_FUNCTION_OF_ORDER: Dict[float, DistanceFunction] = {
    1.0: manhattan_distance,
    2.0: euclidean_distance,
    math.inf: chebyshev_distance,
}

DISTANCE_FUNCTIONS: Dict[str, DistanceFunction] = {
    name: _FUNCTION_OF_ORDER[order] for name, order in MINKOWSKI_ORDERS.items()
}


def get_distance(name: str) -> DistanceFunction:
    """Look up a distance function by name.

    Recognised names: ``l1``/``manhattan``, ``l2``/``euclidean``,
    ``linf``/``chebyshev`` (case-insensitive).  Anything else, a
    non-string included, is a :class:`ValueError` listing them.
    """
    function = DISTANCE_FUNCTIONS.get(name.strip().lower()) if isinstance(name, str) else None
    if function is None:
        known = ", ".join(sorted(MINKOWSKI_ORDERS))
        raise ValueError(f"unknown distance function {name!r}; known: {known}")
    return function
