"""Unit tests for repro.geometry.distance."""

import math
import random

import numpy as np
import pytest

import repro.geometry.distance
import repro.geometry.hyperplane
import repro.geometry.index
import repro.overlay.selection.hyperplanes
from repro.geometry.distance import (
    chebyshev_distance,
    euclidean_distance,
    get_distance,
    manhattan_distance,
    minkowski_distance,
)
from repro.geometry.index import _point_distance
from repro.geometry.index import minkowski

A = (1.0, 2.0, 3.0)
B = (4.0, 0.0, 3.0)


class TestDistanceValues:
    def test_manhattan(self):
        assert manhattan_distance(A, B) == pytest.approx(5.0)

    def test_euclidean(self):
        assert euclidean_distance(A, B) == pytest.approx(math.sqrt(13.0))

    def test_chebyshev(self):
        assert chebyshev_distance(A, B) == pytest.approx(3.0)

    def test_minkowski_generalises_the_others(self):
        assert minkowski_distance(A, B, p=1.0) == pytest.approx(manhattan_distance(A, B))
        assert minkowski_distance(A, B, p=2.0) == pytest.approx(euclidean_distance(A, B))
        assert minkowski_distance(A, B, p=float("inf")) == pytest.approx(
            chebyshev_distance(A, B)
        )

    def test_distance_to_self_is_zero(self):
        for fn in (manhattan_distance, euclidean_distance, chebyshev_distance):
            assert fn(A, A) == 0.0

    def test_symmetry(self):
        for fn in (manhattan_distance, euclidean_distance, chebyshev_distance):
            assert fn(A, B) == pytest.approx(fn(B, A))


class TestDistanceErrors:
    def test_dimension_mismatch_raises(self):
        for fn in (manhattan_distance, euclidean_distance, chebyshev_distance):
            with pytest.raises(ValueError):
                fn((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_minkowski_rejects_order_below_one(self):
        with pytest.raises(ValueError):
            minkowski_distance(A, B, p=0.5)


class TestRegistry:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("l1", manhattan_distance),
            ("manhattan", manhattan_distance),
            ("L2", euclidean_distance),
            ("Euclidean", euclidean_distance),
            ("linf", chebyshev_distance),
            ("chebyshev", chebyshev_distance),
        ],
    )
    def test_lookup_by_name(self, name, expected):
        assert get_distance(name) is expected

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown distance"):
            get_distance("hamming")


class TestSummationOrder:
    """The python distance functions, the numpy rows of ``minkowski`` and the
    spatial index's ``_point_distance`` add the same terms in the same order,
    so the scan, the numpy path and the index rank candidates identically."""

    @pytest.mark.parametrize("dimension", [1, 2, 3, 5, 8, 10])
    @pytest.mark.parametrize("name,order", [("l1", 1.0), ("l2", 2.0), ("linf", math.inf)])
    def test_three_paths_agree_bit_for_bit(self, name, order, dimension):
        rng = random.Random(dimension)
        rows = [[rng.uniform(-1.0, 1.0) for _ in range(dimension)] for _ in range(500)]
        origin = (0.0,) * dimension
        expected = [get_distance(name)(row, origin) for row in rows]
        assert minkowski(np.array(rows), order).tolist() == expected
        assert [_point_distance(row, order) for row in rows] == expected


def neumaier_sum(values, start=0):
    """What builtin ``sum`` computes over floats from Python 3.12 on: a
    Neumaier-compensated total, not a left-to-right one."""
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


class TestSummationOrderUnderCompensatedSum(TestSummationOrder):
    """The same three paths with ``sum`` bound to Python 3.12's in every module
    that computes a distance or a hyperplane value, so the order they add in
    cannot depend on the interpreter's builtin."""

    @pytest.fixture(autouse=True)
    def compensated_sum(self, monkeypatch):
        for module in (repro.geometry.distance, repro.geometry.hyperplane,
                       repro.geometry.index, repro.overlay.selection.hyperplanes):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
