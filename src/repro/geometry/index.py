"""Spatial index over peer coordinates: the two selection-rule queries.

The paper's selection rules ask a full-knowledge candidate set -- every
alive peer -- exactly two geometric questions: the per-orthant
empty-rectangle skyline (Section 2) and the per-region top-``K`` of the
Hyperplanes family.  A scan answers each by walking the whole population,
``O(N)`` per reference in Python.  This module answers them as array
passes over a coordinate column instead; the full-knowledge
:class:`~repro.overlay.network.OverlayNetwork` of a method with
``supports_index`` owns that column as a :class:`SpatialIndex`, and its
only reader is that method.

Division of labour
------------------

* the **coordinate column** (:class:`CoordinateColumn`, the index's base
  class: the live points as dense numpy rows) is what the two batched
  kernels read, each answering many references at once as array passes,
  every reference against the whole column or against its own row of
  stored ids: :func:`orthant_skylines` (the empty-rectangle rule: packed
  ranks in two dimensions; elsewhere one presorted pass over a whole
  column and pair tests per (row, orthant) cell over rows) and
  :func:`region_top_ks` (the Hyperplanes family: one sort by ``(row,
  region, distance, id)``).  An overlay owns exactly one column in either
  knowledge regime -- the index itself under full knowledge, a bare column
  under a gossip radius -- and the column caches what the passes derive
  from its points alone, so the kernel calls of every round of one
  converge share that set-up;
* :class:`SpatialIndex` is that column under full knowledge, by name.  Its
  :meth:`~SpatialIndex.orthant_skyline`, :meth:`~SpatialIndex.region_top_k`
  and :meth:`~SpatialIndex.nearest_k` are the literal brute force over its
  rows; no selection path calls them.

Byte-identical contract
-----------------------

The index exists to *replace* scans, so every query is defined purely in
terms of the comparisons the scan it replaces performs -- same candidate
keys (sign-flipped raw coordinates for skylines, per-axis deltas for
distances and hyperplane sides), same sequential left-to-right float
summation of distances and of hyperplane sides, same ``(distance, peer
id)`` tie-break, same lexicographic ``(key, peer id)`` skyline order, same
non-strict dominance.  Where a pass orders members by a float sum of their
keys (:func:`_sorted_pass`), the sum only decides which member is taken
first: addition is monotone, so a dominator never sorts after what it
dominates, and no survivor depends on how a sum rounds.  The hypothesis
suites in ``tests/geometry`` and ``tests/overlay`` hold the index to
exactly this: every query equals its brute-force twin, and index-backed
overlays reach the fixed points of ``build_equilibrium`` and the
synchronous-sweep oracle.

The module-level ``brute_force_*`` functions are those twins: literal
restatements of each query over a plain id -> coordinates mapping, used by
the property tests as ground truth.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import (
    Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple
)

import numpy as np

from repro.geometry.hyperplane import HyperplaneSet
from repro.geometry.point import CoordinateLike, Point, as_point

__all__ = [
    "CoordinateColumn",
    "SpatialIndex",
    "minkowski",
    "pareto_minima",
    "orthant_skylines",
    "region_top_ks",
    "brute_force_nearest_k",
    "brute_force_orthant_skyline",
    "brute_force_region_top_k",
]

_INF = float("inf")

# Rows the coordinate column starts with; it doubles when full.
_COLUMN_ROWS = 64

# (reference, member) elements one pass of the batched skyline kernel holds
# at once (at least one whole reference).  Every temporary of a pass (the
# packed keys, two halves, the running minimum) is an int64 array of this
# many elements, and the process's peak RSS is a benchmark metric with a
# 5 % bound: on the ledger's churn trace 4096 elements peak at 39.0 MB and
# 16384 at 39.2 MB, and the wall-clock the fewer passes save is inside the
# run-to-run spread.
_KERNEL_ELEMENTS = 4096

# Quadrant code of the reference itself among its members (excluded by id,
# never selected): above the four real quadrants, so no skyline reads it.
_OWN_ROW = 4

# Hyperplane sides one region code takes before it is re-ranked: a code is
# below 3**20 (about 2**31.7) times the pass's element count, inside int64.
_SIDES_PER_CODE = 20


def _point_distance(deltas: Sequence[float], order: float) -> float:
    """Minkowski norm of a delta vector, matching the scan paths bit for bit.

    The accumulation is sequential left-to-right, which is what both the
    plain-python distance functions (:mod:`repro.geometry.distance`) and
    the numpy column loop of :func:`minkowski` perform at every dimension,
    so a ranking computed here never disagrees with either.
    """
    if order == 1.0:
        total = 0.0
        for value in deltas:
            total += abs(value)
        return total
    if order == 2.0:
        total = 0.0
        for value in deltas:
            total += value * value
        return math.sqrt(total)
    if order == _INF:
        largest = 0.0
        for value in deltas:
            magnitude = abs(value)
            if magnitude > largest:
                largest = magnitude
        return largest
    raise ValueError(f"unsupported Minkowski order {order!r}; known: 1, 2, inf")


def minkowski(deltas: np.ndarray, order: float) -> np.ndarray:
    """Row-wise Minkowski norm of a matrix of coordinate differences.

    Columns are added left to right, squaring by multiplication for L2: the
    order and the arithmetic of :func:`_point_distance` and of the python
    distance functions, so all of them rank candidates byte-identically at
    every dimension (numpy's ``.sum`` adds eight or more columns pairwise).
    Supports the orders the named distances map to (1, 2 and infinity);
    other orders are rejected rather than silently miscomputed.
    """
    magnitudes = np.abs(deltas)
    if order == _INF:
        return magnitudes.max(axis=1)
    if order not in (1.0, 2.0):
        raise ValueError(f"unsupported Minkowski order {order!r}; known: 1, 2, inf")
    if order == 2.0:
        magnitudes = magnitudes * magnitudes
    total = magnitudes[:, 0].copy()
    for column in magnitudes.T[1:]:
        total += column
    return np.sqrt(total) if order == 2.0 else total


class CoordinateColumn:
    """Points as dense numpy rows: ``int64`` ids, ``float64`` coordinates.

    The form the batched kernels read.  ``insert``/``remove``/``move``
    are ``O(1)``: a removed row is overwritten by the last one, so rows
    ``[0, len)`` are exactly the live points in no particular order.  The
    dimension is fixed by the first inserted point and retained even when
    the column drains back to empty.  Only ``insert`` and ``remove`` write
    rows, and each drops the kernels' :class:`_SkylineTable` of them.
    """

    def __init__(self) -> None:
        self._dimension: Optional[int] = None
        self._row_of: Dict[int, int] = {}
        self._row_ids = np.empty(0, dtype=np.int64)
        self._row_coords = np.empty((0, 0), dtype=np.float64)
        self._table: Optional[_SkylineTable] = None

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, point_id: int) -> bool:
        return point_id in self._row_of

    @property
    def dimension(self) -> Optional[int]:
        """Dimension of the stored points (``None`` before the first insert)."""
        return self._dimension

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The live points as ``(ids int64[n], coordinates float64[n, D])``.

        Read-only views of the column, valid until the next mutation.  Row
        order is arbitrary (removal swaps the last row into the gap).
        """
        count = len(self._row_of)
        ids = self._row_ids[:count]
        coordinates = self._row_coords[:count]
        ids.flags.writeable = False
        coordinates.flags.writeable = False
        return ids, coordinates

    def _skyline_table(self) -> "_SkylineTable":
        """This version's table, built on the first call since a write."""
        if self._table is None:
            self._table = _SkylineTable(*self.columns())
        return self._table

    def insert(self, point_id: int, coordinates: CoordinateLike) -> Point:
        """Add one point; rejects duplicate ids and mixed dimensions."""
        if point_id in self._row_of:
            raise ValueError(f"id {point_id} is already indexed")
        point = as_point(coordinates)
        if self._dimension is None:
            self._dimension = point.dimension
            self._row_coords = np.empty((0, point.dimension), dtype=np.float64)
        elif point.dimension != self._dimension:
            raise ValueError(
                f"id {point_id} has dimension {point.dimension}, expected {self._dimension}"
            )
        row = len(self._row_of)
        if row == len(self._row_ids):
            capacity = max(_COLUMN_ROWS, 2 * row)
            ids = np.empty(capacity, dtype=np.int64)
            coordinates = np.empty((capacity, self._dimension), dtype=np.float64)
            ids[:row] = self._row_ids
            coordinates[:row] = self._row_coords
            self._row_ids, self._row_coords = ids, coordinates
        self._row_of[point_id] = row
        self._row_ids[row] = point_id
        self._row_coords[row] = point
        self._table = None
        return point

    def remove(self, point_id: int) -> None:
        """Remove one point."""
        try:
            row = self._row_of.pop(point_id)
        except KeyError:
            raise KeyError(f"id {point_id} is not indexed") from None
        last = len(self._row_of)
        if row != last:
            moved_id = int(self._row_ids[last])
            self._row_of[moved_id] = row
            self._row_ids[row] = moved_id
            self._row_coords[row] = self._row_coords[last]
        self._table = None

    def move(self, point_id: int, coordinates: CoordinateLike) -> None:
        """Update one point's coordinates in place (same id).

        Validates the new coordinates *before* touching any state, so a
        rejected move leaves the column exactly as it was.
        """
        if point_id not in self._row_of:
            raise KeyError(f"id {point_id} is not indexed")
        point = as_point(coordinates)
        if point.dimension != self._dimension:
            raise ValueError(
                f"id {point_id} has dimension {point.dimension}, expected {self._dimension}"
            )
        self.remove(point_id)
        self.insert(point_id, point)


class SpatialIndex(CoordinateColumn):
    """The full-knowledge overlay's :class:`CoordinateColumn`, by name.

    The batched kernels read its rows like any column's.  Its three query
    methods are the literal ``brute_force_*`` definitions over those rows,
    kept with their argument checks for callers that ask one question at a
    time (the benchmark ledger patches them by name); no selection path
    calls them.  A drained index keeps its dimension.
    """

    @property
    def rebuilds(self) -> int:
        """Always 0: the index keeps no structure besides its rows.

        The benchmark ledger reads it as ``index.rebuilds``."""
        return 0

    def ids(self) -> List[int]:
        """All indexed ids, sorted."""
        return sorted(self._row_of)

    def point(self, point_id: int) -> Point:
        """Coordinates of one indexed point, read from its row."""
        return Point(self._row_coords[self._row_of[point_id]].tolist())

    def _brute_force_input(
        self, origin: CoordinateLike
    ) -> Tuple[Dict[int, List[float]], Point]:
        """The rows as ``id -> coordinates`` and ``origin`` checked against
        the index's dimension: the brute force's arguments."""
        point = as_point(origin)
        if self._dimension is not None and point.dimension != self._dimension:
            raise ValueError(
                f"origin dimension {point.dimension} does not match index "
                f"dimension {self._dimension}"
            )
        ids, coordinates = self.columns()
        return dict(zip(ids.tolist(), coordinates.tolist())), point

    def nearest_k(
        self,
        origin: CoordinateLike,
        k: int,
        *,
        order: float = 2.0,
        exclude: Iterable[int] = (),
    ) -> List[int]:
        """The ``k`` ids closest to ``origin``, ranked by ``(distance, id)``:
        :func:`brute_force_nearest_k` over the rows."""
        points, point = self._brute_force_input(origin)
        return brute_force_nearest_k(points, point, k, order=order, exclude=exclude)

    def region_top_k(
        self,
        origin: CoordinateLike,
        hyperplane_set: Optional[HyperplaneSet],
        k: int,
        *,
        order: float = 2.0,
        exclude: Iterable[int] = (),
    ) -> Dict[Tuple[int, ...], List[int]]:
        """The ``k`` closest ids of every non-empty hyperplane region
        (``None`` or an empty set: the single region ``()``), each list
        ranked by ``(distance, id)``: :func:`brute_force_region_top_k` over
        the rows.  The Hyperplanes family selects through
        :func:`region_top_ks` instead."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        points, point = self._brute_force_input(origin)
        if hyperplane_set is not None and hyperplane_set.dimension != point.dimension:
            raise ValueError(
                f"hyperplane set dimension {hyperplane_set.dimension} does not "
                f"match origin dimension {point.dimension}"
            )
        return brute_force_region_top_k(
            points, point, hyperplane_set, k, order=order, exclude=exclude
        )

    def orthant_skyline(
        self,
        origin: CoordinateLike,
        signs: Sequence[int],
        *,
        exclude: Iterable[int] = (),
    ) -> List[int]:
        """Pareto-minimal ids of one orthant around ``origin``, in
        :func:`pareto_minima` order: :func:`brute_force_orthant_skyline`
        over the rows.  The empty-rectangle family selects through
        :func:`orthant_skylines` instead."""
        points, point = self._brute_force_input(origin)
        if len(signs) != point.dimension:
            raise ValueError(
                f"expected {point.dimension} orthant signs, got {len(signs)}"
            )
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("orthant signs must be -1 or +1")
        return brute_force_orthant_skyline(points, point, signs, exclude=exclude)


def pareto_minima(
    entries: List[Tuple[Tuple[float, ...], int]]
) -> List[Tuple[Tuple[float, ...], int]]:
    """Pareto-minimal ``(key, id)`` entries under non-strict dominance.

    THE canonical statement of the empty-rectangle tie-break rule, shared by
    the scan selection (:mod:`repro.overlay.selection.empty_rectangle`) and
    the brute-force reference, and the rule every kernel pass of
    :func:`orthant_skylines` is held to: entries are visited
    in lexicographic ``(key, id)`` order -- a dominator is lexicographically
    smaller than what it dominates, so an entry already kept can never be
    dominated by a later one, and one pass with dominance checks against the
    kept set suffices -- and an entry survives when no kept entry is
    component-wise ``<=`` its key.  Keeping one implementation is what makes
    "byte-identical to the scan" a structural property rather than a
    maintenance burden.
    """
    kept: List[Tuple[Tuple[float, ...], int]] = []
    for key, point_id in sorted(entries):
        if any(
            all(a <= b for a, b in zip(kept_key, key)) for kept_key, _ in kept
        ):
            continue
        kept.append((key, point_id))
    return kept


class _SkylineTable:
    """What the kernels derive from one version of a column: ``ids``
    ascending with their ``coords`` (a pass breaks ties by id),
    ``position[row]``, column row ``row``'s place among them, and in two
    dimensions the ``quadrant`` arguments of :func:`_quadrant_skyline_pass`
    (which packs at most ``2**20 - 1`` members), else ``None``."""

    __slots__ = ("ids", "coords", "position", "quadrant")

    def __init__(self, row_ids: np.ndarray, row_coords: np.ndarray) -> None:
        count = row_ids.size
        bits = count.bit_length()
        planar = row_coords.shape[1] == 2
        if planar and 3 * bits + 3 > 63:  # three fields under a 3-bit quadrant code
            raise ValueError(
                f"the quadrant kernel packs at most {(1 << 20) - 1} members into "
                f"a 64-bit key, got {count}"
            )
        by_id = np.argsort(row_ids)
        self.ids = row_ids[by_id]
        self.coords = row_coords[by_id]
        self.position = np.empty(count, dtype=np.int64)
        self.position[by_id] = np.arange(count)
        self.quadrant = None
        if planar:
            # A member's key on either side of the origin, one half per axis:
            # the first axis brings quadrant bit 0 and the key0 rank, the
            # second quadrant bit 1, the key1 rank and the id position.
            first, second = np.ascontiguousarray(self.coords.T)
            rank0 = np.unique(first, return_inverse=True)[1].astype(np.int64, copy=False)
            rank1 = np.unique(second, return_inverse=True)[1].astype(np.int64, copy=False)
            position = np.arange(count, dtype=np.int64)
            top = count - 1
            self.quadrant = (first, second, bits, (
                (1 << bits | rank0) << 2 * bits,
                (top - rank0) << 2 * bits,
                (2 << 2 * bits | rank1) << bits | position,
                (top - rank1) << bits | position,
            ))


def _kernel_input(
    column: CoordinateColumn, origins: np.ndarray, reference_ids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """A kernel's references as arrays: finite origins, one row each."""
    origins = np.asarray(origins, dtype=np.float64)
    reference_ids = np.asarray(reference_ids, dtype=np.int64)
    # An origin is a reference peer's position, which is finite.
    invalid = ~np.isfinite(origins)
    if invalid.any():
        raise ValueError(
            f"reference {reference_ids[invalid.any(axis=1).argmax()]} has a NaN "
            "or infinite coordinate"
        )
    if len(column) and origins.shape != (reference_ids.size, column.dimension):
        raise ValueError(
            f"origins must be one {column.dimension}-D row per reference, "
            f"got shape {origins.shape} for {reference_ids.size} references"
        )
    return origins, reference_ids


def _passes(
    column: CoordinateColumn,
    table: _SkylineTable,
    reference_count: int,
    rows: Optional[Sequence[Collection[int]]],
    most_rows: int,
) -> Iterator[Tuple[int, int, slice, Optional[np.ndarray], Optional[np.ndarray]]]:
    """Cut a kernel call into passes of whole rows, about
    ``_KERNEL_ELEMENTS`` elements each (at least one row, at most
    ``most_rows``): ``(start, stop, elements, rows, columns)`` per pass, the
    references ``[start, stop)``, their slice of the call's elements and
    the pass's (local row, id position) pairs -- both ``None`` when every
    row holds every member.  A row's stored ids become id positions through
    the column's ``id -> row`` map (an id it does not hold is a
    :class:`KeyError`): on the gossip workload's calls, a median of 205
    elements, that is cheaper than a ``searchsorted`` into the table's ids
    and its unknown-id check."""
    count = table.ids.size
    flat = columns = None
    if rows is None:
        offsets = np.arange(reference_count + 1) * count
    else:
        flat = np.repeat(np.arange(reference_count), [len(row) for row in rows])
        columns = table.position[np.fromiter(
            map(column._row_of.__getitem__, chain.from_iterable(rows)),
            dtype=np.int64,
            count=flat.size,
        )]
        offsets = np.searchsorted(flat, np.arange(reference_count + 1))
    start = 0
    while start < reference_count:
        stop = int(np.searchsorted(offsets, offsets[start] + _KERNEL_ELEMENTS, side="right")) - 1
        stop = min(max(stop, start + 1), start + most_rows)
        elements = slice(offsets[start], offsets[stop])
        yield (start, stop, elements,
               None if flat is None else flat[elements] - start,
               None if columns is None else columns[elements])
        start = stop


def orthant_skylines(
    column: CoordinateColumn,
    origins: np.ndarray,
    reference_ids: Sequence[int],
    rows: Optional[Sequence[Collection[int]]] = None,
    gained: Optional[np.ndarray] = None,
) -> List[List[int]]:
    """Empty-rectangle selections of many references over a column's points.

    For every reference (``origins[r]``, excluded from the members by
    ``reference_ids[r]``; it need not be stored) the sorted union of its
    orthants' :func:`pareto_minima` -- what one
    :func:`brute_force_orthant_skyline` call per orthant returns -- from
    array passes over the ``column`` in any dimension.  A member may lie at infinity; an origin may not (NaN
    never enters a column: :class:`~repro.geometry.point.Point` refuses it).

    ``rows`` gives every reference its own members instead of the whole
    column: one collection of stored ids per reference, in any order.  A
    row may be empty, repeat an id (one copy is kept) or name its own
    reference (excluded by id as ever); a reference pays for its own row,
    not for the union of all of them.  An id the column does not hold is a
    :class:`KeyError` naming it.

    ``gained`` (``bool``, one flag per element of the rows in order) states
    an additive input's precondition: each row's unflagged members are an
    installed selection, so they never dominate each other, and outside two
    dimensions only pairs with a flagged end are compared.

    The set-up that depends on the points alone is the column's
    :class:`_SkylineTable`, shared by every call until the column changes.
    A pass holds whole rows (:func:`_passes`): :func:`_quadrant_skyline_pass`
    in two dimensions; in any other, :func:`_sorted_pass` against the whole
    column and :func:`_dominance_pass` over ``rows``, which compares only
    the pairs of each row's own members.
    """
    origins, reference_ids = _kernel_input(column, origins, reference_ids)
    if not len(column):
        return [[] for _ in reference_ids]
    table = column._skyline_table()
    quadrant = table.quadrant  # packed: row bits + 3 * bits + 3 <= 63
    most_rows = reference_ids.size if quadrant is None else 1 << 60 - 3 * quadrant[2]
    gained = None if gained is None else np.asarray(gained, dtype=bool)
    selected: List[List[int]] = []
    for start, stop, elements, local_rows, columns in _passes(
        column, table, reference_ids.size, rows, most_rows
    ):
        block = (origins[start:stop], reference_ids[start:stop])
        if quadrant is not None:
            selected.extend(_quadrant_skyline_pass(
                *block, local_rows, columns, table.ids, *quadrant
            ))
        elif rows is None:
            selected.extend(_sorted_pass(*block, table.ids, table.coords))
        else:
            selected.extend(_dominance_pass(
                *block, local_rows, columns, gained if gained is None else gained[elements],
                table.ids, table.coords,
            ))
    return selected


def region_top_ks(
    column: CoordinateColumn,
    origins: np.ndarray,
    reference_ids: Sequence[int],
    hyperplane_set: HyperplaneSet,
    k: int,
    order: float,
    rows: Optional[Sequence[Collection[int]]] = None,
) -> List[List[int]]:
    """Hyperplanes-family selections of many references over a column's points.

    For every reference (as in :func:`orthant_skylines`: ``origins[r]``,
    excluded by ``reference_ids[r]``, against the whole column or its own
    ``rows[r]`` of stored ids) the ``k`` members closest to the origin in
    every region of ``hyperplane_set`` -- what the scan
    :meth:`~repro.overlay.selection.hyperplanes.HyperplanesSelection.select`
    keeps, in its emission order: regions in sorted signature order, each
    ranked by ``(distance, id)``, ``distance`` the Minkowski norm of
    ``order``.  A repeated id is kept once.  :func:`_region_pass` computes
    signatures and distances as the scan does, so it is the scan's rule on
    ties and on points exactly on a plane too.
    """
    origins, reference_ids = _kernel_input(column, origins, reference_ids)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not len(column):
        return [[] for _ in reference_ids]
    if hyperplane_set.dimension != column.dimension:
        raise ValueError(
            f"hyperplane set dimension {hyperplane_set.dimension} does not "
            f"match column dimension {column.dimension}"
        )
    table = column._skyline_table()
    planes = np.asarray(
        [plane.coefficients for plane in hyperplane_set.hyperplanes], dtype=np.float64
    ).reshape(len(hyperplane_set), column.dimension)
    selected: List[List[int]] = []
    for start, stop, _, local_rows, columns in _passes(
        column, table, reference_ids.size, rows, reference_ids.size
    ):
        selected.extend(_region_pass(
            origins[start:stop], reference_ids[start:stop], local_rows, columns,
            table.ids, table.coords, planes, k, order,
        ))
    return selected


def _region_pass(
    origins: np.ndarray,
    reference_ids: np.ndarray,
    rows: Optional[np.ndarray],
    columns: Optional[np.ndarray],
    ids: np.ndarray,
    coords: np.ndarray,
    planes: np.ndarray,
    k: int,
    order: float,
) -> List[List[int]]:
    """One pass of :func:`region_top_ks` (arguments as in
    :func:`_dominance_pass`; ``planes`` the hyperplane normals, one per row).

    A member's side of a plane is the sign of ``a . (member - origin)``,
    summed left to right from ``0.0`` as
    :meth:`~repro.geometry.hyperplane.Hyperplane.evaluate` does, so a
    member on the plane is on side ``0`` (and so is a NaN sum, a zero
    coefficient against an infinite delta).  Its region code ranks its
    signature lexicographically; the elements sort by ``(row, region,
    distance, id position)`` and the first ``k`` of each (row, region)
    survive."""
    count = ids.size
    if columns is None:
        rows = np.repeat(np.arange(len(origins)), count)
        columns = np.tile(np.arange(count), len(origins))
    others = ids[columns] != reference_ids[rows]
    rows, columns = rows[others], columns[others]
    deltas = coords[columns] - origins[rows]
    # Signatures three sides at a time per digit, _SIDES_PER_CODE digits
    # per code; a longer signature re-ranks the code (order kept) and goes on.
    codes = np.zeros(rows.size, dtype=np.int64)
    for first in range(0, len(planes), _SIDES_PER_CODE):
        if first:
            codes = np.unique(codes, return_inverse=True)[1].astype(np.int64, copy=False)
        normals = planes[first:first + _SIDES_PER_CODE]
        totals = np.zeros((rows.size, len(normals)))
        for axis, coefficients in enumerate(normals.T):
            totals += coefficients * deltas[:, axis:axis + 1]
        sides = 1 + (totals > 0).astype(np.int64) - (totals < 0)
        codes = codes * 3 ** len(normals) + sides @ 3 ** np.arange(len(normals))[::-1]
    ranked = np.lexsort((columns, minkowski(deltas, order), codes, rows))
    rows, columns, codes = rows[ranked], columns[ranked], codes[ranked]
    # A repeated id is adjacent to its copy; the first k of each (row,
    # region) run survive.
    fresh = np.ones(rows.size, dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]) | (columns[1:] != columns[:-1])
    rows, columns, codes = rows[fresh], columns[fresh], codes[fresh]
    place = np.arange(rows.size)
    run = np.ones(rows.size, dtype=bool)
    run[1:] = (rows[1:] != rows[:-1]) | (codes[1:] != codes[:-1])
    keep = place - np.maximum.accumulate(np.where(run, place, 0)) < k
    bounds = np.searchsorted(rows[keep], np.arange(len(origins) + 1)).tolist()
    picked = ids[columns[keep]].tolist()
    return [picked[a:b] for a, b in zip(bounds, bounds[1:])]


def _quadrant_skyline_pass(
    origins: np.ndarray,
    reference_ids: np.ndarray,
    rows: Optional[np.ndarray],
    columns: Optional[np.ndarray],
    ids: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    bits: int,
    halves: Sequence[np.ndarray],
) -> List[List[int]]:
    """One two-dimensional pass of :func:`orthant_skylines` over whole rows:
    ``rows`` and ``columns`` are the pass's (local row, id position) pairs,
    or both ``None`` when every row holds every member.

    Every element is one integer ``row | quadrant | key0 rank | key1 rank |
    id position`` (equal coordinates share a rank, so comparing ranks is
    comparing the floats), sorted by value -- :func:`pareto_minima`'s
    ``(key, id)`` order -- and a member survives when its ``key1`` rank is
    strictly below the smallest before it in its row and quadrant."""
    low = (1 << bits) - 1
    shift = 3 * bits  # the quadrant code's lowest bit; the row sits above it
    above0, below0, above1, below1 = halves
    if columns is None:
        packed = np.where(first > origins[:, 0:1], above0, below0)
        packed += np.where(second > origins[:, 1:2], above1, below1)
        packed[ids == reference_ids[:, None]] = _OWN_ROW << shift
        packed += (np.arange(len(origins), dtype=np.int64) << shift + 3)[:, None]
        # Rows already ascend by their row field: sorting each one is the
        # flat sort, at a fraction of its cost.
        packed.sort(axis=1)
        packed = packed.ravel()
    else:
        packed = np.where(first[columns] > origins[rows, 0], above0[columns], below0[columns])
        packed += np.where(second[columns] > origins[rows, 1], above1[columns], below1[columns])
        packed[ids[columns] == reference_ids[rows]] = _OWN_ROW << shift
        packed += rows << shift + 3
        packed.sort()
    # ``complement(row | quadrant) | key1 rank``, the other two fields masked
    # out: a later row or quadrant lives in a strictly lower range, so the
    # running minimum restarts by itself at every boundary and the first
    # member of a row's quadrant always survives.
    high = -1 << shift
    level = (packed ^ high) & (high | low << bits)
    keep = (packed & 7 << shift) < _OWN_ROW << shift
    keep[1:] &= level[1:] < np.minimum.accumulate(level)[:-1]

    # Survivors as ``row | id position``: one sort leaves every reference's
    # ids ascending.
    kept = packed[keep]
    chosen = (kept >> shift + 3 << bits) | (kept & low)
    chosen.sort()
    bounds = np.searchsorted(chosen, np.arange(len(origins) + 1) << bits).tolist()
    picked = ids[chosen & low].tolist()
    return [picked[a:b] for a, b in zip(bounds, bounds[1:])]


def _orthant_elements(
    origins: np.ndarray,
    reference_ids: np.ndarray,
    rows: Optional[np.ndarray],
    columns: Optional[np.ndarray],
    ids: np.ndarray,
    coords: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A pass's (row, member) elements outside two dimensions, each
    reference excluded by id: their ``rows``, id positions (``columns``),
    cells -- ``row << D | orthant code`` -- and keys, the sign-flipped raw
    coordinates, plus the mask of the input elements kept."""
    count, dimension = coords.shape
    if columns is None:
        rows = np.repeat(np.arange(len(origins)), count)
        columns = np.tile(np.arange(count), len(origins))
    others = ids[columns] != reference_ids[rows]
    rows, columns = rows[others], columns[others]
    points = coords[columns]
    greater = points > origins[rows]
    cells = rows << dimension | greater @ (1 << np.arange(dimension))
    return rows, columns, cells, np.where(greater, points, -points), others


def _dominance_pass(
    origins: np.ndarray,
    reference_ids: np.ndarray,
    rows: Optional[np.ndarray],
    columns: Optional[np.ndarray],
    gained: Optional[np.ndarray],
    ids: np.ndarray,
    coords: np.ndarray,
) -> List[List[int]]:
    """One pass of :func:`orthant_skylines` in any dimension, as pair tests
    (arguments as in :func:`_quadrant_skyline_pass`; ``coords`` the rows of
    the ascending ``ids``).

    A cell is a (row, orthant code) pair, a member's key its sign-flipped
    raw coordinates, and a member is dropped iff another member of its cell
    is ``<=`` on every axis and first in ``(key, id)`` order --
    :func:`pareto_minima`, as what a dropped member dominates, the member
    that dropped it dominates too.  With ``gained`` flags only pairs with a
    flagged end are compared: about ``|row| * |gains|``, not ``|row|**2``."""
    rows, columns, cells, keys, others = _orthant_elements(
        origins, reference_ids, rows, columns, ids, coords
    )
    order = np.argsort(cells)
    rows, columns, cells, keys = rows[order], columns[order], cells[order], keys[order]

    # Every tested element against its cell, the run [first, first + size)
    # of the sorted codes: pair k of a tested element is first + k.
    tested = np.flatnonzero(gained[others][order]) if gained is not None else np.arange(cells.size)
    first = np.searchsorted(cells, cells[tested])
    sizes = np.searchsorted(cells, cells[tested], side="right") - first
    left = np.repeat(tested, sizes)
    starts = np.flatnonzero(np.diff(left, prepend=-1))
    right = np.arange(left.size) - np.repeat(starts - first, sizes)
    if gained is not None:  # an unflagged member may still fall to a gain
        left, right = np.concatenate((left, right)), np.concatenate((right, left))
    # left dominates right: <= on every axis and first in (key, id) order.
    below = (keys[left] <= keys[right]).all(axis=1)
    left, right = left[below], right[below]
    tied = (keys[left] == keys[right]).all(axis=1)
    dominated = np.zeros(cells.size, dtype=bool)
    dominated[right[~tied | (columns[left] < columns[right])]] = True

    return _survivors(rows[~dominated], columns[~dominated], len(origins), ids)


def _sorted_pass(
    origins: np.ndarray,
    reference_ids: np.ndarray,
    ids: np.ndarray,
    coords: np.ndarray,
) -> List[List[int]]:
    """One pass of :func:`orthant_skylines` in any dimension, every row the
    whole column (arguments as in :func:`_dominance_pass`): a presorted
    skyline (SFS; Chomicki, Godfrey, Gryz and Liang, ICDE 2003).

    Cells, keys and the reference's exclusion are :func:`_orthant_elements`'s,
    as in :func:`_dominance_pass`.
    The elements sort by ``(cell, key total, key, id position)``, the total
    the key's axes added left to right; then, round after round, the first
    undecided element of every cell is kept and drops every undecided
    element of its cell it is ``<=`` on every axis, until none is undecided.

    Exact whatever the totals round to: a dominator is ``<=`` on every axis,
    and float addition is monotone, so its left-to-right total is never
    larger than the dominated element's; equal totals fall to the
    lexicographic key, which the dominator never exceeds, and equal keys to
    the id.  So every dominator sorts before what it dominates -- it is
    :func:`pareto_minima`'s ``(key, id)`` rule, exact duplicates included --
    and the first undecided element of a cell is dominated by nothing still
    undecided, nor by anything decided (a dropped dominator's own dropper
    would have dropped it too).  A key is never ``-inf`` (origins are
    finite), so no total is NaN and members at infinity are exact.  The
    total only decides which member is taken first: one that dominates
    much of its cell, so few rounds remain."""
    rows, columns, cells, keys, _ = _orthant_elements(
        origins, reference_ids, None, None, ids, coords
    )
    total = keys[:, 0].copy()
    for axis in keys.T[1:]:
        total += axis
    order = np.lexsort((columns, *keys.T[::-1], total, cells))
    rows, columns, cells, keys = rows[order], columns[order], cells[order], keys[order]

    kept = []
    undecided = np.arange(cells.size)
    while undecided.size:
        runs = cells[undecided]
        first = np.ones(undecided.size, dtype=bool)
        first[1:] = runs[1:] != runs[:-1]
        kept.append(undecided[first])
        # Every undecided element against its cell's first (which it is
        # itself, and drops itself with the rest).
        heads = undecided[np.maximum.accumulate(np.where(first, np.arange(first.size), 0))]
        undecided = undecided[~(keys[heads] <= keys[undecided]).all(axis=1)]
    survivors = np.concatenate(kept) if kept else undecided
    return _survivors(rows[survivors], columns[survivors], len(origins), ids)


def _survivors(
    rows: np.ndarray, columns: np.ndarray, reference_count: int, ids: np.ndarray
) -> List[List[int]]:
    """Every reference's surviving ids, ascending, from the survivors'
    (local row, id position) pairs: as ``row * count + id position`` one
    sort orders them, and a repeated id is kept once."""
    count = ids.size
    chosen = np.sort(rows * count + columns)
    chosen = chosen[np.diff(chosen, prepend=-1) > 0]
    bounds = np.searchsorted(chosen, np.arange(reference_count + 1) * count).tolist()
    picked = ids[chosen % count].tolist()
    return [picked[a:b] for a, b in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# Brute-force reference twins (ground truth for the property tests)
# ----------------------------------------------------------------------
def brute_force_nearest_k(
    points: Mapping[int, CoordinateLike],
    origin: CoordinateLike,
    k: int,
    *,
    order: float = 2.0,
    exclude: Iterable[int] = (),
) -> List[int]:
    """Literal nearest-k: rank every candidate by ``(distance, id)``."""
    origin_t = tuple(as_point(origin))
    excluded = frozenset(exclude)
    ranked = sorted(
        (
            _point_distance(
                tuple(value - base for value, base in zip(as_point(coords), origin_t)),
                order,
            ),
            point_id,
        )
        for point_id, coords in points.items()
        if point_id not in excluded
    )
    return [point_id for _, point_id in ranked[: max(k, 0)]]


def brute_force_orthant_skyline(
    points: Mapping[int, CoordinateLike],
    origin: CoordinateLike,
    signs: Sequence[int],
    *,
    exclude: Iterable[int] = (),
) -> List[int]:
    """Literal per-orthant skyline with the empty-rectangle scan's rule."""
    origin_t = tuple(as_point(origin))
    excluded = frozenset(exclude)
    entries: List[Tuple[Tuple[float, ...], int]] = []
    for point_id, coords in points.items():
        if point_id in excluded:
            continue
        point = as_point(coords)
        member_signs = tuple(
            1 if value > base else -1 for value, base in zip(point, origin_t)
        )
        if member_signs != tuple(signs):
            continue
        entries.append(
            (
                tuple(s * value for s, value in zip(member_signs, point)),
                point_id,
            )
        )
    return [point_id for _, point_id in pareto_minima(entries)]


def brute_force_region_top_k(
    points: Mapping[int, CoordinateLike],
    origin: CoordinateLike,
    hyperplane_set: Optional[HyperplaneSet],
    k: int,
    *,
    order: float = 2.0,
    exclude: Iterable[int] = (),
) -> Dict[Tuple[int, ...], List[int]]:
    """Literal per-region top-k with the Hyperplanes scan's rule."""
    origin_t = tuple(as_point(origin))
    excluded = frozenset(exclude)
    regions: Dict[Tuple[int, ...], List[Tuple[float, int]]] = {}
    for point_id, coords in points.items():
        if point_id in excluded:
            continue
        point = as_point(coords)
        signature = (
            hyperplane_set.signature(point, reference=origin_t)
            if hyperplane_set is not None
            else ()
        )
        regions.setdefault(signature, []).append(
            (
                _point_distance(
                    tuple(value - base for value, base in zip(point, origin_t)),
                    order,
                ),
                point_id,
            )
        )
    return {
        signature: [point_id for _, point_id in sorted(members)[: max(k, 0)]]
        for signature, members in regions.items()
    }
