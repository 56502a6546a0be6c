"""Spatial index over peer coordinates: the two selection-rule queries.

The paper's selection rules ask a full-knowledge candidate set -- every
alive peer -- exactly two geometric questions: the per-orthant
empty-rectangle skyline (Section 2) and the per-region top-``K`` of the
Hyperplanes family.  A scan answers each by walking the whole population,
``O(N)`` per reference.  :class:`SpatialIndex` is the one structure that
answers them instead.  Its owner is the full-knowledge
:class:`~repro.overlay.network.OverlayNetwork` of a method with
``supports_index``, and its only reader is that method.

Division of labour
------------------

* the **k-d tree** answers :meth:`~SpatialIndex.orthant_skyline` (the
  skyline in ``D >= 3``) and :meth:`~SpatialIndex.region_top_k` (the
  Hyperplanes family) by best-first branch-and-bound.  It is rebuilt
  lazily: mutations go into a tombstone set / pending-insert buffer that
  every query folds in exactly, and the tree is rebuilt from scratch only
  once the stale fraction passes a threshold -- so churn costs ``O(1)`` per
  event amortised, and queries stay exact at every moment in between;
* the **coordinate column** (:class:`CoordinateColumn`, the index's base
  class: the live points as dense numpy rows) is what
  :func:`orthant_skylines` reads: the empty-rectangle rule for many
  references at once, as array passes instead of tree walks -- packed ranks
  in two dimensions (a whole column too), pair tests per (row, orthant)
  cell elsewhere (candidate rows only; the k-d walk keeps whole columns).
  An overlay owns exactly one column in either knowledge regime -- the
  index itself under full knowledge, a bare column under a gossip radius --
  and the column caches what the passes derive from its points alone, so
  the kernel calls of every round of one converge share that set-up.

Byte-identical contract
-----------------------

The index exists to *replace* scans, so every query is defined purely in
terms of the comparisons the scan it replaces performs -- same candidate
keys (sign-flipped raw coordinates for skylines, per-axis deltas for
distances), same sequential left-to-right float summation of distances,
same ``(distance, peer id)`` tie-break, same lexicographic ``(key, peer
id)`` skyline order, same non-strict dominance.  Branch-and-bound bounds
are computed with monotone floating-point operations only (each bound is
the same formula evaluated at a per-axis clamped coordinate), so pruning
can never cut a point a scan would have kept.  The hypothesis suites in ``tests/geometry`` and
``tests/overlay`` hold the index to exactly this: every query equals its
brute-force twin, and index-backed overlays reach the fixed points of
``build_equilibrium`` and the synchronous-sweep oracle.

The module-level ``brute_force_*`` functions are those twins: literal
restatements of each query over a plain id -> coordinates mapping, used by
the property tests as ground truth.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.hyperplane import Hyperplane, HyperplaneSet
from repro.geometry.point import CoordinateLike, Point, as_point

__all__ = [
    "CoordinateColumn",
    "SpatialIndex",
    "pareto_minima",
    "orthant_skylines",
    "brute_force_nearest_k",
    "brute_force_orthant_skyline",
    "brute_force_region_top_k",
]

_INF = float("inf")

# A leaf of the k-d tree holds at most this many points; below it the
# per-node bookkeeping costs more than the brute scan it saves.
_LEAF_SIZE = 16

# The tree is rebuilt once tombstones + buffered inserts exceed
# max(_REBUILD_MINIMUM, population / _REBUILD_DIVISOR).
_REBUILD_MINIMUM = 32
_REBUILD_DIVISOR = 4

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


def _point_distance(deltas: Sequence[float], order: float) -> float:
    """Minkowski norm of a delta vector, matching the scan paths bit for bit.

    The accumulation is sequential left-to-right, which is what both the
    plain-python distance functions (:mod:`repro.geometry.distance`) and
    the numpy column loop of
    :func:`repro.overlay.selection.hyperplanes.minkowski` perform at every
    dimension, so a ranking computed here never disagrees with either scan
    path.
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


class _KDNode:
    """One node of the k-d tree: a bounding box plus children or a leaf list."""

    __slots__ = ("lower", "upper", "left", "right", "ids")

    def __init__(
        self,
        lower: Tuple[float, ...],
        upper: Tuple[float, ...],
        *,
        left: "Optional[_KDNode]" = None,
        right: "Optional[_KDNode]" = None,
        ids: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.left = left
        self.right = right
        self.ids = ids


def _build_kd(
    ids: List[int], coords: Mapping[int, Point], dimension: int
) -> Optional[_KDNode]:
    """Recursive median build: split the widest axis, leaves of ``_LEAF_SIZE``."""
    if not ids:
        return None
    lower = [min(coords[i][axis] for i in ids) for axis in range(dimension)]
    upper = [max(coords[i][axis] for i in ids) for axis in range(dimension)]
    node = _KDNode(tuple(lower), tuple(upper))
    if len(ids) <= _LEAF_SIZE:
        node.ids = tuple(ids)
        return node
    axis = max(range(dimension), key=lambda a: upper[a] - lower[a])
    if upper[axis] == lower[axis]:
        # Every point identical on every axis (duplicates): nothing to split.
        node.ids = tuple(ids)
        return node
    ordered = sorted(ids, key=lambda i: (coords[i][axis], i))
    half = len(ordered) // 2
    node.left = _build_kd(ordered[:half], coords, dimension)
    node.right = _build_kd(ordered[half:], coords, dimension)
    return node


class CoordinateColumn:
    """Points as dense numpy rows: ``int64`` ids, ``float64`` coordinates.

    The form the batched skyline kernel reads.  ``insert``/``remove``/``move``
    are ``O(1)``: a removed row is overwritten by the last one, so rows
    ``[0, len)`` are exactly the live points in no particular order.  The
    dimension is fixed by the first inserted point and retained even when
    the column drains back to empty.  Only ``insert`` and ``remove`` write
    rows, and each drops the kernel's :class:`_SkylineTable` of them.
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
    """A :class:`CoordinateColumn` plus a k-d tree over the same points.

    Maintenance is exact and cheap: ``insert``/``remove``/``move`` update
    the column and a point store in ``O(1)`` and defer k-d tree work to a
    tombstone set and an insert buffer that queries fold in; the tree itself
    is rebuilt only when the stale fraction passes a threshold.  Queries are
    therefore always answered against the *current* point set, a drained
    index included (it keeps its dimension).
    """

    def __init__(self) -> None:
        super().__init__()
        self._points: Dict[int, Point] = {}
        # K-d tree + dynamisation state.
        self._tree: Optional[_KDNode] = None
        self._tombstones: Set[int] = set()
        self._buffer: Dict[int, Point] = {}
        self._rebuilds = 0

    @property
    def rebuilds(self) -> int:
        """K-d tree rebuilds performed so far (amortisation observability).

        The benchmark ledger reads it as ``index.rebuilds``."""
        return self._rebuilds

    def ids(self) -> List[int]:
        """All indexed ids, sorted."""
        return sorted(self._points)

    def point(self, point_id: int) -> Point:
        """Coordinates of one indexed point, as the tuple that was stored."""
        return self._points[point_id]

    def insert(self, point_id: int, coordinates: CoordinateLike) -> Point:
        """Add one point; rejects duplicate ids and mixed dimensions."""
        point = super().insert(point_id, coordinates)
        self._points[point_id] = point
        if self._tree is not None:
            # Queries read the id from the buffer; a tombstoned tree copy of
            # the same id (a remove-then-reinsert) stays dead.
            self._buffer[point_id] = point
        return point

    def remove(self, point_id: int) -> None:
        """Remove one point."""
        super().remove(point_id)
        del self._points[point_id]
        if self._buffer.pop(point_id, None) is None and self._tree is not None:
            self._tombstones.add(point_id)

    # ------------------------------------------------------------------
    # K-d tree internals
    # ------------------------------------------------------------------
    def _ensure_tree(self) -> Optional[_KDNode]:
        stale = len(self._tombstones) + len(self._buffer)
        if self._tree is None or stale > max(
            _REBUILD_MINIMUM, len(self._points) // _REBUILD_DIVISOR
        ):
            self._tombstones = set()
            self._buffer = {}
            self._tree = (
                _build_kd(list(self._points), self._points, self._dimension)
                if self._points and self._dimension is not None
                else None
            )
            self._rebuilds += 1
        return self._tree

    def _alive_in_tree(self, point_id: int) -> bool:
        return point_id not in self._tombstones and point_id not in self._buffer

    def _check_dimension(self, dimension: int, what: str) -> None:
        if self._dimension is not None and dimension != self._dimension:
            raise ValueError(
                f"{what} dimension {dimension} does not match index "
                f"dimension {self._dimension}"
            )

    # ------------------------------------------------------------------
    # Queries: nearest-k (k-d tree)
    # ------------------------------------------------------------------
    def nearest_k(
        self,
        origin: CoordinateLike,
        k: int,
        *,
        order: float = 2.0,
        exclude: Iterable[int] = (),
    ) -> List[int]:
        """The ``k`` ids closest to ``origin``, ranked by ``(distance, id)``.

        ``order`` is the Minkowski order (1, 2 or inf -- the named distances
        of :mod:`repro.geometry.distance`); ``exclude`` ids never appear in
        the result (the reference peer excludes itself by id, never by
        position, so coordinate duplicates of the origin are still ranked).
        No selection path calls it; the benchmark ledger patches it.
        """
        if k < 1:
            return []
        regions = self.region_top_k(
            origin, None, k, order=order, exclude=exclude
        )
        return regions.get((), [])

    # ------------------------------------------------------------------
    # Queries: per-orthant skyline (k-d tree branch-and-bound)
    # ------------------------------------------------------------------
    def orthant_skyline(
        self,
        origin: CoordinateLike,
        signs: Sequence[int],
        *,
        exclude: Iterable[int] = (),
    ) -> List[int]:
        """Pareto-minimal ids of one orthant around ``origin``.

        The orthant and the dominance order are exactly the empty-rectangle
        scan's: a point belongs to orthant ``signs`` when, on every axis,
        ``coordinate > origin`` iff the sign is ``+1`` (ties side with
        ``-1``); candidates are ranked by their sign-flipped *raw*
        coordinates and a candidate survives when no other candidate of the
        orthant dominates it component-wise (non-strict).  Candidates are
        visited in lexicographic ``(key, id)`` order -- the same order as
        the scan -- so coordinate-duplicate ties resolve to the same
        survivor.

        This is the branch-and-bound skyline (BBS) walk: tree nodes enter a
        priority queue keyed by their per-axis minimum corner, which is
        component-wise, hence lexicographically, at most every key their
        box holds; a node is pruned when an already-accepted skyline member
        dominates that corner -- which dominates everything in the box, so
        no survivor is ever cut.
        """
        point = as_point(origin)
        self._check_dimension(point.dimension, "origin")
        dimension = point.dimension
        if len(signs) != dimension:
            raise ValueError(
                f"expected {dimension} orthant signs, got {len(signs)}"
            )
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("orthant signs must be -1 or +1")
        if not self._points:
            return []
        excluded = frozenset(exclude)
        origin_t = tuple(point)
        signs_t = tuple(signs)

        def member_key(coords: Point) -> Optional[Tuple[float, ...]]:
            """Sign-flipped raw coordinates, or ``None`` outside the orthant."""
            key = []
            for axis in range(dimension):
                value = coords[axis]
                greater = value > origin_t[axis]
                if (1 if greater else -1) != signs_t[axis]:
                    return None
                key.append(value if greater else -value)
            return tuple(key)

        # Flat heap entries (corner or key, kind, tiebreak, node): nodes
        # (kind 0, tiebreak = an insertion counter) surface before points
        # (kind 1, tiebreak = the id, no node) at equal priority, so a
        # potential dominator is always accepted before anything it might
        # dominate is judged, and equal-key duplicates resolve in id order
        # exactly like the scan.
        heap: List[tuple] = []
        counter = 0
        tree = self._ensure_tree()
        skyline_keys: List[Tuple[float, ...]] = []
        skyline_ids: List[int] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        points = self._points

        def dominated(key: Tuple[float, ...]) -> bool:
            for kept in skyline_keys:
                for kept_value, value in zip(kept, key):
                    if kept_value > value:
                        break
                else:
                    return True
            return False

        if tree is not None:
            corner = self._orthant_min_corner(tree, origin_t, signs_t)
            if corner is not None:
                heap.append((corner, 0, counter, tree))
                counter += 1
        while heap:
            priority, kind, tiebreak, node = heappop(heap)
            # Re-check: the skyline may have grown since the push, and a
            # member dominating a box's corner dominates its whole extent.
            if dominated(priority):
                continue
            if kind == 1:
                skyline_keys.append(priority)
                skyline_ids.append(tiebreak)
                continue
            if node.ids is not None:
                for point_id in node.ids:
                    if point_id in excluded or not self._alive_in_tree(point_id):
                        continue
                    key = member_key(points[point_id])
                    if key is None or dominated(key):
                        continue
                    heappush(heap, (key, 1, point_id, None))
                continue
            for child in (node.left, node.right):
                if child is None:
                    continue
                corner = self._orthant_min_corner(child, origin_t, signs_t)
                if corner is None or dominated(corner):
                    continue
                heappush(heap, (corner, 0, counter, child))
                counter += 1

        # Fold the pending-insert buffer in: the Pareto minima of the union
        # equal the Pareto minima of (tree skyline + buffer members).
        entries: List[Tuple[Tuple[float, ...], int]] = [
            (key, point_id) for key, point_id in zip(skyline_keys, skyline_ids)
        ]
        for point_id, coords in self._buffer.items():
            if point_id in excluded:
                continue
            key = member_key(coords)
            if key is not None:
                entries.append((key, point_id))
        if len(entries) != len(skyline_ids):
            return [point_id for _, point_id in pareto_minima(entries)]
        return list(skyline_ids)

    @staticmethod
    def _orthant_min_corner(
        node: _KDNode,
        origin: Tuple[float, ...],
        signs: Tuple[int, ...],
    ) -> Optional[Tuple[float, ...]]:
        """Per-axis minimum of the sign-flipped key over ``box ∩ orthant``.

        Pure selections and negations of stored floats -- no rounding -- so
        the corner is an exact componentwise lower bound of every member
        key, and dominance of the corner implies dominance of the box.
        """
        corner = []
        for axis, sign in enumerate(signs):
            low, high, bound = node.lower[axis], node.upper[axis], origin[axis]
            if sign == 1:
                if high <= bound:
                    return None
                corner.append(low if low > bound else bound)
            else:
                if low > bound:
                    return None
                corner.append(-(high if high <= bound else bound))
        return tuple(corner)

    # ------------------------------------------------------------------
    # Queries: per-region top-k (k-d tree branch-and-bound)
    # ------------------------------------------------------------------
    def region_top_k(
        self,
        origin: CoordinateLike,
        hyperplane_set: Optional[HyperplaneSet],
        k: int,
        *,
        order: float = 2.0,
        exclude: Iterable[int] = (),
    ) -> Dict[Tuple[int, ...], List[int]]:
        """The ``k`` closest ids of every non-empty hyperplane region.

        This is the Hyperplanes-family selection rule as one index query:
        points are conceptually translated so ``origin`` is at the origin,
        ``hyperplane_set`` splits space into regions (``None`` or an empty
        set: the single region ``()``), and within every region the ``k``
        candidates closest to the origin win, ranked by ``(distance, id)``.
        Returns only non-empty regions, each list in rank order -- exactly
        the per-region structure the scan selection builds.

        Best-first by a monotone distance lower bound: a subtree is pruned
        once every hyperplane side is determined for its whole box *and*
        that region already holds ``k`` members strictly closer than the
        box can offer.  Region signatures of individual points use
        :meth:`HyperplaneSet.signature` verbatim (points exactly on a plane
        form their own ``0``-signature regions, as in the scan).
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        point = as_point(origin)
        self._check_dimension(point.dimension, "origin")
        if not self._points:
            return {}
        dimension = point.dimension
        if hyperplane_set is not None and hyperplane_set.dimension != dimension:
            raise ValueError(
                f"hyperplane set dimension {hyperplane_set.dimension} does not "
                f"match origin dimension {dimension}"
            )
        excluded = frozenset(exclude)
        origin_t = tuple(point)
        planes = hyperplane_set.hyperplanes if hyperplane_set is not None else ()

        def signature_of(coords: Point) -> Tuple[int, ...]:
            if hyperplane_set is None:
                return ()
            return hyperplane_set.signature(coords, reference=origin_t)

        def distance_of(coords: Point) -> float:
            return _point_distance(
                tuple(value - base for value, base in zip(coords, origin_t)), order
            )

        regions: Dict[Tuple[int, ...], List[Tuple[float, int]]] = {}

        def offer(point_id: int, coords: Point) -> None:
            signature = signature_of(coords)
            members = regions.setdefault(signature, [])
            if len(members) < k:
                members.append((distance_of(coords), point_id))

        # Flat heap entries (priority, kind, tiebreak, payload); see
        # orthant_skyline for the ordering rationale.
        heap: List[tuple] = []
        counter = 0
        tree = self._ensure_tree()
        heappush = heapq.heappush
        heappop = heapq.heappop
        if tree is not None:
            heap.append((self._box_mindist(tree, origin_t, order), 0, counter, tree))
            counter += 1
        while heap:
            priority, kind, _tick, payload = heappop(heap)
            if kind == 1:
                point_id, coords = payload
                offer(point_id, coords)
                continue
            node = payload
            side_signature = _box_signature(node, origin_t, planes)
            if side_signature is not None:
                members = regions.get(side_signature)
                if members is not None and len(members) >= k and members[-1][0] < priority:
                    continue
            if node.ids is not None:
                for point_id in node.ids:
                    if point_id in excluded or not self._alive_in_tree(point_id):
                        continue
                    coords = self._points[point_id]
                    heappush(
                        heap, (distance_of(coords), 1, point_id, (point_id, coords))
                    )
                continue
            for child in (node.left, node.right):
                if child is None:
                    continue
                heappush(
                    heap,
                    (self._box_mindist(child, origin_t, order), 0, counter, child),
                )
                counter += 1

        # Merge the pending-insert buffer: per region, the union's top-k is
        # the top-k of (tree top-k + buffer members of the region).
        if self._buffer:
            merged: Dict[Tuple[int, ...], List[Tuple[float, int]]] = {
                signature: list(members) for signature, members in regions.items()
            }
            for point_id, coords in self._buffer.items():
                if point_id in excluded:
                    continue
                merged.setdefault(signature_of(coords), []).append(
                    (distance_of(coords), point_id)
                )
            regions = {
                signature: sorted(members)[:k]
                for signature, members in merged.items()
            }
        return {
            signature: [point_id for _, point_id in members]
            for signature, members in regions.items()
        }

    @staticmethod
    def _box_mindist(
        node: _KDNode, origin: Tuple[float, ...], order: float
    ) -> float:
        """Distance from ``origin`` to the box: the point formula at the clamp.

        Each per-axis delta is the exact delta of a coordinate inside the
        box (the clamped one), and every operation downstream of it is
        monotone in float arithmetic, so the bound never exceeds the true
        distance of any point in the box.
        """
        deltas = []
        for axis, value in enumerate(origin):
            low, high = node.lower[axis], node.upper[axis]
            if value < low:
                deltas.append(low - value)
            elif value > high:
                deltas.append(value - high)
            else:
                deltas.append(0.0)
        return _point_distance(deltas, order)


def _box_signature(
    node: _KDNode,
    origin: Tuple[float, ...],
    planes: Tuple[Hyperplane, ...],
) -> Optional[Tuple[int, ...]]:
    """Region signature shared by the whole box, or ``None`` if straddling."""
    signature = []
    for plane in planes:
        low, high = _plane_bounds(node.lower, node.upper, origin, plane.coefficients)
        if low > 0.0:
            signature.append(1)
        elif high < 0.0:
            signature.append(-1)
        else:
            return None
    return tuple(signature)


def _plane_bounds(
    lower: Tuple[float, ...],
    upper: Tuple[float, ...],
    origin: Tuple[float, ...],
    coefficients: Tuple[float, ...],
) -> Tuple[float, float]:
    """Bounds of ``a · (x - origin)`` over a box, monotone in float arithmetic.

    Each per-axis term is evaluated with the same two operations the exact
    point evaluation performs (subtract, multiply) at the box corners, and
    the sequential sums are monotone, so the interval always contains every
    point's evaluated side value.
    """
    low_total = 0.0
    high_total = 0.0
    for axis, coefficient in enumerate(coefficients):
        at_lower = coefficient * (lower[axis] - origin[axis])
        at_upper = coefficient * (upper[axis] - origin[axis])
        if at_lower <= at_upper:
            low_total += at_lower
            high_total += at_upper
        else:
            low_total += at_upper
            high_total += at_lower
    return low_total, high_total


def pareto_minima(
    entries: List[Tuple[Tuple[float, ...], int]]
) -> List[Tuple[Tuple[float, ...], int]]:
    """Pareto-minimal ``(key, id)`` entries under non-strict dominance.

    THE canonical statement of the empty-rectangle tie-break rule, shared by
    the scan selection (:mod:`repro.overlay.selection.empty_rectangle`), the
    index's buffer merge and the brute-force reference: entries are visited
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
    """What :func:`orthant_skylines` derives from one version of a column:
    ``ids`` ascending with their ``coords`` (a pass breaks ties by id),
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
    :meth:`SpatialIndex.orthant_skyline` or
    :func:`brute_force_orthant_skyline` call per orthant returns -- from
    array passes over the ``column`` in any dimension instead of one walk
    per orthant.  A member may lie at infinity; an origin may not (NaN
    never enters a column: :class:`~repro.geometry.point.Point` refuses it).

    ``rows`` gives every reference its own members instead of the whole
    column: one collection of stored ids per reference, in any order.  A
    row may be empty, repeat an id (one copy is kept) or name its own
    reference (excluded by id as ever); a reference pays for its own row,
    not for the union of all of them.

    ``gained`` (``bool``, one flag per element of the rows in order) states
    an additive input's precondition: each row's unflagged members are an
    installed selection, so they never dominate each other, and outside two
    dimensions only pairs with a flagged end are compared.

    The set-up that depends on the points alone is the column's
    :class:`_SkylineTable`, shared by every call until the column changes.
    A pass holds whole rows, about ``_KERNEL_ELEMENTS`` elements (at least
    one row): :func:`_quadrant_skyline_pass` in two dimensions,
    :func:`_dominance_pass` in any other.
    """
    origins = np.asarray(origins, dtype=np.float64)
    reference_ids = np.asarray(reference_ids, dtype=np.int64)
    # An origin is a reference peer's position, which is finite.
    invalid = ~np.isfinite(origins)
    if invalid.any():
        raise ValueError(
            f"reference {reference_ids[invalid.any(axis=1).argmax()]} has a NaN "
            "or infinite coordinate"
        )
    if not len(column):
        return [[] for _ in reference_ids]
    if origins.shape != (reference_ids.size, column.dimension):
        raise ValueError(
            f"origins must be one {column.dimension}-D row per reference, "
            f"got shape {origins.shape} for {reference_ids.size} references"
        )
    table = column._skyline_table()
    count = table.ids.size
    columns = None
    if rows is None:
        offsets = np.arange(reference_ids.size + 1) * count
    else:
        # Each element's reference, and its member's id position through the
        # column's id -> row map.
        flat = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        columns = table.position[np.fromiter(
            map(column._row_of.__getitem__, chain.from_iterable(rows)),
            dtype=np.int64,
            count=flat.size,
        )]
        rows = flat
        offsets = np.searchsorted(rows, np.arange(reference_ids.size + 1))
        gained = None if gained is None else np.asarray(gained, dtype=bool)
    quadrant = table.quadrant  # packed: row bits + 3 * bits + 3 <= 63
    most_rows = reference_ids.size if quadrant is None else 1 << 60 - 3 * quadrant[2]
    selected: List[List[int]] = []
    start = 0
    while start < reference_ids.size:
        stop = int(np.searchsorted(offsets, offsets[start] + _KERNEL_ELEMENTS, side="right")) - 1
        stop = min(max(stop, start + 1), start + most_rows)
        elements = slice(offsets[start], offsets[stop])
        block = (origins[start:stop], reference_ids[start:stop],
                 None if columns is None else rows[elements] - start,
                 None if columns is None else columns[elements])
        selected.extend(
            _dominance_pass(*block, gained if gained is None else gained[elements],
                            table.ids, table.coords)
            if quadrant is None else _quadrant_skyline_pass(*block, table.ids, *quadrant)
        )
        start = stop
    return selected


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
    count = ids.size
    if columns is None:
        rows = np.repeat(np.arange(len(origins)), count)
        columns = np.tile(np.arange(count), len(origins))
    others = ids[columns] != reference_ids[rows]
    rows, columns = rows[others], columns[others]
    points = coords[columns]
    greater = points > origins[rows]
    cells = rows << coords.shape[1] | greater @ (1 << np.arange(coords.shape[1]))
    order = np.argsort(cells)
    rows, columns, cells = rows[order], columns[order], cells[order]
    keys = np.where(greater, points, -points)[order]

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

    # Survivors as ``row * count + id position``: one sort leaves every
    # reference's ids ascending, and a repeated id is kept once.
    chosen = np.sort(rows[~dominated] * count + columns[~dominated])
    chosen = chosen[np.diff(chosen, prepend=-1) > 0]
    bounds = np.searchsorted(chosen, np.arange(len(origins) + 1) * count).tolist()
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
