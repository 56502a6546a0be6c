"""Empty-rectangle neighbour selection (the Section 2 experimental method).

A peer ``P`` keeps as neighbour every candidate ``Q`` from ``I(P)`` such that
the axis-aligned hyper-rectangle having ``P`` and ``Q`` as opposite corners
contains no other candidate from ``I(P)``.

Equivalence with per-orthant Pareto minima
------------------------------------------

Let ``delta(R) = x(R) - x(P)`` for every candidate ``R``.  A peer ``R`` lies
inside the bounding box of ``P`` and ``Q`` exactly when, on every axis,
``x(R, i)`` lies between ``x(P, i)`` and ``x(Q, i)``; with pairwise-distinct
per-axis coordinates that forces ``sign(delta(R, i)) = sign(delta(Q, i))``
for every axis (``R`` is in the same orthant as ``Q`` relative to ``P``) and
``|delta(R, i)| <= |delta(Q, i)|`` (``R`` dominates ``Q`` component-wise in
absolute value).  Hence:

    ``Q`` is an empty-rectangle neighbour of ``P``
    <=>  no other candidate in ``Q``'s orthant dominates ``Q``
    <=>  ``Q`` is a Pareto-minimal point of its orthant (in ``|delta|``).

This turns an ``O(m^2)`` emptiness test per candidate into one skyline
computation per orthant, which is what makes the paper's ``N = 1000``
experiments (and the ``N = 5000`` point of Figure 1(c)) tractable.  The
brute-force definition is kept as
:func:`brute_force_empty_rectangle_neighbours` and the two are cross-checked
by tests and by property-based (hypothesis) tests.

The equivalence, and therefore the fast path, relies on the paper's
distinct-coordinate assumption; the workload generators enforce it.
"""

from __future__ import annotations

from itertools import chain, product
from typing import TYPE_CHECKING, Collection, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.rectangle import HyperRectangle
# The canonical lexicographic (key, id)-ordered non-strict dominance rule,
# shared with the spatial index and the brute-force reference so the three
# paths cannot drift apart.
from repro.geometry.index import pareto_minima as _pareto_minima
from repro.geometry.index import quadrant_skylines
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import AdditiveCohort, MemberOf, NeighbourSelectionMethod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry.index import SpatialIndex

__all__ = ["EmptyRectangleSelection", "brute_force_empty_rectangle_neighbours"]

# Outside two dimensions (where a whole batch is one kernel call, see
# _select_batch) the batched API switches implementation per reference:
# below this many candidates the plain-python select() beats the per-orthant
# numpy loop, whose array construction would dominate.
_VECTORISE_THRESHOLD = 32


def _coordinates(ids: np.ndarray, member_of: MemberOf, dimension: int) -> np.ndarray:
    """The coordinate table of ``ids``: each resolved, and validated, once."""
    members = list(map(member_of, ids.tolist()))
    coordinates = [member.coordinates for member in members]
    for member, point in zip(members, coordinates):
        if len(point) != dimension:
            raise ValueError(
                f"candidate {member.peer_id} has dimension {len(point)}, expected {dimension}"
            )
    return np.fromiter(chain.from_iterable(coordinates), dtype=float).reshape(-1, dimension)


def _ids_of(peers: Sequence[PeerInfo], members: Dict[int, PeerInfo]) -> List[int]:
    """Ids of ``peers``, recording each in ``members`` (the later info wins):
    how the ``PeerInfo`` entry points adapt onto the id-fed cores."""
    ids = [peer.peer_id for peer in peers]
    members.update(zip(ids, peers))
    return ids


class EmptyRectangleSelection(NeighbourSelectionMethod):
    """Keep every candidate whose bounding box with the reference peer is empty."""

    # Per-orthant skylines are path independent: dropping dominated (never
    # selected) candidates cannot change the Pareto minima of the orthant.
    path_independent = True

    # The per-orthant skyline is exactly the spatial index's skyline query
    # (the quadrant kernel over its coordinate column in two dimensions, the
    # branch-and-bound walk above), so the indexed path is byte-identical to
    # the scan.
    supports_index = True

    def select(
        self,
        reference: PeerInfo,
        candidates: Sequence[PeerInfo],
        *,
        index: "Optional[SpatialIndex]" = None,
    ) -> List[int]:
        if index is not None:
            return self._select_many_indexed([reference], index)[reference.peer_id]
        others = self._exclude_reference(reference, candidates)
        if not others:
            return []

        by_region: Dict[Tuple[int, ...], List[Tuple[Tuple[float, ...], int]]] = {}
        origin = reference.coordinates
        for candidate in others:
            signs = tuple(
                1 if c > o else -1 for c, o in zip(candidate.coordinates, origin)
            )
            # Dominance is checked on sign-flipped *raw* coordinates rather
            # than on |Q - P| differences: the comparisons are then exactly
            # the ones the bounding-box definition performs, so the fast path
            # agrees with brute_force_empty_rectangle_neighbours bit for bit
            # (subtracting first can round away tiny coordinate differences).
            keys = tuple(s * c for s, c in zip(signs, candidate.coordinates))
            by_region.setdefault(signs, []).append((keys, candidate.peer_id))

        selected: List[int] = []
        for signs in sorted(by_region):
            for _, peer_id in _pareto_minima(by_region[signs]):
                selected.append(peer_id)
        return sorted(selected)

    def select_many(
        self,
        references: Sequence[PeerInfo],
        candidates_by_peer: Mapping[int, Collection],
        *,
        index: "Optional[SpatialIndex]" = None,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Batched selection: one kernel call for all 2-D references.

        With an ``index`` every reference is answered from the index instead
        of any scan (see :meth:`_select_many_indexed`); without one, from
        its own candidate ids (see :meth:`_select_batch`) -- the arm a
        bounded gossip radius runs, where candidate sets are per-peer.
        ``PeerInfo`` candidate lists (no ``member_of``) are adapted to ids.
        """
        if index is not None:
            return self._select_many_indexed(references, index)
        if member_of is None:
            members: Dict[int, PeerInfo] = {}
            candidates_by_peer = {
                reference.peer_id: _ids_of(candidates_by_peer[reference.peer_id], members)
                for reference in references
            }
            member_of = members.__getitem__
        return self._select_batch(references, candidates_by_peer, member_of)

    def _select_batch(
        self,
        references: Sequence[PeerInfo],
        candidate_ids: Mapping[int, Collection[int]],
        member_of: MemberOf,
    ) -> Dict[int, List[int]]:
        """Every reference answered from its own candidate ids (any order).

        All two-dimensional references share one
        :func:`~repro.geometry.index.quadrant_skylines` call, each row
        holding exactly its own candidates: the flat ids of every row go
        through one ``unique(return_inverse=True)``, whose inverse is the
        rows' member columns and whose sorted ids are the call's member set
        (within one batch a peer id names one peer), so a reference's cost
        is its own candidate count, not the union's.  Each distinct member
        is resolved -- and its dimension validated -- once.  References of
        other dimensions keep the per-reference dispatch: :meth:`select`
        below ``_VECTORISE_THRESHOLD`` candidates, the per-orthant numpy loop
        above.  Shared by :meth:`select_many` and every update of
        :meth:`select_many_additive`.
        """
        planar = [reference for reference in references if reference.dimension == 2]
        results = self._select_many_dispatch(
            [reference for reference in references if reference.dimension != 2],
            candidate_ids,
            _VECTORISE_THRESHOLD,
            self._select_vectorised,
            member_of=member_of,
        )
        if not planar:
            return results
        rows = [candidate_ids[reference.peer_id] for reference in planar]
        member_ids, columns = np.unique(
            np.fromiter(chain.from_iterable(rows), dtype=np.int64), return_inverse=True
        )
        selected = quadrant_skylines(
            np.asarray([tuple(peer.coordinates) for peer in planar], dtype=float),
            np.asarray([peer.peer_id for peer in planar], dtype=np.int64),
            member_ids,
            _coordinates(member_ids, member_of, 2),
            (np.repeat(np.arange(len(planar)), [len(row) for row in rows]), columns),
        )
        results.update(zip((reference.peer_id for reference in planar), selected))
        return results

    def _select_many_indexed(
        self, references: Sequence[PeerInfo], index: "SpatialIndex"
    ) -> Dict[int, List[int]]:
        """A whole cohort of references from the index's coordinate column.

        In two dimensions every reference is answered by the batched
        quadrant kernel (:func:`~repro.geometry.index.quadrant_skylines`)
        over the column -- array passes per chunk of references instead of
        four tree walks per reference, with the same results.  Other
        dimensions keep the per-orthant walk of :meth:`_select_indexed`.
        """
        if index.dimension != 2 or not references:
            return super()._select_many_indexed(references, index)
        member_ids, member_coords = index.columns()
        selected = quadrant_skylines(
            np.asarray([tuple(peer.coordinates) for peer in references], dtype=float),
            np.asarray([peer.peer_id for peer in references], dtype=np.int64),
            member_ids,
            member_coords,
        )
        return {
            reference.peer_id: chosen
            for reference, chosen in zip(references, selected)
        }

    def _select_indexed(
        self, reference: PeerInfo, index: "SpatialIndex"
    ) -> List[int]:
        """Per-orthant branch-and-bound skylines over the spatial index.

        One :meth:`~repro.geometry.index.SpatialIndex.orthant_skyline` query
        per orthant around the reference peer, each output-sensitive in the
        skyline size instead of linear in the candidate count.  The index
        contents are the candidate set by the caller's contract; the
        reference excludes itself by id (never by position, matching
        ``_exclude_reference``).
        """
        origin = reference.coordinates
        exclude = (reference.peer_id,)
        selected: List[int] = []
        for signs in product((-1, 1), repeat=reference.dimension):
            selected.extend(index.orthant_skyline(origin, signs, exclude=exclude))
        return sorted(selected)

    def select_many_additive(
        self,
        updates: Sequence[Tuple[PeerInfo, Collection, Collection]],
        *,
        index: "Optional[SpatialIndex]" = None,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Skyline update for candidate sets that only gained peers.

        Path independence makes ``selected + gained`` stand in for the full
        candidate set of a clean reference: every candidate outside the
        installed selection is boxed out by a member of it, and stays boxed
        out.  So every update, one gained peer or several, is the row
        ``selected | gained`` of one batched :meth:`_select_batch` call --
        one kernel call for all two-dimensional references.  Like the fast
        ``select`` path, this relies on the paper's distinct-coordinate
        assumption.  Every reference of ``updates`` is in the result.

        ``PeerInfo`` updates (no ``member_of``) are adapted to ids, a gained
        info winning a duplicate id.  ``index`` is accepted for batched-API
        uniformity; the update already touches only the selection and the
        gained peers, so it never consults the index.
        """
        if index is not None:
            self._check_index_support()
        if member_of is None:
            members: Dict[int, PeerInfo] = {}
            updates = [
                (reference, _ids_of(selected, members), _ids_of(gained, members))
                for reference, selected, gained in updates
            ]
            member_of = members.__getitem__
        # Not through the public select_many: that entry is the surface of
        # full recomputes, and is counted as such.
        return self._select_batch(
            [reference for reference, _, _ in updates],
            {reference.peer_id: {*selected, *gained} for reference, selected, gained in updates},
            member_of,
        )

    def install_many(
        self,
        full_references: Sequence[PeerInfo],
        candidates_by_peer: Mapping[int, Collection[int]],
        additive_cohorts: Sequence[AdditiveCohort],
        *,
        member_of: MemberOf,
        index: "Optional[SpatialIndex]" = None,
    ) -> Dict[int, List[int]]:
        """Cohort install via the empty-rectangle symmetry fan-out.

        Under full knowledge, the emptiness of ``box(P, Q)`` is symmetric in
        ``P`` and ``Q``: ``Q`` is in ``select(P, everyone)`` exactly when
        ``P`` is in ``select(Q, everyone)``.  On the vectorised round path
        every gained candidate of an additive cohort is itself a
        full-recompute reference (joins, moves and rejoins all force the
        gained peer onto the full path), so the gained peers' own indexed
        recomputations double as a *reverse index* of exactly the cohort
        members whose selection can change:

        * a member ``P`` named by some gain's recompute gains that peer
          (symmetry: the box is empty both ways), so its additive update is
          a real change and runs through :meth:`select_many_additive`;
        * a member named by no gain provably keeps its selection -- a gain
          boxed out of ``select(P, everyone)`` can, by dominance
          transitivity, neither enter it nor evict anything from it.

        Total additive cost is therefore O(changed selections), independent
        of cohort size -- the property the N=100k round protocol rests on.
        Falls back to the generic expansion when the caller passes no index
        or hands a cohort whose gains were not fully
        recomputed (never the engine; the precondition is asserted cheaply).
        """
        full_ids = {reference.peer_id for reference in full_references}
        if index is None or any(
            gain not in full_ids for cohort in additive_cohorts for gain in cohort.gained
        ):
            return super().install_many(
                full_references,
                candidates_by_peer,
                additive_cohorts,
                member_of=member_of,
                index=index,
            )
        results = self._select_many_indexed(full_references, index)
        updates: List[Tuple[PeerInfo, Collection[int], List[int]]] = []
        for cohort in additive_cohorts:
            member_ids = np.asarray(cohort.member_ids, dtype=np.int64)
            affected: Dict[int, List[int]] = {}
            for gain in cohort.gained:
                selected = np.asarray(results[gain], dtype=np.int64)
                for selected_id in selected[np.isin(selected, member_ids)].tolist():
                    affected.setdefault(selected_id, []).append(gain)
            for member_id in sorted(affected):
                updates.append(
                    (member_of(member_id), cohort.selected_of(member_id), affected[member_id])
                )
        if updates:
            delta = self.select_many_additive(updates, member_of=member_of)
            if delta:
                results.update(delta)
        return results

    def _select_vectorised(
        self, reference: PeerInfo, candidates: Sequence[PeerInfo]
    ) -> List[int]:
        """Numpy per-orthant skyline for one reference outside two dimensions
        (see select()): a loop over the occupied orthants."""
        others = self._exclude_reference(reference, candidates)
        if not others:
            return []
        ids = np.asarray([peer.peer_id for peer in others], dtype=np.int64)
        coords = np.asarray([tuple(peer.coordinates) for peer in others], dtype=float)
        origin = np.asarray(tuple(reference.coordinates), dtype=float)
        greater = coords > origin
        # Sign-flipped raw coordinates (see select()): dominance checks on
        # these are exactly the bounding-box comparisons of the paper.
        keys = np.where(greater, coords, -coords)
        powers = 1 << np.arange(coords.shape[1])
        codes = (greater @ powers).astype(np.int64)
        selected: List[int] = []
        for code in np.unique(codes):
            mask = codes == code
            selected.extend(_skyline_ids(keys[mask], ids[mask]))
        return sorted(selected)

    def compute_equilibrium(self, peers: Sequence[PeerInfo]) -> Dict[int, Set[int]]:
        """Vectorised full-knowledge equilibrium (per-orthant skylines in numpy)."""
        if not peers:
            return {}
        peer_ids = np.asarray([peer.peer_id for peer in peers], dtype=np.int64)
        coords = np.asarray([tuple(peer.coordinates) for peer in peers], dtype=float)
        count, dimension = coords.shape
        powers = 1 << np.arange(dimension)
        result: Dict[int, Set[int]] = {}

        for index in range(count):
            greater = coords > coords[index]
            # Sign-flipped raw coordinates (see select()): dominance checks on
            # these are exactly the bounding-box comparisons of the paper.
            keys = np.where(greater, coords, -coords)
            codes = (greater @ powers).astype(np.int64)
            mask = np.ones(count, dtype=bool)
            mask[index] = False
            other_indices = np.nonzero(mask)[0]
            selected: Set[int] = set()
            other_codes = codes[other_indices]
            for code in np.unique(other_codes):
                members = other_indices[other_codes == code]
                selected.update(_skyline_ids(keys[members], peer_ids[members]))
            result[int(peer_ids[index])] = selected
        return result


def _skyline_ids(member_keys: np.ndarray, member_ids: np.ndarray) -> List[int]:
    """Ids of the Pareto-minimal rows of ``member_keys`` (component-wise ``<=``).

    The numpy counterpart of :func:`_pareto_minima`, shared by the vectorised
    equilibrium and batched-selection paths: rows are visited in lexicographic
    ``(key, peer id)`` order, so a kept row can never be dominated by a later
    one and one pass with dominance checks against the kept set suffices.
    """
    order = np.lexsort((member_ids, *member_keys.T[::-1]))
    kept_rows: List[np.ndarray] = []
    kept_ids: List[int] = []
    for position in order:
        row = member_keys[position]
        if kept_rows and bool(np.all(np.asarray(kept_rows) <= row, axis=1).any()):
            continue
        kept_rows.append(row)
        kept_ids.append(int(member_ids[position]))
    return kept_ids


def brute_force_empty_rectangle_neighbours(
    reference: PeerInfo, candidates: Sequence[PeerInfo]
) -> List[int]:
    """Literal implementation of the paper's definition (quadratic).

    ``Q`` is kept when the closed axis-aligned box spanned by the identifiers
    of the reference peer and ``Q`` contains no other candidate.  Used by
    tests as the ground truth for :class:`EmptyRectangleSelection`.
    """
    others = [c for c in candidates if c.peer_id != reference.peer_id]
    selected: List[int] = []
    for candidate in others:
        box = HyperRectangle.bounding_box(reference.coordinates, candidate.coordinates)
        blocked = False
        for blocker in others:
            if blocker.peer_id == candidate.peer_id:
                continue
            if box.contains(blocker.coordinates):
                blocked = True
                break
        if not blocked:
            selected.append(candidate.peer_id)
    return sorted(selected)
