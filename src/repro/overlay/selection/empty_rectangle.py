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

from itertools import chain, repeat
from typing import TYPE_CHECKING, Collection, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rectangle import HyperRectangle
# The canonical lexicographic (key, id)-ordered non-strict dominance rule,
# shared with the brute-force reference and the rule the kernel passes are
# held to, so the paths cannot drift apart.
from repro.geometry.index import pareto_minima as _pareto_minima
from repro.geometry.index import orthant_skylines
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import AdditiveCohort, MemberOf, NeighbourSelectionMethod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry.index import CoordinateColumn, SpatialIndex

__all__ = ["EmptyRectangleSelection", "brute_force_empty_rectangle_neighbours"]


class EmptyRectangleSelection(NeighbourSelectionMethod):
    """Keep every candidate whose bounding box with the reference peer is empty."""

    # Per-orthant skylines are path independent: dropping dominated (never
    # selected) candidates cannot change the Pareto minima of the orthant.
    path_independent = True

    # The per-orthant skyline is exactly what orthant_skylines computes over
    # the index's whole column (the packed quadrant pass in two dimensions,
    # the presorted pass in any other), so the indexed path is
    # byte-identical to the scan.  It reads a reference's position from the
    # reference itself, never from the index.
    supports_index = True

    def select(
        self,
        reference: PeerInfo,
        candidates: Sequence[PeerInfo],
        *,
        index: "Optional[SpatialIndex]" = None,
    ) -> List[int]:
        if index is not None:
            return self._select_batch([reference], index)[reference.peer_id]
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
        """Batched selection: one kernel call for a whole batch.

        With an ``index`` every reference is answered from the index's
        whole column instead of any scan; without one, from its own
        candidate ids -- the arm a bounded gossip radius runs, where
        candidate sets are per-peer.  Either is one :meth:`_select_batch`.
        ``PeerInfo`` candidate lists (no ``member_of``) are adapted to ids
        and a temporary column (:meth:`MemberOf.adapt`).
        """
        if index is not None:
            return self._select_batch(references, index)
        return self._select_batch(
            references, *self._candidate_rows(references, candidates_by_peer, member_of)
        )

    def _select_batch(
        self,
        references: Sequence[PeerInfo],
        column: "CoordinateColumn",
        rows: Optional[Sequence[Collection[int]]] = None,
        gained: Optional[np.ndarray] = None,
    ) -> Dict[int, List[int]]:
        """Every reference answered in one
        :func:`~repro.geometry.index.orthant_skylines` call over ``column``,
        whatever the dimension: from its own row of stored ids (any order;
        an id repeated in a row is harmless), or from the whole column
        without ``rows``.  Origins are the references' own coordinates, so
        a reference need not be stored; no id is resolved.  ``gained`` flags
        the row elements an additive update gained (see
        :meth:`select_many_additive`).
        """
        if not references:
            return {}
        reference_ids, origins = self._origins(references)
        selected = orthant_skylines(column, origins, reference_ids, rows, gained)
        return dict(zip(reference_ids, selected))

    def select_many_additive(
        self,
        updates: Sequence[Tuple[PeerInfo, Collection, Collection]],
        *,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Skyline update for candidate sets that only gained peers.

        Path independence makes ``selected + gained`` stand in for the full
        candidate set of a clean reference: every candidate outside the
        installed selection is boxed out by a member of it, and stays boxed
        out.  So every update, one gained peer or several, is the row
        ``selected + gained`` of one batched :meth:`_select_batch` call --
        one kernel call for all references, where outside two dimensions
        only pairs with a flagged gained end are compared (a skyline's
        members never dominate each other).

        Only changed selections are returned: those some gained id survives
        in.  If none survives, each gained id is dominated by a kept member
        of ``selected``, so by transitivity none dominates one.

        ``PeerInfo`` updates (no ``member_of``) are adapted to ids and a
        temporary column (:meth:`MemberOf.adapt`), a gained info winning a
        duplicate id within its update.
        """
        column, updates = self._additive_rows(updates, member_of)
        # The 2-D pass needs no flags, and the 2-D hot path builds none.
        flags = None if column.dimension == 2 else np.fromiter(chain.from_iterable(
            chain(repeat(False, len(selected)), repeat(True, len(gained)))
            for _, selected, gained in updates
        ), dtype=bool)
        # Not through the public select_many: that entry is the surface of
        # full recomputes, and is counted as such.
        results = self._select_batch(
            [reference for reference, _, _ in updates],
            column,
            [[*selected, *gained] for _, selected, gained in updates],
            flags,
        )
        return self._changed(updates, results)

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
        of cohort size -- the property the N=100k round protocol rests on --
        and those updates share one :func:`~repro.geometry.index.orthant_skylines`
        call in any dimension.
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
        results = self._select_batch(full_references, index)
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
            results.update(self.select_many_additive(updates, member_of=member_of))
        return results


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
