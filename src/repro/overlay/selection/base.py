"""Base protocol for neighbour selection methods."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.geometry.index import CoordinateColumn, SpatialIndex
from repro.overlay.peer import PeerInfo

__all__ = ["AdditiveCohort", "MemberOf", "NeighbourSelectionMethod"]


@dataclass(frozen=True)
class AdditiveCohort:
    """One shared-window additive batch for :meth:`~NeighbourSelectionMethod.install_many`.

    A cohort is the vectorised round protocol's unit of additive work: every
    member's candidate set gained exactly the same peers (they share one
    delta window), so the batch is described *implicitly* -- an ascending id
    array, the gained ids and one resolver callable -- instead of per-member
    Python lists.  Methods that can exploit the shared structure (one gain
    set, many members) stay O(changes); the generic fallback expands members
    into per-peer :meth:`~NeighbourSelectionMethod.select_many_additive`
    updates.

    ``member_ids`` must be ascending and contain only peers whose installed
    selection is known to equal their previous full selection (the additive
    verdict's precondition); ``gained`` must be ascending.  ``selected_of``
    (member id -> ids of its installed selection) is only invoked for
    members a method actually touches, which is what lets a sub-linear
    install path skip provably unchanged members without ever materialising
    their state; ids become :class:`~repro.overlay.peer.PeerInfo` through
    the ``member_of`` handle of the :meth:`install_many` call.
    """

    member_ids: Sequence[int]
    gained: Tuple[int, ...]
    selected_of: Callable[[int], Collection[int]]


class MemberOf:
    """The handle a caller that holds ids (the incremental engine) passes to
    the batched entry points instead of lists: called, it resolves a peer id
    to its :class:`~repro.overlay.peer.PeerInfo`; its ``column`` holds the
    coordinates of every id it resolves, as rows an array path reads
    without resolving anything.  The two must agree; the overlay writes both
    in the same membership methods."""

    __slots__ = ("_info", "column")

    def __init__(self, info: Callable[[int], PeerInfo], column: CoordinateColumn) -> None:
        self._info = info
        self.column = column

    def __call__(self, peer_id: int) -> PeerInfo:
        return self._info(peer_id)

    @classmethod
    def adapt(cls, peers: Iterable[PeerInfo]) -> "MemberOf":
        """A temporary handle over ``peers``: how a ``PeerInfo`` entry point
        reaches the id-fed core.  One id carrying two coordinate tuples, or a
        dimension other than the first peer's, is a :class:`ValueError`."""
        infos: Dict[int, PeerInfo] = {}
        column = CoordinateColumn()
        for peer in peers:
            known = infos.get(peer.peer_id)
            if known is None:
                if column.dimension not in (None, peer.dimension):
                    raise ValueError(
                        f"candidate {peer.peer_id} has dimension {peer.dimension}, "
                        f"expected {column.dimension}"
                    )
                infos[peer.peer_id] = peer
                column.insert(peer.peer_id, peer.coordinates)
            elif known.coordinates != peer.coordinates:
                raise ValueError(
                    f"peer {peer.peer_id} has two coordinate tuples in one batch: "
                    f"{tuple(known.coordinates)} and {tuple(peer.coordinates)}"
                )
        return cls(infos.__getitem__, column)


class NeighbourSelectionMethod(abc.ABC):
    """A rule mapping a peer's candidate set ``I(P)`` to its neighbour set.

    Subclasses implement :meth:`select`.  The default
    :meth:`compute_equilibrium` evaluates :meth:`select` for every peer with
    the full population as candidates -- the fixed point the gossip process
    converges to when every peer eventually learns about every other peer --
    and is the literal oracle the tests hold batched paths to.  Batched
    reselection (the incremental convergence engine) goes through
    :meth:`select_many`, which methods may answer with one array pass.
    """

    #: ``True`` when :meth:`select` is a *path-independent* choice function,
    #: i.e. for every reference peer ``P``, candidate set ``C`` and extra
    #: candidates ``G``:
    #:
    #: 1. ``select(P, C + G) == select(P, select(P, C) + G)`` -- discarding
    #:    candidates that were not selected does not change what a later,
    #:    larger selection picks; and
    #: 2. removing a candidate that was *not* selected never changes the
    #:    selection.
    #:
    #: Per-region skylines and per-region top-``K`` rankings under a strict
    #: total order both have this property.  The incremental reselection
    #: engine exploits it to re-run a peer's selection against ``selected +
    #: gained`` instead of the full candidate set when the candidate set only
    #: gained members (and to skip the peer entirely when it only lost
    #: non-selected members).  Methods that cannot guarantee the property
    #: must leave it ``False``; the engine then falls back to full-candidate
    #: recomputation, which is always correct.
    path_independent: bool = False

    #: ``True`` when the method has an index-backed path producing
    #: *byte-identical* selections to the candidate-list scan.  Callers may
    #: then pass a
    #: :class:`repro.geometry.index.SpatialIndex` whose contents are exactly
    #: the candidate set plus the reference peers (each excluded by id) to the
    #: batched entry points :meth:`select_many` / :meth:`install_many` --
    #: the surface opting in guarantees, by overriding :meth:`select_many`
    #: (the in-repo methods answer every reference with one kernel call over
    #: the index's whole column, and accept ``index=`` on per-call
    #: :meth:`select` as a convenience).  Methods that do not opt in never
    #: receive an ``index`` -- the overlay layer checks this flag before
    #: taking the indexed path, so third-party subclasses keep working
    #: unchanged.
    supports_index: bool = False

    @abc.abstractmethod
    def select(
        self, reference: PeerInfo, candidates: Sequence[PeerInfo]
    ) -> List[int]:
        """Return the peer ids the reference peer keeps as overlay neighbours.

        Parameters
        ----------
        reference:
            The peer doing the selecting (``P``).
        candidates:
            The peers ``P`` currently knows about (``I(P)``).  The reference
            peer itself may or may not appear in the sequence; it is never
            selected either way.
        """

    def compute_equilibrium(self, peers: Sequence[PeerInfo]) -> Dict[int, Set[int]]:
        """Neighbour sets when every peer knows every other peer.

        Returns a mapping from peer id to the set of selected neighbour ids
        (the *directed* selection; the overlay topology is its undirected
        closure, built by :class:`repro.overlay.network.OverlayNetwork`).
        """
        result: Dict[int, Set[int]] = {}
        for reference in peers:
            others = [peer for peer in peers if peer.peer_id != reference.peer_id]
            result[reference.peer_id] = set(self.select(reference, others))
        return result

    def select_many(
        self,
        references: Sequence[PeerInfo],
        candidates_by_peer: Mapping[int, Collection],
        *,
        index: "Optional[SpatialIndex]" = None,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Batched :meth:`select`: one selection per reference peer.

        ``candidates_by_peer`` maps each reference's ``peer_id`` to its
        candidate set ``I(P)``: a ``PeerInfo`` sequence, or -- when the
        caller passes the ``member_of`` handle -- a collection of peer
        *ids* in any order, which methods without an array path read as the
        id-sorted ``PeerInfo`` list.  The default implementation simply
        loops over :meth:`select`; methods with a vectorised path override
        it so the incremental reselection engine can amortise per-call
        overhead across a whole batch of dirty peers.  Overrides must return
        exactly what the per-peer loop would (same ids per reference, order
        irrelevant to callers that treat the result as a set).

        When ``index`` is given (only valid on methods with
        :attr:`supports_index`), every reference is answered from the index
        instead and ``candidates_by_peer`` is ignored -- the index contents
        *are* the candidate set by the caller's contract, so entries need
        not (and for the churn-scale hot path deliberately do not) exist.
        With ``member_of`` the candidate ids are resolved to the same
        id-sorted list a ``PeerInfo``-holding caller would have passed.
        """
        if index is not None:
            # The base class has no indexed path: a method that opts in
            # answers ``index=`` in its own override.
            raise self._no_index_path()
        results: Dict[int, List[int]] = {}
        for reference in references:
            candidates = candidates_by_peer[reference.peer_id]
            if member_of is not None:
                candidates = self._id_sorted(candidates, member_of)
            results[reference.peer_id] = self.select(reference, candidates)
        return results

    def _check_index_support(self) -> None:
        """Reject ``index=`` on methods that never opted in (shared guard)."""
        if not self.supports_index:
            raise self._no_index_path()

    def _no_index_path(self) -> TypeError:
        return TypeError(
            f"{type(self).__name__} has no index-backed selection path; "
            "check supports_index before passing index="
        )

    def select_many_additive(
        self,
        updates: Sequence[Tuple[PeerInfo, Collection, Collection]],
        *,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Batched re-selection for purely additive candidate-set deltas.

        Each update is ``(reference, currently_selected, gained)`` where
        ``currently_selected`` is the reference's installed selection (known
        to equal ``select(reference, I(P))`` for its previous candidate set)
        and ``gained`` are the candidates its set gained (none of them in
        ``currently_selected``) -- ``PeerInfo`` sequences, or collections of
        peer ids when the caller passes the ``member_of`` handle (as in
        :meth:`select_many`).  By path
        independence the new selection is ``select(reference,
        currently_selected + gained)``; methods with a vectorised delta rule
        override this to compute the whole batch at once and may *omit*
        references whose selection provably did not change -- callers treat
        missing keys as "unchanged".

        The default has no delta rule: it re-selects every reference from
        ``currently_selected + gained`` through :meth:`select` -- not through
        :meth:`select_many`, the entry of full recomputes.  Only meaningful
        for methods with ``path_independent = True``.  An additive update
        touches only ``O(|selection| + |gained|)`` candidates, so it takes
        no index.
        """
        return {
            reference.peer_id: self.select(
                reference,
                self.merge_candidate_delta(selected, gained)
                if member_of is None
                else self._id_sorted({*selected, *gained}, member_of),
            )
            for reference, selected, gained in updates
        }

    def install_many(
        self,
        full_references: Sequence[PeerInfo],
        candidates_by_peer: Mapping[int, Collection[int]],
        additive_cohorts: Sequence[AdditiveCohort],
        *,
        member_of: MemberOf,
        index: "Optional[SpatialIndex]" = None,
    ) -> Dict[int, List[int]]:
        """One batched selection call for a whole convergence round.

        The cohort install entry the vectorised round protocol drives, and
        id-speaking throughout (``member_of`` resolves): ``full_references``
        are recomputed against their complete candidate sets (from ``index``
        when given, else from the candidate ids in ``candidates_by_peer``),
        and every :class:`AdditiveCohort` is resolved through the method's
        additive delta rule.  Returns ``peer_id -> selected ids``; cohort
        members omitted from the result are provably unchanged -- exactly
        the contract of :meth:`select_many_additive`, extended to the whole
        round.

        The default implementation reproduces the per-peer engine loop:
        cohorts expand into one additive update per member (sharing the
        cohort's gains) for :meth:`select_many_additive`, and -- matching the
        engine's install phase -- only full-candidate recomputations may
        consult the index.
        Methods with structure linking full and additive results (see
        :class:`~repro.overlay.selection.empty_rectangle.EmptyRectangleSelection`)
        override this to keep the whole round sub-linear in the population.
        """
        if index is not None:
            self._check_index_support()
        results: Dict[int, List[int]] = {}
        if full_references:
            results.update(
                self.select_many(full_references, {}, index=index)
                if index is not None
                else self.select_many(full_references, candidates_by_peer, member_of=member_of)
            )
        updates = [
            (member_of(member_id), cohort.selected_of(member_id), cohort.gained)
            for cohort in additive_cohorts
            for member_id in map(int, cohort.member_ids)
        ]
        if updates:
            results.update(self.select_many_additive(updates, member_of=member_of))
        return results

    def select_additive(
        self,
        reference: PeerInfo,
        selected: Sequence[PeerInfo],
        gained: Sequence[PeerInfo],
    ) -> List[int]:
        """Single-reference additive re-selection.

        The per-peer counterpart of :meth:`select_many_additive`, used by the
        message-level simulator where reselect ticks fire one peer at a time
        (a missing key means "selection unchanged").  Callers must only use
        this on methods with ``path_independent = True`` and with ``selected``
        known to equal ``select(reference, I(P))`` for the previous candidate
        set.
        """
        batched = self.select_many_additive([(reference, selected, gained)])
        if reference.peer_id in batched:
            return list(batched[reference.peer_id])
        return [peer.peer_id for peer in selected]

    @staticmethod
    def merge_candidate_delta(
        selected: Sequence[PeerInfo], gained: Sequence[PeerInfo]
    ) -> List[PeerInfo]:
        """The reduced candidate set ``selected + gained``, deduplicated by id.

        This is the candidate list every additive fallback re-selects from
        (the incremental engine, :meth:`select_additive` and vectorised
        multi-gain branches alike); keeping it in one place keeps the
        ordering and dedup rule -- ascending peer id, ``gained`` info wins a
        duplicate -- identical across all of them, which the cross-path
        equivalence tests rely on.
        """
        merged: Dict[int, PeerInfo] = {peer.peer_id: peer for peer in selected}
        merged.update({peer.peer_id: peer for peer in gained})
        return [merged[other] for other in sorted(merged)]

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _id_sorted(ids: Collection[int], member_of: MemberOf) -> List[PeerInfo]:
        """The ``PeerInfo`` list a scan iterates: ascending peer id."""
        return [member_of(other) for other in sorted(ids)]

    # The array paths read ids off a coordinate column; a caller holding
    # ``PeerInfo`` lists (no ``member_of``) is adapted to ids and a
    # temporary column (:meth:`MemberOf.adapt`).
    @staticmethod
    def _candidate_rows(
        references: Sequence[PeerInfo],
        candidates_by_peer: Mapping[int, Collection],
        member_of: Optional[MemberOf],
    ) -> Tuple[CoordinateColumn, List[Collection[int]]]:
        """``(column, rows)``: each reference's candidates as stored ids."""
        rows = [candidates_by_peer[reference.peer_id] for reference in references]
        if member_of is None:
            member_of = MemberOf.adapt(chain(references, *rows))
            rows = [[peer.peer_id for peer in row] for row in rows]
        return member_of.column, rows

    @classmethod
    def _additive_rows(
        cls,
        updates: Sequence[Tuple[PeerInfo, Collection, Collection]],
        member_of: Optional[MemberOf],
    ) -> Tuple[CoordinateColumn, List[Tuple[PeerInfo, Collection[int], Collection[int]]]]:
        """``(column, updates)`` with ``selected`` and ``gained`` as stored
        ids; a gained info wins a duplicate id within its update."""
        if member_of is None:
            member_of = MemberOf.adapt(chain.from_iterable(
                (reference, *cls.merge_candidate_delta(selected, gained))
                for reference, selected, gained in updates
            ))
            updates = [
                (reference, [peer.peer_id for peer in selected], [peer.peer_id for peer in gained])
                for reference, selected, gained in updates
            ]
        return member_of.column, updates

    @staticmethod
    def _origins(references: Sequence[PeerInfo]) -> Tuple[List[int], np.ndarray]:
        """The references' ids and coordinates, one row each."""
        origins = np.fromiter(
            chain.from_iterable(reference.coordinates for reference in references),
            dtype=np.float64,
        ).reshape(len(references), -1)
        return [reference.peer_id for reference in references], origins

    @staticmethod
    def _changed(
        updates: Sequence[Tuple[PeerInfo, Collection[int], Collection[int]]],
        results: Mapping[int, List[int]],
    ) -> Dict[int, List[int]]:
        """The additive results some gained id survives in: by path
        independence, exactly the changed selections."""
        return {
            reference.peer_id: results[reference.peer_id]
            for reference, _, gained in updates
            if not set(gained).isdisjoint(results[reference.peer_id])
        }

    @staticmethod
    def _exclude_reference(
        reference: PeerInfo, candidates: Sequence[PeerInfo]
    ) -> List[PeerInfo]:
        """Drop the reference peer (and id-duplicates) from the candidate set."""
        seen: Set[int] = {reference.peer_id}
        result: List[PeerInfo] = []
        for candidate in candidates:
            if candidate.peer_id in seen:
                continue
            if candidate.dimension != reference.dimension:
                raise ValueError(
                    f"candidate {candidate.peer_id} has dimension {candidate.dimension}, "
                    f"expected {reference.dimension}"
                )
            seen.add(candidate.peer_id)
            result.append(candidate)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
