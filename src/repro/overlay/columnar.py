"""Columnar engine state: the implicit full-knowledge candidate representation.

Under full knowledge every peer's candidate set is "everyone alive but me",
so materialising it per peer would be pure redundancy: the whole population
history can be captured once, as a **population epoch counter** plus an
append-only membership event log, and each peer's candidate state collapses
to two scalars -- the epoch at its last installed selection and a needs-full
flag.  This module holds that representation:

* :class:`DenseIdMap` -- the ``peer id -> row`` map the candidate state owns.
  Rows are dense array indices, never recycled (a rejoin of a departed id
  reuses its row), so every per-peer quantity can live in a flat numpy
  column indexed by row.
* :class:`ColumnarCandidateState` -- the full-knowledge
  :class:`~repro.overlay.incremental.CandidateView`, built from the
  overlay's alive peers when the engine adopts it.  Membership
  notifications are O(1) array writes plus one event-log append; the
  candidate delta since a stamp is resolved lazily from the log window in
  O(events in window), once for every peer carrying that stamp; and
  :meth:`~ColumnarCandidateState.plan_round` -- the view's whole round
  protocol -- collapses schedule-and-classify into verdict mask columns (one
  vectorised dirty scan, one shared gained window per stamp group), so a
  round costs numpy passes plus O(changes) Python, never a per-peer loop.
  Nothing ever materialises an O(N) id set on the per-event path
  (``tests/test_population_check.py`` fails any join, leave, move or
  round that walks the overlay's peer map or this view's row map).

A leave followed by a rejoin of the same id inside one window yields the id
in *both* ``gained`` and ``lost``, like a move: the rejoined id is never in a
stamped peer's installed selection (its selectors were forced onto the
full-recompute path at the departure), so the ``lost`` entry cannot trigger
the full path, and the ``gained`` one is what keeps a rejoin *with different
coordinates* correct without per-peer pending sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from repro.overlay.incremental import CandidateView, RoundPlan, RoundWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.overlay.network import OverlayNetwork

__all__ = [
    "DenseIdMap",
    "ColumnarCandidateState",
]

_INITIAL_CAPACITY = 64

#: Event-log record kinds.
_JOIN = 0
_LEAVE = 1
_MOVE = 2


def _grown(array: "np.ndarray", capacity: int, fill: object) -> "np.ndarray":
    """Copy ``array`` into a larger buffer, new slots set to ``fill``."""
    grown = np.full(capacity, fill, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class DenseIdMap:
    """Dense ``peer id -> row`` map under the columnar candidate state.

    :class:`ColumnarCandidateState` owns one instance, keeps the alive flags
    in lockstep with the membership notes it receives, and hangs its own
    numpy columns off the same row numbering (growing them lazily to
    :attr:`capacity`).  Rows are never recycled: a departed id keeps its row
    and a rejoin reuses it, which is what lets per-row state like the epoch
    stamps survive membership churn without any compaction bookkeeping.
    """

    def __init__(self) -> None:
        self._row_of_id: Dict[int, int] = {}
        self._id_of_row = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._alive = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._row_count = 0

    @property
    def capacity(self) -> int:
        """Current column length; dependent columns sync to this lazily."""
        return len(self._id_of_row)

    @property
    def row_count(self) -> int:
        """Number of allocated rows (alive peers plus departed ids)."""
        return self._row_count

    @property
    def alive_count(self) -> int:
        """Number of rows currently flagged alive."""
        return int(self._alive[: self._row_count].sum())

    def mark_alive(self, peer_id: int) -> int:
        """Flag ``peer_id`` alive and return its row, allocating one
        (amortised O(1)) for an id never seen before."""
        row = self._row_of_id.get(peer_id)
        if row is None:
            row = self._row_count
            if row == len(self._id_of_row):
                self._id_of_row = _grown(self._id_of_row, 2 * row, 0)
                self._alive = _grown(self._alive, 2 * row, False)
            self._row_of_id[peer_id] = row
            self._id_of_row[row] = peer_id
            self._row_count = row + 1
        self._alive[row] = True
        return row

    def mark_dead(self, peer_id: int) -> int:
        """Flag ``peer_id`` departed; its row stays allocated."""
        row = self._row_of_id[peer_id]
        self._alive[row] = False
        return row

    def row_of(self, peer_id: int) -> int:
        """Row of a known id (:class:`KeyError` for ids never seen)."""
        return self._row_of_id[peer_id]

    def ids_at(self, rows: "np.ndarray") -> "np.ndarray":
        """Peer ids at an array of rows (one vectorised gather)."""
        return self._id_of_row[rows]

    def is_alive(self, peer_id: int) -> bool:
        """Whether a known id is currently flagged alive."""
        return bool(self._alive[self._row_of_id[peer_id]])

    def alive_mask(self) -> "np.ndarray":
        """Boolean alive column over the allocated rows (shared memory)."""
        return self._alive[: self._row_count]

    def alive_ids(self) -> List[int]:
        """Materialise the alive ids (non-hot helper for full recomputes)."""
        rows = self._id_of_row[: self._row_count][self.alive_mask()]
        return [int(value) for value in rows]


class ColumnarCandidateState(CandidateView):
    """Implicit full-knowledge candidate bookkeeping over dense rows.

    State per peer: an int64 *stamp* (the population epoch at its last
    installed selection) and a boolean *needs-full* flag (no selection
    consistent with any candidate set exists -- fresh joins, peers whose
    neighbour sets were mutated behind the engine's back).  State for the
    population: the epoch counter (``base epoch + len(event log)``) and the
    append-only ``(kind, peer id)`` event log.

    A peer is dirty exactly when it is alive and either needs a full
    recompute or is stamped below the current epoch; the per-round schedule
    is one vectorised mask over the columns (the documented-O(N) sweep of
    :meth:`~repro.overlay.incremental.IncrementalReselectionEngine.run_round`,
    a few numpy passes).  The candidate delta of a stamped peer is the net
    membership flip parity over its log window -- computed once per distinct
    stamp per round and shared -- so classification work is O(dirty peers +
    log window), independent of the population size.

    The log is compacted after every round: entries below the minimum stamp
    of any tracked alive peer can never be consulted again and are dropped,
    so a converged overlay always carries an empty window.

    Round protocol: :meth:`plan_round` -> the engine installs the plan's
    cohorts -> :meth:`end_round`.
    """

    def __init__(self, overlay: "OverlayNetwork") -> None:
        # Adopting the overlay's current state: a row per alive peer, no
        # history (everyone is flagged needs-full, hence dirty).
        rows = DenseIdMap()
        for peer_id in overlay.peer_ids:
            rows.mark_alive(peer_id)
        self._rows = rows
        self._base_epoch = 0
        self._events: List[Tuple[int, int]] = []
        self._stamps = np.full(rows.capacity, -1, dtype=np.int64)
        self._needs_full = np.ones(rows.capacity, dtype=bool)
        #: Rows scheduled by the open round; ``end_round`` stamps them.
        self._scheduled_rows = np.zeros(0, dtype=np.int64)

    @property
    def epoch(self) -> int:
        """The population epoch: bumped by every membership event."""
        return self._base_epoch + len(self._events)

    def _sync(self) -> None:
        """Grow the per-row columns to the row map's capacity."""
        capacity = self._rows.capacity
        if len(self._stamps) < capacity:
            self._stamps = _grown(self._stamps, capacity, -1)
            self._needs_full = _grown(self._needs_full, capacity, True)

    # ------------------------------------------------------------------
    # Membership notifications (the per-event hot path)
    # ------------------------------------------------------------------
    def note_join(self, peer_id: int) -> None:
        """O(1): flag the joiner alive and for a full recompute, bump the epoch."""
        row = self._rows.mark_alive(peer_id)
        self._sync()
        self._needs_full[row] = True
        self._events.append((_JOIN, peer_id))

    def note_leave(self, peer_id: int, selector_ids: Iterable[int]) -> None:
        """O(selectors): force selectors onto the full path, bump the epoch."""
        rows = self._rows
        self._needs_full[rows.mark_dead(peer_id)] = True
        for selector in selector_ids:
            self._needs_full[rows.row_of(selector)] = True
        self._events.append((_LEAVE, peer_id))

    def note_move(self, peer_id: int) -> None:
        """O(1): a coordinate change re-identifies the peer as a candidate.

        The mover itself needs a full recompute (its own reference point
        changed, which no candidate delta can express).  Everyone else sees
        the move through the log window: the id lands in both ``gained`` and
        ``lost``, which forces selectors of the mover onto the full path
        (lost ∩ installed) and re-offers the new coordinates to everyone
        else additively.
        """
        self._needs_full[self._rows.row_of(peer_id)] = True
        self._events.append((_MOVE, peer_id))

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _dirty_row_array(self) -> "np.ndarray":
        """The alive-and-stale rows, as one vectorised mask pass."""
        self._sync()
        count = self._rows.row_count
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        alive = self._rows.alive_mask()
        stale = self._needs_full[:count] | (self._stamps[:count] != self.epoch)
        return np.flatnonzero(alive & stale)

    def plan_round(
        self,
        selectors: Callable[[int], Iterable[int]],
        path_independent: bool,
    ) -> RoundPlan:
        """Schedule and classify one round as verdict columns.

        ``selectors`` maps an id to the ids whose installed selection
        contains it (``OverlayNetwork.selectors``: none for a departed id),
        which is how the ``lost & installed_selection`` term of
        :func:`~repro.overlay.incremental.classify_reselect` is resolved in
        O(changes) instead of per-peer set intersections.  The dirty scan,
        the per-peer history test and the whole decision table collapse into
        numpy mask algebra over the scheduled rows.  Python touches only
        change-sized structures -- the distinct stamp values (one per
        converge generation still tracked, typically one), each window's
        gained/lost id sets, and the selectors of each lost id -- so the
        plan costs O(dirty rows) in numpy plus O(changes) in Python, never
        O(alive) Python iteration.  A returned plan opens the round;
        ``end_round`` closes it.

        The table, stamp group by stamp group: rows flagged needs-full have
        no history -> ``full``; an empty window -> ``skip``; a
        non-path-independent method -> ``full``; otherwise members whose
        installed selection intersects the lost set (exactly the scheduled
        selectors of lost ids) -> ``full``, the rest -> ``additive`` when
        the window gained and ``skip`` when it only lost.  A stamped peer
        never appears in its own window -- any event naming a peer also
        sets its needs-full flag (join, move) or clears its alive flag
        (leave) -- and a state that breaks this is an error, not a verdict.
        """
        scheduled_rows = self._dirty_row_array()
        self._scheduled_rows = scheduled_rows
        rows_map = self._rows
        scheduled_ids = rows_map.ids_at(scheduled_rows)
        total = int(scheduled_rows.size)
        full_mask = self._needs_full[scheduled_rows].copy()
        skip_mask = np.zeros(total, dtype=bool)
        additive_mask = np.zeros(total, dtype=bool)
        windows: List[RoundWindow] = []
        stamped = ~full_mask
        if stamped.any():
            stamps = self._stamps[scheduled_rows]
            position_of_row = np.full(rows_map.row_count, -1, dtype=np.int64)
            position_of_row[scheduled_rows] = np.arange(total, dtype=np.int64)
            for stamp in np.unique(stamps[stamped]):
                member_mask = stamped & (stamps == stamp)
                gained, lost = self._delta_since(int(stamp))
                for window_id in gained | lost:
                    position = int(position_of_row[rows_map.row_of(window_id)])
                    if position >= 0 and member_mask[position]:
                        raise RuntimeError(
                            f"peer {window_id} is scheduled with history at stamp "
                            f"{int(stamp)} but is named by an event in its own window"
                        )
                if not gained and not lost:
                    skip_mask |= member_mask
                    continue
                if not path_independent:
                    full_mask |= member_mask
                    continue
                rest = member_mask
                if lost:
                    hit = np.zeros(total, dtype=bool)
                    for lost_id in lost:
                        for selector in selectors(lost_id):
                            position = int(
                                position_of_row[rows_map.row_of(selector)]
                            )
                            if position >= 0 and member_mask[position]:
                                hit[position] = True
                    full_mask |= member_mask & hit
                    rest = member_mask & ~hit
                if not gained:
                    skip_mask |= rest
                elif rest.any():
                    additive_mask |= rest
                    windows.append(
                        RoundWindow(members=rest, gained=frozenset(gained))
                    )
        return RoundPlan(
            scheduled_rows=scheduled_rows,
            scheduled_ids=scheduled_ids,
            full_mask=full_mask,
            skip_mask=skip_mask,
            additive_mask=additive_mask,
            windows=tuple(windows),
        )

    def _delta_since(self, stamp: int) -> Tuple[Set[int], Set[int]]:
        """Net candidate delta over the log window since ``stamp``.

        Membership is resolved by flip parity against the *current* alive
        flag: an id whose window flips are odd changed state, an id with an
        even (non-zero) flip count departed and rejoined -- same id,
        possibly a new identity, hence both gained and lost -- and a moved
        id that stayed alive throughout is likewise both.
        """
        rows = self._rows
        toggles: Dict[int, int] = {}
        moved: Set[int] = set()
        for kind, event_id in self._events[stamp - self._base_epoch :]:
            if kind == _MOVE:
                moved.add(event_id)
            else:
                toggles[event_id] = toggles.get(event_id, 0) + 1
        gained: Set[int] = set()
        lost: Set[int] = set()
        for event_id, flips in toggles.items():
            alive_now = rows.is_alive(event_id)
            alive_then = alive_now if flips % 2 == 0 else not alive_now
            if alive_then and alive_now:
                gained.add(event_id)
                lost.add(event_id)
            elif alive_then:
                lost.add(event_id)
            elif alive_now:
                gained.add(event_id)
        for event_id in moved:
            if event_id not in toggles and rows.is_alive(event_id):
                gained.add(event_id)
                lost.add(event_id)
        return gained, lost

    def full_candidate_ids(self, peer_id: int) -> Set[int]:
        """Materialise one peer's candidates (full recomputes of a method
        without an index path only)."""
        ids = set(self._rows.alive_ids())
        ids.discard(peer_id)
        return ids

    def end_round(self) -> None:
        """Stamp the scheduled rows to the current epoch; compact the log."""
        scheduled = self._scheduled_rows
        self._stamps[scheduled] = self.epoch
        self._needs_full[scheduled] = False
        self._scheduled_rows = np.zeros(0, dtype=np.int64)
        self._compact_log()

    def _compact_log(self) -> None:
        """Drop log entries no tracked alive peer can ever consult again."""
        count = self._rows.row_count
        floor = self.epoch
        if count:
            tracked = self._rows.alive_mask() & ~self._needs_full[:count]
            if tracked.any():
                floor = int(self._stamps[:count][tracked].min())
        drop = floor - self._base_epoch
        if drop > 0:
            del self._events[:drop]
            self._base_epoch = floor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def dirty_ids(self) -> FrozenSet[int]:
        """Alive peers whose candidate sets may have changed since stamping."""
        return frozenset(self._rows.ids_at(self._dirty_row_array()).tolist())
