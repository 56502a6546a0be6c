"""Columnar engine state: the implicit full-knowledge candidate representation.

Under full knowledge every peer's candidate set is "everyone alive but me",
so materialising it per peer would be pure redundancy.  One reselection
round installs the fixed point (the installs change nobody's candidate
set), so every alive peer with history was last selected under the same
population: the one before the membership events since the last round.
:class:`ColumnarCandidateState` therefore keeps two pieces of state, both
change-sized:

* the **needs-full** id set -- peers with no selection consistent with any
  candidate set (fresh joins, peers whose neighbour sets were mutated behind
  the engine's back, the mover itself, everyone at adoption);
* the **window** -- every id named by a membership event since the last
  round, with whether it was alive before its first event.

The alive ids are not state of the view: each round reads them off the
overlay's coordinate column, always through the overlay (``add_peer``
replaces the column when a drained overlay takes a new dimension).
Membership notes are O(1) / O(selectors) set writes, and
:meth:`~ColumnarCandidateState.plan_round` -- the view's whole round
protocol -- collapses schedule-and-classify into verdict mask columns, so a
round costs numpy passes plus O(changes) Python, never a per-peer loop
(``tests/test_population_check.py`` fails any join, leave, move or round
that walks the overlay's peer map or the column's id -> row map).

A leave followed by a rejoin of the same id inside one window yields the id
in *both* ``gained`` and ``lost``, like a move: the rejoined id is never in
a peer's installed selection (its selectors were forced onto the
full-recompute path at the departure), so the ``lost`` entry cannot trigger
the full path, and the ``gained`` one is what keeps a rejoin *with different
coordinates* correct without per-peer pending sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, Set

import numpy as np

from repro.overlay.incremental import CandidateView, RoundPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.overlay.network import OverlayNetwork

__all__ = ["ColumnarCandidateState"]


def _id_array(ids: Iterable[int]) -> "np.ndarray":
    return np.fromiter(ids, dtype=np.int64)


class ColumnarCandidateState(CandidateView):
    """Implicit full-knowledge candidate bookkeeping: one window per round.

    A peer is dirty exactly when it is alive and either needs a full
    recompute or the window is non-empty (its candidate set is everyone
    alive but itself, which any membership event may change).  The
    candidate delta of every peer with history is the window's net
    membership change, computed once per round and shared.

    Round protocol: :meth:`plan_round` -> the engine installs the plan's
    cohort -> :meth:`end_round`.
    """

    def __init__(self, overlay: "OverlayNetwork") -> None:
        # Adopting the overlay's current state: no history, everyone dirty.
        self._overlay = overlay
        self._needs_full: Set[int] = set(overlay.peer_ids)
        #: Id -> whether it was alive before its first event in the window.
        self._window: Dict[int, bool] = {}

    def _alive_ids(self) -> "np.ndarray":
        return self._overlay._column.columns()[0]  # noqa: SLF001 - read in place

    # ------------------------------------------------------------------
    # Membership notifications (the per-event hot path)
    # ------------------------------------------------------------------
    def note_join(self, peer_id: int) -> None:
        """O(1): the joiner has no history."""
        self._needs_full.add(peer_id)
        self._window.setdefault(peer_id, False)

    def note_leave(self, peer_id: int, selector_ids: Iterable[int]) -> None:
        """O(selectors): selectors lost a selected neighbour behind the
        engine's back, so they recompute in full."""
        self._needs_full.discard(peer_id)
        self._needs_full.update(selector_ids)
        self._window.setdefault(peer_id, True)

    def note_move(self, peer_id: int) -> None:
        """O(1): a coordinate change re-identifies the peer as a candidate.

        The mover itself needs a full recompute (its own reference point
        changed, which no candidate delta can express).  Everyone else sees
        the move through the window: the id lands in both ``gained`` and
        ``lost``, which forces selectors of the mover onto the full path
        (lost ∩ installed) and re-offers the new coordinates to everyone
        else additively.
        """
        self._needs_full.add(peer_id)
        self._window.setdefault(peer_id, True)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _schedule(self) -> "np.ndarray":
        """Every alive id if the window is non-empty, else the needs-full ids."""
        if self._window:
            return np.array(self._alive_ids())
        return np.sort(_id_array(self._needs_full))

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
        O(changes) instead of per-peer set intersections.  The table:
        needs-full peers have no history -> ``full``; a window that nets to
        nothing -> ``skip``; a non-path-independent method -> ``full``;
        otherwise the scheduled selectors of lost ids -> ``full``, the rest
        -> ``additive`` when the window gained and ``skip`` when it only
        lost.  Python touches only the window, its gained / lost sets and
        the selectors of each lost id; the rest is ``np.isin`` masks.

        A peer with history never appears in its own window -- any event
        naming a peer also puts it in the needs-full set (join, move) or
        takes it out of the population (leave) -- and a state that breaks
        this is an error, not a verdict.  A returned plan opens the round;
        ``end_round`` closes it.
        """
        scheduled = self._schedule()
        # The window's net delta against current membership: an id alive at
        # both ends moved, or departed and rejoined -- same id, possibly a
        # new identity -- hence both gained and lost.
        overlay = self._overlay
        lost = {event_id for event_id, alive_then in self._window.items() if alive_then}
        gained = {event_id for event_id in self._window if event_id in overlay}
        for window_id in gained:
            if window_id not in self._needs_full:
                raise RuntimeError(
                    f"peer {window_id} is scheduled with history but is named "
                    "by an event in its own window"
                )
        full_mask = np.isin(scheduled, _id_array(self._needs_full))
        history = ~full_mask
        skip_mask = np.zeros(scheduled.size, dtype=bool)
        additive_mask = np.zeros(scheduled.size, dtype=bool)
        if not gained and not lost:
            skip_mask = history
        elif not path_independent:
            full_mask = full_mask | history
        else:
            hit_ids = _id_array(
                selector for lost_id in lost for selector in selectors(lost_id)
            )
            hit = history & np.isin(scheduled, hit_ids)
            full_mask = full_mask | hit
            rest = history & ~hit
            if gained:
                additive_mask = rest
            else:
                skip_mask = rest
        return RoundPlan(
            scheduled_ids=scheduled,
            full_mask=full_mask,
            skip_mask=skip_mask,
            additive_mask=additive_mask,
            gained=frozenset(gained) if additive_mask.any() else frozenset(),
        )

    def end_round(self) -> None:
        """Every scheduled peer now has history under the current population."""
        self._needs_full.clear()
        self._window.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def dirty_ids(self) -> FrozenSet[int]:
        """Alive peers whose candidate sets may have changed since their
        last installed selection."""
        return frozenset(self._schedule().tolist())
