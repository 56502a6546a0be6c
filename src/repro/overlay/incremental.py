"""Incremental reselection: converge by reacting to deltas, not global sweeps.

The paper's experimental procedure inserts peers one at a time and lets the
overlay converge after every insertion.  Running that with full synchronous
sweeps (:meth:`repro.overlay.network.OverlayNetwork.reselect_round`) costs a
full ``select()`` for every peer in every round, which makes the procedure
roughly cubic in the population size.  This module maintains the information
needed to re-run selection *only where something could have changed* -- the
reaction-to-deltas pattern gossip aggregation protocols use to reach large
populations.

Dirty-set invariants
--------------------

The engine tracks, for every peer ``P``:

* whether ``P`` has *history* -- an installed selection consistent with a
  candidate set ``I(P)`` the engine can still name -- or not (freshly
  joined peers, peers whose neighbour set was mutated behind the engine's
  back by a departure, the mover itself), which forces a full
  recomputation;
* membership of the *dirty set* -- ``P`` is dirty exactly when its current
  ``I(P)`` may differ from the one its selection was installed under.

Clean peers therefore provably reproduce their current selection, so a
partial round that re-selects only dirty peers installs the same topology a
full synchronous sweep would; by induction the incremental path follows the
full-sweep trajectory round for round and terminates in the identical fixed
point (the cross-check property tests exercise exactly this).

*How* that state is represented follows the knowledge regime, and
``overlay.gossip_radius`` alone picks it.  Each regime has one view, each
view speaks one round protocol, and :class:`CandidateView` is what the
engine asks of either:

* **full knowledge** --
  :class:`repro.overlay.columnar.ColumnarCandidateState`: ``I(P)`` is
  "everyone alive but ``P``", and one round installs the fixed point, so
  the view keeps a needs-full id set and one window -- the membership
  events since the last round -- and reads the alive ids off the overlay's
  coordinate column.  Membership notes are O(1) / O(selectors) set writes;
  a round is one ``plan_round()`` call that schedules *and* classifies it
  as verdict columns (:class:`RoundPlan`), installed as one cohort;
* **a gossip radius** -- :class:`RadiusCandidateState` (next section):
  ``begin_round()`` schedules, the engine classifies peer by peer from
  ``delta(P)`` and commits each planned peer after the batched install.

Both apply the :func:`classify_reselect` decision table.  Neither is the
other's reference: the oracles are the synchronous sweep,
``OverlayNetwork.build_equilibrium`` and the ``brute_force_*`` geometry,
which the suites in ``tests/`` hold both views to.

Dirtiness is seeded by membership events (the joined peer, departed peers'
selectors, a moved peer and the peers that held it as a candidate, which
meet it as lost + gained in both views) and propagated each round through
candidate-set deltas.

Bounded radius: the maintained sets' window is the delta
--------------------------------------------------------

Under a gossip radius ``I(P)`` is the set of peers within ``BR`` hops of
``P`` in the undirected topology, and the overlay reports every undirected
edge flip at the moment it makes it (:meth:`CandidateView.note_edge_flip`,
from ``OverlayNetwork.notify_selection_change``: ``{P, T}`` flips exactly
when ``T`` enters or leaves ``P``'s selection while ``T`` does not select
``P``; a departure is preceded by one flip per edge of the departed
peer).  ``MaintainedKnowledgeSets`` turns each flip into support-count bumps
and nets what they did to every ``I(P)`` in its *net-delta window* (its
module states both rules).
:class:`RadiusCandidateState` consumes exactly that and keeps nothing per
peer but a has-history flag: ``begin_round()`` drains the window and
schedules the peers it names, ``delta(P)`` *is* ``P``'s entry (exact --
see :meth:`RadiusCandidateState.delta`), ``known(P)`` is read in place, for
FULL verdicts only, before the round's installs move it, and ``note_move``
hands the mover to the peers that knew it a window ago as lost + gained;
by symmetry they are its own set of a window ago.  The oracle is
:func:`repro.overlay.gossip.knowledge_sets` -- plain BFS per peer over
``OverlayNetwork.adjacency()`` -- used by the full sweep and the tests.

When the selection method declares itself *path independent*
(:attr:`~repro.overlay.selection.base.NeighbourSelectionMethod.path_independent`),
two cheaper re-selection paths apply:

* a peer that only *lost* candidates it had not selected keeps its selection
  with no recomputation at all;
* a peer that only *gained* candidates re-selects from ``selection + gained``
  instead of its full candidate set.

Methods without the property fall back to full-candidate recomputation,
which is always correct.  Selections are batched through
:meth:`~repro.overlay.selection.base.NeighbourSelectionMethod.select_many`
so vectorised methods amortise the per-call overhead.

The full/skip/additive decision itself is :func:`classify_reselect`, shared
with the message-level simulator: a
:class:`repro.simulation.protocol.PeerProcess` applies the same rule to its
``AnnouncementStore`` snapshot on every reselect tick, so the protocol replay
and the offline engine skip and shortcut under exactly the same conditions.

Delta-stream contract
---------------------

Downstream consumers (the stability-tree maintainer and the connectivity
feed of :mod:`repro.multicast.incremental`) react to overlay changes without
re-reading the whole topology, and without keeping a copy of it: the overlay
already maintains the exact directed selection and the undirected links, so
the stream only has to say *where to look*.  Consumers subscribe
through :meth:`repro.overlay.network.OverlayNetwork.delta_stream`, which
hands every overlay the same set-backed :class:`OverlayDeltaRecorder` (three
id sets; a touch is one ``set.update``); every membership event and every
installed selection change -- whichever convergence path produced it -- is
recorded, and :meth:`OverlayDeltaRecorder.drain` returns the accumulated
:class:`OverlayDelta` and resets the recorder.  The contract:

* ``joined`` / ``departed`` are the net membership changes since the last
  drain (a peer that joined *and* departed inside one window appears in
  neither; a departure followed by a re-join appears in both, and consumers
  must process the departure first);
* ``touched`` is a superset of the peers whose *undirected* adjacency may
  have changed -- both endpoints of every added or removed selection edge --
  so a consumer that re-derives per-peer state (e.g. the preferred tree
  neighbour, which depends only on a peer's own adjacency) from the
  overlay's *current* state for every touched peer provably reaches the
  same result as a from-scratch recomputation.  Re-processing an
  already-clean peer is always harmless, so over-approximation is safe.

The current state of one touched peer is read in place, through
:meth:`repro.overlay.network.OverlayNetwork.links` (selected plus selectors,
the overlay's own live set) -- always through the overlay object, never
through a captured reference to its private dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.overlay.gossip import MaintainedKnowledgeSets
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import AdditiveCohort, MemberOf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.overlay.network import OverlayNetwork

__all__ = [
    "RESELECT_FULL",
    "RESELECT_SKIP",
    "RESELECT_ADDITIVE",
    "classify_reselect",
    "CandidateView",
    "IncrementalReselectionEngine",
    "OverlayDelta",
    "OverlayDeltaRecorder",
    "RadiusCandidateState",
    "RoundPlan",
]


@dataclass(frozen=True)
class OverlayDelta:
    """Net overlay changes accumulated between two recorder drains."""

    joined: FrozenSet[int]
    departed: FrozenSet[int]
    touched: FrozenSet[int]

    @property
    def is_empty(self) -> bool:
        """``True`` when nothing happened since the last drain."""
        return not (self.joined or self.departed or self.touched)


class OverlayDeltaRecorder:
    """Accumulates membership and adjacency-touch events for one subscriber.

    Created by :meth:`repro.overlay.network.OverlayNetwork.delta_stream`;
    see the module docstring for the exact delta-stream contract.  The
    recorder only stores peer ids, so keeping one attached costs ``O(changed
    peers)`` per convergence, not ``O(N)``.
    """

    def __init__(self) -> None:
        self._joined: Set[int] = set()
        self._departed: Set[int] = set()
        self._touched: Set[int] = set()

    def note_join(self, peer_id: int) -> None:
        """A peer entered the overlay (possibly re-using a departed id)."""
        self._joined.add(peer_id)
        self._touched.add(peer_id)

    def note_leave(self, peer_id: int) -> None:
        """A peer left the overlay."""
        if peer_id in self._joined:
            # A join and a leave inside one window cancel out: the consumer
            # never saw the peer, so it must not be asked to remove it.
            self._joined.discard(peer_id)
        else:
            self._departed.add(peer_id)

    def note_touch(self, peer_ids: Iterable[int]) -> None:
        """The undirected adjacency of these peers may have changed."""
        self._touched.update(peer_ids)

    def drain(self) -> OverlayDelta:
        """Return the accumulated delta and reset the recorder."""
        delta = OverlayDelta(
            joined=frozenset(self._joined),
            departed=frozenset(self._departed),
            touched=frozenset(self._touched),
        )
        self._joined = set()
        self._departed = set()
        self._touched = set()
        return delta


#: Re-run the selection against the complete candidate set.
RESELECT_FULL = "full"
#: The installed selection provably still holds; no recomputation needed.
RESELECT_SKIP = "skip"
#: Re-select from ``installed selection + gained`` (path independence).
RESELECT_ADDITIVE = "additive"


def classify_reselect(
    last_candidates: Optional[FrozenSet[int]],
    gained: Set[int],
    lost: Set[int],
    installed_selection: Set[int],
    path_independent: bool,
) -> str:
    """Decide how a peer's selection must be refreshed for a candidate delta.

    This is the dirty-set decision rule shared by the offline
    :class:`IncrementalReselectionEngine` and the message-level simulator's
    :class:`repro.simulation.protocol.PeerProcess`: given the candidate id
    set at the peer's last installed selection (``None`` = no selection
    consistent with any candidate set exists), the ids gained and lost since
    then, and the installed selection itself, return one of

    * :data:`RESELECT_FULL` -- recompute against the complete candidate set
      (no history, a non-path-independent method, or a selected candidate
      was lost);
    * :data:`RESELECT_SKIP` -- only never-selected candidates were lost (or
      nothing changed at all): path independence guarantees the installed
      selection is exactly what a recomputation would produce;
    * :data:`RESELECT_ADDITIVE` -- the set only gained members (beyond
      harmless losses): path independence lets ``selection + gained`` stand
      in for the full candidate set.

    The skip verdict for an *empty* delta is valid for any deterministic
    method; the skip-on-loss and additive verdicts rely on
    :attr:`~repro.overlay.selection.base.NeighbourSelectionMethod.path_independent`.
    """
    if last_candidates is None or (lost & installed_selection):
        return RESELECT_FULL
    if not gained and not lost:
        return RESELECT_SKIP
    if not path_independent:
        return RESELECT_FULL
    if not gained:
        return RESELECT_SKIP
    return RESELECT_ADDITIVE


#: Per-peer round plan entry: ``(peer_id, verdict, gained, lost)``.
_PlanEntry = Tuple[int, str, Set[int], Set[int]]


@dataclass(frozen=True)
class RoundPlan:
    """A whole full-knowledge convergence round, classified as columns.

    Produced by
    :meth:`repro.overlay.columnar.ColumnarCandidateState.plan_round`:
    ``scheduled_ids`` are the dirty peer ids, and the three verdict masks
    partition their positions by the :func:`classify_reselect` decision
    table (``full | skip | additive``, mutually disjoint).  Every additive
    peer gained the same ids, the window's gains, so ``gained`` is one set,
    empty exactly when no position is additive.
    """

    scheduled_ids: "np.ndarray"
    full_mask: "np.ndarray"
    skip_mask: "np.ndarray"
    additive_mask: "np.ndarray"
    gained: FrozenSet[int]

#: Non-``None`` stand-in passed to :func:`classify_reselect` when a view
#: reports per-peer history without materialising the candidate set itself
#: (the rule only distinguishes ``None`` from "history exists"; the actual
#: ids travel through ``gained``/``lost``).
_HAS_HISTORY: FrozenSet[int] = frozenset()


class CandidateView:
    """What the engine asks of either candidate view.

    A view owns everything the engine knows about candidate sets -- per-peer
    history, dirtiness, pending deltas -- for one knowledge regime:
    :class:`repro.overlay.columnar.ColumnarCandidateState` under full
    knowledge, :class:`RadiusCandidateState` under a gossip radius.  How a
    round is scheduled and classified is each view's own protocol (see the
    two classes); this is the part the engine drives without knowing which
    regime it is in.  Membership notifications (``note_join`` /
    ``note_leave`` / ``note_move``) arrive between rounds, never inside one;
    ``note_edge_flip`` also arrives from a round's own installs, after
    every read of that round.
    """

    def note_join(self, peer_id: int) -> None:
        """A peer was added (already present in the overlay's peer map)."""
        raise NotImplementedError

    def note_leave(self, peer_id: int, selector_ids: Iterable[int]) -> None:
        """A peer was removed; ``selector_ids`` had it in their neighbour sets."""
        raise NotImplementedError

    def note_move(self, peer_id: int) -> None:
        """A peer's coordinates changed in place (same id, same links)."""
        raise NotImplementedError

    def note_edge_flip(self, peer_id: int, other_id: int, present: bool) -> None:
        """An undirected overlay edge appeared or vanished (bounded radius).

        Only reported on gossip-limited overlays; full-knowledge candidate
        sets do not depend on the topology, so the default ignores it.
        """

    def full_candidate_ids(self, peer_id: int) -> AbstractSet[int]:
        """One peer's current candidate ids (scan path only; may be a live
        view, so the round consumes it before its installs)."""
        raise NotImplementedError

    def end_round(self) -> None:
        """Close the round: clean every scheduled peer, drop round memos."""
        raise NotImplementedError

    def dirty_ids(self) -> FrozenSet[int]:
        """Peers whose candidate sets may have changed since last selection."""
        raise NotImplementedError


class RadiusCandidateState(CandidateView):
    """Candidate bookkeeping under a gossip radius: the window *is* the delta.

    Every ``I(P)`` is maintained state
    (:class:`repro.overlay.gossip.MaintainedKnowledgeSets`, adopted from the
    live topology here, kept exact from the edge flips the overlay reports),
    so this view stores no candidate ids: a has-history flag per peer, and
    per round the net-delta window ``begin_round`` drained.

    Round protocol (per peer): ``begin_round`` -> the engine classifies each
    scheduled peer from ``delta`` (``forget`` for ids that left) -> it
    installs, reading FULL verdicts' candidates through
    ``full_candidate_ids`` -> ``commit`` per planned peer -> ``end_round``.
    """

    def __init__(self, overlay: "OverlayNetwork") -> None:
        self._knowledge = MaintainedKnowledgeSets.from_links(
            overlay.peer_ids, overlay.links, overlay.gossip_radius
        )
        # Peers whose installed selection is consistent with known(P) as of
        # the previous drain; everyone else is dirty and recomputes in full.
        self._history: Set[int] = set()
        self._dirty: Set[int] = set(overlay.peer_ids)
        self._window: Dict[int, Dict[int, int]] = {}
        # Per knower with history, the movers its selection was installed
        # with: this round, each is lost and -- if still known -- gained.
        self._moved: Dict[int, Set[int]] = {}

    def note_join(self, peer_id: int) -> None:
        # Isolated until its bootstrap edges are reported as flips.  An id
        # that left inside this window may be back at other coordinates,
        # which its knowers of a window ago would never notice: a move.
        self._knowledge.add_peer(peer_id)
        self.note_move(peer_id)

    def note_leave(self, peer_id: int, selector_ids: Iterable[int]) -> None:
        # Selectors lost a selected neighbour behind the engine's back; every
        # edge of the departed peer was already reported as a flip.
        self.forget(peer_id)
        self._force_full(selector_ids)
        self._knowledge.remove_peer(peer_id)

    def note_move(self, peer_id: int) -> None:
        """Candidate *ids* do not move with the coordinates, so no window
        will show the change.  The mover recomputes in full; every peer with
        history whose selection was installed with the mover as a candidate
        keeps its history and meets the mover as lost + gained (see
        :meth:`delta`), as under full knowledge.  By symmetry those peers
        are ``I(mover)`` as of the previous drain, read from the mover's own
        undrained window entry in O(|I(mover)|)."""
        self._force_full([peer_id])
        for knower in self._knowledge.known_at_last_drain(peer_id):
            if knower in self._history:
                self._moved.setdefault(knower, set()).add(peer_id)
                self._dirty.add(knower)

    def _force_full(self, peer_ids: Iterable[int]) -> None:
        for peer_id in peer_ids:
            self._history.discard(peer_id)
            self._dirty.add(peer_id)

    def forget(self, peer_id: int) -> None:
        self._history.discard(peer_id)
        self._dirty.discard(peer_id)
        self._moved.pop(peer_id, None)

    def note_edge_flip(self, peer_id: int, other_id: int, present: bool) -> None:
        self._knowledge.flip(peer_id, other_id, present)

    def begin_round(self) -> List[int]:
        """Drain the net-delta window and schedule every id it names (a
        departed id's entry is dropped by the engine's ``forget``)."""
        self._window = self._knowledge.drain_changed()
        self._dirty.update(self._window)
        return sorted(self._dirty)

    def delta(self, peer_id: int) -> Tuple[bool, Set[int], Set[int]]:
        """``P``'s window entry, in O(changes) -- exact, not approximate: a
        peer with history was last committed in a round that read
        ``known(P)`` right after that round's drain; it stays unscheduled
        only while every later window nets to nothing for it; and flips
        arrive only from a round's installs (after all of its reads) or from
        membership notes (between rounds).  So at every ``begin_round`` the
        set its selection was installed under *is* ``known(P)`` as of the
        previous drain.  A mover it knew then is lost at its old coordinates
        and, unless the window shows it lost outright, gained at its new
        ones: a selector of the mover recomputes in full, anyone else
        re-offers it additively."""
        if peer_id not in self._history:
            return False, set(), set()
        net = self._window.get(peer_id, {})
        gained = {other for other, sign in net.items() if sign > 0}
        lost = net.keys() - gained
        moved = self._moved.get(peer_id)
        if moved:
            gained.update(moved - net.keys())
            lost.update(moved)
        return True, gained, lost

    def full_candidate_ids(self, peer_id: int) -> AbstractSet[int]:
        """``known(P)``, live; it already holds ``_neighbours[P]`` (bootstrap
        edges are reported as flips like any other)."""
        return self._knowledge.known(peer_id)

    def commit(self, peer_id: int) -> None:
        """The peer's installed selection is now consistent with ``known(P)``."""
        self._history.add(peer_id)

    def end_round(self) -> None:
        self._dirty.clear()
        self._window = {}
        self._moved = {}

    def dirty_ids(self) -> FrozenSet[int]:
        """Dirty peers plus the ones the undrained window will schedule."""
        return frozenset(self._dirty).union(self._knowledge.changed_peers())


class IncrementalReselectionEngine:
    """Delta-driven convergence state for one :class:`OverlayNetwork`.

    The engine is created lazily by the first ``converge()`` call and kept
    in sync through the overlay's membership methods; a full-sweep
    ``reselect_round()`` invalidates it (the sweep rewrites every neighbour
    set outside the engine's bookkeeping), after which the next convergence
    starts from an all-dirty state -- one batched full round -- and is
    incremental from there on.

    Candidate bookkeeping lives in one of two views, picked by
    ``overlay.gossip_radius`` when the engine adopts the overlay (and by
    nothing else): :class:`repro.overlay.columnar.ColumnarCandidateState`
    under full knowledge, :class:`RadiusCandidateState` under a radius.
    Both are built from the overlay's current peers, all dirty; both feed
    the :func:`classify_reselect` rule and install what a full sweep would.
    """

    def __init__(self, overlay: "OverlayNetwork") -> None:
        # Imported here: repro.overlay.columnar subclasses this module's
        # CandidateView, so the dependency must stay one-directional at
        # import time.
        from repro.overlay.columnar import ColumnarCandidateState

        self._overlay = overlay
        self._view: CandidateView = (
            ColumnarCandidateState(overlay)
            if overlay.gossip_radius is None
            else RadiusCandidateState(overlay)
        )

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    @property
    def dirty_peers(self) -> FrozenSet[int]:
        """Peers whose candidate sets may have changed since last selection."""
        return self._view.dirty_ids()

    # ------------------------------------------------------------------
    # Membership notifications (the per-event hot path)
    # ------------------------------------------------------------------
    def note_join(self, peer_id: int) -> None:
        """A peer was added (already present in the overlay's peer map)."""
        self._view.note_join(peer_id)

    def note_leave(self, peer_id: int, selectors: Iterable[int]) -> None:
        """A peer was removed; ``selectors`` had it in their neighbour sets."""
        self._view.note_leave(peer_id, selectors)

    def note_move(self, peer_id: int) -> None:
        """A peer's coordinates changed in place (same id, same links)."""
        self._view.note_move(peer_id)

    def note_edge_flip(self, peer_id: int, other_id: int, present: bool) -> None:
        """An undirected edge appeared or vanished (bounded radius only)."""
        self._view.note_edge_flip(peer_id, other_id, present)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def run_round(self) -> bool:
        """One partial synchronous round; ``True`` if any selection changed.

        Candidate sets are derived from the pre-round topology (the view
        resolves every scheduled set before any selection is installed), and all
        updates are installed at once -- the same synchronous semantics as
        the full sweep, restricted to dirty peers.

        This wrapper is the *deliberately O(N)* sweep entry: building the
        schedule costs one pass over the population (a copy of the
        column's ids under full knowledge, a sort of the dirty set under a
        radius), which is the right trade for a synchronous round.

        Under full knowledge one ``plan_round`` call schedules *and*
        classifies the round as numpy verdict columns, and
        :meth:`_install_plan` resolves it through the selection family's
        cohort entry
        (:meth:`~repro.overlay.selection.base.NeighbourSelectionMethod.install_many`)
        -- the O(N) sweep is numpy passes, every Python loop is O(dirty ids
        + changes).  Under a radius the O(dirty + changes) classification
        core :meth:`_plan_round` is followed by a batched install phase
        that only touches planned peers.
        """
        view = self._view
        if self._overlay.gossip_radius is None:
            plan = view.plan_round(
                self._overlay.selectors, self._overlay.selection.path_independent
            )
            if plan.scheduled_ids.size == 0:
                return False
            changed = self._install_plan(plan)
        else:
            schedule = view.begin_round()
            if not schedule:
                return False
            changed = self._install_round(self._plan_round(schedule))
        view.end_round()
        return changed

    def _plan_round(self, schedule: List[int]) -> List[_PlanEntry]:
        """Classify every scheduled peer of a bounded-radius round.

        O(dirty + changes), no id sets: resolves each scheduled peer's
        candidate delta through the radius view and runs
        :func:`classify_reselect` on it; reading ``known(P)`` for full
        recomputes and the selections themselves are deferred to the install
        phase.
        """
        overlay = self._overlay
        members = overlay._peers  # noqa: SLF001 - engine is a friend class
        neighbour_sets = overlay._neighbours  # noqa: SLF001
        path_independent = overlay.selection.path_independent
        view = self._view
        plan: List[_PlanEntry] = []
        for peer_id in schedule:
            if peer_id not in members:
                view.forget(peer_id)
                continue
            has_history, gained, lost = view.delta(peer_id)
            verdict = classify_reselect(
                _HAS_HISTORY if has_history else None,
                gained,
                lost,
                neighbour_sets[peer_id],
                path_independent,
            )
            plan.append((peer_id, verdict, gained, lost))
        return plan

    def _install_round(self, plan: List[_PlanEntry]) -> bool:
        """Run and install a bounded-radius round's planned selections, then
        commit the radius view's history.  Every selection scans its own
        candidate set: a shared index cannot answer per-peer subsets."""
        overlay = self._overlay
        view = self._view
        members = overlay._peers  # noqa: SLF001
        neighbour_sets = overlay._neighbours  # noqa: SLF001
        selection = overlay.selection
        references: List[PeerInfo] = []
        # Ids throughout: the selection resolves the ones it needs, or reads
        # their coordinates off the overlay's column (member_of).
        candidates_by_peer: Dict[int, AbstractSet[int]] = {}
        additive_updates: List[Tuple[PeerInfo, Set[int], Set[int]]] = []
        member_of = MemberOf(members.__getitem__, overlay._column)  # noqa: SLF001

        for peer_id, verdict, gained, _lost in plan:
            if verdict == RESELECT_FULL:
                # Full recomputation against the complete candidate set.
                candidates_by_peer[peer_id] = view.full_candidate_ids(peer_id)
                references.append(members[peer_id])
            elif verdict == RESELECT_ADDITIVE:
                # Gains only: path independence lets the previous selection
                # stand in for the full previous candidate set.
                additive_updates.append((members[peer_id], neighbour_sets[peer_id], gained))
            # RESELECT_SKIP: the installed selection provably still holds.

        results: Dict[int, List[int]] = {}
        if additive_updates:
            results.update(
                selection.select_many_additive(additive_updates, member_of=member_of)
            )
        if references:
            results.update(
                selection.select_many(references, candidates_by_peer, member_of=member_of)
            )
        changed = overlay.install_selections(results)
        for peer_id, _verdict, _gained, _lost in plan:
            view.commit(peer_id)
        return changed

    def _install_plan(self, plan: RoundPlan) -> bool:
        """Resolve and install one full-knowledge round plan.

        The verdict masks are gathered into one cohort-install call --
        :meth:`~repro.overlay.selection.base.NeighbourSelectionMethod.install_many`
        -- and the results land in ``OverlayNetwork._neighbours`` through
        the single :meth:`~repro.overlay.network.OverlayNetwork.install_selections`
        fan-out, which preserves the delta-stream contract per peer.
        Python work here is O(full verdicts + changed selections): the
        additive cohort stays an implicit id array, so the (usually
        population-sized) cohort after an epoch costs numpy passes plus the
        changed members only.  The view folds the round's history wholesale
        in ``end_round``.
        """
        overlay = self._overlay
        members = overlay._peers  # noqa: SLF001
        neighbour_sets = overlay._neighbours  # noqa: SLF001
        selection = overlay.selection
        view = self._view
        index = overlay.index
        ids = plan.scheduled_ids

        full_ids = np.sort(ids[plan.full_mask])
        full_references = [members[int(peer_id)] for peer_id in full_ids]
        candidates_by_peer: Dict[int, AbstractSet[int]] = {}
        if index is None:
            for reference in full_references:
                candidates_by_peer[reference.peer_id] = view.full_candidate_ids(
                    reference.peer_id
                )
        cohorts = []
        if plan.gained:
            cohorts.append(
                AdditiveCohort(
                    member_ids=np.sort(ids[plan.additive_mask]),
                    gained=tuple(sorted(plan.gained)),
                    selected_of=neighbour_sets.__getitem__,
                )
            )
        results = selection.install_many(
            full_references,
            candidates_by_peer,
            cohorts,
            member_of=MemberOf(members.__getitem__, overlay._column),  # noqa: SLF001
            index=index,
        )
        return overlay.install_selections(results)
