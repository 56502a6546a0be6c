"""The P2P overlay network: membership, knowledge sets and convergence.

:class:`OverlayNetwork` maintains the state the paper's protocol maintains --
which peers exist, which neighbours each peer has selected -- and exposes the
two ways of reaching the equilibrium topology:

* :meth:`OverlayNetwork.converge` runs synchronous *reselection rounds* on
  the incremental engine
  (:class:`repro.overlay.incremental.IncrementalReselectionEngine`): each
  round re-selects only the *dirty* peers -- those whose candidate set
  ``I(P)`` (every other peer, or the peers within ``gossip_radius`` =
  ``BR`` overlay hops) may have changed since their last selection -- with
  dirtiness seeded by membership events and propagated through
  candidate-set deltas.  Clean peers provably reproduce their selection, so
  every round installs what :meth:`OverlayNetwork.reselect_round` -- one
  synchronous sweep in which every peer re-selects, kept as the oracle the
  tests hold the engine to -- would.  This is the paper's procedure of
  letting the overlay converge after every membership change, at churn
  scale (``N = 1000`` and beyond).

* :meth:`OverlayNetwork.build_equilibrium` jumps straight to the
  full-knowledge fixed point using the selection method's
  :meth:`~repro.overlay.selection.base.NeighbourSelectionMethod.compute_equilibrium`
  (every peer's ``select`` against everyone, except where a Hyperplanes
  method overrides it).
  The paper states the gossip process should converge to (or close to) this
  topology; tests verify the agreement on small instances.

A message-level replay of the join/gossip protocol (individual announcements,
latencies, ``Tmax`` expiry) lives in :mod:`repro.simulation.protocol` and
produces the same equilibria.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.geometry.index import CoordinateColumn, SpatialIndex
from repro.overlay.gossip import knowledge_sets, peers_within_hops
from repro.overlay.incremental import IncrementalReselectionEngine, OverlayDeltaRecorder
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import MemberOf, NeighbourSelectionMethod
from repro.overlay.topology import TopologySnapshot

__all__ = [
    "OverlayNetwork",
    "ConvergenceError",
    "BatchJoin",
    "BatchLeave",
    "BatchMove",
    "BatchEvent",
]


@dataclass(frozen=True)
class BatchJoin:
    """One join inside an :meth:`OverlayNetwork.apply_batch` epoch.

    ``bootstrap=None`` selects the default :meth:`OverlayNetwork.add_peer`
    rule (the lowest existing id); peers that joined earlier in the same
    batch are valid bootstrap contacts because events apply in order.
    """

    peer: PeerInfo
    bootstrap: Optional[FrozenSet[int]] = None


@dataclass(frozen=True)
class BatchLeave:
    """One departure inside an :meth:`OverlayNetwork.apply_batch` epoch."""

    peer_id: int


@dataclass(frozen=True)
class BatchMove:
    """One identifier move inside an :meth:`OverlayNetwork.apply_batch` epoch.

    Applied through :meth:`OverlayNetwork.move_peer`: the peer keeps its id
    and address but relocates to ``coordinates`` in the virtual space, and
    the epoch's single convergence settles every selection the move dirtied.
    """

    peer_id: int
    coordinates: Tuple[float, ...]


#: Accepted by :meth:`OverlayNetwork.apply_batch`: explicit event records, or
#: the shorthands ``PeerInfo`` (a default-bootstrap join) and ``int`` (a leave).
BatchEvent = Union[BatchJoin, BatchLeave, BatchMove, PeerInfo, int]


class ConvergenceError(RuntimeError):
    """Raised when reselection rounds fail to reach a fixed point.

    ``dirty`` are the peers the incremental engine still had to re-select
    when it gave up (under a gossip radius: those whose ``I(P)`` the last
    round's installs moved); the count and the lowest ids are kept.
    """

    def __init__(
        self, rounds: int, dirty: Iterable[int] = (), gossip_radius: Optional[int] = None
    ) -> None:
        lowest = sorted(dirty)
        self.rounds = rounds
        self.dirty_count = len(lowest)
        self.dirty_sample = tuple(lowest[:5])
        self.gossip_radius = gossip_radius
        super().__init__(
            f"overlay did not converge within {rounds} reselection rounds; "
            "increase max_rounds or check the selection method for oscillation"
            + (
                f" ({self.dirty_count} peers still dirty, lowest ids "
                f"{list(self.dirty_sample)}, gossip radius {gossip_radius})"
                if lowest
                else ""
            )
        )


class OverlayNetwork:
    """A P2P overlay whose neighbour sets are produced by a selection method.

    Parameters
    ----------
    selection:
        The neighbour selection method every peer applies to its candidate
        set.
    gossip_radius:
        ``BR``, the number of overlay hops existence announcements travel.
        ``None`` (the default) models the full-knowledge steady state in
        which every peer eventually hears about every other peer.

    The overlay owns one :class:`~repro.geometry.index.CoordinateColumn`
    over the alive peers' coordinates, which the batched selection reads.
    Under full knowledge (``gossip_radius`` is ``None``) it is a
    :class:`~repro.geometry.index.SpatialIndex` (:attr:`index`), and the
    column *is* every peer's candidate set: each full selection is one
    ``select_many`` call over the whole column, with no candidate set
    materialised.  Under a gossip radius every selection reads its own
    candidate ids.
    """

    def __init__(
        self,
        selection: NeighbourSelectionMethod,
        *,
        gossip_radius: Optional[int] = None,
    ) -> None:
        if gossip_radius is not None and gossip_radius < 1:
            raise ValueError("gossip_radius must be at least 1 when given")
        self._selection = selection
        self._gossip_radius = gossip_radius
        # Maintained across every membership path (add_peer / remove_peer /
        # move_peer / the bulk builders); convergence failures never touch
        # coordinates, so the column stays exact through them.
        self._column: CoordinateColumn = (
            SpatialIndex() if gossip_radius is None else CoordinateColumn()
        )
        self._peers: Dict[int, PeerInfo] = {}
        self._neighbours: Dict[int, Set[int]] = {}
        # Undirected links, what both of the paper's rules read: _links[p]
        # is the peers p selected plus the peers that selected it.
        self._links: Dict[int, Set[int]] = {}
        # Created lazily by the first converge(); kept in sync by the
        # membership methods and dropped whenever a sweep rewrites the
        # topology behind its back.
        self._engine: Optional[IncrementalReselectionEngine] = None
        # Delta-stream subscribers (see repro.overlay.incremental): every
        # membership event and installed selection change is mirrored into
        # each attached recorder, whichever convergence path produced it.
        self._delta_recorders: List[OverlayDeltaRecorder] = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def selection(self) -> NeighbourSelectionMethod:
        """The neighbour selection method in use."""
        return self._selection

    @property
    def gossip_radius(self) -> Optional[int]:
        """``BR`` when gossip-limited, ``None`` for full knowledge."""
        return self._gossip_radius

    @property
    def index(self) -> Optional[SpatialIndex]:
        """The full-knowledge coordinate column (``None`` under a gossip radius)."""
        column = self._column
        return column if isinstance(column, SpatialIndex) else None

    @property
    def peer_ids(self) -> List[int]:
        """Ids of all current peers, sorted."""
        return sorted(self._peers)

    @property
    def peer_count(self) -> int:
        """Number of peers currently in the overlay."""
        return len(self._peers)

    def peer(self, peer_id: int) -> PeerInfo:
        """Metadata of one peer."""
        try:
            return self._peers[peer_id]
        except KeyError:
            raise KeyError(f"unknown peer {peer_id}") from None

    def peers(self) -> List[PeerInfo]:
        """Metadata of all peers, sorted by id."""
        return [self._peers[peer_id] for peer_id in sorted(self._peers)]

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peers

    def add_peer(self, peer: PeerInfo, *, bootstrap: Optional[Iterable[int]] = None) -> None:
        """Add a peer, optionally wiring it to bootstrap neighbours.

        A joining peer in the paper must know one or more peers already in
        the system; those become its initial neighbours.  When ``bootstrap``
        is omitted and the overlay is non-empty, one existing peer is chosen
        deterministically (the lowest id) so that the join is always
        well-formed.
        """
        if peer.peer_id in self._peers:
            raise ValueError(f"peer {peer.peer_id} is already in the overlay")
        if bootstrap is None:
            bootstrap_ids: Set[int] = {min(self._peers)} if self._peers else set()
        else:
            bootstrap_ids = set(bootstrap)
            unknown = [other for other in bootstrap_ids if other not in self._peers]
            if unknown:
                raise KeyError(f"bootstrap peers {sorted(unknown)} are not in the overlay")
        if not self._peers and self._column.dimension not in (None, peer.dimension):
            # A drained column retains its dimension, but an empty overlay
            # legitimately accepts a population of any dimension -- start
            # the column over rather than rejecting the first joiner.
            self._column = type(self._column)()
        # Validates the dimension before anything is written.
        self._column.insert(peer.peer_id, peer.coordinates)
        self._peers[peer.peer_id] = peer
        self._neighbours[peer.peer_id] = set(bootstrap_ids)
        self._links[peer.peer_id] = set()
        if self._engine is not None:
            self._engine.note_join(peer.peer_id)
        if self._delta_recorders:
            for recorder in self._delta_recorders:
                recorder.note_join(peer.peer_id)
        # The bootstrap set is an installed selection change like any other
        # (previous selection: empty), so it goes through the shared
        # notification instead of a special-cased touch -- both endpoints of
        # every bootstrap edge land in ``touched``, which is what keeps
        # multi-peer-bootstrap joins on the delta-stream contract.  Called
        # unconditionally (not just when recorders are attached) because the
        # notifier also writes the links.
        self.notify_selection_change(peer.peer_id, set(), bootstrap_ids)

    def remove_peer(self, peer_id: int) -> PeerInfo:
        """Remove a peer and every link that references it."""
        try:
            info = self._peers.pop(peer_id)
        except KeyError:
            raise KeyError(f"unknown peer {peer_id}") from None
        del self._neighbours[peer_id]
        self._column.remove(peer_id)
        # Sorted for a deterministic notification order.
        selectors = sorted(self.selectors(peer_id))
        for selector in selectors:
            self._neighbours[selector].discard(peer_id)
        # Every edge of the departed peer is withdrawn, each one a flip.
        links = self._links[peer_id]
        former = sorted(links)
        flips = self._engine if self._gossip_radius is not None else None
        for other in former:
            links.discard(other)
            self._links[other].discard(peer_id)
            if flips is not None:
                flips.note_edge_flip(peer_id, other, False)
        del self._links[peer_id]
        if self._engine is not None:
            self._engine.note_leave(peer_id, selectors)
        if self._delta_recorders:
            for recorder in self._delta_recorders:
                recorder.note_leave(peer_id)
                recorder.note_touch(former)
        return info

    def move_peer(self, peer_id: int, coordinates: Iterable[float]) -> PeerInfo:
        """Update one peer's coordinates in place; returns the new metadata.

        The paper's population is mobile in the general setting -- a peer's
        characteristic point can drift without the peer leaving the overlay.
        A move keeps the id (and therefore every installed link referencing
        it) while invalidating every selection that evaluated the old
        coordinates: the coordinate column is re-keyed, the incremental engine
        is told the mover and everyone tracking it need reclassification,
        and the delta recorders see the mover plus both its selectors and
        its selected targets as touched (their undirected adjacency may
        change at the next convergence).  The caller converges afterwards,
        exactly like after :meth:`add_peer` / :meth:`remove_peer`.
        """
        try:
            info = self._peers[peer_id]
        except KeyError:
            raise KeyError(f"unknown peer {peer_id}") from None
        moved = replace(info, coordinates=tuple(coordinates))
        self._column.move(peer_id, moved.coordinates)  # validates first
        self._peers[peer_id] = moved
        if self._engine is not None:
            self._engine.note_move(peer_id)
        if self._delta_recorders:
            touched = {peer_id, *self._links[peer_id]}
            for recorder in self._delta_recorders:
                recorder.note_touch(touched)
        return moved

    # ------------------------------------------------------------------
    # Neighbour state
    # ------------------------------------------------------------------
    def selected_neighbours(self, peer_id: int) -> FrozenSet[int]:
        """Peers that ``peer_id`` currently selects as neighbours (directed)."""
        try:
            return frozenset(self._neighbours[peer_id])
        except KeyError:
            raise KeyError(f"unknown peer {peer_id}") from None

    def directed_neighbour_map(self) -> Dict[int, FrozenSet[int]]:
        """The whole directed selection map."""
        return {peer_id: frozenset(neighbours) for peer_id, neighbours in self._neighbours.items()}

    def links(self, peer_id: int) -> AbstractSet[int]:
        """Undirected links of one peer: the peers it selected plus the peers
        that selected it.  The overlay's own set, read-only and *live* (copy
        it to keep a snapshot); the read both of the paper's rules make."""
        try:
            return self._links[peer_id]
        except KeyError:
            raise KeyError(f"unknown peer {peer_id}") from None

    def selectors(self, peer_id: int) -> Set[int]:
        """Peers whose installed selection contains ``peer_id``, derived from
        its links in O(degree); empty for an id not in the overlay."""
        neighbours = self._neighbours
        return {other for other in self._links.get(peer_id, ()) if peer_id in neighbours[other]}

    def adjacency(self) -> Dict[int, Set[int]]:
        """Undirected communication topology: a copy of every :meth:`links`."""
        return {peer_id: set(links) for peer_id, links in self._links.items()}

    def snapshot(self) -> TopologySnapshot:
        """Immutable snapshot of the current topology."""
        return TopologySnapshot.from_directed(self._peers, self._neighbours)

    # ------------------------------------------------------------------
    # Delta stream (see repro.overlay.incremental for the contract)
    # ------------------------------------------------------------------
    def delta_stream(self) -> OverlayDeltaRecorder:
        """Attach and return a new overlay delta recorder.

        From this call on, every membership event and every installed
        selection change -- full sweeps and incremental rounds alike -- is
        mirrored into the recorder; draining it yields the net
        :class:`~repro.overlay.incremental.OverlayDelta` since the previous
        drain.  Consumers attaching to an already-populated overlay must
        bootstrap from :meth:`snapshot` first (events before the attachment
        are not replayed); re-processing peers touched both before and after
        the snapshot is harmless by the contract.
        """
        recorder = OverlayDeltaRecorder()
        self._delta_recorders.append(recorder)
        return recorder

    def notify_selection_change(
        self, peer_id: int, previous: Set[int], selected: Set[int]
    ) -> None:
        """Record one installed selection change into the links and recorders.

        The undirected adjacency of the selecting peer and of both the
        gained and lost targets may have changed; everything else provably
        kept its adjacency.

        This is the public half of the delta-stream contract: every code
        path that mutates ``_neighbours`` must tell the recorders, or
        downstream consumers silently diverge.  :meth:`add_peer` and every
        convergence path (through :meth:`install_selections`) route the
        change through here; :meth:`remove_peer` touches the departed peer's
        links directly.  ``tests/test_write_census.py`` pins that set of
        writers.

        The same routing keeps the links exact: ``{peer_id, target}`` flips
        exactly when ``target`` enters or leaves the selection while it does
        not select ``peer_id``.  Under a gossip radius each flip is reported
        to the engine, whose maintained knowledge sets are built from them.
        """
        links = self._links
        flips = self._engine if self._gossip_radius is not None else None
        for target in previous ^ selected:
            if peer_id not in self._neighbours[target]:
                present = target in selected
                if present:
                    links[peer_id].add(target)
                    links[target].add(peer_id)
                else:
                    links[peer_id].discard(target)
                    links[target].discard(peer_id)
                if flips is not None:
                    flips.note_edge_flip(peer_id, target, present)
        if not self._delta_recorders:
            return
        touched = {peer_id}
        touched.update(previous ^ selected)
        for recorder in self._delta_recorders:
            recorder.note_touch(touched)

    def install_selections(self, results: Mapping[int, Iterable[int]]) -> bool:
        """Install a batch of computed selections; ``True`` if any changed.

        The single install fan-out every convergence path ends in (both
        incremental round protocols and the :meth:`reselect_round` sweep):
        each entry replaces one peer's directed selection, and every actual
        change routes through :meth:`notify_selection_change` -- so the
        delta-stream contract and the links hold per peer no matter how the
        batch was computed.  Entries equal to the installed selection are
        skipped without notifying; peers absent from ``results`` are
        untouched.  Iteration is in ascending peer id for determinism.
        """
        changed = False
        for peer_id in sorted(results):
            selected = set(results[peer_id])
            previous = self._neighbours[peer_id]
            if selected != previous:
                self._neighbours[peer_id] = selected
                self.notify_selection_change(peer_id, previous, selected)
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Knowledge sets and convergence
    # ------------------------------------------------------------------
    def _candidate_ids(self, peer_id: int, reachable: Iterable[int]) -> Set[int]:
        """Candidate ids of one peer given its bounded-hop reachability.

        The single place encoding the gossip-radius candidate semantics: a
        peer knows everything its announcements footprint covers, *plus* its
        bootstrap contacts (a joining peer always knows them even before any
        gossip round has run over the new links), and never itself.  Both the
        public :meth:`knowledge_set` and the full-sweep round build candidate
        sets through here.  The incremental engine reads its maintained sets
        as they are: a peer's selection is part of its links, so a footprint
        over the live adjacency already covers it (the maintained-knowledge
        suite asserts ``_neighbours[P] <= known(P)`` after every converge).
        """
        known = set(reachable)
        known |= self._neighbours[peer_id]
        known.discard(peer_id)
        return known

    def knowledge_set(self, peer_id: int) -> List[PeerInfo]:
        """The candidate set ``I(P)`` of one peer under the current topology."""
        if peer_id not in self._peers:
            raise KeyError(f"unknown peer {peer_id}")
        if self._gossip_radius is None:
            return [info for other, info in self._peers.items() if other != peer_id]
        reachable = peers_within_hops(self._links, peer_id, self._gossip_radius)
        return [
            self._peers[other]
            for other in sorted(self._candidate_ids(peer_id, reachable))
        ]

    def reselect_round(self) -> bool:
        """One synchronous full-sweep round; returns ``True`` if anything changed.

        Every peer recomputes its candidate set against the *pre-round*
        topology and applies the selection method; all updates are then
        installed at once, through :meth:`install_selections`.  Synchronous
        rounds make convergence deterministic and are the discrete-time
        counterpart of "periodically, every peer broadcasts its existence ...
        then selects its new overlay neighbours".

        This is the oracle the incremental engine is cross-checked against
        (the tests loop it to a fixed point); running it re-selects every
        peer behind the engine's back, so any live engine state is
        discarded.  Under full knowledge the sweep is one whole-column
        :meth:`~repro.overlay.selection.base.NeighbourSelectionMethod.select_many`.
        """
        # Dropped first: the engine's bookkeeping (under a gossip radius, the
        # knowledge sets it maintains from the edge flips notified below)
        # must not see a sweep it cannot follow.
        self.invalidate_engine()
        if self._gossip_radius is None:
            return self.install_selections(
                self._selection.select_many(
                    list(self._peers.values()),
                    member_of=MemberOf(self._peers.__getitem__, self._column),
                )
            )
        reachable = knowledge_sets(self._links, self._gossip_radius)
        candidates_by_peer = {
            peer_id: [
                self._peers[other]
                for other in sorted(self._candidate_ids(peer_id, reachable[peer_id]))
            ]
            for peer_id in self._peers
        }
        # Every selection is computed against the pre-round topology before
        # the first one is installed.
        return self.install_selections(
            {
                peer_id: self._selection.select(self._peers[peer_id], candidates)
                for peer_id, candidates in candidates_by_peer.items()
            }
        )

    def invalidate_engine(self) -> None:
        """Discard any live incremental-reselection engine state.

        The engine's dirty set and per-peer history describe one
        convergence trajectory; whenever that trajectory is abandoned --
        a full sweep re-selected every peer, or a convergence aborted
        with :class:`ConvergenceError` -- the engine must be dropped so the
        next incremental convergence rebootstraps from an all-dirty state.
        Both of those paths call it themselves.
        """
        self._engine = None

    def converge(self, *, max_rounds: int = 50) -> int:
        """Run reselection rounds until a fixed point; returns the round count.

        The rounds are driven by the dirty-set engine: only peers whose
        candidate sets may have changed are re-selected, and each round
        installs what a :meth:`reselect_round` sweep would.

        Raises :class:`ConvergenceError` if the topology is still changing
        after ``max_rounds`` rounds.  On that exception path the engine is
        invalidated: the abandoned engine holds mid-trajectory state (a
        consumed dirty set, history describing a topology the caller may now
        mutate or abandon), so the next convergence rebootstraps from an
        all-dirty state instead of resuming from it -- after the error has
        recorded which peers were still dirty.
        """
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self._engine is None:
            self._engine = IncrementalReselectionEngine(self)
        engine = self._engine
        for round_index in range(1, max_rounds + 1):
            if not engine.run_round():
                return round_index
        dirty = engine.dirty_peers
        self.invalidate_engine()
        raise ConvergenceError(max_rounds, dirty, self._gossip_radius)

    def insert_and_converge(
        self,
        peer: PeerInfo,
        *,
        bootstrap: Optional[Iterable[int]] = None,
        max_rounds: int = 50,
    ) -> int:
        """Insert one peer and let the overlay converge (the paper's procedure)."""
        self.add_peer(peer, bootstrap=bootstrap)
        return self.converge(max_rounds=max_rounds)

    def remove_and_converge(self, peer_id: int, *, max_rounds: int = 50) -> int:
        """Remove one peer and let the overlay converge."""
        self.remove_peer(peer_id)
        if not self._peers:
            return 0
        return self.converge(max_rounds=max_rounds)

    def apply_batch(self, events: Iterable[BatchEvent], *, max_rounds: int = 50) -> int:
        """Apply one epoch of membership events, then converge **once**.

        This is the batched-epoch counterpart of the per-event
        :meth:`insert_and_converge` / :meth:`remove_and_converge` loop: every
        event seeds the incremental engine (``note_join`` / ``note_leave``)
        and the delta recorders up front, and the overlay pays a single
        convergence for the whole batch instead of one per event.  Under full
        knowledge the post-convergence fixed point is a function of the
        surviving population alone, so the batched path lands on the exact
        topology the one-event-at-a-time procedure reaches (the hypothesis
        equivalence tests assert this, including byte-identical maintained
        stability trees).

        Events apply in order, so a join may bootstrap off a peer that
        joined earlier in the same batch, and a leave followed by a rejoin
        of the same id is well-formed.  The delta-stream contract is
        preserved per *event*, not per batch: a join+leave inside the epoch
        cancels in the drained delta, a leave+rejoin appears as both, and
        every bootstrap edge notifies both endpoints -- which is what lets a
        :class:`~repro.multicast.incremental.StabilityTreeMaintainer`
        ``refresh()`` once per epoch instead of once per event.

        Accepts :class:`BatchJoin` / :class:`BatchLeave` / :class:`BatchMove`
        records or the shorthands ``PeerInfo`` (join, default bootstrap) and
        ``int`` (leave).  Returns the round count of the single convergence
        (``0`` when the batch was empty or emptied the overlay).
        """
        applied = False
        for event in events:
            if isinstance(event, BatchJoin):
                self.add_peer(event.peer, bootstrap=event.bootstrap)
            elif isinstance(event, BatchLeave):
                self.remove_peer(event.peer_id)
            elif isinstance(event, BatchMove):
                self.move_peer(event.peer_id, event.coordinates)
            elif isinstance(event, PeerInfo):
                self.add_peer(event)
            elif isinstance(event, int):
                self.remove_peer(event)
            else:
                raise TypeError(
                    f"unsupported batch event {event!r}; expected BatchJoin, "
                    "BatchLeave, BatchMove, PeerInfo or a peer id"
                )
            applied = True
        if not applied or not self._peers:
            return 0
        return self.converge(max_rounds=max_rounds)

    # ------------------------------------------------------------------
    # Bulk builders
    # ------------------------------------------------------------------
    @classmethod
    def build_equilibrium(
        cls,
        peers: Sequence[PeerInfo],
        selection: NeighbourSelectionMethod,
    ) -> "OverlayNetwork":
        """Full-knowledge equilibrium overlay for a fixed population.

        This is the topology the paper's gossip process converges to when
        every peer has heard about every other peer; it is also the fast path
        used by the figure benchmarks.

        The population is validated the same way :meth:`add_peer` validates a
        joining peer, by the coordinate column: duplicate ids and mixed
        identifier dimensions raise :class:`ValueError` up front instead of
        crashing deep inside a selection method's equilibrium code.
        """
        overlay = cls(selection)
        for peer in peers:
            overlay._column.insert(peer.peer_id, peer.coordinates)
            overlay._peers[peer.peer_id] = peer
        equilibrium = selection.compute_equilibrium(peers)
        overlay._neighbours = {
            peer_id: set(equilibrium.get(peer_id, set())) for peer_id in overlay._peers
        }
        # The topology lands without per-peer notifications: derive the links.
        links = {peer_id: set(selected) for peer_id, selected in overlay._neighbours.items()}
        for peer_id, selected in overlay._neighbours.items():
            for target in selected:
                links[target].add(peer_id)
        overlay._links = links
        return overlay

    @classmethod
    def build_incremental(
        cls,
        peers: Sequence[PeerInfo],
        selection: NeighbourSelectionMethod,
        *,
        gossip_radius: Optional[int] = None,
        max_rounds: int = 50,
        rng: Optional[random.Random] = None,
    ) -> "OverlayNetwork":
        """Insert peers one at a time, converging after every insertion.

        This follows the paper's experimental procedure literally ("the peers
        were inserted one by one in the overlay (the overlay was allowed to
        converge after every insertion)").  Bootstrap contacts are chosen
        uniformly at random among the peers already present (deterministic
        when ``rng`` is seeded).
        """
        generator = rng if rng is not None else random.Random(0)
        overlay = cls(selection, gossip_radius=gossip_radius)
        for peer in peers:
            if overlay.peer_count == 0:
                overlay.add_peer(peer, bootstrap=())
                continue
            bootstrap = {generator.choice(overlay.peer_ids)}
            overlay.insert_and_converge(peer, bootstrap=bootstrap, max_rounds=max_rounds)
        return overlay
