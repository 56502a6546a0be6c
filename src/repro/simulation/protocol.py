"""Peer processes: the distributed protocol, message by message.

A :class:`PeerProcess` is one peer of the paper's system running over the
simulated network.  It implements, with actual messages:

* **Join**: a joining peer knows the identifier and address of one or more
  peers already in the system; they become its initial neighbours and seed
  its knowledge.
* **Gossip**: periodically, the peer broadcasts an existence announcement
  that travels ``BR >= 2`` hops through the overlay; received announcements
  are stored with a ``Tmax`` expiry window and make up the candidate set
  ``I(P)``.
* **Neighbour reselection**: periodically, the configured neighbour selection
  method is applied to ``I(P)`` to refresh the peer's overlay neighbours.
  Reselect ticks are *dirty-set* ticks: the peer diffs the current candidate
  id set against the one installed at its last selection
  (``last_candidates``) and classifies the delta with
  :func:`repro.overlay.incremental.classify_reselect` -- the same rule the
  offline incremental engine uses.  An unchanged set skips the selection
  method entirely; for path-independent methods a pure-gain delta takes the
  additive shortcut (:meth:`~repro.overlay.selection.base.
  NeighbourSelectionMethod.select_additive`) and a loss of never-selected
  candidates keeps the installed selection; anything else (including any
  loss of a *selected* candidate) falls back to a full recomputation, which
  is always correct.  This is what keeps the message-level replay tractable
  at hundreds of peers: once the overlay settles, ticks are no-ops.
* **Leave**: a departing peer closes its links explicitly -- one
  ``link-close`` carrying a departure notice to every peer it exchanges
  traffic with -- so neighbours immediately drop it from their link sets,
  stored announcements, known addresses and duplicate-suppression keys
  instead of keeping a dead link until the announcements expire.  A
  neighbour that had *selected* the departed peer loses part of its
  installed selection and is forced onto the full-recompute path at its
  next reselect tick.
* **Multicast construction** (Section 2): on receiving a construction request
  carrying a responsibility zone, the peer applies the space-partitioning
  decision rule (shared with the offline builder through
  :func:`repro.multicast.space_partition.select_zone_children`) and forwards
  the request to the selected children.
* **Preferred neighbour selection** (Section 3): whenever its links or
  their known lifetimes change, the peer applies the offline builders' rule,
  :func:`repro.multicast.stability.choose_preferred_parent`, to its
  undirected links.  A peer's lifetime is its first coordinate, so the
  announcements, which carry coordinates, carry it too.

The offline builders in :mod:`repro.multicast` compute the same outcomes
directly from topology snapshots; integration tests check that the two agree,
which is the justification for using the fast offline path in the large
figure benchmarks.

**Loss tolerance.**  Over a lossy :class:`~repro.simulation.netmodel.
LinkModel` the protocol keeps converging to the same fixed point because
every message class has a recovery story:

* *Announcements* are fire-and-forget: the next gossip period re-covers a
  lost one, and the ``Tmax`` window is sized in multiples of the gossip
  period precisely so that isolated losses do not expire a live candidate.
* *Link-state notices* (``link-open`` / ``link-close`` from reselection) and
  *construction/probe requests* are sent reliably: the receiver acks, the
  sender retransmits on a seeded-backoff timer (bounded retries), and
  duplicate deliveries are suppressed by a per-sender message-id set.  A
  retransmission is skipped when the notice is no longer relevant (e.g. the
  link has been re-opened since).
* *Departure notices* (``link-close`` carrying a departure time) cannot be
  ack-driven -- the sender unregisters immediately, so no ack can reach it.
  They are blindly retransmitted a bounded number of times instead, and
  receivers order all link notices by the sender's ``(life, seq)`` stamp,
  so a late duplicate from a previous life can never evict the links of a
  rejoined peer.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.geometry.rectangle import HyperRectangle
from repro.multicast.space_partition import PickStrategy, select_zone_children
from repro.multicast.stability import choose_preferred_parent
from repro.multicast.tree import MulticastTree
from repro.multicast.zones import initial_zone
from repro.overlay.gossip import AnnouncementStore, ExistenceAnnouncement
from repro.overlay.incremental import (
    RESELECT_ADDITIVE,
    RESELECT_FULL,
    RESELECT_SKIP,
    classify_reselect,
)
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import NeighbourSelectionMethod
from repro.simulation.engine import Event, SimulationEngine
from repro.simulation.network import Message, SimulatedNetwork

__all__ = [
    "GossipConfig",
    "ConstructionRequest",
    "TreeRecorder",
    "PeerProcess",
    "LinkNotice",
    "ReliablePayload",
    "ProbeRequest",
    "ProbeRecorder",
]

ANNOUNCE = "announce"
CONSTRUCT = "construct"
LINK_OPEN = "link-open"
LINK_CLOSE = "link-close"
ACK = "ack"
PROBE = "probe"

#: Tag of the ``link-close`` payload announcing that the sender is leaving
#: the system (as opposed to merely dropping this one link after a
#: reselection); sent as ``(DEPARTED, departure_time)`` so receivers can
#: tombstone exactly the announcements issued before the departure.
DEPARTED = "departed"


@dataclass(frozen=True)
class GossipConfig:
    """Protocol timing parameters.

    Attributes
    ----------
    broadcast_radius:
        ``BR``, the number of overlay hops an existence announcement travels
        (the paper requires ``BR >= 2``).
    gossip_period:
        Seconds between two existence announcements of the same peer.
    tmax:
        Retention window of received announcements; must exceed the gossip
        period, as the paper requires.
    reselect_period:
        Seconds between two neighbour reselections of the same peer.
    ack_timeout:
        Seconds a reliable send waits for its ack before retransmitting.
    max_retries:
        Retransmissions (beyond the first send) a reliable message gets
        before the sender gives up.
    retry_backoff:
        Multiplicative backoff factor between successive retransmissions
        (the actual timeout also carries a small seeded jitter so a burst
        of losses does not resynchronise every sender's timer).
    """

    broadcast_radius: int = 2
    gossip_period: float = 1.0
    tmax: float = 5.0
    reselect_period: float = 1.0
    ack_timeout: float = 0.6
    max_retries: int = 3
    retry_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.broadcast_radius < 2:
            raise ValueError("the paper requires a broadcast radius BR >= 2")
        if self.gossip_period <= 0 or self.reselect_period <= 0:
            raise ValueError("periods must be positive")
        if self.tmax <= self.gossip_period:
            raise ValueError("Tmax must be larger than the gossiping period")
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")


@dataclass(frozen=True)
class ReliablePayload:
    """Envelope for messages that expect an ack.

    The receiver acks every copy it sees (acks themselves may be lost) and
    processes only the first -- ``(sender, msg_id)`` keys the suppression
    set.  The inner ``payload`` is the actual protocol message.
    """

    msg_id: int
    payload: Any


@dataclass(frozen=True)
class LinkNotice:
    """A link-state notification, stamped for at-least-once delivery.

    ``life`` is the sender's join generation and ``seq`` a per-target
    counter within that life; receivers apply notices from one sender in
    ``(life, seq)`` order and discard anything stale.  That makes link
    state immune to the two artefacts a real network introduces: reordering
    (a ``link-open`` overtaken by the ``link-close`` that followed it) and
    late duplicates (a departure notice retransmitted from a previous life
    arriving after the peer rejoined).

    A non-``None`` ``departed_at`` marks the sender's departure from the
    system (the tombstone time for announcement suppression), as opposed to
    merely dropping this one link after a reselection.
    """

    life: int
    seq: int
    departed_at: Optional[float] = None


@dataclass(frozen=True)
class ProbeRequest:
    """A dissemination probe flooding down the maintained stability tree.

    ``issued_at`` is the root's send time; every peer that receives the
    probe records ``now - issued_at`` as its dissemination latency.  The
    session token plays the same role as in :class:`ConstructionRequest`.
    """

    session: int
    issued_at: float


class ProbeRecorder:
    """Collects per-peer dissemination latencies of one probe session.

    Like :class:`TreeRecorder` this is experimenter bookkeeping shared by
    all processes of one session, not protocol state.  First delivery wins:
    retransmitted or duplicate probes never overwrite a peer's latency.
    """

    _session_counter = itertools.count()

    def __init__(self, root: int) -> None:
        self._root = root
        self._session = next(self._session_counter)
        self._latencies: Dict[int, float] = {}

    @property
    def root(self) -> int:
        """The initiating peer."""
        return self._root

    @property
    def session(self) -> int:
        """Unique token tying probe messages to this session."""
        return self._session

    def record(self, peer_id: int, latency: float) -> bool:
        """Record a peer's first probe receipt; returns ``False`` for repeats."""
        if peer_id in self._latencies:
            return False
        self._latencies[peer_id] = latency
        return True

    def latencies(self) -> Dict[int, float]:
        """Per-peer dissemination latency (seconds since the root's send)."""
        return dict(self._latencies)

    def reached_peers(self) -> Set[int]:
        """Peers the probe has reached so far."""
        return set(self._latencies)


@dataclass
class _PendingSend:
    """Sender-side state of one in-flight reliable (or blind-repeat) send."""

    target: int
    kind: str
    payload: Any
    guard: Callable[[], bool]
    life: int
    attempts: int = 0
    timer: Optional[Event] = None
    expects_ack: bool = True


@dataclass(frozen=True)
class ConstructionRequest:
    """A Section 2 construction message: the zone, tagged with its session.

    The session tag lets a peer tell a fresh construction request apart from
    one still in flight from an earlier session over the same overlay --
    without it, a stale message would be recorded into whichever recorder is
    currently attached and corrupt the later session's tree.
    """

    session: int
    zone: HyperRectangle


class TreeRecorder:
    """Collects the multicast tree as construction messages are delivered.

    The recorder is shared by all peer processes of one construction session;
    it is bookkeeping for the experimenter (who received what, from whom),
    not protocol state -- peers never read it.  Every recorder carries a
    unique session token; construction messages are tagged with it so that
    messages from one session can never be recorded into another session's
    recorder.
    """

    _session_counter = itertools.count()

    def __init__(self, root: int) -> None:
        self._root = root
        self._session = next(self._session_counter)
        self._parents: Dict[int, Optional[int]] = {root: None}
        self._zones: Dict[int, HyperRectangle] = {}
        self._duplicates = 0

    @property
    def root(self) -> int:
        """The initiating peer."""
        return self._root

    @property
    def session(self) -> int:
        """Unique token tying construction messages to this session."""
        return self._session

    @property
    def duplicate_deliveries(self) -> int:
        """Construction requests delivered to peers that already had one."""
        return self._duplicates

    def record_zone(self, peer_id: int, zone: HyperRectangle) -> None:
        """Remember the responsibility zone a peer ended up with."""
        self._zones.setdefault(peer_id, zone)

    def record_delivery(self, child: int, parent: int) -> bool:
        """Record a request delivery; returns ``False`` for duplicates."""
        if child in self._parents:
            self._duplicates += 1
            return False
        self._parents[child] = parent
        return True

    def reached_peers(self) -> Set[int]:
        """Peers that have received the construction request so far."""
        return set(self._parents)

    def zones(self) -> Dict[int, HyperRectangle]:
        """Responsibility zones recorded so far."""
        return dict(self._zones)

    def to_tree(self) -> MulticastTree:
        """The tree formed by the recorded deliveries."""
        return MulticastTree(self._root, self._parents)


class PeerProcess:
    """One peer of the distributed system, driven by simulation events."""

    def __init__(
        self,
        info: PeerInfo,
        *,
        engine: SimulationEngine,
        network: SimulatedNetwork,
        selection: NeighbourSelectionMethod,
        config: GossipConfig,
        pick_strategy: str = PickStrategy.MEDIAN,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._info = info
        self._engine = engine
        self._network = network
        self._selection = selection
        self._config = config
        self._pick_strategy = pick_strategy
        self._rng = rng if rng is not None else random.Random(info.peer_id)

        self._alive = False
        self._life = 0
        self._announcements = AnnouncementStore(window=config.tmax)
        self._known_addresses: Dict[int, PeerInfo] = {}
        self._neighbours: Set[int] = set()
        self._inbound_links: Set[int] = set()
        self._seen_announcements: Set[Tuple[int, float]] = set()
        # Departure tombstones: id -> departure time.  Announcements issued
        # at or before the tombstone are stale copies still in flight from
        # before the leave; without the tombstone they would re-add the
        # departed peer to the candidate set until Tmax expired it again.
        self._departed_at: Dict[int, float] = {}
        # Rebuilding the suppression-key set is O(origins * window/period),
        # so it runs amortised -- once per Tmax -- not on every tick.
        self._last_origin_prune = 0.0
        # Reliable-delivery state.  msg ids are unique per process for its
        # whole lifetime (never reset on rejoin) so a suppression key can
        # never be reused across lives.
        self._message_ids = itertools.count()
        self._outstanding: Dict[int, _PendingSend] = {}
        self._seen_reliable: Dict[Tuple[int, int], float] = {}
        self._link_seq: Dict[int, int] = {}
        self._link_notice_order: Dict[int, Tuple[int, int]] = {}
        self._retransmissions = 0
        # Dedicated stream for retransmission jitter: drawing it from
        # self._rng would shift the tick-offset / construction draws of
        # every run and break seeded comparisons with loss-free runs.
        self._backoff_rng = random.Random(info.peer_id * 2654435761 + 1)
        self._preferred_neighbour: Optional[int] = None
        # Probe session state (dissemination-latency measurement): the
        # shared recorder and this peer's children down the maintained tree.
        self._probe_recorder: Optional[ProbeRecorder] = None
        self._probe_children: Tuple[int, ...] = ()
        # Optional observer of the Section 3 tree state: notified on join,
        # on leave and whenever the preferred neighbour changes, so a live
        # maintenance engine can mirror the tree without polling processes.
        self._tree_listener: Optional[object] = None
        self._recorder: Optional[TreeRecorder] = None
        self._received_construction = False
        # Dirty-set bookkeeping: I(P) at the last installed selection (None =
        # no selection consistent with any candidate set exists, e.g. after a
        # join seeded the neighbour set directly or a departure mutated it).
        self._last_candidates: Optional[FrozenSet[int]] = None
        self._selection_invocations = 0
        self._additive_updates = 0
        self._reselect_ticks = 0
        self._reselect_skips = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def info(self) -> PeerInfo:
        """Static metadata of this peer."""
        return self._info

    @property
    def peer_id(self) -> int:
        """Identifier handle of this peer."""
        return self._info.peer_id

    @property
    def is_alive(self) -> bool:
        """``True`` between :meth:`join` and :meth:`leave`."""
        return self._alive

    @property
    def neighbours(self) -> Set[int]:
        """Current overlay neighbour ids (directed selection of this peer)."""
        return set(self._neighbours)

    @property
    def link_targets(self) -> Set[int]:
        """Peers this peer exchanges traffic with: selected plus inbound links.

        A peer that selects a neighbour opens a connection to it, so the link
        is usable in both directions -- this is the undirected overlay
        topology the paper's messages travel over.  Inbound links are learned
        through explicit link-open notifications.
        """
        return set(self._neighbours) | set(self._inbound_links)

    @property
    def known_peer_count(self) -> int:
        """Size of the candidate set ``I(P)`` currently held."""
        return len(self._known_addresses)

    @property
    def preferred_neighbour(self) -> Optional[int]:
        """The Section 3 preferred tree neighbour, if one has been selected."""
        return self._preferred_neighbour

    @property
    def last_candidates(self) -> Optional[FrozenSet[int]]:
        """``I(P)`` at the last installed selection; ``None`` = must recompute."""
        return self._last_candidates

    @property
    def selection_invocations(self) -> int:
        """Full applications of the selection method over the complete ``I(P)``.

        A tick counts only when its delta forces a full recompute (no
        consistent history, a non-path-independent method, or the loss of a
        selected candidate).
        """
        return self._selection_invocations

    @property
    def additive_updates(self) -> int:
        """Pure-gain ticks resolved through the additive-delta shortcut.

        Each re-ran the selection against ``installed selection + gained``
        (or the method's vectorised delta rule) instead of the complete
        candidate set -- work proportional to the selection size, not to
        ``|I(P)|``.
        """
        return self._additive_updates

    @property
    def reselect_ticks(self) -> int:
        """Reselect ticks executed while the peer was alive."""
        return self._reselect_ticks

    @property
    def reselect_skips(self) -> int:
        """Reselect ticks resolved without any selection work at all."""
        return self._reselect_skips

    @property
    def seen_announcement_count(self) -> int:
        """Duplicate-suppression keys currently retained (pruned with Tmax)."""
        return len(self._seen_announcements)

    @property
    def retransmissions(self) -> int:
        """Reliable sends repeated because no ack arrived in time."""
        return self._retransmissions

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def join(self, bootstrap: List[PeerInfo]) -> None:
        """Enter the system knowing the given bootstrap peers.

        Registers the peer with the network, seeds its knowledge with the
        bootstrap identifiers/addresses (they become initial neighbours) and
        schedules its periodic gossip and reselection ticks.  Tick phases are
        staggered pseudo-randomly per peer so peers do not act in lockstep.
        """
        if self._alive:
            raise RuntimeError(f"peer {self.peer_id} has already joined")
        self._alive = True
        # One tick generation per life: a stale callback scheduled before a
        # leave() must not keep ticking (and doubling the chains) after a
        # re-join inside the same tick period.
        self._life += 1
        # A re-join starts from a fresh joiner's state: knowledge retained
        # from before a leave() (stored announcements still inside the Tmax
        # window, known addresses, suppression keys, departure tombstones)
        # would otherwise make the peer select links from a stale world view.
        self._announcements = AnnouncementStore(window=self._config.tmax)
        self._known_addresses.clear()
        self._seen_announcements.clear()
        self._departed_at.clear()
        self._last_origin_prune = self._engine.now
        self._neighbours.clear()
        self._inbound_links.clear()
        self._cancel_outstanding()
        self._seen_reliable.clear()
        self._link_seq.clear()
        self._link_notice_order.clear()
        self._backoff_rng = random.Random(
            self._info.peer_id * 2654435761 + self._life + 1
        )
        self._probe_recorder = None
        self._probe_children = ()
        self._preferred_neighbour = None
        self._last_candidates = None
        self._network.register(self.peer_id, self._on_message)
        for contact in bootstrap:
            if contact.peer_id == self.peer_id:
                continue
            self._known_addresses[contact.peer_id] = contact
            self._neighbours.add(contact.peer_id)
            self._announcements.record(
                ExistenceAnnouncement(
                    origin=contact.peer_id,
                    coordinates=contact.coordinates,
                    address=contact.address,
                    issued_at=self._engine.now,
                    remaining_hops=0,
                )
            )
            self._send_link_notice(contact.peer_id, LINK_OPEN)
        if self._tree_listener is not None:
            self._tree_listener.on_join(self._info)
        gossip_offset = self._rng.uniform(0.0, self._config.gossip_period)
        reselect_offset = self._rng.uniform(0.0, self._config.reselect_period)
        life = self._life
        self._engine.schedule_after(gossip_offset, lambda: self._gossip_tick(life))
        self._engine.schedule_after(reselect_offset, lambda: self._reselect_tick(life))

    def leave(self) -> None:
        """Leave the system: close links, stop receiving, stop all ticks.

        Every peer this peer exchanges traffic with (selected neighbours and
        inbound links alike) is sent a ``link-close`` carrying a departure
        notice, so receivers drop the departed peer from their link sets and
        knowledge immediately -- without it, the departed peer would keep
        receiving gossip (counted as sent and dropped) and could even be
        picked as a construction child, orphaning a subtree.  Idempotent.
        """
        if not self._alive:
            return
        self._alive = False
        # Retransmission timers of the living phase die with it; departure
        # notices get their own (blind) repeats below.
        self._cancel_outstanding()
        # The notice carries the actual departure time: receivers tombstone
        # announcements issued up to *this* instant, so a rejoin within one
        # link latency cannot have its first new-life announcements dropped.
        # No ack can reach an unregistered sender, so departure notices are
        # repeated blindly (bounded) instead of ack-driven; the (life, seq)
        # stamp makes the duplicates harmless at the receivers.
        now = self._engine.now
        for target in sorted(self.link_targets):
            self._send_link_notice(target, LINK_CLOSE, departed_at=now)
        self._network.unregister(self.peer_id)
        self._neighbours.clear()
        self._inbound_links.clear()
        self._preferred_neighbour = None
        self._last_candidates = None
        if self._tree_listener is not None:
            self._tree_listener.on_leave(self.peer_id)

    # ------------------------------------------------------------------
    # Multicast construction (Section 2)
    # ------------------------------------------------------------------
    def initiate_construction(self, recorder: TreeRecorder) -> None:
        """Start a multicast tree construction with this peer as the root."""
        if not self._alive:
            raise RuntimeError(f"peer {self.peer_id} is not in the system")
        if recorder.root != self.peer_id:
            raise ValueError("the recorder must be rooted at the initiating peer")
        self._recorder = recorder
        self._received_construction = True
        zone = initial_zone(self._info.dimension)
        recorder.record_zone(self.peer_id, zone)
        self._forward_construction(zone, recorder)

    def attach_tree_listener(self, listener: Optional[object]) -> None:
        """Attach (or detach, with ``None``) the Section 3 tree observer.

        The listener must provide ``on_join(info)``, ``on_leave(peer_id)``
        and ``on_preferred_change(peer_id, parent)``; the simulation runner's
        live tree monitor is the intended implementation.
        """
        self._tree_listener = listener

    def attach_recorder(self, recorder: TreeRecorder) -> None:
        """Attach the session recorder, replacing any previous session's.

        Called by the runner on every peer at the start of a session.  Any
        construction message still in flight from an earlier session is
        ignored from this point on (its session token no longer matches), so
        back-to-back sessions over the same settled overlay cannot leak
        state into each other.
        """
        self._recorder = recorder
        self._received_construction = False

    # ------------------------------------------------------------------
    # Dissemination probes
    # ------------------------------------------------------------------
    def attach_probe(self, recorder: ProbeRecorder, children: Sequence[int]) -> None:
        """Attach a probe session: the shared recorder and this peer's
        children down the maintained tree (computed by the runner from the
        preferred-neighbour edges)."""
        self._probe_recorder = recorder
        self._probe_children = tuple(children)

    def initiate_probe(self) -> None:
        """Flood a probe down the maintained tree with this peer as root."""
        if not self._alive:
            raise RuntimeError(f"peer {self.peer_id} is not in the system")
        recorder = self._probe_recorder
        if recorder is None:
            raise RuntimeError("attach_probe must run before initiate_probe")
        if recorder.root != self.peer_id:
            raise ValueError("the probe recorder must be rooted at the initiator")
        recorder.record(self.peer_id, 0.0)
        self._forward_probe(ProbeRequest(recorder.session, self._engine.now))

    def _forward_probe(self, request: ProbeRequest) -> None:
        recorder = self._probe_recorder
        for child in self._probe_children:
            self._send_reliable(
                child,
                PROBE,
                request,
                guard=lambda: self._alive and self._probe_recorder is recorder,
            )

    # ------------------------------------------------------------------
    # Reliable delivery
    # ------------------------------------------------------------------
    def _send_link_notice(
        self, target: int, kind: str, *, departed_at: Optional[float] = None
    ) -> None:
        """Send a stamped link-open/close; reliable unless it is a departure.

        Reselection notices are ack-driven: the guard keeps retransmitting
        only while the notice still reflects the sender's link state (a
        link re-opened since makes the pending close irrelevant -- its
        higher-seq successor supersedes it anyway).  Departure notices are
        repeated blindly: the sender is unregistered, so acks are
        undeliverable by construction.
        """
        seq = self._link_seq.get(target, 0) + 1
        self._link_seq[target] = seq
        notice = LinkNotice(life=self._life, seq=seq, departed_at=departed_at)
        if departed_at is not None:
            self._send_reliable(
                target, LINK_CLOSE, notice, guard=lambda: True, expects_ack=False
            )
        elif kind == LINK_OPEN:
            self._send_reliable(
                target, LINK_OPEN, notice, guard=lambda: target in self._neighbours
            )
        else:
            self._send_reliable(
                target, LINK_CLOSE, notice, guard=lambda: target not in self._neighbours
            )

    def _send_reliable(
        self,
        target: int,
        kind: str,
        payload: Any,
        *,
        guard: Callable[[], bool],
        expects_ack: bool = True,
    ) -> None:
        """First transmission of a reliable send; arms the retry timer."""
        msg_id = next(self._message_ids)
        pending = _PendingSend(
            target=target,
            kind=kind,
            payload=payload,
            guard=guard,
            life=self._life,
            expects_ack=expects_ack,
        )
        self._outstanding[msg_id] = pending
        self._network.send(
            self.peer_id,
            target,
            kind,
            ReliablePayload(msg_id, payload) if expects_ack else payload,
        )
        self._arm_retry_timer(msg_id, pending)

    def _arm_retry_timer(self, msg_id: int, pending: _PendingSend) -> None:
        # Exponential backoff with a seeded multiplicative jitter so
        # retransmission bursts from simultaneous losses do not stay phase
        # locked across peers.
        timeout = (
            self._config.ack_timeout
            * self._config.retry_backoff**pending.attempts
            * (1.0 + 0.25 * self._backoff_rng.random())
        )
        pending.timer = self._engine.schedule_after(
            timeout,
            lambda: self._retry(msg_id),
            description=f"retry {pending.kind} {self.peer_id}->{pending.target}",
        )

    def _retry(self, msg_id: int) -> None:
        pending = self._outstanding.get(msg_id)
        if pending is None:
            return
        if (
            pending.life != self._life
            or pending.attempts >= self._config.max_retries
            or not pending.guard()
        ):
            del self._outstanding[msg_id]
            return
        pending.attempts += 1
        self._retransmissions += 1
        self._network.send(
            self.peer_id,
            pending.target,
            pending.kind,
            ReliablePayload(msg_id, pending.payload)
            if pending.expects_ack
            else pending.payload,
        )
        self._arm_retry_timer(msg_id, pending)

    def _on_ack(self, msg_id: int) -> None:
        pending = self._outstanding.pop(msg_id, None)
        if pending is not None and pending.timer is not None:
            self._engine.cancel(pending.timer)

    def _cancel_outstanding(self) -> None:
        for pending in self._outstanding.values():
            if pending.timer is not None:
                self._engine.cancel(pending.timer)
        self._outstanding.clear()

    def _unwrap_reliable(self, message: Message) -> Optional[Any]:
        """Ack a reliable envelope and unwrap it; ``None`` for duplicates.

        Every copy is acked -- the previous ack may have been the casualty
        -- but only the first is processed.  Plain (non-enveloped) payloads
        pass through untouched: announcements, departure notices and the
        raw sends of older tests are not acked.
        """
        payload = message.payload
        if not isinstance(payload, ReliablePayload):
            return payload
        self._network.send(self.peer_id, message.sender, ACK, payload.msg_id)
        key = (message.sender, payload.msg_id)
        if key in self._seen_reliable:
            return None
        self._seen_reliable[key] = self._engine.now
        return payload.payload

    # ------------------------------------------------------------------
    # Periodic behaviour
    # ------------------------------------------------------------------
    def _gossip_tick(self, life: int) -> None:
        if not self._alive or life != self._life:
            return
        announcement = ExistenceAnnouncement(
            origin=self.peer_id,
            coordinates=self._info.coordinates,
            address=self._info.address,
            issued_at=self._engine.now,
            remaining_hops=self._config.broadcast_radius,
        )
        for neighbour in sorted(self.link_targets):
            self._network.send(self.peer_id, neighbour, ANNOUNCE, announcement)
        self._engine.schedule_after(
            self._config.gossip_period, lambda: self._gossip_tick(life)
        )

    def _reselect_tick(self, life: int) -> None:
        if not self._alive or life != self._life:
            return
        self._reselect_now()
        self._engine.schedule_after(
            self._config.reselect_period, lambda: self._reselect_tick(life)
        )

    def _reselect_now(self) -> None:
        """One dirty-set reselect tick (see the module docstring).

        Pruning first keeps every per-origin structure in lockstep with the
        ``Tmax`` window: expired announcements leave the store, their origins
        leave the known-address map, and duplicate-suppression keys older
        than the window are discarded.  The candidate id set is then diffed
        against ``last_candidates`` and the delta classified; only the full
        and additive verdicts invoke the selection method.
        """
        now = self._engine.now
        self._reselect_ticks += 1
        expired = self._announcements.prune(now)
        for origin in expired:
            self._known_addresses.pop(origin, None)
        if now - self._last_origin_prune >= self._config.tmax:
            # Amortised: stale suppression keys and tombstones only cost
            # memory (old keys never match new announcements), so rescanning
            # them once per Tmax bounds both the memory and the per-tick cost.
            self._last_origin_prune = now
            horizon = now - self._config.tmax
            if self._seen_announcements:
                self._seen_announcements = {
                    key for key in self._seen_announcements if key[1] >= horizon
                }
            if self._seen_reliable:
                # The retransmission window (ack_timeout * backoff^retries)
                # is far shorter than Tmax for any sane config, so a key
                # older than the window can no longer match a retry.
                self._seen_reliable = {
                    key: seen_at
                    for key, seen_at in self._seen_reliable.items()
                    if seen_at >= horizon
                }
            if self._departed_at:
                # A pre-departure announcement older than Tmax would have
                # expired anyway; the tombstone has nothing left to suppress.
                self._departed_at = {
                    peer_id: departed_at
                    for peer_id, departed_at in self._departed_at.items()
                    if departed_at >= horizon
                }
        current = self._announcements.known_peers(now)
        current_ids = frozenset(current)

        last = self._last_candidates
        verdict = RESELECT_FULL
        if last is not None:
            verdict = classify_reselect(
                last,
                current_ids - last,
                last - current_ids,
                self._neighbours,
                self._selection.path_independent,
            )
        if verdict == RESELECT_SKIP:
            # The installed selection provably equals what a recomputation
            # would produce; neighbours and links are unchanged.  Only an
            # expired announcement changes what the preferred-neighbour rule
            # sees: its origin's lifetime is no longer known.
            self._reselect_skips += 1
            self._last_candidates = current_ids
            if expired:
                self._update_preferred_neighbour()
            return

        if verdict == RESELECT_ADDITIVE:
            selected_infos = [
                self._announcement_info(origin, current[origin])
                for origin in sorted(self._neighbours)
            ]
            gained_infos = [
                self._announcement_info(origin, current[origin])
                for origin in sorted(current_ids - last)
            ]
            self._additive_updates += 1
            selection = set(
                self._selection.select_additive(self._info, selected_infos, gained_infos)
            )
        else:
            candidates = [
                self._announcement_info(origin, announcement)
                for origin, announcement in current.items()
            ]
            self._selection_invocations += 1
            selection = set(self._selection.select(self._info, candidates))

        previous = set(self._neighbours)
        self._neighbours = selection
        for opened in sorted(selection - previous):
            self._send_link_notice(opened, LINK_OPEN)
        for closed in sorted(previous - selection):
            self._send_link_notice(closed, LINK_CLOSE)
        self._last_candidates = current_ids
        self._update_preferred_neighbour()

    def _announcement_info(
        self, origin: int, announcement: ExistenceAnnouncement
    ) -> PeerInfo:
        """Candidate :class:`PeerInfo` for a stored announcement (cached)."""
        info = PeerInfo(
            peer_id=origin,
            coordinates=announcement.coordinates,
            address=announcement.address,
        )
        self._known_addresses[origin] = info
        return info

    def _evict_departed(self, departed: int, *, departed_at: float) -> None:
        """Drop every trace of a peer that announced its departure.

        The departed id leaves the neighbour set, the inbound-link set, the
        announcement store, the known-address map and the
        duplicate-suppression keys.  If this peer had *selected* the departed
        one, its installed selection was just mutated, so no selection
        consistent with any candidate set exists any more: the dirty-set
        invariant is reset and the next reselect tick recomputes in full.
        """
        self._departed_at[departed] = departed_at
        if departed in self._neighbours:
            self._neighbours.discard(departed)
            self._last_candidates = None
        self._inbound_links.discard(departed)
        self._announcements.forget(departed)
        self._known_addresses.pop(departed, None)
        if self._seen_announcements:
            self._seen_announcements = {
                key for key in self._seen_announcements if key[0] != departed
            }

    def _update_preferred_neighbour(self) -> None:
        """Re-derive the Section 3 preferred neighbour from the current links.

        The candidates are the undirected links (:attr:`link_targets`) whose
        announcement has arrived, so their lifetime is known.
        """
        known = self._known_addresses
        links = [n for n in self._neighbours | self._inbound_links if n in known]
        lifetimes = {n: known[n].lifetime for n in links}
        lifetimes[self.peer_id] = self._info.lifetime
        best = choose_preferred_parent(self.peer_id, links, lifetimes)
        changed = best != self._preferred_neighbour
        self._preferred_neighbour = best
        if changed and self._tree_listener is not None:
            self._tree_listener.on_preferred_change(self.peer_id, best)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        if not self._alive:
            return
        if message.kind == ANNOUNCE:
            self._on_announce(message)
        elif message.kind == ACK:
            self._on_ack(message.payload)
        elif message.kind == CONSTRUCT:
            payload = self._unwrap_reliable(message)
            if payload is not None:
                self._on_construct(message.sender, payload)
        elif message.kind == PROBE:
            payload = self._unwrap_reliable(message)
            if payload is not None:
                self._on_probe(payload)
        elif message.kind == LINK_OPEN:
            payload = self._unwrap_reliable(message)
            if payload is None:
                return
            if self._apply_notice_order(message.sender, payload):
                self._inbound_links.add(message.sender)
                self._update_preferred_neighbour()
        elif message.kind == LINK_CLOSE:
            payload = self._unwrap_reliable(message)
            if payload is None:
                return
            if not self._apply_notice_order(message.sender, payload):
                return
            self._inbound_links.discard(message.sender)
            if isinstance(payload, LinkNotice):
                if payload.departed_at is not None:
                    self._evict_departed(message.sender, departed_at=payload.departed_at)
            elif isinstance(payload, tuple) and payload[0] == DEPARTED:
                # Legacy unstamped departure notice (raw test sends).
                self._evict_departed(message.sender, departed_at=payload[1])
            if self._preferred_neighbour == message.sender:
                # Losing any other link leaves the rule's choice as it is.
                self._update_preferred_neighbour()
        else:
            raise ValueError(f"peer {self.peer_id} received unknown message kind {message.kind!r}")

    def _apply_notice_order(self, sender: int, payload: Any) -> bool:
        """Enforce per-sender ``(life, seq)`` ordering of link notices.

        Returns ``True`` when the notice is fresh and must be applied.
        Unstamped payloads (legacy raw sends) always apply.  A stale stamp
        -- a reordered open overtaken by its close, or a departure notice
        retransmitted from a life the sender has since left behind --
        is discarded, which is what protects a rejoined peer's new links
        from its old life's late duplicates.
        """
        if not isinstance(payload, LinkNotice):
            return True
        stamp = (payload.life, payload.seq)
        last = self._link_notice_order.get(sender)
        if last is not None and stamp <= last:
            return False
        self._link_notice_order[sender] = stamp
        return True

    def _on_announce(self, message: Message) -> None:
        announcement: ExistenceAnnouncement = message.payload
        if announcement.origin == self.peer_id:
            return
        tombstone = self._departed_at.get(announcement.origin)
        if tombstone is not None:
            if announcement.issued_at <= tombstone:
                # A copy still in flight from before the origin's departure:
                # recording (or forwarding) it would undo the eviction.
                return
            # Issued after the departure: the origin re-joined.
            del self._departed_at[announcement.origin]
        key = (announcement.origin, announcement.issued_at)
        first_sighting = key not in self._seen_announcements
        self._seen_announcements.add(key)
        self._announcements.record(announcement)
        self._announcement_info(announcement.origin, announcement)
        if first_sighting and announcement.remaining_hops > 1:
            forwarded = announcement.forwarded()
            for neighbour in sorted(self.link_targets):
                if neighbour in (message.sender, announcement.origin):
                    continue
                self._network.send(self.peer_id, neighbour, ANNOUNCE, forwarded)

    def _on_construct(self, sender: int, request: ConstructionRequest) -> None:
        recorder = self._recorder
        if recorder is None:
            raise RuntimeError(
                f"peer {self.peer_id} received a construction request outside a session"
            )
        if request.session != recorder.session:
            # A message still in flight from an earlier session: the peers
            # already moved on to a new recorder, so recording it would leak
            # one session's tree into another's.
            return
        accepted = recorder.record_delivery(self.peer_id, sender)
        if not accepted or self._received_construction:
            return
        self._received_construction = True
        recorder.record_zone(self.peer_id, request.zone)
        self._forward_construction(request.zone, recorder)

    def _on_probe(self, request: ProbeRequest) -> None:
        recorder = self._probe_recorder
        if recorder is None or request.session != recorder.session:
            return
        if not recorder.record(self.peer_id, self._engine.now - request.issued_at):
            return
        # Forward the original request (same issued_at): children measure
        # their latency from the root's send, not from this hop.
        self._forward_probe(request)

    def _forward_construction(self, zone: HyperRectangle, recorder: TreeRecorder) -> None:
        neighbours = [
            self._known_addresses[n]
            for n in sorted(self.link_targets)
            if n in self._known_addresses
        ]
        children = select_zone_children(
            self._info,
            neighbours,
            zone,
            pick_strategy=self._pick_strategy,
            distance="l1",
            rng=self._rng,
        )
        for child_info, child_zone_value in children:
            self._send_reliable(
                child_info.peer_id,
                CONSTRUCT,
                ConstructionRequest(session=recorder.session, zone=child_zone_value),
                guard=lambda: self._alive and self._recorder is recorder,
            )
