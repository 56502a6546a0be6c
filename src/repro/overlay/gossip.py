"""Gossip bookkeeping: existence announcements and bounded-hop knowledge sets.

In the paper every peer periodically broadcasts its existence (identifier and
network address) ``BR >= 2`` hops away from itself within the P2P overlay.
The set ``I(P)`` of peers whose announcements reached ``P`` during the last
``Tmax`` seconds is the candidate set the neighbour selection method is
applied to.

Two layers use this module:

* :class:`repro.overlay.network.OverlayNetwork` models the steady state
  (every announcement that can reach ``P`` within ``BR`` hops has reached
  it).  Its incremental engine keeps every ``I(P)`` as *maintained state*,
  :class:`MaintainedKnowledgeSets`; the full sweep and the tests derive the
  same sets from scratch with :func:`knowledge_sets`, a plain BFS per peer
  and the oracle the maintained sets are held equal to.
* :mod:`repro.simulation.protocol` replays the gossip at the message level
  (individual announcements with timestamps and expiry) and uses
  :class:`AnnouncementStore` to model the ``Tmax`` window.

Maintained knowledge sets
-------------------------

*Flip sources.*  The overlay owns the undirected links and reports every
flip right after writing it: ``notify_selection_change`` (the edge ``{P,
T}`` flips exactly when ``T`` enters or leaves ``P``'s selection while ``T``
does not select ``P``) and ``remove_peer`` (every edge of the departed peer,
before the departure).  Nothing is re-derived by diffing adjacencies.

*Support counts.*  Write ``M_0(q) = {q}`` and ``M_k(q)`` for ``q`` plus the
peers within ``k`` hops of it.  Level ``k`` (``0 <= k < BR``) holds, for
every peer ``p`` and every other peer ``x``, the number of neighbours ``q``
of ``p`` with ``x in M_k(q)`` -- the number of ways ``x`` is supported
through a neighbour -- and ``x`` is within ``k + 1`` hops of ``p`` exactly
when that count is positive.  Level 0 is the overlay's links, read through
``links``; the last level's keys are ``I(p)``.  A flip of ``{a, b}`` adds
(or withdraws) one term per level at each endpoint -- the other endpoint's ``M_k`` as it was
before the flip -- and every count that crosses between 0 and 1 bumps the
same id one level up at each neighbour across the post-flip adjacency.  All
bumps of one flip share its sign, so a count crosses at most once and the
order of the bumps is immaterial.  At ``BR = 2`` the count is
``[x in N(p)] + |N(p) & N(x)|`` and a flip costs ``2 (deg a + deg b + 1)``
bumps; every radius runs the same code.

*Net-delta window.*  Crossings of the last level are what a consumer sees:
they are netted per peer -- ``peer -> {id: +1 gained | -1 lost}``, a gain and
a loss of one id cancelling -- until
:meth:`MaintainedKnowledgeSets.drain_changed` hands the window out: exactly
how every ``I(P)`` differs from what it was at the previous drain, in
O(changes).  An untracked id counts as knowing nobody, so a departed id's
entry (all losses) stays until the drain and a rejoin nets against it: the
window is as *symmetric* as the knowledge it differences (``x`` gained by
``p`` exactly when ``p`` gained by ``x``), which is what lets
:meth:`MaintainedKnowledgeSets.known_at_last_drain` answer "who knew ``P`` a
window ago" from ``P``'s own entry.

A bounded radius makes every ``I(P)`` a genuinely per-peer set, which is why
gossip-limited overlays run the incremental engine on
``repro.overlay.incremental.RadiusCandidateState``, the view that reads this
window; full knowledge, where ``I(P)`` is "everyone alive but me", has its
own (``repro.overlay.columnar``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, Iterable, List, Mapping, Set

from repro.geometry.point import Point
from repro.overlay.peer import NetworkAddress

__all__ = [
    "ExistenceAnnouncement",
    "AnnouncementStore",
    "peers_within_hops",
    "knowledge_sets",
    "MaintainedKnowledgeSets",
]


@dataclass(frozen=True)
class ExistenceAnnouncement:
    """One gossip message: "peer ``origin`` with this identifier/address exists".

    ``remaining_hops`` is decremented at every overlay hop; a peer only
    forwards announcements whose remaining hop budget is still positive.
    """

    origin: int
    coordinates: Point
    address: NetworkAddress
    issued_at: float
    remaining_hops: int

    def __post_init__(self) -> None:
        if self.remaining_hops < 0:
            raise ValueError("remaining_hops must be non-negative")

    def forwarded(self) -> "ExistenceAnnouncement":
        """Copy of the announcement after one more overlay hop."""
        if self.remaining_hops == 0:
            raise ValueError("announcement has no hop budget left to forward")
        return ExistenceAnnouncement(
            origin=self.origin,
            coordinates=self.coordinates,
            address=self.address,
            issued_at=self.issued_at,
            remaining_hops=self.remaining_hops - 1,
        )


class AnnouncementStore:
    """Per-peer store of received announcements with a ``Tmax`` expiry window."""

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("the announcement window (Tmax) must be positive")
        self._window = window
        self._latest: Dict[int, ExistenceAnnouncement] = {}

    @property
    def window(self) -> float:
        """The ``Tmax`` retention window in seconds."""
        return self._window

    def record(self, announcement: ExistenceAnnouncement) -> None:
        """Remember the most recent announcement from its origin peer."""
        current = self._latest.get(announcement.origin)
        if current is None or announcement.issued_at >= current.issued_at:
            self._latest[announcement.origin] = announcement

    def forget(self, origin: int) -> None:
        """Drop any stored announcement from ``origin`` (e.g. after its departure)."""
        self._latest.pop(origin, None)

    def known_peers(self, now: float) -> Dict[int, ExistenceAnnouncement]:
        """Announcements still inside the ``Tmax`` window at time ``now``."""
        horizon = now - self._window
        return {
            origin: announcement
            for origin, announcement in self._latest.items()
            if announcement.issued_at >= horizon
        }

    def prune(self, now: float) -> List[int]:
        """Discard announcements older than the ``Tmax`` window.

        Returns the origins whose announcements expired, so callers can evict
        their own per-origin state (known addresses, duplicate-suppression
        keys) alongside the store's.
        """
        horizon = now - self._window
        expired = [
            origin
            for origin, announcement in self._latest.items()
            if announcement.issued_at < horizon
        ]
        for origin in expired:
            del self._latest[origin]
        return expired

    def __len__(self) -> int:
        return len(self._latest)


def peers_within_hops(
    adjacency: Mapping[int, Iterable[int]], source: int, radius: int
) -> Set[int]:
    """Peers reachable from ``source`` in at most ``radius`` overlay hops.

    The source itself is excluded from the result.  This is the steady-state
    footprint of the source's existence announcements when they are flooded
    ``radius`` (= ``BR``) hops away.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if source not in adjacency:
        raise KeyError(f"unknown peer {source}")
    visited: Set[int] = {source}
    frontier = deque([(source, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth == radius:
            continue
        for neighbour in adjacency.get(node, ()):
            if neighbour not in visited:
                visited.add(neighbour)
                frontier.append((neighbour, depth + 1))
    visited.discard(source)
    return visited


def knowledge_sets(
    adjacency: Mapping[int, Iterable[int]], radius: int
) -> Dict[int, Set[int]]:
    """Steady-state ``I(P)`` for every peer.

    Announcements travel symmetric overlay links, so ``Q in I(P)`` exactly
    when ``P`` is within ``radius`` hops of ``Q``; with an undirected
    adjacency this is the same as ``P`` reaching ``Q``, which is what is
    computed here.
    """
    return {
        peer_id: peers_within_hops(adjacency, peer_id, radius)
        for peer_id in adjacency
    }


class MaintainedKnowledgeSets:
    """Every peer's ``I(P)`` under one radius, kept exact from edge flips.

    See the module docstring for the support-count rule.  The owner reports
    membership (:meth:`add_peer` / :meth:`remove_peer`) and every undirected
    edge flip (:meth:`flip`) once its ``links`` show it; :meth:`known` is
    then a dictionary read and :meth:`drain_changed` hands out how every set
    moved since it was last called.  Cost is O(bumps), never O(population).
    """

    def __init__(self, radius: int, links: Callable[[int], AbstractSet[int]]) -> None:
        if radius < 1:
            raise ValueError("radius must be at least 1")
        self._links = links
        # _levels[k - 1][p][x], 0 < k < radius: neighbours q of p with x == q
        # or x within k hops of q (x != p; zero counts are deleted).
        self._levels: List[Dict[int, Dict[int, int]]] = [{} for _ in range(radius - 1)]
        # The peers between add_peer and remove_peer (at BR = 1 no level has keys).
        self._tracked: Set[int] = set()
        # Net +1 / -1 per (peer, id) of the last level since the last drain.
        self._pending: Dict[int, Dict[int, int]] = {}

    @classmethod
    def from_links(
        cls, peer_ids: Iterable[int], links: Callable[[int], AbstractSet[int]], radius: int
    ) -> "MaintainedKnowledgeSets":
        """The state of a live undirected topology, counted level by level."""
        knowledge = cls(radius, links)
        knowledge._tracked = set(peer_ids)
        reach: Callable[[int], Iterable[int]] = links
        for level in knowledge._levels:
            for peer_id in knowledge._tracked:
                support = level[peer_id] = {}
                for neighbour in links(peer_id):
                    for member in (neighbour, *reach(neighbour)):
                        if member != peer_id:
                            support[member] = support.get(member, 0) + 1
            reach = level.__getitem__
        return knowledge

    def add_peer(self, peer_id: int) -> None:
        """Start tracking an (isolated) peer."""
        self._tracked.add(peer_id)
        for level in self._levels:
            level[peer_id] = {}

    def remove_peer(self, peer_id: int) -> None:
        """Stop tracking a peer whose edges are all withdrawn (its window
        entry -- everything it knew, lost -- stays until the next drain)."""
        self._tracked.discard(peer_id)
        for level in self._levels:
            del level[peer_id]

    def known(self, peer_id: int) -> AbstractSet[int]:
        """``I(P)``: the peers within ``radius`` hops (no self).  A *live*
        view, not a copy: a round reads it before its own installs move it."""
        return self._levels[-1][peer_id].keys() if self._levels else self._links(peer_id)

    def known_at_last_drain(self, peer_id: int) -> Set[int]:
        """``I(P)`` as the previous drain left it (live set - gains + losses):
        by symmetry, also the peers whose own set held ``peer_id`` then."""
        net = self._pending.get(peer_id, {})
        before = {other for other in self.known(peer_id) if other not in net}
        before.update(other for other, sign in net.items() if sign < 0)
        return before

    def changed_peers(self) -> List[int]:
        """Tracked peers whose set differs from what the previous drain saw."""
        tracked = self._tracked
        return [peer_id for peer_id, net in self._pending.items() if net and peer_id in tracked]

    def drain_changed(self) -> Dict[int, Dict[int, int]]:
        """Hand out the net-delta window, ``peer -> {id: +1 | -1}``: how each
        set (a departed id's included) differs from the previous drain's."""
        window = {peer_id: net for peer_id, net in self._pending.items() if net}
        self._pending = {}
        return window

    def flip(self, first: int, second: int, present: bool) -> None:
        """The undirected edge ``{first, second}`` appeared or vanished; the
        owner's ``links`` already shows it."""
        links = self._links
        levels = self._levels
        sign, crossing = (1, 1) if present else (-1, 0)
        ends = [(first, second), (second, first)]
        # The term each endpoint gains or loses at level k: the other
        # endpoint's M_k before anything moves (at k = 1 the links, which the
        # flip changed only by the endpoint itself, which no term counts).
        below = [links, *(level.__getitem__ for level in levels)][: len(levels)]
        terms = [
            [
                (peer, member)
                for peer, other in ends
                for member in (other, *reach(other))
                if member != peer
            ]
            for reach in below
        ]
        # (peer, id) pairs whose count crossed 0 <-> 1 one level down.
        crossed = ends
        for level, bumps in zip(levels, terms):
            bumps += [
                (neighbour, member)
                for peer, member in crossed
                for neighbour in links(peer)
                if neighbour != member
            ]
            crossed = []
            for peer, member in bumps:
                support = level[peer]
                count = support.get(member, 0) + sign
                if count:
                    support[member] = count
                else:
                    del support[member]
                if count == crossing:
                    crossed.append((peer, member))
        for peer, member in crossed:
            net = self._pending.setdefault(peer, {})
            total = net.get(member, 0) + sign
            if total:
                net[member] = total
            else:
                del net[member]
