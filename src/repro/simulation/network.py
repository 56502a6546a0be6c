"""An in-memory message network with latencies and per-kind counters.

Peers address each other by peer id (the simulated counterpart of the public
IP / port pair of the paper); the network delivers each message at the time
its :class:`~repro.simulation.netmodel.LinkModel` assigns (per-link latency
distributions, i.i.d. loss, FIFO bandwidth queueing -- see
:mod:`repro.simulation.netmodel`) by scheduling a delivery event on the
simulation engine.  Message counters are the ground truth for every "number
of messages" claim -- in particular the ``N - 1`` construction-message claim
of Section 2 is verified against the ``construct`` counter of this class, not
against any by-product of the tree data structure.  Byte accounting is
model-independent, so overhead is measured in bytes as well as counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.simulation.engine import SimulationEngine
from repro.simulation.netmodel import LinkModel, estimate_message_bytes

__all__ = ["Message", "NetworkStats", "SimulatedNetwork"]


@dataclass(frozen=True)
class Message:
    """One message in flight: who sent it, to whom, what kind, and its payload."""

    sender: int
    recipient: int
    kind: str
    payload: Any
    sent_at: float


@dataclass
class NetworkStats:
    """Counters the experiments read after a run.

    ``messages_dropped`` counts deliveries to unregistered (departed)
    recipients; ``messages_lost`` counts in-flight loss by the link model.
    The distinction matters: drops are the protocol's problem (it talked to
    a dead peer), losses are the network's.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_lost: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    def count(self, kind: str) -> int:
        """Number of messages of one kind that were sent."""
        return self.by_kind.get(kind, 0)

    def bytes_of(self, kind: str) -> int:
        """Estimated bytes of one kind that were sent."""
        return self.bytes_by_kind.get(kind, 0)


class SimulatedNetwork:
    """Delivers messages between registered peer handlers via the event engine.

    Parameters
    ----------
    engine:
        The simulation engine used to schedule deliveries.
    link_model:
        A :class:`~repro.simulation.netmodel.LinkModel` supplying latency
        distributions, loss and bandwidth queueing; ``None`` means a fresh
        ``LinkModel()`` (constant 0.01 s, no loss, no cap, no randomness
        consumed).  The model is claimed for this network's run (its RNG
        streams and FIFO frontiers are positioned by the traffic);
        constructing a second network with the same instance raises unless
        ``link_model.reset()`` is called in between.
    """

    def __init__(
        self, engine: SimulationEngine, *, link_model: Optional[LinkModel] = None
    ) -> None:
        self._engine = engine
        if link_model is None:
            link_model = LinkModel()
        # A model is single-run: its RNG positions and FIFO frontiers advance
        # as messages flow, so sharing one across networks would silently
        # couple the runs.  Claim it; reset() releases it.
        link_model._attach()
        self._link_model = link_model
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        self._stats = NetworkStats()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, peer_id: int, handler: Callable[[Message], None]) -> None:
        """Attach a peer's message handler to the network."""
        if peer_id in self._handlers:
            raise ValueError(f"peer {peer_id} is already registered")
        self._handlers[peer_id] = handler

    def unregister(self, peer_id: int) -> None:
        """Detach a peer (messages addressed to it are dropped from then on)."""
        self._handlers.pop(peer_id, None)

    def is_registered(self, peer_id: int) -> bool:
        """``True`` while the peer can receive messages."""
        return peer_id in self._handlers

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, kind: str, payload: Any) -> None:
        """Send one message; it is delivered when the link model says.

        Messages to peers that are not registered (departed or never joined)
        are counted as sent and as dropped -- exactly what happens to a UDP
        datagram aimed at a dead peer.  Under a lossy link model a message
        may instead be lost in flight (counted, never delivered).
        """
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            sent_at=self._engine.now,
        )
        size = estimate_message_bytes(kind, payload)
        self._stats.messages_sent += 1
        self._stats.bytes_sent += size
        self._stats.by_kind[kind] = self._stats.by_kind.get(kind, 0) + 1
        self._stats.bytes_by_kind[kind] = self._stats.bytes_by_kind.get(kind, 0) + size
        deliver_at = self._link_model.delivery_time(sender, recipient, size, self._engine.now)
        if deliver_at is None:
            self._stats.messages_lost += 1
            return
        self._engine.schedule(
            deliver_at,
            lambda: self._deliver(message, size),
            description=f"{kind} {sender}->{recipient}",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> NetworkStats:
        """Counters accumulated so far."""
        return self._stats

    @property
    def link_model(self) -> LinkModel:
        """The link model in force."""
        return self._link_model

    def reset_stats(self) -> None:
        """Zero all counters (used between the overlay phase and the multicast phase)."""
        self._stats = NetworkStats()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _deliver(self, message: Message, size: int) -> None:
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self._stats.messages_dropped += 1
            return
        self._stats.messages_delivered += 1
        self._stats.bytes_delivered += size
        handler(message)
