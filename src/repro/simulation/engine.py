"""A minimal deterministic discrete-event engine.

Events are ``(time, sequence)``-ordered callbacks.  The sequence number makes
the ordering of simultaneous events deterministic (FIFO in scheduling order),
which is what makes whole simulations reproducible run over run -- the
property the paper's multi-threaded framework lacks and the reason this
substrate replaces it.

Cancellation is tombstoned: :meth:`SimulationEngine.cancel` marks an event
dead without disturbing the heap, and :meth:`SimulationEngine.step` discards
dead entries as they surface.  Cancelled events therefore never execute and
never perturb the ``(time, sequence)`` ordering of the live ones, which keeps
retransmission timers (scheduled eagerly, cancelled on ack) compatible with
the determinism contract.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

__all__ = ["Event", "SimulationEngine"]


@dataclass(order=True, frozen=True)
class Event:
    """A scheduled callback.

    Ordering uses ``(time, sequence)`` only; the callback and description are
    excluded from comparisons.
    """

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    description: str = field(compare=False, default="")


class SimulationEngine:
    """Priority-queue driven simulation clock.

    Typical usage::

        engine = SimulationEngine()
        engine.schedule(1.0, lambda: ...)          # absolute time
        engine.schedule_after(0.5, lambda: ...)    # relative to "now"
        engine.run()                               # until the queue drains
    """

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._sequence = itertools.count()
        self._live: Set[int] = set()
        self._now = 0.0
        self._processed = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (not yet executed, not cancelled) events."""
        return len(self._live)

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def cancelled_events(self) -> int:
        """Number of events cancelled before they could execute."""
        return self._cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, time: float, callback: Callable[[], None], *, description: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule an event at {time} before the current time {self._now}"
            )
        event = Event(
            time=time,
            sequence=next(self._sequence),
            callback=callback,
            description=description,
        )
        heapq.heappush(self._queue, event)
        self._live.add(event.sequence)
        return event

    def schedule_after(
        self, delay: float, callback: Callable[[], None], *, description: str = ""
    ) -> Event:
        """Schedule ``callback`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, description=description)

    def cancel(self, event: Event) -> bool:
        """Cancel a scheduled event so it never executes.

        Returns ``True`` if the event was still pending, ``False`` if it had
        already executed or been cancelled (cancellation is idempotent).  The
        heap entry stays behind as a tombstone and is discarded lazily.
        """
        if event.sequence not in self._live:
            return False
        self._live.discard(event.sequence)
        self._cancelled += 1
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _discard_tombstones(self) -> None:
        """Pop cancelled entries off the head of the heap."""
        while self._queue and self._queue[0].sequence not in self._live:
            heapq.heappop(self._queue)

    def step(self) -> Optional[Event]:
        """Execute the next live event; returns it, or ``None`` if none remain."""
        self._discard_tombstones()
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)
        self._live.discard(event.sequence)
        self._now = event.time
        self._processed += 1
        event.callback()
        return event

    def run(
        self, *, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or the budget is spent.

        Returns the number of events executed by this call.  ``until`` is an
        inclusive horizon: events scheduled exactly at ``until`` still run,
        and the clock always ends at ``max(now, until)`` -- whether the queue
        drained, held only cancelled tombstones, or was empty to begin with.
        Exhausting ``max_events`` returns early *without* advancing the clock
        to the horizon (the simulation is paused, not finished).
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return executed
            self._discard_tombstones()
            if not self._queue:
                break
            if until is not None and self._queue[0].time > until:
                break
            self.step()
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return executed
