"""Churn schedules: ordered sequences of peer arrivals and departures.

The paper inserts peers one at a time and lets the overlay converge between
insertions; Section 3 additionally reasons about departures happening in
lifetime order.  A :class:`ChurnEvent` sequence captures both, and is what the
simulation runner and the ablation benchmarks consume.

The batched-epoch pipeline expresses churn as :class:`~repro.workloads.traces.ChurnTrace`
values instead -- timestamped event *batches* -- and
:meth:`~repro.workloads.traces.ChurnTrace.from_schedule` /
:meth:`~repro.workloads.traces.ChurnTrace.to_schedule` convert between the
two representations losslessly, so every generator here remains usable from
either pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "ChurnEvent",
    "departure_schedule",
    "poisson_churn_schedule",
    "interleaved_join_leave_schedule",
]

#: Default workload seed of the schedule generators.  The default is an
#: explicit ``0`` -- two unseeded calls return the *same* schedule -- so
#: experiments are reproducible unless the caller opts out by passing
#: ``seed=None`` (a nondeterministically seeded run) or a shared ``rng``.
DEFAULT_SEED = 0


def _resolve_rng(seed: Optional[int], rng: Optional[random.Random]) -> random.Random:
    """Shared seed/rng resolution of the schedule generators.

    ``rng`` wins when given (the ``seed`` keyword must stay at its default
    or ``None``); otherwise ``seed`` is used verbatim, with ``None`` meaning
    a nondeterministic system seed.
    """
    if rng is not None:
        if seed is not None and seed != DEFAULT_SEED:
            raise ValueError("pass either seed or rng, not both")
        return rng
    if seed is None:
        return random.Random()
    return random.Random(seed)


@dataclass(frozen=True, order=True)
class ChurnEvent:
    """A single arrival, departure or identifier move.

    Events order by time (then peer id, then kind) so a list of events can be
    sorted into a schedule directly.  A ``"move"`` carries the peer's new
    virtual coordinates (the batched-epoch pipeline applies it through
    ``OverlayNetwork.move_peer``); joins and leaves carry none.  The
    coordinates are excluded from the ordering so mixed-kind lists stay
    sortable; :func:`sorted` is stable, so same-time moves keep their order.
    """

    time: float
    peer_id: int
    kind: str  # "join", "leave" or "move"
    coordinates: Optional[Tuple[float, ...]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave", "move"):
            raise ValueError(f"kind must be 'join', 'leave' or 'move', got {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if self.kind == "move":
            if self.coordinates is None:
                raise ValueError("a move event must carry the new coordinates")
            object.__setattr__(self, "coordinates", tuple(self.coordinates))
        elif self.coordinates is not None:
            raise ValueError(f"a {self.kind!r} event cannot carry coordinates")


def departure_schedule(lifetimes: Sequence[float]) -> List[ChurnEvent]:
    """Departure events for peers whose index is their id, ordered by lifetime.

    This is exactly the departure process Section 3 reasons about: peer ``i``
    leaves at time ``T(i)``, and peers with smaller lifetimes leave first.
    """
    events = [
        ChurnEvent(time=float(lifetime), peer_id=index, kind="leave")
        for index, lifetime in enumerate(lifetimes)
    ]
    return sorted(events)


def poisson_churn_schedule(
    count: int,
    *,
    arrival_rate: float = 1.0,
    session_mean: float = 100.0,
    seed: Optional[int] = DEFAULT_SEED,
    rng: Optional[random.Random] = None,
) -> List[ChurnEvent]:
    """Poisson arrivals with exponential session lengths.

    A generic churn model (not from the paper) used by the churn ablation to
    compare stability trees against lifetime-oblivious trees under realistic
    arrival/departure interleavings.  Every peer both joins and leaves.

    ``seed`` defaults to ``0`` (unseeded calls are deterministic and
    identical across runs); pass ``seed=None`` for a nondeterministic
    schedule or ``rng`` to draw from shared generator state.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if session_mean <= 0:
        raise ValueError("session_mean must be positive")
    generator = _resolve_rng(seed, rng)

    events: List[ChurnEvent] = []
    clock = 0.0
    for peer_id in range(count):
        clock += generator.expovariate(arrival_rate)
        departure = clock + generator.expovariate(1.0 / session_mean)
        events.append(ChurnEvent(time=clock, peer_id=peer_id, kind="join"))
        events.append(ChurnEvent(time=departure, peer_id=peer_id, kind="leave"))
    return sorted(events)


def interleaved_join_leave_schedule(
    count: int,
    *,
    join_interval: float = 2.0,
    leave_fraction: float = 0.2,
    holdoff: float = 6.0,
    seed: Optional[int] = DEFAULT_SEED,
    rng: Optional[random.Random] = None,
) -> List[ChurnEvent]:
    """Paper-style staggered joins with a sampled fraction of leaves mixed in.

    Peer ``i`` joins at ``i * join_interval`` (the paper's one-at-a-time
    insertion procedure); a seeded sample of ``leave_fraction`` of the peers
    additionally leaves at a uniform time between its own join plus
    ``holdoff`` (so a peer is settled into the overlay before it departs)
    and the end of the join phase plus ``holdoff``.  The last-joining peer
    never leaves, so a bootstrap contact is always available.  This is the
    workload the message-level churn replay runs: join-driven candidate
    gains interleaved with departure-driven losses.

    ``seed`` defaults to ``0`` (unseeded calls are deterministic and
    identical across runs); pass ``seed=None`` for a nondeterministic
    schedule or ``rng`` to draw from shared generator state.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if join_interval <= 0:
        raise ValueError("join_interval must be positive")
    if not 0.0 <= leave_fraction < 1.0:
        raise ValueError("leave_fraction must be in [0, 1)")
    if holdoff < 0:
        raise ValueError("holdoff must be non-negative")
    generator = _resolve_rng(seed, rng)

    events = [
        ChurnEvent(time=index * join_interval, peer_id=index, kind="join")
        for index in range(count)
    ]
    join_span = (count - 1) * join_interval
    leavers = generator.sample(range(count - 1), int((count - 1) * leave_fraction))
    for peer_id in sorted(leavers):
        earliest = peer_id * join_interval + holdoff
        departure = generator.uniform(earliest, max(join_span + holdoff, earliest))
        events.append(ChurnEvent(time=departure, peer_id=peer_id, kind="leave"))
    return sorted(events)
