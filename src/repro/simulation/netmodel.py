"""A real network model for the message-level simulator.

The paper's Tier-1 claims are about dissemination *latency* and message
*overhead*, yet a simulator that delivers every message after one scalar
delay cannot stress either.  This module supplies the missing physics:

* **Latency distributions** -- per-link delay drawn from a constant,
  uniform or lognormal distribution (:class:`ConstantLatency`,
  :class:`UniformLatency`, :class:`LognormalLatency`).
* **Loss** -- i.i.d. per-message loss with probability ``loss_rate``.
* **Bandwidth** -- an optional per-directed-link byte rate; messages
  serialise through a FIFO queue, so a burst on one link sees queueing
  delay proportional to the bytes ahead of it.

Determinism (RPL004): every stochastic draw comes from a per-directed-link
``numpy`` generator seeded as ``default_rng((seed, sender, recipient))``.
Each link owns an independent stream, so one link's traffic never perturbs
another link's draws, and the whole model replays byte-identically for a
given seed and event order.

The degenerate model -- constant latency, zero loss, no bandwidth cap; a
bare ``LinkModel()`` and the simulator's default network -- takes a fast path
that touches no generator at all, so a default run consumes no randomness
beyond the protocol's own (a seeded regression test pins its digest).

Byte accounting uses :func:`estimate_message_bytes`, a structural estimator
over the simulation's payload dataclasses (no per-kind registry, hence no
import cycle with the protocol layer).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type, Union

import numpy as np

__all__ = [
    "ConstantLatency",
    "UniformLatency",
    "LognormalLatency",
    "LatencyDistribution",
    "LinkModel",
    "estimate_message_bytes",
]


# ----------------------------------------------------------------------
# Latency distributions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConstantLatency:
    """Every message takes exactly ``value`` seconds."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"latency must be non-negative, got {self.value}")

    def sample(self, rng: np.random.Generator) -> float:
        """Return the constant delay; consumes no randomness."""
        return self.value

    def describe(self) -> str:
        return f"constant({self.value * 1000:.0f}ms)"


@dataclass(frozen=True)
class UniformLatency:
    """Delay drawn uniformly from ``[low, high]`` seconds."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(
                f"need 0 <= low <= high, got low={self.low} high={self.high}"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def describe(self) -> str:
        return f"uniform({self.low * 1000:.0f}-{self.high * 1000:.0f}ms)"


@dataclass(frozen=True)
class LognormalLatency:
    """Heavy-tailed delay with the given ``median`` (seconds) and shape ``sigma``.

    Parameterised by the median rather than the underlying normal's mean
    because the median is the number one reads off a real RTT measurement;
    ``sigma`` controls the tail (0.5 is mild jitter, 1.0 a heavy tail).
    """

    median: float
    sigma: float

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError(f"median must be positive, got {self.median}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(math.log(self.median), self.sigma))

    def describe(self) -> str:
        return f"lognormal(median={self.median * 1000:.0f}ms, sigma={self.sigma})"


LatencyDistribution = Union[ConstantLatency, UniformLatency, LognormalLatency]


# ----------------------------------------------------------------------
# Byte accounting
# ----------------------------------------------------------------------
#: IPv4 (20) + UDP (8) header bytes charged to every message on the wire.
HEADER_BYTES = 28

#: Per-field wire estimates for scalar payload components.
_SCALAR_BYTES = 8

_FIELDS_CACHE: Dict[Type[object], Tuple[str, ...]] = {}


def _payload_bytes(value: object) -> int:
    """Structural wire-size estimate for one payload value.

    Walks tuples/collections, mappings (keys and values both count) and
    dataclasses recursively; scalars count 8 bytes (ids, floats, ports),
    strings/bytes their length.  The estimate is deliberately coarse --
    overhead comparisons between protocol variants only need a consistent
    ruler, not a serialisation format.
    """
    if value is None:
        return 0
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bool, int, float)):
        return _SCALAR_BYTES
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(_payload_bytes(item) for item in value)
    if isinstance(value, Mapping):
        return sum(
            _payload_bytes(key) + _payload_bytes(entry) for key, entry in value.items()
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        names = _FIELDS_CACHE.get(cls)
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(value))
            _FIELDS_CACHE[cls] = names
        return sum(_payload_bytes(getattr(value, name)) for name in names)
    return _SCALAR_BYTES


def estimate_message_bytes(kind: str, payload: object) -> int:
    """Estimated on-the-wire size of one message: headers + kind tag + payload."""
    return HEADER_BYTES + len(kind) + _payload_bytes(payload)


# ----------------------------------------------------------------------
# The link model
# ----------------------------------------------------------------------
class _LinkState:
    """Mutable per-directed-link state: its RNG stream and FIFO frontier."""

    __slots__ = ("rng", "busy_until")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.busy_until = 0.0


class LinkModel:
    """Latency distribution + loss + bandwidth for every directed link.

    A model instance is **single-run**: per-link RNG positions and FIFO
    ``busy_until`` frontiers advance as messages flow, so
    :class:`~repro.simulation.network.SimulatedNetwork` claims the instance
    at construction and a second attachment raises until :meth:`reset`.

    Parameters
    ----------
    latency:
        A :data:`LatencyDistribution`, or a plain ``float`` shorthand for
        :class:`ConstantLatency`.
    loss_rate:
        I.i.d. probability in ``[0, 1)`` that any one message is lost in
        flight (before delivery, after the sender counted it).
    bandwidth_bytes_per_second:
        Optional per-directed-link capacity.  Messages serialise FIFO: a
        message sent while the link is draining an earlier one waits its
        turn, then occupies the link for ``size / bandwidth`` seconds, and
        only then starts its propagation delay.  ``None`` models infinite
        capacity (no queueing).
    seed:
        Root seed for the per-link generators.  Link ``(s, r)`` draws from
        ``default_rng((seed, s, r))`` -- independent, reproducible streams.
    """

    def __init__(
        self,
        latency: Union[LatencyDistribution, float] = 0.01,
        *,
        loss_rate: float = 0.0,
        bandwidth_bytes_per_second: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if isinstance(latency, (int, float)):
            latency = ConstantLatency(float(latency))
        self._latency = latency
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self._loss_rate = loss_rate
        if bandwidth_bytes_per_second is not None and bandwidth_bytes_per_second <= 0:
            raise ValueError(
                "bandwidth_bytes_per_second must be positive when given, "
                f"got {bandwidth_bytes_per_second}"
            )
        self._bandwidth = bandwidth_bytes_per_second
        self._seed = seed
        self._links: Dict[Tuple[int, int], _LinkState] = {}
        self._attached = False

    # -- introspection --------------------------------------------------
    @property
    def latency(self) -> LatencyDistribution:
        return self._latency

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @property
    def bandwidth_bytes_per_second(self) -> Optional[float]:
        return self._bandwidth

    @property
    def is_degenerate(self) -> bool:
        """True for constant latency, no loss and infinite bandwidth: the
        path that consumes no randomness."""
        return (
            isinstance(self._latency, ConstantLatency)
            and self._loss_rate == 0.0
            and self._bandwidth is None
        )

    # -- run ownership --------------------------------------------------
    def _attach(self) -> None:
        """Claim the model for one simulation run.

        The model is silently stateful: the per-link RNG positions and the
        absolute-time ``busy_until`` FIFO frontiers advance as messages flow,
        so a second run reusing the instance would see shifted random draws
        and links that are "busy" at timestamps from the previous run.
        :class:`~repro.simulation.network.SimulatedNetwork` calls this at
        construction; a second attachment raises until :meth:`reset`.
        """
        if self._attached:
            raise ValueError(
                "LinkModel is already attached to a SimulatedNetwork; its "
                "per-link RNG streams and FIFO frontiers are positioned by "
                "that run.  Construct a fresh model per run, or call "
                "reset() to discard the accumulated link state."
            )
        self._attached = True

    def reset(self) -> None:
        """Discard all accumulated per-link state and release the model.

        Drops every per-link RNG (rewinding each stream to its seeded
        origin) and every FIFO ``busy_until`` frontier, making the instance
        byte-identical to a freshly constructed one so it may be attached to
        a new :class:`~repro.simulation.network.SimulatedNetwork`.
        """
        self._links.clear()
        self._attached = False

    def describe(self) -> str:
        parts = [self._latency.describe()]
        if self._loss_rate:
            parts.append(f"loss={self._loss_rate:.0%}")
        if self._bandwidth is not None:
            parts.append(f"bw={self._bandwidth / 1000:.0f}kB/s")
        return ", ".join(parts)

    # -- the model ------------------------------------------------------
    def _state(self, sender: int, recipient: int) -> _LinkState:
        key = (sender, recipient)
        state = self._links.get(key)
        if state is None:
            state = _LinkState(np.random.default_rng((self._seed, sender, recipient)))
            self._links[key] = state
        return state

    def delivery_time(
        self, sender: int, recipient: int, size_bytes: int, now: float
    ) -> Optional[float]:
        """Absolute delivery time for a message sent at ``now``, or ``None``
        if the link loses it.

        The loss draw happens before the link is occupied -- a message lost
        in flight still left the sender, but a dropped packet does not hold
        the FIFO queue for its full serialisation time in this model (the
        distinction is below the estimator's resolution).
        """
        if self.is_degenerate:
            # Fast path: no per-link state, no draws.
            return now + self._latency.value  # type: ignore[union-attr]
        state = self._state(sender, recipient)
        if self._loss_rate and float(state.rng.random()) < self._loss_rate:
            return None
        start = now
        if self._bandwidth is not None:
            start = max(now, state.busy_until) + size_bytes / self._bandwidth
            state.busy_until = start
        return start + self._latency.sample(state.rng)
