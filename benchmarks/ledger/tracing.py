"""Spans recorded from outside the program.

A :class:`Tracer` aggregates spans by *call edge* ``(parent span, span)``:
calls, inclusive seconds and the part of that interval covered by child
spans, so self time = inclusive - children.  Harness-level spans
(``with tracer.span(...)``) are always recorded -- they cost a few clock
reads per epoch; the *traced pass* additionally wraps the public functions
of the layers below the harness with :meth:`Tracer.patch`.  Instance
attributes are wrapped on the objects the harness built and passes in;
class and module attributes are swapped and restored by
:meth:`Tracer.remove`, which the harness calls in a ``finally``.

Aggregates, not individual spans, are kept: the simulator workload makes
over a million wrapped calls and a per-span record would cost more than the
calls it measures.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ROOT", "Tracer", "matches"]

#: Name of the implicit outermost span: time no layer span accounts for.
ROOT = "harness"

_MISSING = object()
_clock = time.perf_counter

#: ``tally(args, result)`` -- called after a wrapped call returns, for the
#: counters that need an argument or the return value.
Tally = Callable[[tuple, Any], None]


class _Span:
    __slots__ = ("_tracer", "_name", "_frame", "_started")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._frame = [self._name, 0.0]
        self._tracer._stack.append(self._frame)
        self._started = _clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = _clock() - self._started
        self._tracer._close(self._frame, elapsed)


class Tracer:
    """Edge-aggregating span recorder with install/remove wrappers."""

    def __init__(self) -> None:
        # Frames are [name, seconds covered by child spans so far].
        self._stack: List[List[Any]] = [[ROOT, 0.0]]
        #: (parent, name) -> [calls, inclusive seconds, child-covered seconds]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str) -> _Span:
        """Context manager recording one harness-level span."""
        return _Span(self, name)

    def _close(self, frame: List[Any], elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += elapsed
        key = (parent[0], frame[0])
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, elapsed, frame[1]]
        else:
            edge[0] += 1
            edge[1] += elapsed
            edge[2] += frame[1]

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a named counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, function: Callable, tally: Optional[Tally] = None) -> Callable:
        """A callable that records one ``name`` span around every call."""
        stack = self._stack
        close = self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            started = _clock()
            try:
                result = function(*args, **kwargs)
            finally:
                close(frame, _clock() - started)
            if tally is not None:
                tally(args, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    # Wrappers on the program's public functions
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attribute: str, name: str, tally: Optional[Tally] = None) -> None:
        """Wrap ``owner.attribute`` (an instance, class or module attribute).

        On an instance the wrapper shadows the class's method and removal
        deletes it again; on a class or module the original object is put
        back.  Either way :meth:`remove` leaves ``owner`` as it was.
        """
        previous = vars(owner).get(attribute, _MISSING)
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), tally))
        self._patched.append((owner, attribute, previous))

    def remove(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attribute, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current(self) -> str:
        """Name of the innermost open span (``ROOT`` outside every span)."""
        return self._stack[-1][0]

    def calls(self, pattern: str) -> int:
        """Number of spans matching ``pattern`` (see :func:`matches`)."""
        return int(
            sum(edge[0] for (_, child), edge in self.edges.items() if matches(child, pattern))
        )

    def seconds(self, pattern: str) -> float:
        """Inclusive seconds of the spans matching ``pattern`` that are not
        nested directly in another matching span (nothing is counted twice)."""
        return sum(
            edge[1]
            for (parent, child), edge in self.edges.items()
            if matches(child, pattern) and not matches(parent, pattern)
        )

    def self_seconds(self, wall: float) -> Dict[str, float]:
        """Self time per span name over a timed body of ``wall`` seconds.

        The root's share is the wall no span covers, so the values sum to
        ``wall`` by construction; what a reader checks is that the root's
        (unattributed) share is small.
        """
        result: Dict[str, float] = {ROOT: wall}
        for (parent, child), edge in self.edges.items():
            result[child] = result.get(child, 0.0) + edge[1] - edge[2]
            if parent == ROOT:
                result[ROOT] -= edge[1]
        return result


def matches(name: str, pattern: str) -> bool:
    """``pattern`` names one span (``index.maintain``) or a family (``index``)."""
    return name == pattern or name.startswith(pattern + ".")
