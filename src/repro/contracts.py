"""Machine-checked contract markers shared by the runtime and reprolint.

The markers here are deliberately runtime-inert: they tag functions with
metadata that :mod:`repro.analysis` (reprolint) reads *statically*, so the
guarded packages never pay an import-order or call-time cost for being
checked.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["hot_path"]

_F = TypeVar("_F", bound=Callable)


def hot_path(function: _F) -> _F:
    """Mark an O(churn) incremental entry point.

    A ``@hot_path`` function is one the "Road to N>=100k" ROADMAP item
    promises stays proportional to the *change set*, never the population:
    the delta-recorder notifications, the tree/connectivity repair paths
    that consume drained deltas, the engine's membership notes
    (``note_join``/``note_leave``/``note_move``) and its round-classification
    cores (``_plan_round`` under a gossip radius, the columnar candidate
    state's ``plan_round`` under full knowledge; the public ``run_round``
    wrapper is documented O(N)-capable and deliberately unmarked), and the
    columnar state's epoch/log writes.  reprolint's RPL005 rule walks the
    call graph from every marked function and flags full-population
    iteration or O(N) id-set materialisation anywhere in the closure; a
    flagged construct needs either a restructure or a justified pragma with
    a scaling argument.

    The decorator itself only sets an attribute -- behaviour is unchanged,
    and the marker survives ``functools.wraps`` copying.
    """
    function.__hot_path__ = True  # type: ignore[attr-defined]
    return function
