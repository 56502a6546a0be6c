"""RPL003 -- the byte-identity contract.

The spatial index and the selection family must produce *bit-identical*
results to the scans they replace (ROADMAP, PR 5): same sequential float
summation order, same ``(distance, id)`` tie-breaks.  Inside the guarded
modules -- :mod:`repro.geometry.index` and ``repro.overlay.selection.*`` --
this rule flags the syntactic shapes that historically break that:

* builtin ``sum(...)`` (left-to-right accumulation whose order is only as
  deterministic as its operand's iteration order; ``math.fsum`` is exempt
  because its result is order-insensitive by construction, and summing a
  ``sorted(...)`` call is exempt because the order is explicit);
* numpy reductions (``np.sum`` / ``np.dot`` / ``.sum()`` / ``.prod()``
  ...), whose pairwise accumulation differs from sequential scans;
* ``for`` loops that iterate a ``set`` or ``dict`` expression *without an
  explicit* ``sorted(...)`` while feeding a float accumulator (``+=`` /
  ``-=``) or a tie-break reduction (``min`` / ``max`` / ``heapq.heappush``).

Provably-ordered instances (a row-wise reduction over a fixed-layout
array, a sum over a coordinate tuple) are suppressed in place with a
justified pragma, which doubles as documentation of *why* the order is
safe.
"""

from __future__ import annotations

import ast
from typing import Optional, Set, Union

from repro.analysis.checkers.common import dotted_name, is_setlike
from repro.analysis.core import ModuleContext, Rule

RULE_ID = "RPL003"

#: Dotted-name suffixes of numpy module-level reductions.
_NUMPY_REDUCTIONS = frozenset(
    {"sum", "nansum", "prod", "nanprod", "cumsum", "dot", "einsum", "inner", "vdot"}
)
#: Method names treated as array reductions when called on any expression.
_METHOD_REDUCTIONS = frozenset({"sum", "prod", "cumsum", "dot"})
#: Calls inside a set/dict loop body that imply an order-sensitive tie-break.
_TIEBREAK_CALLS = frozenset({"min", "max", "heappush", "heappushpop", "heapreplace"})


def _guards(module: Optional[str]) -> bool:
    """The byte-identity contract guards the index and the selection family."""
    return module == "repro.geometry.index" or (
        module is not None and module.startswith("repro.overlay.selection")
    )


def _is_sorted_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and dotted_name(node.func) == "sorted"


class ByteIdentityChecker(ast.NodeVisitor):
    """Flag order-sensitive float accumulation in byte-identity code."""

    def __init__(self, context: ModuleContext) -> None:
        self._context = context
        self._setlike_names: Set[str] = set()

    # -- accumulation calls -------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name == "sum":
            if not (node.args and _is_sorted_call(node.args[0])):
                self._context.report(
                    RULE_ID,
                    node.lineno,
                    "builtin sum() accumulates in iteration order; spell the "
                    "order out (sorted(...) operand or an explicit loop) or "
                    "use math.fsum for order-insensitive totals",
                )
        elif name is not None and "." in name:
            parts = name.split(".")
            if parts[0] in {"np", "numpy"} and parts[-1] in _NUMPY_REDUCTIONS:
                self._context.report(
                    RULE_ID,
                    node.lineno,
                    f"numpy reduction {name}() uses pairwise accumulation that "
                    "need not match the sequential scan it replaces",
                )
            elif parts[-1] in _METHOD_REDUCTIONS and parts[0] not in {"np", "numpy"}:
                self._context.report(
                    RULE_ID,
                    node.lineno,
                    f".{parts[-1]}() array reduction in byte-identity code; "
                    "justify the accumulation order with a pragma if it is "
                    "provably fixed",
                )
        elif isinstance(node.func, ast.Attribute) and (
            node.func.attr in _METHOD_REDUCTIONS
        ):
            # Reductions on non-trivial expressions (subscripts, call
            # results) that dotted_name cannot render.
            self._context.report(
                RULE_ID,
                node.lineno,
                f".{node.func.attr}() array reduction in byte-identity code; "
                "justify the accumulation order with a pragma if it is "
                "provably fixed",
            )
        self.generic_visit(node)

    # -- alias bookkeeping --------------------------------------------------
    def visit_FunctionDef(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        # Aliases are per scope: a function sees the enclosing ones its
        # parameters do not shadow, and its own do not leak out of it.
        arguments = node.args
        parameters = {
            argument.arg
            for argument in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            )
            if argument is not None
        }
        enclosing = self._setlike_names
        self._setlike_names = enclosing - parameters
        self.generic_visit(node)
        self._setlike_names = enclosing

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if is_setlike(node.value, self._setlike_names):
                self._setlike_names.add(node.targets[0].id)
            else:
                self._setlike_names.discard(node.targets[0].id)
        self.generic_visit(node)

    # -- unordered iteration feeding an accumulator -------------------------
    def visit_For(self, node: ast.For) -> None:
        if is_setlike(node.iter, self._setlike_names) and not _is_sorted_call(
            node.iter
        ):
            sink = self._accumulator_sink(node)
            if sink is not None:
                self._context.report(
                    RULE_ID,
                    node.lineno,
                    f"iterates a set/dict and {sink} without an explicit "
                    "sorted(...); unordered iteration makes the result "
                    "run-to-run unstable",
                )
        self.generic_visit(node)

    @staticmethod
    def _accumulator_sink(loop: ast.For) -> Optional[str]:
        """What, if anything, the loop body feeds order-sensitively."""
        for child in ast.walk(loop):
            if child is loop:
                continue
            if isinstance(child, ast.AugAssign) and isinstance(
                child.op, (ast.Add, ast.Sub)
            ):
                return "feeds a += accumulator"
            if isinstance(child, ast.Call):
                callee = dotted_name(child.func)
                if callee is not None and callee.split(".")[-1] in _TIEBREAK_CALLS:
                    return f"feeds a {callee.split('.')[-1]}() tie-break"
        return None


BYTE_IDENTITY_RULE = Rule(
    rule_id=RULE_ID,
    name="byte-identity",
    invariant=(
        "repro.geometry.index and repro.overlay.selection.* preserve exact "
        "float summation order and tie-breaks"
    ),
    factory=ByteIdentityChecker,
    scope=_guards,
)
