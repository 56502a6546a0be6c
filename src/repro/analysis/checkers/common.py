"""Shared AST plumbing for the contract checkers.

The helpers are deliberately *syntactic*: they track names, attribute
chains and same-scope aliases rather than attempting type inference, so
every checker draws the same line between "provably fine", "needs a
justified pragma" and "violation".
"""

from __future__ import annotations

import ast
from typing import Optional, Set

__all__ = ["dotted_name", "is_setlike"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def is_setlike(node: ast.AST, setlike_names: Set[str]) -> bool:
    """Whether an expression syntactically produces a ``set`` or ``dict``.

    Covers literals and comprehensions, ``set()``/``frozenset()``/``dict()``
    constructor calls, ``.keys()``/``.values()``/``.items()`` views, set
    algebra over any of those, and local names recorded in
    ``setlike_names`` (maintained by the caller from same-scope
    assignments).  Lists and tuples are ordered, hence never set-like.
    """
    if isinstance(node, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in setlike_names
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in {"set", "frozenset", "dict"}:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "keys",
            "values",
            "items",
        }:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
            "copy",
        }:
            return is_setlike(node.func.value, setlike_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_setlike(node.left, setlike_names) or is_setlike(
            node.right, setlike_names
        )
    return False
