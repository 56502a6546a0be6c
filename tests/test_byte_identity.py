"""The spatial index and the selection family rank candidates byte-identically
with the scans they replace, so ``repro.geometry.index``,
``repro.geometry.distance``, ``repro.geometry.hyperplane`` and
``repro.overlay.selection.*`` spell every summation order out: no builtin
``sum(...)`` (compensated from Python 3.12 on, even over ``sorted(...)``), no
numpy or ``.sum`` / ``.prod`` / ``.cumsum`` /
``.dot`` reduction, and no loop over a set or dict, without ``sorted``, that
feeds ``+=`` / ``-=`` or a ``min`` / ``max`` / ``heappush*`` tie-break.
Set-like aliases are tracked per function scope.  Findings and the
allowlist work as in ``test_determinism.py``."""

import ast

import pytest
from test_determinism import FIXTURES, Finder, dotted, findings, line_of, marked_lines, \
    problems, repro_sources, seeded

ALLOWED = {}
NUMPY_REDUCTIONS = {"sum", "nansum", "prod", "nanprod", "cumsum", "dot", "einsum", "inner", "vdot"}
METHOD_REDUCTIONS = {"sum", "prod", "cumsum", "dot"}
TIEBREAKS = {"min", "max", "heappush", "heappushpop", "heapreplace"}
GUARDED = {"repro.geometry.index", "repro.geometry.distance", "repro.geometry.hyperplane"}


def setlike(node, aliases):
    """Whether an expression is syntactically a set or a dict (or a view of one)."""
    if isinstance(node, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                                            ast.BitXor)):
        return setlike(node.left, aliases) or setlike(node.right, aliases)
    attr = getattr(getattr(node, "func", None), "attr", None)
    return isinstance(node, ast.Call) and (
        dotted(node.func) in {"set", "frozenset", "dict"} or attr in {"keys", "values", "items"}
        or attr in {"union", "intersection", "difference", "symmetric_difference", "copy"}
        and setlike(node.func.value, aliases))


class ByteIdentity(Finder):
    def __init__(self, module):
        super().__init__(module)
        self.aliases = set()

    def visit_FunctionDef(self, node):
        # A function sees the enclosing aliases its parameters do not shadow.
        enclosing, arguments = self.aliases, node.args
        self.aliases = enclosing - {argument.arg for argument in (
            *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
            arguments.vararg, arguments.kwarg) if argument is not None}
        super().visit_FunctionDef(node)
        self.aliases = enclosing

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if setlike(node.value, self.aliases):
                self.aliases.add(node.targets[0].id)
            else:
                self.aliases.discard(node.targets[0].id)
        self.generic_visit(node)

    def visit_Call(self, node):
        name, attr = dotted(node.func) or "", getattr(node.func, "attr", None)
        numpy = name.split(".")[0] in {"np", "numpy"}
        if name == "sum" or \
                attr in (NUMPY_REDUCTIONS if numpy else METHOD_REDUCTIONS):
            self.flag(node, f"{name or '.' + attr}()")
        self.generic_visit(node)

    def visit_For(self, node):
        if setlike(node.iter, self.aliases) and feeds_accumulator(node):
            self.flag(node, "unordered loop feeding an accumulator or a tie-break")
        self.generic_visit(node)


def feeds_accumulator(loop):
    """Whether anything in the loop is ``+=`` / ``-=`` or a tie-break call."""
    return any(isinstance(child, ast.AugAssign) and isinstance(child.op, (ast.Add, ast.Sub))
               or isinstance(child, ast.Call)
               and (dotted(child.func) or "").split(".")[-1] in TIEBREAKS
               for child in ast.walk(loop) if child is not loop)


def guarded_sources(overrides=None):
    return {module: source for module, source in repro_sources(overrides).items()
            if module in GUARDED or module.startswith("repro.overlay.selection")}


def byte_identity_problems(sources=None, allowed=ALLOWED):
    return problems(ByteIdentity, guarded_sources(sources), allowed)


def test_index_and_selection_spell_their_summation_order_out():
    assert byte_identity_problems() == []


def test_the_walk_sees_the_guarded_modules():
    assert GUARDED | {"repro.overlay.selection.base",
            "repro.overlay.selection.hyperplanes", "repro.overlay.selection.k_closest",
            "repro.overlay.selection.empty_rectangle"} <= set(guarded_sources())
    assert sum(bool(marked_lines(path, "RPL003")) for path in FIXTURES) >= 2


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_fixture_flags_exactly_its_markers(path):
    found = findings(ByteIdentity, path.stem, path.read_text())
    assert {line for _, _, line, _ in found} == marked_lines(path, "RPL003")


def test_rpl003_catches_unsuppressed_accumulation_in_the_index():
    """Visiting pareto_minima's entries by a float key sum flags."""
    sources = seeded("repro.geometry.index", "for key, point_id in sorted(entries):",
                     "for key, point_id in sorted(\n"
                     "        entries, key=lambda entry: (sum(entry[0]), entry[1])\n    ):")
    line = line_of(sources, "(sum(entry[0])")
    assert byte_identity_problems(sources) == [
        f"repro.geometry.index::pareto_minima:{line} sum()"]


def test_rpl003_catches_a_seeded_numpy_reduction():
    sources = seeded("repro.geometry.index", appended=(
        "\n\ndef _fast_l1(keys):\n    return keys.sum(axis=1)\n"))
    line = line_of(sources, "return keys.sum(axis=1)")
    assert byte_identity_problems(sources) == [
        f"repro.geometry.index::_fast_l1:{line} keys.sum()"]


def test_an_allowlist_entry_cannot_outlive_its_code():
    allowed = {("repro.geometry.index", "pareto_minima"): "stale"}
    assert byte_identity_problems(allowed=allowed) == [
        "repro.geometry.index::pareto_minima is allowlisted but flags nothing"]


def test_rpl003_catches_a_set_alias_feeding_a_tiebreak_in_a_selection():
    """A set bound to a name still flags when a loop over it breaks ties;
    sorting it first is the fix and silences the check."""
    helper = ("\n\ndef _first(candidates):\n    ids = set(candidates)\n    best = None\n"
              "    for peer_id in ids:\n"
              "        best = peer_id if best is None else min(best, peer_id)\n"
              "    return best\n")
    sources = seeded("repro.overlay.selection.k_closest", appended=helper)
    line = line_of(sources, "for peer_id in ids:")
    assert byte_identity_problems(sources) == [
        f"repro.overlay.selection.k_closest::_first:{line} "
        "unordered loop feeding an accumulator or a tie-break"]
    fixed = seeded("repro.overlay.selection.k_closest",
                   appended=helper.replace("set(candidates)", "sorted(candidates)"))
    assert byte_identity_problems(fixed) == []
