"""Path-independent selection classes keep no call history: no method but
``__init__`` of such a class or its ``repro`` bases stores, augments or
deletes ``self.<attr>`` (memo stores into ``self._cache[k]`` are fine),
calls ``setattr`` or reads a mutable global (a dict, list or set) of its
module."""

import ast
import inspect
import sys

import pytest

from repro.overlay.selection import HyperplanesSelection, NeighbourSelectionMethod

MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _path_independent_classes(base=NeighbourSelectionMethod):
    for klass in base.__subclasses__():
        if klass.path_independent and klass.__module__.startswith("repro."):
            yield klass
        yield from _path_independent_classes(klass)


def purity_problems(klass, sources=None):
    """Every way ``klass`` keeps history (module sources overridable by name)."""
    problems = []
    for owner in [base for base in klass.__mro__ if base.__module__.startswith("repro.")]:
        module = owner.__module__
        tree = ast.parse((sources or {}).get(module) or inspect.getsource(sys.modules[module]))
        mutable = {
            target.id for node in tree.body if isinstance(node, ast.Assign)
            and (isinstance(node.value, MUTABLE) or isinstance(node.value, ast.Call)
                 and getattr(node.value.func, "id", None) in {"dict", "list", "set"})
            for target in node.targets if isinstance(target, ast.Name)}
        body = next(node.body for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == owner.__name__)
        for method in body:
            if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                continue
            where = f"{owner.__name__}.{method.name}"
            for node in ast.walk(method):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                        and getattr(node.value, "id", None) in {"self", "cls"}:
                    problems.append(f"{where} writes {node.value.id}.{node.attr}")
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
                    problems.append(f"{where} calls setattr")
                elif isinstance(node, ast.Name) and node.id in mutable:
                    problems.append(f"{where} reads the mutable global {node.id}")
    return problems


@pytest.mark.parametrize("klass", sorted(set(_path_independent_classes()), key=repr),
                         ids=lambda klass: klass.__name__)
def test_path_independent_class_keeps_no_history(klass):
    assert purity_problems(klass) == []


def test_both_selection_families_are_checked():
    names = {klass.__name__ for klass in _path_independent_classes()}
    assert {"EmptyRectangleSelection", "OrthogonalHyperplanesSelection"} <= names


NEEDLE = "        others = self._exclude_reference(reference, candidates)\n"


def hyperplanes_sources(replacement, appended=""):
    """``hyperplanes.py`` seeded at ``NEEDLE``, keyed for ``purity_problems``."""
    source = inspect.getsource(sys.modules[HyperplanesSelection.__module__])
    assert source.count(NEEDLE) == 1, "hyperplanes.py drifted"
    return {HyperplanesSelection.__module__: source.replace(NEEDLE, replacement) + appended}


def test_rpl006_catches_a_seeded_stateful_select():
    """Remembering the last reference peer makes select depend on call
    history, which path_independent=True forbids."""
    sources = hyperplanes_sources(NEEDLE + "        self._last_reference = reference.peer_id\n")
    assert purity_problems(HyperplanesSelection, sources) == [
        "HyperplanesSelection.select writes self._last_reference"]


def test_rpl006_catches_a_seeded_mutable_global_read():
    sources = hyperplanes_sources(NEEDLE.replace("\n", '[: _RUNTIME_LIMITS["max_candidates"]]\n'),
                                  '\n_RUNTIME_LIMITS = {"max_candidates": 1024}\n')
    assert purity_problems(HyperplanesSelection, sources) == [
        "HyperplanesSelection.select reads the mutable global _RUNTIME_LIMITS"]
