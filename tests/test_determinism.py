"""``src/repro`` is a function of its inputs and an explicit seed: no
module-level ``random.*`` call, no ``random.Random()``, ``SystemRandom()`` or
``np.random.*`` without a seed, and no wall-clock read (``perf_counter`` and
``monotonic`` measure durations and stay allowed).  A finding reads
``module::function:line``; a reviewed exception is an ``ALLOWED`` entry, and
an entry that no longer matches a finding fails too."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = sorted((Path(__file__).resolve().parent / "fixtures").glob("*/*.py"))
ALLOWED = {("repro.workloads.churn", "_resolve_rng"):
           "seed=None is the documented opt-in to a nondeterministic system seed"}
SEEDED = {"Random", "SystemRandom", "default_rng", "RandomState", "SeedSequence", "Generator",
          "PCG64", "Philox"}
CLOCKS = ("time.time", "time.time_ns", "datetime.now", "datetime.utcnow", "datetime.today",
          "date.today")


def dotted(node):
    """``a.b.c`` for a name or attribute chain, ``None`` for anything else."""
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


class Finder(ast.NodeVisitor):
    """Collects ``(module, function, line, what)`` for every flagged node."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def flag(self, node, what):
        self.found.append((self.module, ".".join(self.scope) or "<module>", node.lineno, what))

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef


class Determinism(Finder):
    def visit_Call(self, node):
        name = dotted(node.func) or ""
        parts = name.split(".")
        if parts[0] == "random" and len(parts) == 2 or \
                parts[0] in {"np", "numpy"} and parts[-2:-1] == ["random"]:
            if not (parts[-1] in SEEDED and (node.args or node.keywords)):
                self.flag(node, f"{name}()")
        elif any(name == clock or name.endswith("." + clock) for clock in CLOCKS):
            self.flag(node, f"{name}()")
        self.generic_visit(node)


def findings(finder, module, source):
    visitor = finder(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def repro_sources(overrides=None):
    """``{module: source}`` for every module of ``src/repro``, overridable by name."""
    sources = {".".join(path.relative_to(SRC).with_suffix("").parts).replace(".__init__", ""):
               path.read_text(encoding="utf-8") for path in sorted((SRC / "repro").rglob("*.py"))}
    return {**sources, **(overrides or {})}


def problems(finder, sources, allowed):
    """Findings outside ``allowed``, then the ``allowed`` entries nothing matches."""
    found = [hit for module, source in sorted(sources.items())
             for hit in findings(finder, module, source)]
    return [f"{module}::{function}:{line} {what}" for module, function, line, what in found
            if (module, function) not in allowed] + [
        f"{module}::{function} is allowlisted but flags nothing"
        for module, function in sorted(set(allowed) - {hit[:2] for hit in found})]


def seeded(module, needle=None, replacement="", appended=""):
    """``{module: its source with one edit}``, to pass as ``sources``."""
    source = repro_sources()[module]
    assert needle is None or needle in source, f"{module} drifted: {needle!r}"
    return {module: (source.replace(needle, replacement, 1) if needle else source) + appended}


def line_of(sources, needle):
    (source,) = sources.values()
    return next(number for number, line in enumerate(source.splitlines(), start=1)
                if needle in line)


def marked_lines(path, code):
    return {number for number, line in enumerate(path.read_text().splitlines(), start=1)
            if f"# expect: {code}" in line}


def determinism_problems(sources=None, allowed=ALLOWED):
    return problems(Determinism, repro_sources(sources), allowed)


def test_src_repro_is_deterministic():
    assert determinism_problems() == []


def test_the_walk_sees_every_module():
    modules = set(repro_sources())
    assert {"repro.overlay.network", "repro.overlay.incremental", "repro.geometry.index",
            "repro.workloads.churn", "repro.simulation.netmodel"} <= modules
    assert len(modules) > 30
    assert sum(bool(marked_lines(path, "RPL004")) for path in FIXTURES) >= 2


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_fixture_flags_exactly_its_markers(path):
    found = findings(Determinism, path.stem, path.read_text())
    assert {line for _, _, line, _ in found} == marked_lines(path, "RPL004")


def test_an_allowlist_entry_cannot_outlive_its_code():
    allowed = {**ALLOWED, ("repro.cli", "main"): "stale"}
    assert determinism_problems(allowed=allowed) == [
        "repro.cli::main is allowlisted but flags nothing"]


def test_rpl004_catches_the_unseeded_fallback_without_its_pragma():
    """The allowlist entry is the one reviewed exception; without it the
    ``seed=None`` fallback flags."""
    line = line_of(seeded("repro.workloads.churn"), "return random.Random()")
    assert determinism_problems(allowed={}) == [
        f"repro.workloads.churn::_resolve_rng:{line} random.Random()"]


def test_rpl004_catches_an_unseeded_per_link_rng_in_netmodel():
    """The network model's determinism is its per-directed-link
    ``default_rng((seed, sender, recipient))`` streams; dropping the seed
    tuple makes every loss and latency draw irreproducible."""
    sources = seeded("repro.simulation.netmodel",
                     "np.random.default_rng((self._seed, sender, recipient))",
                     "np.random.default_rng()")
    line = line_of(sources, "np.random.default_rng()")
    assert determinism_problems(sources) == [
        f"repro.simulation.netmodel::LinkModel._state:{line} np.random.default_rng()"]


def test_rpl004_catches_a_seeded_wall_clock_read():
    sources = seeded("repro.overlay.network", appended=(
        "\n\ndef _stamp_join(overlay, peer):\n    import time\n\n"
        "    return (peer.peer_id, time.time())\n"))
    line = line_of(sources, "time.time())")
    assert determinism_problems(sources) == [
        f"repro.overlay.network::_stamp_join:{line} time.time()"]
