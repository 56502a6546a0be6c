"""Seeded-violation proofs: each contract catches a *real* regression.

RPL003 and RPL004 are reprolint rules: their tests copy the actual guarded
module into a scratch ``src/repro`` mirror (so module-scoped rules resolve
exactly as they do in the repo), seed one realistic violation -- a
float key sum or a pairwise numpy reduction in the index, dropping the seed of a real
generator, reading the wall clock in overlay code -- and prove the checker
reports it with the right rule id at the right line.  The pristine copy is
checked clean first, so a pass can only come from the seeded delta.

RPL001/RPL002 (pinned writers of the overlay maps), RPL005 (churn work is
O(changes)) and RPL006 (path-independent selections keep no history) are
tier-1 checks now: ``tests/test_write_census.py``,
``tests/test_population_check.py`` and ``tests/test_selection_purity.py``.
Their seeds here feed the real source, one line changed, to those checks.
"""

import __future__
import inspect
import sys
import textwrap
from pathlib import Path

import pytest
from test_population_check import PopulationWalk, bootstrapped, churn
from test_selection_purity import NEEDLE, hyperplanes_sources, purity_problems
from test_write_census import NETWORK, census_problems, network_sources

from repro.analysis import lint_paths
from repro.multicast.incremental import StabilityTreeMaintainer
from repro.overlay.columnar import ColumnarCandidateState
from repro.overlay.incremental import IncrementalReselectionEngine
from repro.overlay.selection import HyperplanesSelection

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def _mirror(tmp_path: Path, relative: str, source: str) -> Path:
    """Write a module copy under a ``src/repro`` mirror, preserving its name."""
    target = tmp_path / "src" / "repro" / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


def _line_of(source: str, needle: str) -> int:
    for lineno, line in enumerate(source.splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"needle {needle!r} not found")


def _seed(source: str, needle: str, replacement: str) -> str:
    assert needle in source, f"module drifted: {needle!r} no longer present"
    return source.replace(needle, replacement, 1)


@pytest.fixture()
def network_source() -> str:
    return (SRC / "overlay" / "network.py").read_text(encoding="utf-8")


def test_pristine_copies_are_clean(tmp_path, network_source):
    for relative, source_path in [
        ("overlay/network.py", None),
        ("geometry/index.py", SRC / "geometry" / "index.py"),
        ("workloads/churn.py", SRC / "workloads" / "churn.py"),
        ("simulation/netmodel.py", SRC / "simulation" / "netmodel.py"),
    ]:
        source = network_source if source_path is None else source_path.read_text()
        copy = _mirror(tmp_path, relative, source)
        assert lint_paths([copy]) == []


def test_rpl001_catches_a_dropped_add_peer_notification():
    """Re-introduces a drift ``add_peer`` once had: a silent bootstrap install."""
    sources = network_sources("self.notify_selection_change(peer.peer_id, set(), bootstrap_ids)",
                              "pass  # seeded: bootstrap edges installed silently")
    assert census_problems(sources) == [
        f"{NETWORK}::OverlayNetwork.add_peer writes _neighbours without notifying the recorders"]


def test_rpl001_catches_a_rogue_rewire_helper():
    sources = network_sources(appended="\n\ndef rebalance(overlay, peer_id, targets):\n"
                                       "    overlay._neighbours[peer_id] = set(targets)\n")
    assert census_problems(sources) == [
        f"{NETWORK}::rebalance writes _neighbours outside the pinned writers"]


def test_rpl002_catches_membership_mutation_bypassing_the_index():
    """Dropping remove_peer's index maintenance flags it; renaming it off the
    pinned writers flags every overlay-map write in it."""
    sources = network_sources("self._index.remove(peer_id)", "pass  # seeded: index not maintained")
    assert census_problems(sources) == [
        f"{NETWORK}::OverlayNetwork.remove_peer writes _peers without maintaining the index"]
    sources[NETWORK] = sources[NETWORK].replace("def remove_peer(", "def evict_peer(", 1)
    problems = census_problems(sources)
    for label in ("_peers", "_neighbours"):
        assert f"{NETWORK}::OverlayNetwork.evict_peer writes {label} outside the " \
               "pinned writers" in problems


def test_rpl003_catches_unsuppressed_accumulation_in_the_index(tmp_path):
    """Visiting pareto_minima's entries by a float key sum, unjustified, flags."""
    source = (SRC / "geometry" / "index.py").read_text(encoding="utf-8")
    seeded = _seed(
        source,
        "for key, point_id in sorted(entries):",
        "for key, point_id in sorted(\n"
        "        entries, key=lambda entry: (sum(entry[0]), entry[1])\n"
        "    ):",
    )
    copy = _mirror(tmp_path, "geometry/index.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "entries, key=lambda entry: (sum(entry[0])")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL003", expected_line)]


def test_rpl003_catches_a_seeded_numpy_reduction(tmp_path):
    source = (SRC / "geometry" / "index.py").read_text(encoding="utf-8")
    seeded = source + (
        "\n\ndef _fast_l1(keys):\n"
        '    """Seeded violation: pairwise reduction in byte-identity code."""\n'
        "    return keys.sum(axis=1)\n"
    )
    copy = _mirror(tmp_path, "geometry/index.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "return keys.sum(axis=1)")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL003", expected_line)]


def test_rpl004_catches_the_unseeded_fallback_without_its_pragma(tmp_path):
    source = (SRC / "workloads" / "churn.py").read_text(encoding="utf-8")
    pragma_line = next(
        line
        for line in source.splitlines()
        if "reprolint: disable=RPL004" in line
    )
    seeded = _seed(source, pragma_line + "\n", "")
    copy = _mirror(tmp_path, "workloads/churn.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "return random.Random()")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL004", expected_line)]


def test_rpl004_catches_an_unseeded_per_link_rng_in_netmodel(tmp_path):
    """The network model's whole determinism story is the per-directed-link
    ``default_rng((seed, sender, recipient))`` streams; dropping the seed
    tuple makes every loss/latency draw irreproducible and must flag."""
    source = (SRC / "simulation" / "netmodel.py").read_text(encoding="utf-8")
    seeded = _seed(
        source,
        "np.random.default_rng((self._seed, sender, recipient))",
        "np.random.default_rng()",
    )
    copy = _mirror(tmp_path, "simulation/netmodel.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "_LinkState(np.random.default_rng())")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL004", expected_line)]


def test_rpl004_catches_a_seeded_wall_clock_read(tmp_path, network_source):
    seeded = network_source.replace(
        "import random\n",
        "import random\nimport time\n",
        1,
    ) + (
        "\n\ndef _stamp_join(overlay, peer):\n"
        '    """Seeded violation: wall-clock timestamp in overlay state."""\n'
        "    return (peer.peer_id, time.time())\n"
    )
    copy = _mirror(tmp_path, "overlay/network.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "time.time())")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL004", expected_line)]


def _assert_seeded_walk(monkeypatch, owner, name, needle, replacement):
    """Recompile ``owner.name`` from its own source with one line changed;
    the churn steps must then trip the population check."""
    setup = bootstrapped(None)
    function = getattr(owner, name)
    lines, first = inspect.getsourcelines(function)
    source = textwrap.dedent("".join(lines))
    assert needle in source, f"{owner.__name__}.{name} drifted"
    namespace = {}
    exec(compile("\n" * (first - 1) + source.replace(needle, replacement, 1),
                 inspect.getsourcefile(function), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True),
         vars(sys.modules[function.__module__]), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    with pytest.raises(PopulationWalk):
        churn(setup)


def test_rpl005_catches_population_work_in_the_tree_refresh_hot_path(monkeypatch):
    """Reading the whole undirected topology inside the tree refresh --
    instead of the one touched peer's links -- is O(N) work per churn event."""
    _assert_seeded_walk(monkeypatch, StabilityTreeMaintainer, "refresh",
                        "overlay.links(peer_id),", "overlay.adjacency()[peer_id],")


def test_rpl005_catches_an_implicit_set_silently_materialised(monkeypatch):
    """The engine's ``note_join`` rebuilding a population-sized structure
    instead of delegating the O(1) implicit-representation write."""
    _assert_seeded_walk(monkeypatch, IncrementalReselectionEngine, "note_join",
                        "self._view.note_join(peer_id)",
                        "self._dirty_all = sorted(self._overlay._peers)")


def test_rpl005_catches_population_scheduling_in_plan_round(monkeypatch):
    """``plan_round`` swapping its mask-algebra dirty scan for a sort of the
    row map puts an O(N) Python pass back on every convergence round."""
    _assert_seeded_walk(monkeypatch, ColumnarCandidateState, "plan_round",
                        "scheduled_rows = self._dirty_row_array()",
                        "scheduled_rows = np.asarray(sorted(self._rows._row_of_id))")


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
