"""Seeded-violation proofs: each rule catches a *real* regression.

For every rule id, these tests copy the actual guarded module into a
scratch ``src/repro`` mirror (so module-scoped rules resolve exactly as
they do in the repo), seed one realistic violation -- dropping the
notification ``add_peer`` gained in PR 4, bypassing the index maintenance
in a renamed ``remove_peer``, deleting the justified pragma over a real
accumulation -- and prove the checker reports it with the right rule id at
the right line.  The pristine copy is checked clean first, so a pass can
only come from the seeded delta.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths

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


@pytest.fixture()
def incremental_source() -> str:
    return (SRC / "overlay" / "incremental.py").read_text(encoding="utf-8")


@pytest.fixture()
def columnar_source() -> str:
    return (SRC / "overlay" / "columnar.py").read_text(encoding="utf-8")


@pytest.fixture()
def hyperplanes_source() -> str:
    return (SRC / "overlay" / "selection" / "hyperplanes.py").read_text(
        encoding="utf-8"
    )


def test_pristine_copies_are_clean(tmp_path, network_source):
    for relative, source_path in [
        ("overlay/network.py", None),
        ("geometry/index.py", SRC / "geometry" / "index.py"),
        ("workloads/churn.py", SRC / "workloads" / "churn.py"),
        ("overlay/incremental.py", SRC / "overlay" / "incremental.py"),
        ("overlay/columnar.py", SRC / "overlay" / "columnar.py"),
        (
            "overlay/selection/hyperplanes.py",
            SRC / "overlay" / "selection" / "hyperplanes.py",
        ),
        ("simulation/netmodel.py", SRC / "simulation" / "netmodel.py"),
        ("multicast/incremental.py", SRC / "multicast" / "incremental.py"),
    ]:
        source = network_source if source_path is None else source_path.read_text()
        copy = _mirror(tmp_path, relative, source)
        assert lint_paths([copy]) == []


def test_rpl001_catches_a_dropped_add_peer_notification(tmp_path, network_source):
    """Re-introduces the exact drift PR 4 fixed: a silent bootstrap install."""
    seeded = _seed(
        network_source,
        "self._notify_selection_change(peer.peer_id, set(), bootstrap_ids)",
        "pass  # seeded violation: bootstrap edges installed silently",
    )
    copy = _mirror(tmp_path, "overlay/network.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(
        seeded, "self._neighbours[peer.peer_id] = set(bootstrap_ids)"
    )
    assert [(v.rule_id, v.line) for v in violations] == [("RPL001", expected_line)]


def test_rpl001_catches_a_rogue_rewire_helper(tmp_path, network_source):
    seeded = network_source + (
        "\n\ndef rebalance(overlay, peer_id, targets):\n"
        '    """Seeded violation: installs a selection behind the recorders."""\n'
        "    overlay._neighbours[peer_id] = set(targets)\n"
    )
    copy = _mirror(tmp_path, "overlay/network.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "overlay._neighbours[peer_id] = set(targets)")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL001", expected_line)]


def test_rpl002_catches_membership_mutation_bypassing_the_index(
    tmp_path, network_source
):
    """Renaming remove_peer off the sanctioned list and dropping the index
    maintenance must flag every peer-map mutation in it."""
    seeded = _seed(network_source, "def remove_peer(", "def evict_peer(")
    seeded = _seed(
        seeded,
        "self._index.remove(peer_id)",
        "pass  # seeded violation: index maintenance dropped",
    )
    copy = _mirror(tmp_path, "overlay/network.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "info = self._peers.pop(peer_id)")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL002", expected_line)]


def test_rpl003_catches_unsuppressed_accumulation_in_the_index(tmp_path):
    """Deleting the justification over pareto_minima's L1 key re-flags it."""
    source = (SRC / "geometry" / "index.py").read_text(encoding="utf-8")
    pragma_line = next(
        line
        for line in source.splitlines()
        if "reprolint: disable=RPL003" in line
    )
    seeded = _seed(source, pragma_line + "\n", "")
    copy = _mirror(tmp_path, "geometry/index.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "ordered = sorted(entries")
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


def test_rpl005_catches_population_work_in_the_tree_refresh_hot_path(tmp_path):
    """Reading the whole undirected topology inside the @hot_path tree
    refresh -- instead of the one touched peer's links -- reintroduces O(N)
    work per churn event."""
    source = (SRC / "multicast" / "incremental.py").read_text(encoding="utf-8")
    seeded = _seed(
        source,
        "overlay.links(peer_id),",
        "overlay.adjacency()[peer_id],",
    )
    copy = _mirror(tmp_path, "multicast/incremental.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "overlay.adjacency()[peer_id]")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL005", expected_line)]


def test_rpl005_catches_an_implicit_set_silently_materialised(
    tmp_path, incremental_source
):
    """The columnar tentpole's regression shape: the engine's @hot_path
    ``note_join`` quietly rebuilding an explicit population-sized structure
    instead of delegating the O(1) implicit-representation write."""
    seeded = _seed(
        incremental_source,
        "self._view.note_join(peer_id)",
        "self._dirty_all = sorted(self._overlay._peers)",
    )
    copy = _mirror(tmp_path, "overlay/incremental.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "sorted(self._overlay._peers)")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL005", expected_line)]


def test_rpl005_catches_population_scheduling_in_plan_round(
    tmp_path, columnar_source
):
    """The vectorised round core's regression shape: ``plan_round`` swapping
    its mask-algebra dirty scan for a materialised population sort would put
    an O(N) Python pass back on every convergence round."""
    seeded = _seed(
        columnar_source,
        "scheduled_rows = self._dirty_row_array()",
        "scheduled_rows = np.asarray(sorted(self._rows.peer_ids))",
    )
    copy = _mirror(tmp_path, "overlay/columnar.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "sorted(self._rows.peer_ids)")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL005", expected_line)]


def test_rpl006_catches_a_seeded_stateful_select(tmp_path, hyperplanes_source):
    """Remembering the last reference peer makes select depend on call
    history, which path_independent=True forbids."""
    seeded = _seed(
        hyperplanes_source,
        "        others = self._exclude_reference(reference, candidates)\n",
        "        others = self._exclude_reference(reference, candidates)\n"
        "        self._last_reference = reference.peer_id\n",
    )
    copy = _mirror(tmp_path, "overlay/selection/hyperplanes.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "self._last_reference = reference.peer_id")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL006", expected_line)]


def test_rpl006_catches_a_seeded_mutable_global_read(tmp_path, hyperplanes_source):
    seeded = _seed(
        hyperplanes_source,
        "        others = self._exclude_reference(reference, candidates)\n",
        "        others = self._exclude_reference(reference, candidates)[\n"
        '            : _RUNTIME_LIMITS["max_candidates"]\n'
        "        ]\n",
    ) + '\n\n_RUNTIME_LIMITS = {"max_candidates": 1024}\n'
    copy = _mirror(tmp_path, "overlay/selection/hyperplanes.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "_RUNTIME_LIMITS[")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL006", expected_line)]


def test_rpl007_catches_a_swallowed_convergence_error(tmp_path, incremental_source):
    """An epoch driver that eats ConvergenceError resumes against the
    engine's mid-transaction worklists -- the bug class PR 4 fixed."""
    seeded = incremental_source + (
        "\n\ndef replay_epochs(overlay, epochs):\n"
        '    """Seeded violation: resumes with a stale incremental engine."""\n'
        "    for epoch in epochs:\n"
        "        try:\n"
        "            overlay.apply_batch(epoch)\n"
        "        except ConvergenceError:\n"
        "            continue\n"
        "    return overlay\n"
    )
    copy = _mirror(tmp_path, "overlay/incremental.py", seeded)
    violations = lint_paths([copy])
    expected_line = _line_of(seeded, "except ConvergenceError:")
    assert [(v.rule_id, v.line) for v in violations] == [("RPL007", expected_line)]
