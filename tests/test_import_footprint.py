"""The import graph of ``src/repro`` is a contract: numpy at import time, nothing else.

Optional integrations (networkx, through the two ``to_networkx()`` exporters)
are imported by the call that needs them.  Presence and absence only -- module
counts and seconds differ across numpy versions and boxes (ROADMAP,
"Start-up and footprint").
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.multicast.tree import MulticastTree
from repro.overlay.topology import TopologySnapshot

SRC = Path(__file__).resolve().parents[1] / "src"


def _import_time_roots(body):
    """Top-level names of the imports a module or class body executes."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module.split(".")[0]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            yield from _import_time_roots(node.orelse)
        else:  # class bodies, try / if / with blocks: they run at import time too
            for field in ("body", "handlers", "orelse", "finalbody"):
                yield from _import_time_roots(getattr(node, field, ()))


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+")
def test_import_time_third_party_is_numpy_alone():
    third_party = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for root in _import_time_roots(ast.parse(path.read_text()).body):
            if root != "repro" and root not in sys.stdlib_module_names:
                third_party.setdefault(root, []).append(str(path.relative_to(SRC)))
    assert third_party.keys() == {"numpy"}, {
        root: files for root, files in third_party.items() if root != "numpy"
    }


_LIVE_TREE_RUN = """
import sys
import repro
from repro.multicast.incremental import OverlayConnectivityFeed, StabilityTreeMaintainer

def networkx_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "networkx")

peers = repro.generate_peers_with_lifetimes(count=30, dimension=2, seed=7)
overlay = repro.OverlayNetwork(repro.EmptyRectangleSelection())
overlay.apply_batch(peers[:20])
maintainer, feed = StabilityTreeMaintainer(overlay), OverlayConnectivityFeed(overlay)
overlay.apply_batch(peers[20:])
assert len(maintainer.refresh().joined) == 10 and feed.is_connected()
snapshot = overlay.snapshot()
assert not networkx_modules(), networkx_modules()[:5]
graph = snapshot.to_networkx()
assert "networkx" in sys.modules
assert set(graph.nodes) == set(snapshot.peers)
assert {tuple(sorted(edge)) for edge in graph.edges} == snapshot.edges()
"""


def test_a_live_tree_process_loads_networkx_only_for_the_export():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LIVE_TREE_RUN],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "exporter",
    [TopologySnapshot.from_directed({}, {}).to_networkx, MulticastTree(0, {0: None}).to_networkx],
    ids=["TopologySnapshot", "MulticastTree"],
)
def test_exporters_name_the_extra_when_networkx_is_missing(monkeypatch, exporter):
    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError, match=r"to_networkx\(\) needs networkx.*'graph' extra"):
        exporter()
