"""Smoke tests for the top-level public API (the README quickstart)."""

import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.experiments.trace_runner import TraceRunner
from repro.simulation.network import SimulatedNetwork
from repro.simulation.protocol import PeerProcess
from repro.simulation.runner import run_gossip_overlay

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: Parameters that only picked a slower twin of the production path.
_REMOVED_KNOBS = ("incremental", "per_event", "incremental_reselect", "latency")
_ENTRY_POINTS = (
    repro.OverlayNetwork.converge,
    repro.OverlayNetwork.insert_and_converge,
    repro.OverlayNetwork.remove_and_converge,
    repro.OverlayNetwork.apply_batch,
    repro.OverlayNetwork.build_incremental,
    TraceRunner.run,
    run_gossip_overlay,
    PeerProcess.__init__,
    SimulatedNetwork.__init__,
)


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__
        # One value in both places; a regex because tomllib is 3.11+ and
        # requires-python is 3.9.
        declared = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
        assert declared is not None and declared.group(1) == repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} is exported but missing"

    def test_overlay_constructor_has_no_implementation_knobs(self):
        """``gossip_radius`` alone picks the engine's candidate view: the two
        knobs that only selected a slower twin are gone, not deprecated."""
        parameters = list(inspect.signature(repro.OverlayNetwork.__init__).parameters)
        assert parameters == ["self", "selection", "gossip_radius", "use_index"]
        for removed in ("columnar", "vectorised_rounds"):
            with pytest.raises(TypeError):
                repro.OverlayNetwork(repro.EmptyRectangleSelection(), **{removed: False})

    @pytest.mark.parametrize("entry_point", _ENTRY_POINTS, ids=lambda f: f.__qualname__)
    def test_no_entry_point_takes_a_twin_knob(self, entry_point):
        """One production path per layer: the knobs are gone, not switchable."""
        assert not set(_REMOVED_KNOBS) & set(inspect.signature(entry_point).parameters)
        for knob in _REMOVED_KNOBS:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
                entry_point(**{knob: True})

    def test_readme_quickstart(self):
        peers = repro.generate_peers(count=60, dimension=2, seed=7)
        overlay = repro.OverlayNetwork.build_equilibrium(
            peers, repro.EmptyRectangleSelection()
        )
        result = repro.SpacePartitionTreeBuilder().build(overlay.snapshot(), root=0)
        assert result.messages_sent == len(peers) - 1
        assert result.delivered_everywhere

    def test_stability_quickstart(self):
        peers = repro.generate_peers_with_lifetimes(count=60, dimension=3, seed=7)
        overlay = repro.OverlayNetwork.build_equilibrium(
            peers, repro.OrthogonalHyperplanesSelection(k=2)
        )
        tree = repro.build_stability_tree(overlay.snapshot())
        report = repro.simulate_departures(
            tree, sorted(tree.nodes(), key=lambda p: peers[p].lifetime)
        )
        assert report.is_stable
