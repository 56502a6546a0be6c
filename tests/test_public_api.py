"""Smoke tests for the top-level public API (the README quickstart)."""

import inspect
import re
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
