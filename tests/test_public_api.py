"""Smoke tests for the top-level public API (the README quickstart)."""

import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.experiments.trace_runner import TraceRunner
from repro.geometry import index as index_module
from repro.multicast.incremental import StabilityTreeMaintainer
from repro.multicast.stability import choose_preferred_parent
from repro.overlay.selection.registry import available_methods
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
        """``gossip_radius`` alone picks the engine's candidate view, and with
        the method whether the overlay owns an index: the knobs that only
        selected a slower twin are gone, not deprecated."""
        parameters = list(inspect.signature(repro.OverlayNetwork.__init__).parameters)
        assert parameters == ["self", "selection", "gossip_radius"]
        for removed in ("columnar", "vectorised_rounds", "use_index"):
            with pytest.raises(TypeError):
                repro.OverlayNetwork(repro.EmptyRectangleSelection(), **{removed: False})

    def test_section3_rule_has_one_signature_everywhere(self):
        """One preferred-neighbour rule: no tie-break knob, no coordinate,
        index or distance plumbing on the rule or on its three callers."""
        signatures = {
            choose_preferred_parent: ["peer_id", "links", "lifetimes"],
            repro.build_stability_tree: ["topology"],
            repro.StabilityTreeBuilder.build: ["self", "topology"],
            StabilityTreeMaintainer.__init__: ["self", "overlay"],
        }
        for function, expected in signatures.items():
            assert list(inspect.signature(function).parameters) == expected
        assert list(inspect.signature(repro.StabilityTreeBuilder).parameters) == []
        overlay = repro.OverlayNetwork(repro.EmptyRectangleSelection())
        topology = overlay.snapshot()
        for removed, value in (
            ("tie_break", "largest-lifetime"),
            ("coordinates_of", None),
            ("index", None),
            ("distance", "l2"),
        ):
            with pytest.raises(TypeError):
                choose_preferred_parent(0, [], {0: 1.0}, **{removed: value})
        for removed, value in (("tie_break", "largest-lifetime"), ("distance", "l2")):
            with pytest.raises(TypeError):
                repro.StabilityTreeBuilder(**{removed: value})
            with pytest.raises(TypeError):
                StabilityTreeMaintainer(overlay, **{removed: value})
        with pytest.raises(TypeError):
            repro.build_stability_tree(topology, tie_break="largest-lifetime")

    def test_use_index_is_gone_from_every_builder(self):
        peers = repro.generate_peers(count=4, dimension=2, seed=3)
        for build in (
            repro.OverlayNetwork.build_equilibrium,
            repro.OverlayNetwork.build_incremental,
        ):
            assert "use_index" not in inspect.signature(build).parameters
            with pytest.raises(TypeError, match="unexpected keyword argument 'use_index'"):
                build(peers, repro.EmptyRectangleSelection(), use_index=True)
        with pytest.raises(TypeError, match="unexpected keyword argument 'use_index'"):
            TraceRunner(peers, repro.EmptyRectangleSelection, use_index=False)

    def test_spatial_index_has_only_the_queries_the_selections_ask(self):
        for removed in ("range", "halfspace_candidates", "items"):
            assert not hasattr(repro.SpatialIndex, removed)
        for removed in ("brute_force_range", "brute_force_halfspace"):
            assert not hasattr(index_module, removed)

    @pytest.mark.parametrize("name", available_methods())
    def test_selection_entry_points_take_no_index(self, name):
        """Full knowledge is the whole ``member_of`` column: no method
        opts into an index, and no entry point takes one."""
        selection = repro.make_selection_method(name)
        assert not hasattr(selection, "supports_index")
        for entry in ("select", "select_many", "select_many_additive", "install_many"):
            parameters = inspect.signature(getattr(selection, entry)).parameters
            assert "index" not in parameters, f"{name}.{entry}"
        with pytest.raises(TypeError, match="unexpected keyword argument 'index'"):
            selection.select_many([], {}, index=repro.SpatialIndex())

    @pytest.mark.parametrize("name", ["orthogonal", "sign-coefficients", "k-closest"])
    @pytest.mark.parametrize(
        "distance", [lambda a, b: 0.0, "l3", 3], ids=["callable", "l3", "int"]
    )
    def test_hyperplanes_distance_is_one_of_six_names(self, name, distance):
        with pytest.raises(ValueError) as refused:
            repro.make_selection_method(name, distance=distance)
        for known in ("l1", "manhattan", "l2", "euclidean", "linf", "chebyshev"):
            assert known in str(refused.value)

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
