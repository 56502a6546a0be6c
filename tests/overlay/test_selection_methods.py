"""Unit tests for the Hyperplanes selection family and the registry.

On a lattice, where coordinates tie and candidates sit on a reference's
planes, the family's array pass, its scan, the literal equilibrium loop, the
engine and the sweep oracle all agree.
"""

import random
from itertools import product

import pytest
from sweep_oracle import sweep_build

from repro.geometry import index as index_module
from repro.geometry.hyperplane import HyperplaneSet
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.base import NeighbourSelectionMethod
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.peer import make_peer
from repro.overlay.selection import (
    HyperplanesSelection,
    KClosestSelection,
    OrthogonalHyperplanesSelection,
    SignCoefficientHyperplanesSelection,
    available_methods,
    make_selection_method,
)
from repro.workloads.peers import generate_peers


def peer_grid():
    """Reference peer at the origin plus one candidate in every quadrant."""
    reference = make_peer(0, (0.0, 0.0))
    candidates = [
        make_peer(1, (1.0, 1.0)),
        make_peer(2, (5.0, 5.0)),
        make_peer(3, (-1.0, 1.5)),
        make_peer(4, (-4.0, 4.0)),
        make_peer(5, (2.0, -1.0)),
        make_peer(6, (-3.0, -3.0)),
    ]
    return reference, candidates


class TestOrthogonalHyperplanesSelection:
    def test_keeps_k_closest_per_quadrant(self):
        reference, candidates = peer_grid()
        selection = OrthogonalHyperplanesSelection(k=1)
        chosen = selection.select(reference, candidates)
        assert set(chosen) == {1, 3, 5, 6}

    def test_larger_k_keeps_more_per_quadrant(self):
        reference, candidates = peer_grid()
        selection = OrthogonalHyperplanesSelection(k=2)
        chosen = selection.select(reference, candidates)
        assert set(chosen) == {1, 2, 3, 4, 5, 6}

    def test_reference_is_never_selected(self):
        reference, candidates = peer_grid()
        selection = OrthogonalHyperplanesSelection(k=3)
        chosen = selection.select(reference, candidates + [reference])
        assert reference.peer_id not in chosen

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            OrthogonalHyperplanesSelection(k=0)

    def test_distance_function_changes_ranking(self):
        reference = make_peer(0, (0.0, 0.0))
        # Same quadrant: L1 prefers (3, 0.5) (3.5 < 4); L-infinity prefers (2, 2) (2 < 3).
        candidates = [make_peer(1, (2.0, 2.0)), make_peer(2, (3.0, 0.5))]
        by_l1 = OrthogonalHyperplanesSelection(k=1, distance="l1").select(reference, candidates)
        by_linf = OrthogonalHyperplanesSelection(k=1, distance="linf").select(
            reference, candidates
        )
        assert by_l1 == [2]
        assert by_linf == [1]

    def test_equilibrium_matches_the_literal_loop(self, peers_2d):
        selection = OrthogonalHyperplanesSelection(k=2)
        literal = NeighbourSelectionMethod.compute_equilibrium(selection, peers_2d)
        assert selection.compute_equilibrium(peers_2d) == literal
        # The generic family under the same rule, its distance named in
        # another case: the same one pass, not a callable's loop.
        custom = HyperplanesSelection(HyperplaneSet.orthogonal, k=2, distance=" Euclidean")
        assert custom.compute_equilibrium(peers_2d) == literal
        with pytest.raises(ValueError, match="known: chebyshev, euclidean"):
            HyperplanesSelection(HyperplaneSet.orthogonal, k=2, distance=selection.distance)

    def test_equilibrium_empty_population(self):
        assert OrthogonalHyperplanesSelection(k=1).compute_equilibrium([]) == {}


class TestKClosestSelection:
    def test_single_region_keeps_globally_closest(self):
        reference, candidates = peer_grid()
        chosen = KClosestSelection(k=2).select(reference, candidates)
        assert set(chosen) == {1, 3}

    def test_k_larger_than_population(self):
        reference, candidates = peer_grid()
        chosen = KClosestSelection(k=100).select(reference, candidates)
        assert set(chosen) == {c.peer_id for c in candidates}


class TestSignCoefficientSelection:
    def test_keeps_at_least_the_orthogonal_neighbours(self):
        reference, candidates = peer_grid()
        orthogonal = set(OrthogonalHyperplanesSelection(k=1).select(reference, candidates))
        sign = set(SignCoefficientHyperplanesSelection(k=1).select(reference, candidates))
        # Finer regions can only keep more peers.
        assert len(sign) >= len(orthogonal)

    def test_selects_nothing_without_candidates(self):
        reference, _ = peer_grid()
        assert SignCoefficientHyperplanesSelection(k=1).select(reference, []) == []


class TestGenericHyperplanesSelection:
    def test_factory_dimension_mismatch_is_detected(self):
        selection = HyperplanesSelection(lambda dim: HyperplaneSet.orthogonal(dim + 1), k=1)
        reference, candidates = peer_grid()
        with pytest.raises(ValueError):
            selection.select(reference, candidates)

    def test_candidate_dimension_mismatch_is_detected(self):
        selection = OrthogonalHyperplanesSelection(k=1)
        reference = make_peer(0, (0.0, 0.0))
        with pytest.raises(ValueError):
            selection.select(reference, [make_peer(1, (1.0, 2.0, 3.0))])

    def test_duplicate_candidate_ids_are_ignored(self):
        selection = OrthogonalHyperplanesSelection(k=1)
        reference = make_peer(0, (0.0, 0.0))
        duplicate = make_peer(1, (1.0, 1.0))
        chosen = selection.select(reference, [duplicate, duplicate])
        assert chosen == [1]


class TestRegistry:
    def test_available_methods(self):
        assert set(available_methods()) == {
            "empty-rectangle",
            "orthogonal",
            "sign-coefficients",
            "k-closest",
        }

    @pytest.mark.parametrize(
        "name,expected_type",
        [
            ("orthogonal", OrthogonalHyperplanesSelection),
            ("Orthogonal_Hyperplanes", OrthogonalHyperplanesSelection),
            ("sign", SignCoefficientHyperplanesSelection),
            ("k-closest", KClosestSelection),
            ("h0", KClosestSelection),
        ],
    )
    def test_lookup_with_aliases(self, name, expected_type):
        method = make_selection_method(name, k=3)
        assert isinstance(method, expected_type)
        assert method.k == 3

    def test_empty_rectangle_ignores_parameters(self):
        method = make_selection_method("empty-rectangle", k=5)
        assert type(method).__name__ == "EmptyRectangleSelection"

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown selection method"):
            make_selection_method("voronoi")


class TestSelectAdditive:
    """The single-reference additive API used by the message-level simulator."""

    def _pair(self, selection, count=40, dimension=2, seed=17, split=28):
        peers = generate_peers(count, dimension, seed=seed)
        reference, others = peers[0], peers[1:]
        initial, gained = others[: split - 1], others[split - 1 :]
        selected_ids = set(selection.select(reference, initial))
        selected = [peer for peer in initial if peer.peer_id in selected_ids]
        return reference, others, selected, list(gained)

    def test_matches_the_full_selection_with_a_delta_rule(self):
        selection = EmptyRectangleSelection()
        reference, others, selected, gained = self._pair(selection)
        additive = selection.select_additive(reference, selected, gained)
        assert sorted(additive) == sorted(selection.select(reference, others))

    def test_matches_the_full_selection_over_selected_and_gained(self):
        # Path independence: top K per region of selected + gained.
        selection = OrthogonalHyperplanesSelection(k=2)
        reference, others, selected, gained = self._pair(selection, dimension=3)
        additive = selection.select_additive(reference, selected, gained)
        assert sorted(additive) == sorted(selection.select(reference, others))

    def test_unchanged_selection_is_returned_as_is(self):
        selection = EmptyRectangleSelection()
        reference = make_peer(0, (0.0, 0.0))
        selected = [make_peer(1, (1.0, 1.0))]
        # A gained candidate boxed out by the selected one: no change.
        additive = selection.select_additive(reference, selected, [make_peer(2, (5.0, 5.0))])
        assert additive == [1]

    def test_one_additive_call_is_one_pass(self, monkeypatch):
        """20 rows of one ``select_many_additive`` call run one array pass and
        no ``select``; every row -- returned or omitted as unchanged -- is
        the scan over ``selected + gained``, a gain listed twice included."""
        selection = OrthogonalHyperplanesSelection(k=2)
        peers = generate_peers(60, 3, seed=77)
        rng = random.Random(77)
        updates = []
        for reference in peers[:20]:
            others = [peer for peer in peers if peer.peer_id != reference.peer_id]
            base = rng.sample(others, 25)
            chosen = set(selection.select(reference, base))
            selected = [peer for peer in base if peer.peer_id in chosen]
            gained = rng.sample([peer for peer in others if peer.peer_id not in chosen], 3)
            updates.append((reference, selected, gained + gained[:1]))
        expected = {
            reference.peer_id: selection.select(
                reference, selection.merge_candidate_delta(selected, gained)
            )
            for reference, selected, gained in updates
        }

        calls = {"pass": 0, "select": 0}
        one_pass = index_module._region_pass

        def counted_pass(*args):
            calls["pass"] += 1
            return one_pass(*args)

        def counted_select(self, *args, **kwargs):
            calls["select"] += 1
            raise AssertionError("an additive row went through select()")

        monkeypatch.setattr(index_module, "_region_pass", counted_pass)
        monkeypatch.setattr(HyperplanesSelection, "select", counted_select)
        changed = selection.select_many_additive(updates)
        assert calls == {"pass": 1, "select": 0}
        assert changed
        for reference, selected, gained in updates:
            unchanged = sorted(peer.peer_id for peer in selected)
            if reference.peer_id in changed:
                assert changed[reference.peer_id] == expected[reference.peer_id]
            else:
                assert sorted(expected[reference.peer_id]) == unchanged


def _lattice(count, seed):
    """``count`` peers on distinct cells of an 8 x 8 integer lattice: every
    axis ties, and many candidates sit on a reference's planes."""
    cells = random.Random(seed).sample(list(product(range(8), repeat=2)), count)
    return [make_peer(peer_id, tuple(map(float, cell))) for peer_id, cell in enumerate(cells)]


class TestTiesOnALattice:
    def test_select_many_over_59_candidates_equals_select(self):
        reference = make_peer(100, (3.0, 3.0))
        candidates = [peer for peer in _lattice(64, 4) if peer.coordinates != (3.0, 3.0)][:59]
        selection = OrthogonalHyperplanesSelection(k=2)
        batched = selection.select_many([reference], {100: candidates})
        assert batched[100] == selection.select(reference, candidates)

    @pytest.mark.parametrize("selection", [
        OrthogonalHyperplanesSelection(k=2),
        SignCoefficientHyperplanesSelection(k=1),
        KClosestSelection(k=3, distance="l1"),
    ], ids=type)
    def test_build_equilibrium_is_the_literal_loop(self, selection):
        for seed in (1, 2, 3):
            peers = _lattice(40, seed)
            literal = NeighbourSelectionMethod.compute_equilibrium(selection, peers)
            overlay = OverlayNetwork.build_equilibrium(peers, selection)
            assert overlay.directed_neighbour_map() == literal

    def test_insertion_under_a_gossip_radius_equals_the_sweep(self):
        peers = _lattice(60, 3)
        built = OverlayNetwork.build_incremental(
            peers, OrthogonalHyperplanesSelection(k=2), gossip_radius=3, rng=random.Random(3)
        )
        swept = sweep_build(
            peers, OrthogonalHyperplanesSelection(k=2), rng=random.Random(3), gossip_radius=3
        )
        assert built.directed_neighbour_map() == swept.directed_neighbour_map()
