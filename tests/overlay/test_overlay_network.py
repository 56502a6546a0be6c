"""Unit and integration tests for repro.overlay.network.OverlayNetwork."""

import pytest

from repro.overlay.network import ConvergenceError, OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.base import NeighbourSelectionMethod
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.workloads.peers import generate_peers


class _SelectOnlyEmptyRectangle(NeighbourSelectionMethod):
    """The empty-rectangle rule through ``select`` alone: the base class's
    loop scans the whole column for every reference."""

    def select(self, reference, candidates):
        return EmptyRectangleSelection().select(reference, candidates)


class TestMembership:
    def test_add_and_remove_peers(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(0, (0.0, 0.0)))
        overlay.add_peer(make_peer(1, (1.0, 1.0)))
        assert overlay.peer_count == 2
        assert 0 in overlay and 1 in overlay
        removed = overlay.remove_peer(0)
        assert removed.peer_id == 0
        assert overlay.peer_count == 1
        assert 0 not in overlay

    def test_duplicate_peer_rejected(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(0, (0.0, 0.0)))
        with pytest.raises(ValueError):
            overlay.add_peer(make_peer(0, (1.0, 1.0)))

    def test_dimension_mismatch_rejected(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(0, (0.0, 0.0)))
        with pytest.raises(ValueError):
            overlay.add_peer(make_peer(1, (1.0, 1.0, 1.0)))

    def test_unknown_bootstrap_rejected(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(0, (0.0, 0.0)))
        with pytest.raises(KeyError):
            overlay.add_peer(make_peer(1, (1.0, 1.0)), bootstrap={42})

    def test_unknown_bootstrap_names_every_unknown_id_and_adds_nothing(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(0, (0.0, 0.0)))
        with pytest.raises(KeyError, match=r"bootstrap peers \[17, 42\]"):
            overlay.add_peer(make_peer(1, (1.0, 1.0)), bootstrap={42, 0, 17})
        assert overlay.peer_ids == [0]
        assert overlay.selected_neighbours(0) == frozenset()

    def test_remove_unknown_peer(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        with pytest.raises(KeyError):
            overlay.remove_peer(3)

    @pytest.mark.parametrize("read", ["links", "selected_neighbours", "peer"])
    def test_per_peer_reads_name_the_unknown_peer(self, read):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(0, (0.0, 0.0)))
        with pytest.raises(KeyError, match="unknown peer 5"):
            getattr(overlay, read)(5)

    def test_default_bootstrap_is_lowest_id(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(5, (0.0, 0.0)))
        overlay.add_peer(make_peer(7, (1.0, 1.0)))
        assert overlay.selected_neighbours(7) == frozenset({5})

    def test_removal_strips_links(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(0, (0.0, 0.0)))
        overlay.add_peer(make_peer(1, (1.0, 1.0)), bootstrap={0})
        overlay.remove_peer(0)
        assert overlay.selected_neighbours(1) == frozenset()

    def test_gossip_radius_validation(self):
        with pytest.raises(ValueError):
            OverlayNetwork(EmptyRectangleSelection(), gossip_radius=0)


class TestConvergence:
    def test_full_knowledge_convergence_matches_equilibrium(self):
        peers = generate_peers(20, 2, seed=5)
        incremental = OverlayNetwork(EmptyRectangleSelection())
        for peer in peers:
            incremental.insert_and_converge(peer)
        equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert incremental.directed_neighbour_map() == equilibrium.directed_neighbour_map()

    def test_gossip_limited_convergence_matches_equilibrium_for_large_radius(self):
        peers = generate_peers(15, 2, seed=9)
        limited = OverlayNetwork.build_incremental(
            peers, EmptyRectangleSelection(), gossip_radius=6
        )
        equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert limited.snapshot().edges() == equilibrium.snapshot().edges()

    def test_converge_returns_round_count(self):
        peers = generate_peers(10, 2, seed=1)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        for peer in peers:
            overlay.add_peer(peer)
        rounds = overlay.converge()
        assert rounds >= 1
        # A second convergence call finds the fixed point immediately.
        assert overlay.converge() == 1

    def test_convergence_error_reports_the_round_budget(self):
        error = ConvergenceError(7)
        assert error.rounds == 7
        assert "7" in str(error)

    def test_fresh_bulk_population_needs_more_than_one_round(self):
        """Dropping 12 unconnected peers in at once cannot settle in a single round."""
        peers = generate_peers(12, 2, seed=2)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        for peer in peers:
            overlay.add_peer(peer, bootstrap=())
        assert overlay.reselect_round() is True
        overlay.converge()
        assert overlay.reselect_round() is False

    @pytest.mark.parametrize(
        ("selection_factory", "knowledge", "owns_index"),
        [
            (EmptyRectangleSelection, {}, True),
            (_SelectOnlyEmptyRectangle, {}, True),
            (EmptyRectangleSelection, {"gossip_radius": 2}, False),
        ],
        ids=["indexed", "scan", "radius_2"],
    )
    def test_sweep_reports_and_streams_exactly_its_changes(
        self, selection_factory, knowledge, owns_index
    ):
        """Each sweep branch installs through ``install_selections``: it
        returns ``True`` iff a selection changed, every changed peer reaches
        the delta stream, and the selection map is updated in place.  The
        full-knowledge scan is the base class's whole-column loop, which a
        method with nothing but ``select`` runs."""
        overlay = OverlayNetwork(selection_factory(), **knowledge)
        assert (overlay.index is not None) == owns_index
        for peer in generate_peers(12, 2, seed=2):
            overlay.add_peer(peer)
        recorder = overlay.delta_stream()
        neighbours = overlay._neighbours  # noqa: SLF001 - identity under test
        verdicts = []
        while not verdicts or verdicts[-1]:
            assert len(verdicts) < 30, "the sweep did not reach a fixed point"
            before = overlay.directed_neighbour_map()
            verdicts.append(overlay.reselect_round())
            after = overlay.directed_neighbour_map()
            changed = {peer_id for peer_id in after if after[peer_id] != before[peer_id]}
            assert verdicts[-1] == bool(changed)
            assert changed <= recorder.drain().touched
        assert verdicts[0] is True
        assert overlay._neighbours is neighbours  # noqa: SLF001

    def test_max_rounds_validation(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.add_peer(make_peer(0, (0.0, 0.0)))
        with pytest.raises(ValueError):
            overlay.converge(max_rounds=0)

    def test_remove_and_converge(self):
        peers = generate_peers(12, 2, seed=3)
        overlay = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        overlay.remove_and_converge(peers[0].peer_id)
        remaining = generate_peers(12, 2, seed=3)[1:]
        expected = OverlayNetwork.build_equilibrium(remaining, EmptyRectangleSelection())
        assert overlay.directed_neighbour_map() == expected.directed_neighbour_map()


class TestEquilibriumBuilder:
    def test_duplicate_ids_rejected(self):
        peers = [make_peer(0, (0.0, 0.0)), make_peer(0, (1.0, 1.0))]
        with pytest.raises(ValueError):
            OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())

    def test_mixed_dimension_population_rejected(self):
        """The bulk builder validates dimensions the way add_peer does."""
        peers = [
            make_peer(0, (0.0, 0.0)),
            make_peer(1, (1.0, 1.0)),
            make_peer(2, (2.0, 2.0, 2.0)),
        ]
        with pytest.raises(ValueError, match="dimension"):
            OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())

    def test_snapshot_contains_all_peers(self, peers_2d):
        overlay = OverlayNetwork.build_equilibrium(peers_2d, EmptyRectangleSelection())
        snapshot = overlay.snapshot()
        assert snapshot.peer_count == len(peers_2d)
        assert set(snapshot.peers) == {p.peer_id for p in peers_2d}

    def test_orthogonal_equilibrium_is_connected(self):
        peers = generate_peers(40, 3, seed=17)
        overlay = OverlayNetwork.build_equilibrium(peers, OrthogonalHyperplanesSelection(k=1))
        assert overlay.snapshot().is_connected()

    def test_knowledge_set_full_knowledge(self, peers_2d):
        overlay = OverlayNetwork.build_equilibrium(peers_2d, EmptyRectangleSelection())
        knowledge = overlay.knowledge_set(peers_2d[0].peer_id)
        assert len(knowledge) == len(peers_2d) - 1

    def test_knowledge_set_unknown_peer(self, peers_2d):
        overlay = OverlayNetwork.build_equilibrium(peers_2d, EmptyRectangleSelection())
        with pytest.raises(KeyError):
            overlay.knowledge_set(10_000)


class TestGossipLimitedKnowledge:
    def test_knowledge_set_respects_radius(self):
        peers = [make_peer(i, (float(i), float(i % 2))) for i in range(5)]
        overlay = OverlayNetwork(EmptyRectangleSelection(), gossip_radius=1)
        # A line topology through bootstrap-only neighbours.
        for index, peer in enumerate(peers):
            overlay.add_peer(peer, bootstrap={index - 1} if index else ())
        knowledge_ids = {p.peer_id for p in overlay.knowledge_set(2)}
        assert knowledge_ids == {1, 3}
