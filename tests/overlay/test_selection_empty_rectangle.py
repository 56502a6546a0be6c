"""Unit and property tests for the empty-rectangle selection method."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.peer import make_peer
from repro.overlay.selection.base import MemberOf
from repro.overlay.selection.empty_rectangle import (
    EmptyRectangleSelection,
    brute_force_empty_rectangle_neighbours,
)
from repro.workloads.peers import generate_peers


class TestSmallConfigurations:
    def test_two_peers_always_neighbours(self):
        a = make_peer(0, (0.0, 0.0))
        b = make_peer(1, (1.0, 1.0))
        assert EmptyRectangleSelection().select(a, [b]) == [1]

    def test_blocking_peer_removes_the_far_neighbour(self):
        reference = make_peer(0, (0.0, 0.0))
        blocker = make_peer(1, (1.0, 1.0))
        blocked = make_peer(2, (2.0, 2.0))
        chosen = EmptyRectangleSelection().select(reference, [blocker, blocked])
        assert chosen == [1]

    def test_peers_in_different_quadrants_do_not_block_each_other(self):
        reference = make_peer(0, (0.0, 0.0))
        north_east = make_peer(1, (2.0, 2.0))
        south_west = make_peer(2, (-1.0, -1.0))
        chosen = EmptyRectangleSelection().select(reference, [north_east, south_west])
        assert chosen == [1, 2]

    def test_no_candidates(self):
        reference = make_peer(0, (0.0, 0.0))
        assert EmptyRectangleSelection().select(reference, []) == []
        assert EmptyRectangleSelection().select(reference, [reference]) == []

    def test_selection_is_symmetric_at_full_knowledge(self, peers_2d):
        selection = EmptyRectangleSelection()
        neighbours = selection.compute_equilibrium(peers_2d)
        for peer_id, selected in neighbours.items():
            for other in selected:
                assert peer_id in neighbours[other]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("dimension", [2, 3, 4])
    @pytest.mark.parametrize("count", [5, 15, 30])
    def test_select_matches_brute_force(self, dimension, count):
        peers = generate_peers(count, dimension, seed=dimension * 100 + count)
        selection = EmptyRectangleSelection()
        for reference in peers[:10]:
            candidates = [p for p in peers if p.peer_id != reference.peer_id]
            fast = selection.select(reference, candidates)
            slow = brute_force_empty_rectangle_neighbours(reference, candidates)
            assert fast == slow

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_batched_scan_arm_matches_brute_force(self, dimension):
        """``select_many`` without an index over 63 candidates per reference:
        the quadrant pass in 2-D, the dominance pass above."""
        peers = generate_peers(64, dimension, seed=40 + dimension)
        selection = EmptyRectangleSelection()
        references = peers[:12]
        candidates = {
            reference.peer_id: [p for p in peers if p.peer_id != reference.peer_id]
            for reference in references
        }
        batched = selection.select_many(references, candidates)
        for reference in references:
            assert batched[reference.peer_id] == brute_force_empty_rectangle_neighbours(
                reference, candidates[reference.peer_id]
            )

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_equilibrium_matches_per_peer_selection(self, dimension):
        peers = generate_peers(25, dimension, seed=dimension)
        selection = EmptyRectangleSelection()
        equilibrium = selection.compute_equilibrium(peers)
        for reference in peers:
            candidates = [p for p in peers if p.peer_id != reference.peer_id]
            assert equilibrium[reference.peer_id] == set(selection.select(reference, candidates))


coordinate = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


@st.composite
def distinct_point_sets(draw, dimension=2, min_size=2, max_size=12):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    axes = []
    for _ in range(dimension):
        values = draw(
            st.lists(coordinate, min_size=count, max_size=count, unique=True)
        )
        axes.append(values)
    return [tuple(axes[d][i] for d in range(dimension)) for i in range(count)]


class TestEmptyRectangleProperties:
    @given(distinct_point_sets(dimension=2))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_equals_definition_2d(self, coordinates):
        peers = [make_peer(i, c) for i, c in enumerate(coordinates)]
        selection = EmptyRectangleSelection()
        reference = peers[0]
        candidates = peers[1:]
        assert selection.select(reference, candidates) == (
            brute_force_empty_rectangle_neighbours(reference, candidates)
        )

    @given(distinct_point_sets(dimension=3, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_fast_path_equals_definition_3d(self, coordinates):
        peers = [make_peer(i, c) for i, c in enumerate(coordinates)]
        selection = EmptyRectangleSelection()
        reference = peers[0]
        candidates = peers[1:]
        assert selection.select(reference, candidates) == (
            brute_force_empty_rectangle_neighbours(reference, candidates)
        )

    @given(distinct_point_sets(dimension=2, min_size=3))
    @settings(max_examples=40, deadline=None)
    def test_a_nearest_candidate_is_always_selected(self, coordinates):
        """Some candidate at minimal L1 distance can never be blocked.

        (Any peer inside the bounding box of the reference and a candidate is
        at most as far away in L1, so a blocked minimal-distance candidate
        would have to be blocked by another minimal-distance candidate.)
        """
        peers = [make_peer(i, c) for i, c in enumerate(coordinates)]
        reference = peers[0]
        candidates = peers[1:]
        distances = {
            p.peer_id: sum(
                abs(a - b) for a, b in zip(p.coordinates, reference.coordinates)
            )
            for p in candidates
        }
        minimum = min(distances.values())
        nearest_ids = {pid for pid, d in distances.items() if d == minimum}
        chosen = EmptyRectangleSelection().select(reference, candidates)
        assert nearest_ids & set(chosen)


@st.composite
def additive_batches(draw):
    """Peers on a 5 x 5 grid (shared axis values and exact duplicate points
    are common) and up to four additive updates over them: each reference
    splits the others into its old candidates, its gains and strangers."""
    points = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=3, max_size=14))
    peers = [make_peer(i, (float(x), float(y))) for i, (x, y) in enumerate(points)]
    references = draw(st.lists(st.sampled_from(peers), min_size=1, max_size=4,
                               unique_by=lambda peer: peer.peer_id))
    updates = []
    for reference in references:
        others = [peer for peer in peers if peer.peer_id != reference.peer_id]
        roles = draw(st.lists(st.sampled_from("CGS"), min_size=len(others),
                              max_size=len(others)))
        updates.append((reference,
                        [peer for peer, role in zip(others, roles) if role == "C"],
                        [peer for peer, role in zip(others, roles) if role == "G"]))
    return peers, updates


class TestBatchedContracts:
    def test_one_id_with_two_coordinate_tuples_in_a_batch_is_refused(self):
        """The batch once kept the later info for every reference, so peer 0
        saw peer 2 at (20, 20) and selected 1 where ``select`` selects 2."""
        p0, p1, p3 = make_peer(0, (0.0, 0.0)), make_peer(1, (10.0, 10.0)), make_peer(3, (1.0, 1.0))
        p2_old, p2_new = make_peer(2, (5.0, 5.0)), make_peer(2, (20.0, 20.0))
        selection = EmptyRectangleSelection()
        assert selection.select(p0, [p1, p2_old]) == [2]
        with pytest.raises(ValueError, match="peer 2 has two coordinate tuples"):
            selection.select_many([p0, p1], {0: [p1, p2_old], 1: [p0, p2_new, p3]})
        with pytest.raises(ValueError, match="peer 2 has two coordinate tuples"):
            selection.select_many_additive([(p0, [p2_old], [p3]), (p1, [p2_new], [p3])])
        # Within one additive update a gained info wins: peer 2 is at (20, 20),
        # behind the gained peer 1.
        assert selection.select_many_additive([(p0, [p2_old], [p2_new, p1])]) == {0: [1]}

    @given(batch=additive_batches())
    @settings(max_examples=80, deadline=None)
    def test_additive_results_are_exactly_the_changed_selections(self, batch):
        peers, updates = batch
        selection = EmptyRectangleSelection()
        by_id = {peer.peer_id: peer for peer in peers}
        installed = [(reference, [by_id[i] for i in selection.select(reference, known)], gained)
                     for reference, known, gained in updates]
        expected = {}
        for reference, selected, gained in installed:
            grown = selection.select(reference, selected + gained)
            if grown != [peer.peer_id for peer in selected]:
                expected[reference.peer_id] = grown
        assert selection.select_many_additive(installed) == expected
        as_ids = [(reference, {peer.peer_id for peer in selected},
                   {peer.peer_id for peer in gained}) for reference, selected, gained in installed]
        assert selection.select_many_additive(as_ids, member_of=MemberOf.adapt(peers)) == expected


class TestConnectivity:
    """The empty-rectangle overlay at full knowledge is always connected.

    Every peer keeps its nearest peer in each non-empty orthant, and in
    particular its globally nearest peer, which is a classical sufficient
    condition for connectivity of proximity graphs on distinct points.
    """

    @pytest.mark.parametrize("dimension", [2, 3, 4, 5])
    def test_connected_for_random_populations(self, dimension):
        from repro.overlay.network import OverlayNetwork

        peers = generate_peers(60, dimension, seed=dimension * 7)
        overlay = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert overlay.snapshot().is_connected()


def test_one_additive_call_is_one_dominance_pass_outside_two_dimensions(monkeypatch):
    """A D = 3 ``select_many_additive`` call over many rows runs one flat
    pass and no per-reference ``select``, and every row -- returned or
    omitted as unchanged -- is the definition over ``selected + gained``,
    a gain listed twice included."""
    from repro.geometry import index as index_module

    peers = generate_peers(60, 3, seed=77)
    rng = random.Random(77)
    updates = []
    for reference in peers[:20]:
        others = [peer for peer in peers if peer.peer_id != reference.peer_id]
        base = rng.sample(others, 25)
        chosen = set(brute_force_empty_rectangle_neighbours(reference, base))
        selected = [peer for peer in base if peer.peer_id in chosen]
        gained = rng.sample([peer for peer in others if peer.peer_id not in chosen], 3)
        updates.append((reference, selected, gained + gained[:1]))

    calls = {"pass": 0, "select": 0}
    one_pass = index_module._dominance_pass

    def counted_pass(*args):
        calls["pass"] += 1
        return one_pass(*args)

    def counted_select(self, *args, **kwargs):
        calls["select"] += 1
        raise AssertionError("an additive row went through select()")

    monkeypatch.setattr(index_module, "_dominance_pass", counted_pass)
    monkeypatch.setattr(EmptyRectangleSelection, "select", counted_select)
    changed = EmptyRectangleSelection().select_many_additive(updates)
    assert calls == {"pass": 1, "select": 0}
    assert changed
    for reference, selected, gained in updates:
        expected = brute_force_empty_rectangle_neighbours(
            reference, EmptyRectangleSelection.merge_candidate_delta(selected, gained)
        )
        assert changed.get(reference.peer_id, sorted(p.peer_id for p in selected)) == expected
