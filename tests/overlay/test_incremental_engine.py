"""Tests for the incremental reselection engine and the batched select APIs.

The engine's contract is exact equivalence with the synchronous-sweep
oracle (``reselect_round()`` to a fixed point, ``sweep_*`` in
``tests/sweep_oracle.py``): same directed neighbour maps after every membership
event, under full knowledge and under a bounded gossip radius.  These tests
pin that contract on deterministic workloads; the hypothesis cross-checks
live in ``test_incremental_properties.py``.
"""

import random

import pytest
from sweep_oracle import sweep_apply_batch, sweep_build, sweep_converge

from repro.overlay.columnar import ColumnarCandidateState
from repro.overlay.incremental import (
    RESELECT_ADDITIVE,
    RESELECT_FULL,
    RESELECT_SKIP,
    CandidateView,
    RadiusCandidateState,
    classify_reselect,
)
from repro.overlay.network import BatchJoin, OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.base import MemberOf, NeighbourSelectionMethod
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.workloads.peers import generate_peers


def _paired_overlays(selection_factory, peers, *, gossip_radius=None, seed=3):
    """The same insertion sequence on the production path and the oracle."""
    fast = OverlayNetwork.build_incremental(
        peers, selection_factory(), gossip_radius=gossip_radius, rng=random.Random(seed)
    )
    slow = sweep_build(
        peers, selection_factory(), gossip_radius=gossip_radius, rng=random.Random(seed)
    )
    return fast, slow


class TestFixedPointEquivalence:
    @pytest.mark.parametrize(
        "selection_factory",
        [
            EmptyRectangleSelection,
            lambda: OrthogonalHyperplanesSelection(k=2),
            lambda: KClosestSelection(k=3),
        ],
        ids=["empty-rectangle", "orthogonal", "k-closest"],
    )
    @pytest.mark.parametrize("gossip_radius", [None, 2], ids=["full", "radius2"])
    def test_insertions_reach_the_full_sweep_fixed_point(
        self, selection_factory, gossip_radius
    ):
        peers = generate_peers(24, 2, seed=31)
        fast, slow = _paired_overlays(
            selection_factory, peers, gossip_radius=gossip_radius
        )
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()

    @pytest.mark.parametrize("gossip_radius", [None, 2], ids=["full", "radius2"])
    def test_departures_reach_the_full_sweep_fixed_point(self, gossip_radius):
        peers = generate_peers(22, 3, seed=8)
        fast, slow = _paired_overlays(
            EmptyRectangleSelection, peers, gossip_radius=gossip_radius
        )
        for victim in [peer.peer_id for peer in peers[::4]]:
            fast.remove_and_converge(victim)
            sweep_apply_batch(slow, [victim])
            assert fast.directed_neighbour_map() == slow.directed_neighbour_map()

    def test_interleaved_churn_matches_full_sweep(self):
        peers = generate_peers(30, 2, seed=55)
        fast = OverlayNetwork(EmptyRectangleSelection())
        slow = OverlayNetwork(EmptyRectangleSelection())
        rng = random.Random(7)
        alive = []
        for peer in peers:
            bootstrap = {rng.choice(alive)} if alive else set()
            fast.insert_and_converge(peer, bootstrap=bootstrap)
            sweep_apply_batch(slow, [BatchJoin(peer, frozenset(bootstrap))])
            alive.append(peer.peer_id)
            if len(alive) > 5 and rng.random() < 0.35:
                victim = rng.choice(alive)
                alive.remove(victim)
                fast.remove_and_converge(victim)
                sweep_apply_batch(slow, [victim])
            assert fast.directed_neighbour_map() == slow.directed_neighbour_map()

    def test_incremental_matches_the_equilibrium_builder(self):
        peers = generate_peers(25, 2, seed=5)
        overlay = OverlayNetwork.build_incremental(peers, EmptyRectangleSelection())
        equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert overlay.directed_neighbour_map() == equilibrium.directed_neighbour_map()


class TestEngineLifecycle:
    def test_converged_overlay_has_no_dirty_peers(self):
        peers = generate_peers(15, 2, seed=2)
        overlay = OverlayNetwork.build_incremental(peers, EmptyRectangleSelection())
        assert overlay._engine is not None  # noqa: SLF001 - white-box check
        assert overlay._engine.dirty_peers == frozenset()  # noqa: SLF001

    @pytest.mark.parametrize(
        "gossip_radius, view_type", [(None, ColumnarCandidateState), (2, RadiusCandidateState)]
    )
    def test_the_gossip_radius_picks_the_view_and_each_view_speaks_one_protocol(
        self, gossip_radius, view_type
    ):
        overlay = OverlayNetwork.build_incremental(
            generate_peers(8, 2, seed=2), EmptyRectangleSelection(), gossip_radius=gossip_radius
        )
        assert type(overlay._engine._view) is view_type  # noqa: SLF001
        per_peer, planned = {"begin_round", "delta", "commit", "forget"}, {"plan_round"}
        theirs, others = (planned, per_peer) if gossip_radius is None else (per_peer, planned)
        assert theirs <= set(vars(view_type))
        assert not others & (set(vars(view_type)) | set(vars(CandidateView)))

    def test_membership_events_dirty_the_engine(self):
        peers = generate_peers(12, 2, seed=9)
        overlay = OverlayNetwork.build_incremental(peers, EmptyRectangleSelection())
        overlay.add_peer(make_peer(100, (0.123, 0.456)))
        engine = overlay._engine  # noqa: SLF001
        assert 100 in engine.dirty_peers
        overlay.converge()
        assert engine.dirty_peers == frozenset()

    def test_full_sweep_round_invalidates_the_engine(self):
        peers = generate_peers(14, 2, seed=4)
        overlay = OverlayNetwork.build_incremental(peers, EmptyRectangleSelection())
        overlay.reselect_round()
        assert overlay._engine is None  # noqa: SLF001
        # A later incremental convergence bootstraps a fresh engine and still
        # lands on the correct fixed point.
        overlay.insert_and_converge(make_peer(200, (0.321, 0.654)))
        expected = OverlayNetwork.build_equilibrium(
            peers + [make_peer(200, (0.321, 0.654))], EmptyRectangleSelection()
        )
        assert overlay.directed_neighbour_map() == expected.directed_neighbour_map()

    def test_incremental_converge_reports_rounds(self):
        peers = generate_peers(10, 2, seed=1)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        for peer in peers:
            overlay.add_peer(peer)
        rounds = overlay.converge()
        assert rounds >= 1
        assert overlay.converge() == 1


class PathDependentWrapper(EmptyRectangleSelection):
    """The same selection rule, declared path *dependent*."""

    path_independent = False


def _next_plan(overlay):
    """The round the live full-knowledge engine would run next.  Planning is
    a pure function of the view's state until ``end_round`` closes a round."""
    view = overlay._engine._view  # noqa: SLF001 - the verdicts are the view's decisions
    plan = view.plan_round(overlay.selectors, overlay.selection.path_independent)
    assert set(plan.scheduled_ids.tolist()) == set(overlay.peer_ids)
    masks = (plan.full_mask, plan.skip_mask, plan.additive_mask)
    # Pairwise disjoint and covering the schedule.
    assert (sum(mask.astype(int) for mask in masks) == 1).all()
    windowed = sum(window.members.astype(int) for window in plan.windows)
    assert ((windowed == 1) == plan.additive_mask).all()
    return plan


def _ids(plan, mask):
    return set(plan.scheduled_ids[mask].tolist())


class TestRoundPlanDecisionTable:
    """``ColumnarCandidateState.plan_round`` is the only classifier under
    full knowledge: its verdict columns, event by event."""

    def test_verdict_counts_for_a_leave_a_join_and_a_move(self):
        peers = generate_peers(41, 2, seed=5)
        fast = OverlayNetwork.build_incremental(
            peers[:40], EmptyRectangleSelection(), rng=random.Random(1)
        )
        slow = sweep_build(peers[:40], EmptyRectangleSelection(), rng=random.Random(1))

        def selectors_of(target):
            return {p for p in fast.peer_ids if target in fast.selected_neighbours(p)}

        def converge_both():
            fast.converge()
            sweep_converge(slow)
            assert fast.directed_neighbour_map() == slow.directed_neighbour_map()

        # A leave: the departed peer's former selectors lost a selected
        # neighbour; everyone else lost a candidate it never selected.
        former = selectors_of(7)
        for overlay in (fast, slow):
            overlay.remove_peer(7)
        plan = _next_plan(fast)
        assert _ids(plan, plan.full_mask) == former and len(former) == 8
        assert int(plan.skip_mask.sum()) == 31 and not plan.windows
        converge_both()

        # A single join: the joiner has no history; everyone else gained it.
        for overlay in (fast, slow):
            overlay.add_peer(peers[40])
        plan = _next_plan(fast)
        assert _ids(plan, plan.full_mask) == {40}
        assert int(plan.additive_mask.sum()) == 39
        assert [window.gained for window in plan.windows] == [frozenset({40})]
        converge_both()

        # A move: lost and gained at once -- full for the mover and for the
        # peers that selected it, additive (the new point) for the rest.
        holders = selectors_of(12)
        for overlay in (fast, slow):
            overlay.move_peer(12, (512.25, 256.75))
        plan = _next_plan(fast)
        assert _ids(plan, plan.full_mask) == holders | {12} and len(holders) == 9
        assert int(plan.additive_mask.sum()) == 30
        assert [window.gained for window in plan.windows] == [frozenset({12})]
        converge_both()

    def test_a_path_dependent_method_recomputes_every_scheduled_peer(self):
        peers = generate_peers(41, 2, seed=5)
        fast = OverlayNetwork.build_incremental(
            peers[:40], PathDependentWrapper(), rng=random.Random(1)
        )
        slow = sweep_build(peers[:40], PathDependentWrapper(), rng=random.Random(1))
        for overlay in (fast, slow):
            overlay.add_peer(peers[40])
        plan = _next_plan(fast)
        assert int(plan.full_mask.sum()) == 41 and not plan.windows
        fast.converge()
        sweep_converge(slow)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()

    def test_a_peer_with_history_inside_its_own_window_is_an_error(self):
        """Every event naming a peer clears its history or its alive flag;
        a state where one did not is corruption, and planning says which
        peer and which stamp instead of classifying it."""
        overlay = OverlayNetwork.build_incremental(
            generate_peers(12, 2, seed=5), EmptyRectangleSelection(), rng=random.Random(1)
        )
        overlay.move_peer(3, (512.25, 256.75))
        view = overlay._engine._view  # noqa: SLF001
        view._needs_full[view._rows.row_of(3)] = False  # noqa: SLF001 - the injected fault
        with pytest.raises(RuntimeError, match=r"peer 3 .* stamp \d+ .* own window"):
            overlay.converge()


class TestSelectManyAgreement:
    @pytest.mark.parametrize(
        "selection_factory",
        [
            EmptyRectangleSelection,
            lambda: OrthogonalHyperplanesSelection(k=2),
            lambda: KClosestSelection(k=4),
        ],
        ids=["empty-rectangle", "orthogonal", "k-closest"],
    )
    @pytest.mark.parametrize("count", [10, 80])
    def test_select_many_matches_the_per_peer_loop(self, selection_factory, count):
        peers = generate_peers(count, 3, seed=count)
        selection = selection_factory()
        candidates_by_peer = {
            reference.peer_id: [p for p in peers if p.peer_id != reference.peer_id]
            for reference in peers
        }
        batched = selection.select_many(peers, candidates_by_peer)
        for reference in peers:
            expected = selection.select(
                reference, candidates_by_peer[reference.peer_id]
            )
            assert sorted(batched[reference.peer_id]) == sorted(expected)

    @pytest.mark.parametrize(
        "selection_factory",
        [
            EmptyRectangleSelection,
            lambda: OrthogonalHyperplanesSelection(k=2),
            lambda: KClosestSelection(k=4),
        ],
        ids=["empty-rectangle", "orthogonal", "k-closest"],
    )
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("count", [10, 80])
    def test_id_fed_batches_equal_the_peerinfo_entry_points(
        self, selection_factory, dimension, count
    ):
        """What the engine hands over under a radius -- per-peer candidate
        *ids* in no particular order plus one handle -- against the same
        subsets as id-sorted ``PeerInfo`` lists: equal results, order
        included, on the kernel path (2-D empty rectangle) and on every
        method that resolves the ids in the base class."""
        peers = generate_peers(count, dimension, seed=count + dimension)
        by_id = {peer.peer_id: peer for peer in peers}
        member_of = MemberOf.adapt(peers)
        rng = random.Random(count)
        selection = selection_factory()
        subsets = {
            peer.peer_id: rng.sample(sorted(by_id), rng.randint(0, count)) for peer in peers
        }
        subsets[peers[0].peer_id] = []
        as_infos = {
            peer_id: [by_id[other] for other in sorted(ids)] for peer_id, ids in subsets.items()
        }
        assert selection.select_many(
            peers, subsets, member_of=member_of
        ) == selection.select_many(peers, as_infos)

        updates = []
        for reference in peers:
            known = [other for other in subsets[reference.peer_id] if other != reference.peer_id]
            gains = rng.choice([1, 1, 3])
            selected = set(selection.select(reference, [by_id[other] for other in known[gains:]]))
            updates.append((reference, selected, set(known[:gains]) - selected))
        assert selection.select_many_additive(
            updates, member_of=member_of
        ) == selection.select_many_additive(
            [
                (
                    reference,
                    [by_id[other] for other in sorted(selected)],
                    [by_id[other] for other in sorted(gained)],
                )
                for reference, selected, gained in updates
            ]
        )

    def test_select_many_additive_matches_full_reselection(self):
        peers = generate_peers(60, 2, seed=77)
        joiner, existing = peers[-1], peers[:-1]
        selection = EmptyRectangleSelection()
        equilibrium = selection.compute_equilibrium(existing)
        updates = []
        for reference in existing:
            selected = [p for p in existing if p.peer_id in equilibrium[reference.peer_id]]
            updates.append((reference, selected, [joiner]))
        delta_results = selection.select_many_additive(updates)
        assert delta_results is not None
        for reference in existing:
            full = selection.select(
                reference, [p for p in peers if p.peer_id != reference.peer_id]
            )
            previous = sorted(equilibrium[reference.peer_id])
            got = delta_results.get(reference.peer_id)
            if got is None:
                # Omitted references must genuinely be unchanged.
                assert full == previous
            else:
                assert sorted(got) == full

    def test_select_many_additive_handles_multiple_gains(self):
        peers = generate_peers(40, 2, seed=13)
        gained, existing = peers[-3:], peers[:-3]
        selection = EmptyRectangleSelection()
        equilibrium = selection.compute_equilibrium(existing)
        updates = []
        for reference in existing:
            selected = [p for p in existing if p.peer_id in equilibrium[reference.peer_id]]
            updates.append((reference, selected, list(gained)))
        delta_results = selection.select_many_additive(updates)
        for reference in existing:
            full = selection.select(
                reference, [p for p in peers if p.peer_id != reference.peer_id]
            )
            got = delta_results.get(reference.peer_id)
            result = sorted(got) if got is not None else sorted(equilibrium[reference.peer_id])
            assert result == full

    def test_base_select_many_additive_is_unimplemented(self):
        """The abstract base has no delta rule of its own: it re-selects every
        reference over ``selected + gained`` through ``select``, which path
        independence makes exact, never through the counted ``select_many``."""

        class _Plain(NeighbourSelectionMethod):
            path_independent = True
            calls = []

            def select(self, reference, candidates):
                self.calls.append((reference.peer_id, [peer.peer_id for peer in candidates]))
                return [peer.peer_id for peer in candidates if peer.peer_id != reference.peer_id]

            def select_many(self, *args, **kwargs):  # pragma: no cover - must not run
                raise AssertionError("the additive default went through select_many")

        plain = _Plain()
        assert plain.select_many_additive([]) == {}
        assert OrthogonalHyperplanesSelection(k=1).select_many_additive([]) == {}
        peers = {i: make_peer(i, (float(i), float(-i))) for i in range(5)}
        assert plain.select_many_additive(
            [(peers[0], [peers[3], peers[1]], [peers[2], peers[1]]), (peers[4], [], [peers[0]])]
        ) == {0: [1, 2, 3], 4: [0]}
        assert plain.select_many_additive(
            [(peers[0], {3, 1}, {2, 1})], member_of=peers.__getitem__
        ) == {0: [1, 2, 3]}
        assert plain.calls == [(0, [1, 2, 3]), (4, [0]), (0, [1, 2, 3])]
        assert plain.select_additive(peers[4], [peers[1]], [peers[2]]) == [1, 2]

    def test_hyperplane_select_many_additive_matches_full_reselection(self):
        peers = generate_peers(60, 3, seed=78)
        joiner, existing = peers[-1], peers[:-1]
        for selection in (
            OrthogonalHyperplanesSelection(k=1),
            OrthogonalHyperplanesSelection(k=2),
            KClosestSelection(k=3),
        ):
            equilibrium = selection.compute_equilibrium(existing)
            updates = []
            for reference in existing:
                selected = [
                    p for p in existing if p.peer_id in equilibrium[reference.peer_id]
                ]
                updates.append((reference, selected, [joiner]))
            delta_results = selection.select_many_additive(updates)
            assert delta_results is not None
            for reference in existing:
                full = sorted(
                    selection.select(
                        reference, [p for p in peers if p.peer_id != reference.peer_id]
                    )
                )
                got = delta_results.get(reference.peer_id)
                if got is None:
                    assert full == sorted(equilibrium[reference.peer_id])
                else:
                    assert sorted(got) == full


class TestClassifyReselect:
    """The shared full/skip/additive decision rule."""

    def test_no_history_forces_full(self):
        assert classify_reselect(None, set(), set(), set(), True) == RESELECT_FULL

    def test_empty_delta_skips_for_any_method(self):
        last = frozenset({1, 2, 3})
        for path_independent in (True, False):
            verdict = classify_reselect(last, set(), set(), {2}, path_independent)
            assert verdict == RESELECT_SKIP

    def test_lost_selected_candidate_forces_full(self):
        last = frozenset({1, 2, 3})
        assert classify_reselect(last, set(), {2}, {2, 3}, True) == RESELECT_FULL

    def test_lost_never_selected_candidate_skips_when_path_independent(self):
        last = frozenset({1, 2, 3})
        assert classify_reselect(last, set(), {1}, {2, 3}, True) == RESELECT_SKIP
        assert classify_reselect(last, set(), {1}, {2, 3}, False) == RESELECT_FULL

    def test_pure_gain_is_additive_when_path_independent(self):
        last = frozenset({1, 2})
        assert classify_reselect(last, {9}, set(), {1}, True) == RESELECT_ADDITIVE
        assert classify_reselect(last, {9}, set(), {1}, False) == RESELECT_FULL

    def test_gain_with_harmless_loss_is_additive(self):
        last = frozenset({1, 2, 3})
        verdict = classify_reselect(last, {9}, {1}, {2, 3}, True)
        assert verdict == RESELECT_ADDITIVE
