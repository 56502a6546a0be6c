"""Tests for the experiment drivers (run at smoke scale)."""

import pytest

from repro.experiments.ablations import (
    run_baseline_comparison,
    run_churn_ablation,
    run_message_replay_ablation,
    run_network_model_ablation,
    run_overlay_churn_ablation,
    run_pick_strategy_ablation,
    run_trace_convergence_ablation,
    run_tree_maintenance_ablation,
)
from repro.experiments.config import SCALES, ExperimentScale, resolve_scale
from repro.experiments.trace_runner import TraceRunner, run_trace_scenarios
from repro.experiments.figure1a import run_figure1a
from repro.experiments.figure1b import run_figure1b
from repro.experiments.figure1c import run_figure1c
from repro.experiments.figure1d_e import run_stability_sweep


TINY = ExperimentScale(
    name="tiny",
    peer_count=40,
    scaling_peer_counts=(20, 40),
    section2_dimensions=(2, 3),
    section3_dimensions=(2, 3),
    k_values=(1, 3),
    root_sample=5,
)


class TestConfig:
    def test_known_scales(self):
        assert set(SCALES) == {"smoke", "bench", "paper"}
        assert SCALES["paper"].peer_count == 1000
        assert SCALES["paper"].k_values == tuple(range(1, 51))
        assert SCALES["paper"].root_sample is None

    def test_resolve_scale_by_name_and_env(self, monkeypatch):
        assert resolve_scale("smoke").name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert resolve_scale().name == "paper"
        monkeypatch.delenv("REPRO_SCALE")
        assert resolve_scale().name == "bench"

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            resolve_scale("galactic")

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(
                name="bad",
                peer_count=1,
                scaling_peer_counts=(10,),
                section2_dimensions=(2,),
                section3_dimensions=(2,),
                k_values=(1,),
                root_sample=None,
            )


class TestFigure1a:
    def test_rows_and_comparison(self):
        result = run_figure1a(TINY)
        assert [row.dimension for row in result.rows] == [2, 3]
        for row in result.rows:
            assert 0 < row.average_degree <= row.maximum_degree
            assert row.peer_count == TINY.peer_count
        comparisons = result.compare_with_paper()
        assert set(comparisons) == {"maximum_degree", "average_degree"}
        # Degrees grow with the dimension, as in the paper.
        assert result.rows[1].average_degree > result.rows[0].average_degree
        assert "max degree" in result.to_table()


class TestFigure1b:
    def test_invariants_and_series(self):
        result = run_figure1b(TINY)
        assert [row.dimension for row in result.rows] == [2, 3]
        for row in result.rows:
            assert row.all_sessions_sent_n_minus_1_messages
            assert row.all_sessions_respected_degree_bound
            assert 0 < row.average_longest_path <= row.maximum_longest_path
            assert row.sessions == TINY.root_sample
        assert "avg longest path" in result.to_table()
        assert set(result.compare_with_paper()) == {
            "maximum_longest_path",
            "average_longest_path",
        }


class TestFigure1c:
    def test_degree_growth_with_peer_count(self):
        result = run_figure1c(TINY)
        assert [row.peer_count for row in result.rows] == [20, 40]
        assert result.rows[1].maximum_degree >= result.rows[0].maximum_degree
        comparison = result.compare_with_log_growth()
        assert comparison.same_direction
        assert "10*log10(N)" in result.to_table()


class TestStabilitySweep:
    def test_insertion_procedure_matches_equilibrium(self):
        """The paper-literal churn loop reproduces the equilibrium sweep."""
        direct = run_stability_sweep(TINY)
        replayed = run_stability_sweep(TINY, procedure="insertion")
        assert replayed.procedure == "insertion"
        assert replayed.rows == direct.rows

    def test_unknown_procedure_rejected(self):
        with pytest.raises(ValueError, match="procedure"):
            run_stability_sweep(TINY, procedure="telepathy")

    def test_invariants_hold_at_every_point(self):
        result = run_stability_sweep(TINY)
        assert len(result.rows) == len(TINY.section3_dimensions) * len(TINY.k_values)
        assert result.all_invariants_hold()
        diameters = result.diameter_series()
        degrees = result.degree_series()
        assert set(diameters) == set(TINY.section3_dimensions)
        assert set(degrees) == set(TINY.section3_dimensions)
        # Larger K never shrinks the overlay, so the tree degree envelope grows.
        for dimension, series in degrees.items():
            assert series[-1][1] >= series[0][1]
        assert "max tree degree" in result.to_table()


class TestAblations:
    def test_baseline_comparison(self):
        rows, table = run_baseline_comparison(TINY, dimension=2)
        by_name = {row.strategy: row for row in rows}
        assert by_name["space-partition"].construction_messages == TINY.peer_count - 1
        assert by_name["space-partition"].duplicate_deliveries == 0
        assert by_name["flooding"].construction_messages > TINY.peer_count - 1
        assert by_name["sequential-unicast"].maximum_tree_degree == TINY.peer_count - 1
        assert "flooding" in table.to_table()

    def test_pick_strategy_ablation(self):
        rows, table = run_pick_strategy_ablation(TINY, dimension=2)
        strategies = {row.strategy for row in rows}
        assert strategies == {"median", "nearest", "farthest", "random"}
        assert all(row.maximum_longest_path >= row.average_longest_path for row in rows)
        assert "median" in table.to_table()

    def test_churn_ablation(self):
        rows, table = run_churn_ablation(TINY, dimension=2, k=2)
        by_name = {row.strategy: row for row in rows}
        assert by_name["stability"].disconnection_events == 0
        assert by_name["stability"].orphaned_peer_events == 0
        # Lifetime-oblivious trees disconnect at least once on this workload.
        others = [row for row in rows if row.strategy != "stability"]
        assert any(row.disconnection_events > 0 for row in others)
        assert "stability" in table.to_table()

    def test_overlay_churn_ablation(self):
        rows, table = run_overlay_churn_ablation(TINY, dimension=2, k=2)
        by_phase = {row.phase: row for row in rows}
        assert set(by_phase) == {"join", "leave"}
        assert by_phase["join"].events == TINY.peer_count - 1
        assert by_phase["leave"].events == TINY.peer_count
        # Per-event reconvergence stays cheap and never splits the overlay.
        for row in rows:
            # The very last departure empties the overlay and costs 0 rounds.
            assert row.total_rounds >= row.events - 1
            assert row.maximum_rounds_per_event <= 10
            assert row.disconnected_events == 0
        assert "overlay-churn" == table.name
        assert "join" in table.to_table()
        # The connectivity verdicts come from the delta-fed union-find
        # tracker; the pure-growth phase may rebuild (reselection evicts
        # edges) but never more than once per event.
        for row in rows:
            assert 0 <= row.connectivity_rebuilds <= row.events
            # Every repair re-unions the surviving forest; the overlay never
            # splits, so none of them needs the fallback scan.
            assert row.connectivity_edges_scanned >= row.connectivity_rebuilds
            assert row.connectivity_full_scans == 0
        assert {"uf rebuilds", "uf edges scanned", "uf full scans"} <= set(table.headers)

    def test_tree_maintenance_ablation(self):
        rows, table = run_tree_maintenance_ablation(TINY, dimension=2, k=2)
        by_phase = {row.phase: row for row in rows}
        assert set(by_phase) == {"join", "leave"}
        assert by_phase["join"].events == TINY.peer_count
        assert by_phase["leave"].events == TINY.peer_count
        for row in rows:
            # Event-driven maintenance stays byte-identical to the snapshot
            # rebuild at every event while never rebuilding after bootstrap.
            assert row.identical
            assert row.full_rebuilds == 0
            assert row.snapshot_rebuilds == row.events
            assert row.reparent_operations > 0
        assert "tree-maintenance" == table.name
        assert "join" in table.to_table()

    def test_message_replay_ablation(self):
        rows, table = run_message_replay_ablation(TINY, dimension=2, replay_cap=30)
        by_mode = {row.mode: row for row in rows}
        assert set(by_mode) == {"full-reselect", "dirty-set"}
        full, dirty = by_mode["full-reselect"], by_mode["dirty-set"]
        # Identical message streams: both modes settle to the same topology.
        assert full.identical_topology and dirty.identical_topology
        assert full.reselect_ticks == dirty.reselect_ticks
        # The full-reselect arm applies the method on every tick; the
        # dirty-set arm resolves most ticks as skips or additive updates.
        assert full.selection_invocations == full.reselect_ticks
        assert dirty.selection_invocations < full.selection_invocations
        assert dirty.skipped_ticks > 0
        assert "message-replay" == table.name
        assert "dirty-set" in table.to_table()

    def test_network_model_ablation(self):
        rows, table = run_network_model_ablation(TINY, dimension=2, replay_cap=16)
        by_arm = {row.arm: row for row in rows}
        assert set(by_arm) == {
            "ideal",
            "loss-5%",
            "uniform+loss-5%",
            "lognormal+loss-10%+bw",
        }
        ideal = by_arm["ideal"]
        # The degenerate arm loses nothing and never retransmits...
        assert ideal.messages_lost == 0
        assert ideal.retransmissions == 0
        # ...and every arm still settles to the analytic fixed point and
        # reaches every peer with the probe (the loss-tolerance story).
        for row in rows:
            assert row.peers == 16
            assert row.equilibrium_match
            assert row.probe_unreached == 0
            assert row.bytes_sent > 0
            assert row.probe_p99_ms >= row.probe_p50_ms > 0
        # Lossy arms actually lose messages and pay retransmissions for the
        # reliable notices.
        assert by_arm["loss-5%"].messages_lost > 0
        assert by_arm["lognormal+loss-10%+bw"].messages_lost > 0
        assert "network-model" == table.name
        assert "ideal" in table.to_table()

    def test_trace_convergence_ablation(self):
        rows, table = run_trace_convergence_ablation(TINY, dimension=2)
        by_arm = {row.arm: row for row in rows}
        assert set(by_arm) == {"per-event", "per-epoch"}
        per_event, per_epoch = by_arm["per-event"], by_arm["per-epoch"]
        # Same trace, same epochs and events -- only the cadence differs.
        assert per_event.events == per_epoch.events
        assert per_event.epochs == per_epoch.epochs
        # Both arms land on the identical overlay fixed point and
        # byte-identical maintained stability tree...
        assert per_event.identical and per_epoch.identical
        # ...while the batched arm converges once per epoch instead of once
        # per event, for a fraction of the engine rounds.
        assert per_epoch.convergences == per_epoch.epochs
        assert per_event.convergences == per_event.events
        assert per_epoch.engine_rounds < per_event.engine_rounds
        assert "trace-convergence" == table.name
        assert "per-epoch" in table.to_table()

    def test_trace_scenarios(self):
        rows, table = run_trace_scenarios(TINY, dimension=2)
        by_scenario = {row.scenario: row for row in rows}
        assert set(by_scenario) == {
            "poisson",
            "flash-crowd",
            "mass-departure",
            "diurnal",
        }
        for row in rows:
            assert row.events > 0
            assert row.epochs > 0
            assert row.engine_rounds >= 1
            # Every scenario keeps the overlay connected at every epoch
            # sample (the batched path converges before sampling).
            assert row.always_connected
            assert row.connectivity_edges_scanned >= row.connectivity_rebuilds > 0
            assert row.connectivity_full_scans == 0
        assert {"uf rebuilds", "uf edges scanned", "uf full scans"} <= set(table.headers)
        # The flash crowd doubles the base population in one epoch.
        assert by_scenario["flash-crowd"].peak_peers == 2 * max(
            2, TINY.peer_count // 2
        )
        assert "trace-scenarios" == table.name
        assert "diurnal" in table.to_table()

    def test_trace_runner_applies_move_events(self):
        from repro.overlay.network import OverlayNetwork
        from repro.overlay.peer import make_peer
        from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
        from repro.workloads.churn import ChurnEvent
        from repro.workloads.traces import ChurnTrace, EventBatch

        peers = [
            make_peer(index, (float(index * 2), float(index * 2 + 1)), lifetime=10.0 + index)
            for index in range(6)
        ]
        moved = (200.0, 200.0)
        trace = ChurnTrace(
            batches=(
                EventBatch(
                    time=0.0,
                    events=tuple(
                        ChurnEvent(time=0.0, peer_id=peer.peer_id, kind="join")
                        for peer in peers
                    ),
                ),
                EventBatch(
                    time=1.0,
                    events=(
                        ChurnEvent(time=1.0, peer_id=2, kind="move", coordinates=moved),
                    ),
                ),
            )
        )
        runner = TraceRunner(peers, EmptyRectangleSelection, bootstrap_seed=3)
        result = runner.run(trace)
        assert result.samples[0].moves == 0
        assert result.samples[1].moves == 1
        assert result.samples[1].events == 1
        # The replayed fixed point matches an overlay converged after an
        # explicit move_peer of the same peer.
        from dataclasses import replace

        reference = OverlayNetwork(EmptyRectangleSelection())
        reference.apply_batch(
            [
                replace(peer, coordinates=moved) if peer.peer_id == 2 else peer
                for peer in peers
            ]
        )
        assert result.final_neighbours == reference.directed_neighbour_map()
        # Both arms replay moves identically.
        per_event = runner.run(trace, per_event=True)
        assert per_event.final_neighbours == result.final_neighbours
