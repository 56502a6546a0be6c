"""Message-level replay at churn scale on the dirty-set reselect tick.

The protocol-faithful simulator used to stall at a few dozen peers because
every peer reapplied its neighbour-selection method on every reselect tick.
This benchmark replays a seeded join/leave churn schedule at ``N >= 200``
through :func:`repro.simulation.runner.run_gossip_overlay` and holds it to

* the oracle: every connected component of the settled alive overlay is the
  full-knowledge equilibrium of its members (``build_equilibrium``; gossip
  under churn may legitimately split the overlay -- at ``N = 200`` a joiner
  whose only contact departed stays in a component of two);
* an absolute budget of full-candidate-set selections (measured 611; the
  rest of the ticks resolve as additive updates or skips) and of wall-clock
  (measured 58-73 s on a 2-vCPU box).

Marked ``slow``: the replay is most of a minute, so the CI tier-1 job
deselects it (``-m "not slow"``).
"""

from __future__ import annotations

import time

import networkx as nx
import pytest

from conftest import persist_bench_record, print_report

from repro.metrics.reporting import format_table
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.simulation.protocol import GossipConfig
from repro.simulation.runner import run_gossip_overlay
from repro.workloads.churn import interleaved_join_leave_schedule
from repro.workloads.peers import generate_peers

_FULL_SELECTION_BUDGET = 1_500
_WALL_BUDGET_SECONDS = 180.0


@pytest.mark.slow
def test_message_replay_settles_to_the_equilibrium_within_budget(scale):
    count = 300 if scale.name == "paper" else 200
    peers = generate_peers(count, 2, seed=scale.seed)
    schedule = interleaved_join_leave_schedule(
        count, join_interval=1.0, leave_fraction=0.15, holdoff=8.0, seed=scale.seed
    )
    config = GossipConfig(
        broadcast_radius=2, gossip_period=2.0, tmax=7.0, reselect_period=1.0
    )

    started = time.perf_counter()
    run = run_gossip_overlay(
        peers, EmptyRectangleSelection(), config=config, churn=schedule,
        settle_time=30.0, seed=9,
    )
    wall_seconds = time.perf_counter() - started

    snapshot = run.alive_snapshot()
    components = sorted(nx.connected_components(snapshot.to_networkx()), key=len)
    for members in components:
        equilibrium = OverlayNetwork.build_equilibrium(
            [snapshot.peers[peer_id] for peer_id in members], EmptyRectangleSelection()
        )
        assert {
            peer_id: snapshot.selected[peer_id] for peer_id in members
        } == equilibrium.directed_neighbour_map()

    full_selections = run.total_selection_invocations()
    print_report(
        f"Message-level replay on the dirty-set tick [{scale.name}]",
        format_table(
            ["peers", "ticks", "full selections", "additive", "skipped", "wall [s]"],
            [[
                count,
                run.total_reselect_ticks(),
                full_selections,
                run.total_additive_updates(),
                run.total_reselect_skips(),
                f"{wall_seconds:.1f}",
            ]],
        ),
        f"alive components (sizes): {[len(members) for members in components]}, "
        "each equal to the equilibrium of its members",
    )
    assert full_selections <= _FULL_SELECTION_BUDGET
    assert wall_seconds <= _WALL_BUDGET_SECONDS
    persist_bench_record(
        "message_replay_dirty_set",
        peer_count=count,
        wall_seconds=wall_seconds,
        wall_budget_seconds=_WALL_BUDGET_SECONDS,
        full_selections=full_selections,
        full_selection_budget=_FULL_SELECTION_BUDGET,
        alive_components=[len(members) for members in components],
    )
