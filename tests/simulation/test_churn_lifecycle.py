"""Churn lifecycle and dirty-set reselection of the message-level simulator.

Two families of guarantees:

* **Leave protocol** -- a departing peer closes its links explicitly, so no
  alive peer keeps routing traffic to it: link sets, announcements, known
  addresses and duplicate-suppression keys all drop the departed id, dropped
  message counts stop growing once the in-flight tail drains, and a
  post-churn construction session reaches every alive peer.
* **Dirty-set settling** -- the dirty-set reselect tick elides provably
  unchanged recomputations only, so a run settles to the full-knowledge
  equilibrium of the peers still alive (``OverlayNetwork.build_equilibrium``),
  under steady joins and under join/leave churn alike, while skipping the
  selection method on unchanged ticks.
"""

import pytest

from repro.overlay.gossip import ExistenceAnnouncement
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.simulation.protocol import ANNOUNCE, GossipConfig
from repro.simulation.runner import run_gossip_overlay, run_multicast_over_gossip_overlay
from repro.workloads.churn import ChurnEvent, interleaved_join_leave_schedule
from repro.workloads.peers import generate_peers, generate_peers_with_lifetimes


class PathDependentWrapper(EmptyRectangleSelection):
    """The same selection rule, declared path *dependent*.

    Forces the dirty-set tick onto full recomputation for every non-empty
    delta, exercising the conservative fallback while keeping the actual
    selections comparable with the path-independent runs.
    """

    path_independent = False


def _settled_overlay(count=10, seed=3, settle_time=25.0, **kwargs):
    peers = generate_peers(count, 2, seed=seed)
    return peers, run_gossip_overlay(
        peers, EmptyRectangleSelection(), settle_time=settle_time, seed=seed, **kwargs
    )


class TestLeaveProtocol:
    def test_leave_unlinks_the_departed_peer_everywhere(self):
        peers, simulated = _settled_overlay()
        victim = peers[4].peer_id
        simulated.processes[victim].leave()
        # One latency tick delivers the link-close notices.
        simulated.engine.run(until=simulated.engine.now + 1.0)

        assert simulated.processes[victim].link_targets == set()
        for peer_id, process in simulated.processes.items():
            if peer_id == victim:
                continue
            assert victim not in process.link_targets
            assert process.preferred_neighbour != victim

    def test_stale_in_flight_announcements_cannot_resurrect_a_departed_peer(self):
        peers, simulated = _settled_overlay()
        victim = peers[4].peer_id
        victim_info = simulated.processes[victim].info
        observers = [
            simulated.processes[peer_id]
            for peer_id in sorted(simulated.processes[victim].link_targets)
        ]
        assert observers, "a settled peer should have link targets"
        stale = ExistenceAnnouncement(
            origin=victim,
            coordinates=victim_info.coordinates,
            address=victim_info.address,
            issued_at=simulated.engine.now,
            remaining_hops=2,
        )
        simulated.processes[victim].leave()
        simulated.engine.run(until=simulated.engine.now + 0.5)
        # A copy of the victim's last announcement, forwarded by a third
        # peer, arrives after the departure notice was processed.
        for observer in observers:
            simulated.network.send(victim, observer.peer_id, ANNOUNCE, stale)
        simulated.engine.run(until=simulated.engine.now + 3.0)
        for observer in observers:
            assert victim not in observer.link_targets
            assert victim not in observer.neighbours
            assert observer.last_candidates is not None
            assert victim not in observer.last_candidates

    def test_leave_is_idempotent(self):
        peers, simulated = _settled_overlay()
        victim = peers[2].peer_id
        simulated.processes[victim].leave()
        sent_after_first = simulated.network.stats.messages_sent
        simulated.processes[victim].leave()
        assert simulated.network.stats.messages_sent == sent_after_first

    def test_dropped_message_counts_stop_growing(self):
        peers, simulated = _settled_overlay()
        victim = peers[1].peer_id
        simulated.processes[victim].leave()
        # Drain the in-flight tail (messages already addressed to the victim
        # are dropped; the link-close notices stop new ones at the source).
        simulated.engine.run(until=simulated.engine.now + 3.0)
        dropped = simulated.network.stats.messages_dropped
        simulated.engine.run(until=simulated.engine.now + 15.0)
        assert simulated.network.stats.messages_dropped == dropped

    def test_post_churn_construction_reaches_all_alive_peers(self):
        peers, simulated = _settled_overlay(count=14, seed=11, settle_time=30.0)
        for victim in (peers[3].peer_id, peers[8].peer_id):
            simulated.processes[victim].leave()
        simulated.engine.run(until=simulated.engine.now + 10.0)

        alive = {p for p, proc in simulated.processes.items() if proc.is_alive}
        outcome = run_multicast_over_gossip_overlay(simulated, root=peers[0].peer_id)
        assert outcome.result.unreached_peers == set()
        assert set(outcome.result.tree.nodes()) == alive

    def test_seen_announcement_keys_are_pruned_with_tmax(self):
        config = GossipConfig(gossip_period=1.0, tmax=5.0)
        peers, simulated = _settled_overlay(count=8, settle_time=40.0, config=config)
        # Pruning runs amortised (once per Tmax), so up to two windows of
        # keys may be retained -- one key per origin per gossip period each
        # (plus in-flight slack).  Without pruning the count would be one
        # key per origin per gossip tick of the whole run (~40 per origin).
        per_origin_bound = 2 * (config.tmax / config.gossip_period) + 3
        for process in simulated.processes.values():
            assert process.seen_announcement_count <= len(peers) * per_origin_bound


class TestChurnSchedule:
    def test_unknown_peer_id_rejected(self):
        peers = generate_peers(4, 2, seed=0)
        events = [ChurnEvent(time=0.0, peer_id=99, kind="join")]
        with pytest.raises(ValueError):
            run_gossip_overlay(peers, EmptyRectangleSelection(), churn=events)

    def test_duplicate_joins_rejected(self):
        peers = generate_peers(4, 2, seed=0)
        events = [
            ChurnEvent(time=0.0, peer_id=peers[0].peer_id, kind="join"),
            ChurnEvent(time=2.0, peer_id=peers[0].peer_id, kind="join"),
        ]
        with pytest.raises(ValueError, match="duplicate joins"):
            run_gossip_overlay(peers, EmptyRectangleSelection(), churn=events)

    def test_rejoin_starts_from_a_fresh_joiner_state(self):
        peers, simulated = _settled_overlay()
        victim = simulated.processes[peers[4].peer_id]
        victim.leave()
        simulated.engine.run(until=simulated.engine.now + 1.0)
        victim.join([peers[0]])
        # Pre-leave knowledge is gone: only the bootstrap contact is known.
        assert victim.known_peer_count == 1
        assert victim.neighbours == {peers[0].peer_id}
        simulated.engine.run(until=simulated.engine.now + 20.0)
        # The rejoined peer is woven back into the overlay.
        assert victim.is_alive
        assert victim.neighbours
        assert any(
            victim.peer_id in process.link_targets
            for peer_id, process in simulated.processes.items()
            if peer_id != victim.peer_id
        )

    def test_immediate_rejoin_does_not_double_the_tick_chains(self):
        peers, simulated = _settled_overlay()
        victim = simulated.processes[peers[4].peer_id]
        victim.leave()
        # Re-join at the same engine instant: the previous life's tick
        # callbacks are still queued and must die off instead of running
        # alongside the new chains.
        victim.join([peers[0]])
        before = victim.reselect_ticks
        simulated.engine.run(until=simulated.engine.now + 10.0)
        ticks = victim.reselect_ticks - before
        # One chain ticks once per reselect_period (1s): ~10 ticks, not ~20.
        assert 9 <= ticks <= 11

    def test_leaves_without_a_join_are_ignored(self):
        peers = generate_peers(4, 2, seed=1)
        events = [
            ChurnEvent(time=0.0, peer_id=peers[0].peer_id, kind="join"),
            ChurnEvent(time=1.0, peer_id=peers[1].peer_id, kind="join"),
            ChurnEvent(time=2.0, peer_id=peers[2].peer_id, kind="leave"),
        ]
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), churn=events, settle_time=5.0
        )
        assert set(simulated.processes) == {peers[0].peer_id, peers[1].peer_id}
        assert all(p.is_alive for p in simulated.processes.values())

    def test_alive_population_follows_the_schedule(self):
        count = 12
        peers = generate_peers(count, 2, seed=5)
        schedule = interleaved_join_leave_schedule(
            count, join_interval=1.5, leave_fraction=0.25, holdoff=4.0, seed=5
        )
        leavers = {e.peer_id for e in schedule if e.kind == "leave"}
        simulated = run_gossip_overlay(
            peers, EmptyRectangleSelection(), churn=schedule, settle_time=15.0, seed=2
        )
        alive = {p for p, proc in simulated.processes.items() if proc.is_alive}
        assert alive == {p.peer_id for p in peers} - leavers
        assert simulated.alive_snapshot().peer_count == count - len(leavers)


def _settled_run(peers, selection_factory, *, alive_count, churn=None):
    """One run (settle 35 s, seed 7) whose alive overlay must be the
    full-knowledge equilibrium of its ``alive_count`` alive peers."""
    run = run_gossip_overlay(
        peers, selection_factory(), churn=churn, settle_time=35.0, seed=7
    )
    alive = [process.info for process in run.processes.values() if process.is_alive]
    assert len(alive) == alive_count
    equilibrium = OverlayNetwork.build_equilibrium(alive, selection_factory())
    assert {
        info.peer_id: frozenset(run.processes[info.peer_id].neighbours) for info in alive
    } == equilibrium.directed_neighbour_map()
    assert run.total_reselect_skips() > 0
    return run


class TestDirtySetSettling:
    def test_steady_joins_settle_to_the_equilibrium(self):
        peers = generate_peers(18, 2, seed=23)
        _settled_run(peers, EmptyRectangleSelection, alive_count=18)

    def test_join_leave_churn_settles_to_the_equilibrium_of_the_survivors(self):
        count = 20
        peers = generate_peers(count, 2, seed=29)
        schedule = interleaved_join_leave_schedule(
            count, join_interval=2.0, leave_fraction=0.25, holdoff=6.0, seed=29
        )
        _settled_run(peers, EmptyRectangleSelection, alive_count=16, churn=schedule)

    def test_orthogonal_churn_settles_to_the_equilibrium(self):
        count = 16
        peers = generate_peers_with_lifetimes(count, 3, seed=31)
        schedule = interleaved_join_leave_schedule(
            count, join_interval=2.0, leave_fraction=0.2, holdoff=6.0, seed=31
        )
        _settled_run(
            peers, lambda: OrthogonalHyperplanesSelection(k=2), alive_count=13, churn=schedule
        )

    def test_path_dependent_fallback_still_settles_to_the_equilibrium(self):
        count = 14
        peers = generate_peers(count, 2, seed=37)
        schedule = interleaved_join_leave_schedule(
            count, join_interval=2.0, leave_fraction=0.2, holdoff=6.0, seed=37
        )
        run = _settled_run(peers, PathDependentWrapper, alive_count=12, churn=schedule)
        # Without path independence every non-empty delta recomputes in full;
        # only genuinely unchanged ticks are skipped -- and they still are.
        assert run.total_additive_updates() == 0

    def test_dirty_invariant_bookkeeping(self):
        peers, simulated = _settled_overlay(count=8, seed=41, settle_time=30.0)
        for process in simulated.processes.values():
            # Settled: the last installed candidate set is exactly the
            # current knowledge, and the selection came from it.
            assert process.last_candidates is not None
            assert process.neighbours <= process.last_candidates
        victim = peers[5].peer_id
        selectors = [
            process
            for peer_id, process in simulated.processes.items()
            if victim in process.neighbours
        ]
        assert selectors, "the settled overlay should have selectors of the victim"
        simulated.processes[victim].leave()
        simulated.engine.run(until=simulated.engine.now + 0.02)
        for process in selectors:
            # The departure mutated their installed selection, so the
            # invariant was reset; a selector either has not ticked yet
            # (history still cleared) or has already recomputed in full
            # against a candidate set without the victim.
            assert (
                process.last_candidates is None
                or victim not in process.last_candidates
            )
            assert victim not in process.neighbours


class TestLiveTreeMonitor:
    """The Section 3 tree maintained live from protocol events."""

    def test_monitor_matches_settled_preferred_links_under_churn(self):
        count = 24
        peers = generate_peers_with_lifetimes(count, 3, seed=43)
        schedule = interleaved_join_leave_schedule(
            count, join_interval=2.0, leave_fraction=0.25, holdoff=6.0, seed=43
        )
        result = run_gossip_overlay(
            peers,
            OrthogonalHyperplanesSelection(k=2),
            churn=schedule,
            settle_time=40.0,
            seed=43,
            maintain_tree=True,
        )
        monitor = result.tree_monitor
        assert monitor is not None
        alive = {pid for pid, process in result.processes.items() if process.is_alive}
        forest = monitor.forest()
        # The maintained forest covers exactly the alive peers and agrees
        # with every process's own preferred link at settle time.
        assert set(forest.preferred) == alive
        assert dict(forest.preferred) == {
            pid: result.processes[pid].preferred_neighbour for pid in alive
        }
        assert forest.parents_outlive_children()
        # One health sample per membership event, none of them rebuilt from
        # a snapshot (the engine only ever applied deltas).
        departures = sum(1 for event in schedule if event.kind == "leave")
        assert monitor.membership_events == count + departures
        assert len(monitor.health_series) == monitor.membership_events
        assert monitor.health_series[-1].size == len(alive)
        if forest.is_single_tree():
            metrics = monitor.engine.metrics()
            assert metrics.size == len(alive)

    def test_monitor_absent_by_default(self):
        _, result = _settled_overlay(count=6, seed=5, settle_time=15.0)
        assert result.tree_monitor is None
