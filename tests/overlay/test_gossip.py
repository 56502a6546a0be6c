"""Unit tests for repro.overlay.gossip."""

import random

import pytest

from repro.geometry.point import Point
from repro.overlay.gossip import (
    AnnouncementStore,
    ExistenceAnnouncement,
    knowledge_sets,
    peers_within_hops,
)
from repro.overlay.network import OverlayNetwork
from repro.overlay.peer import NetworkAddress
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers


def make_announcement(origin=1, issued_at=0.0, hops=2):
    return ExistenceAnnouncement(
        origin=origin,
        coordinates=Point((1.0, 2.0)),
        address=NetworkAddress("10.0.0.1", 7001),
        issued_at=issued_at,
        remaining_hops=hops,
    )


class TestExistenceAnnouncement:
    def test_forwarded_decrements_hops(self):
        announcement = make_announcement(hops=2)
        forwarded = announcement.forwarded()
        assert forwarded.remaining_hops == 1
        assert forwarded.origin == announcement.origin
        assert forwarded.issued_at == announcement.issued_at

    def test_forwarding_without_budget_fails(self):
        with pytest.raises(ValueError):
            make_announcement(hops=0).forwarded()

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            make_announcement(hops=-1)


class TestAnnouncementStore:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            AnnouncementStore(0.0)

    def test_latest_announcement_wins(self):
        store = AnnouncementStore(window=10.0)
        store.record(make_announcement(origin=1, issued_at=1.0))
        store.record(make_announcement(origin=1, issued_at=5.0))
        known = store.known_peers(now=6.0)
        assert known[1].issued_at == 5.0
        assert len(store) == 1

    def test_old_announcements_expire(self):
        store = AnnouncementStore(window=5.0)
        store.record(make_announcement(origin=1, issued_at=0.0))
        store.record(make_announcement(origin=2, issued_at=8.0))
        known = store.known_peers(now=10.0)
        assert set(known) == {2}

    def test_prune_removes_expired_entries(self):
        store = AnnouncementStore(window=5.0)
        store.record(make_announcement(origin=1, issued_at=0.0))
        store.record(make_announcement(origin=2, issued_at=9.0))
        store.prune(now=10.0)
        assert len(store) == 1

    def test_forget_removes_origin(self):
        store = AnnouncementStore(window=5.0)
        store.record(make_announcement(origin=3, issued_at=1.0))
        store.forget(3)
        assert store.known_peers(now=2.0) == {}


class TestBoundedHopReachability:
    @pytest.fixture()
    def line_graph(self):
        # 0 - 1 - 2 - 3 - 4
        return {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}

    def test_radius_one_is_direct_neighbours(self, line_graph):
        assert peers_within_hops(line_graph, 2, 1) == {1, 3}

    def test_radius_two(self, line_graph):
        assert peers_within_hops(line_graph, 0, 2) == {1, 2}

    def test_large_radius_reaches_everyone(self, line_graph):
        assert peers_within_hops(line_graph, 0, 10) == {1, 2, 3, 4}

    def test_source_is_excluded(self, line_graph):
        assert 2 not in peers_within_hops(line_graph, 2, 3)

    def test_unknown_source_raises(self, line_graph):
        with pytest.raises(KeyError):
            peers_within_hops(line_graph, 99, 2)

    def test_negative_radius_rejected(self, line_graph):
        with pytest.raises(ValueError):
            peers_within_hops(line_graph, 0, -1)

    def test_knowledge_sets_cover_every_peer(self, line_graph):
        sets = knowledge_sets(line_graph, 2)
        assert set(sets) == set(line_graph)
        assert sets[0] == {1, 2}
        assert sets[2] == {0, 1, 3, 4}

    def test_radius_zero_gives_empty_sets(self, line_graph):
        sets = knowledge_sets(line_graph, 0)
        assert all(not value for value in sets.values())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(("count", "dimension"), [(100, 2), (50, 3)])
def test_a_gossip_radius_of_two_reaches_the_full_knowledge_overlay(count, dimension, seed):
    """The paper's "BR >= 2 suffices": peers inserted one by one, each
    knowing only the peers within two overlay hops, select the same
    neighbours as under full knowledge."""
    peers = generate_peers(count, dimension, seed=seed)
    gossiped = OverlayNetwork.build_incremental(
        peers, EmptyRectangleSelection(), gossip_radius=2, rng=random.Random(seed)
    )
    full = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
    assert gossiped.directed_neighbour_map() == full.directed_neighbour_map()
