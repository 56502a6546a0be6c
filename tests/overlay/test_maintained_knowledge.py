"""Bounded-radius knowledge sets are maintained state: held to the BFS oracle.

Under a gossip radius the incremental engine never re-derives ``I(P)``: it
keeps every set exact from the undirected edge flips the overlay reports
(:class:`repro.overlay.gossip.MaintainedKnowledgeSets`).  These tests drive
hypothesis schedules of join / leave / move / ``apply_batch`` through an
incremental overlay and its full-sweep twin at radius 1, 2 and 3 and check,
after every convergence, that

* the maintained sets equal ``knowledge_sets(overlay.adjacency(), BR)`` --
  plain BFS per peer, the oracle -- and the maintained adjacency equals
  ``overlay.adjacency()``;
* no support, adjacency, pending or history entry is keyed by a departed id;
* the topology is in lockstep with ``incremental=False``.

The schedules include the shapes the bookkeeping is most likely to get
wrong: the first peer's empty bootstrap, multi-peer bootstraps, a leave and
rejoin of one id inside one batch, and an engine created lazily on an
already-populated overlay.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.gossip import MaintainedKnowledgeSets, knowledge_sets
from repro.overlay.network import BatchJoin, BatchLeave, BatchMove, OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection

_SELECTIONS = st.sampled_from(
    [
        EmptyRectangleSelection,
        lambda: OrthogonalHyperplanesSelection(k=1),
        lambda: KClosestSelection(k=2),
    ]
)


@st.composite
def _coordinate_pools(draw, min_size=4, max_size=12, spare=8):
    """Pairwise-distinct per-axis coordinates: a population plus move targets."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    dimension = draw(st.integers(min_value=2, max_value=3))
    axes = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=9999),
                min_size=count + spare,
                max_size=count + spare,
                unique=True,
            )
        )
        for _ in range(dimension)
    ]
    points = [tuple(float(axis[index]) / 8 for axis in axes) for index in range(count + spare)]
    return [make_peer(index, points[index]) for index in range(count)], points[count:]


def _assert_maintained_state_is_exact(overlay):
    engine = overlay._engine  # noqa: SLF001 - the property is about internal state
    assert engine is not None
    view = engine._view  # noqa: SLF001
    knowledge = view._knowledge  # noqa: SLF001
    alive = set(overlay.peer_ids)
    adjacency = overlay.adjacency()
    oracle = knowledge_sets(adjacency, overlay.gossip_radius)
    assert {peer_id: set(knowledge.known(peer_id)) for peer_id in alive} == oracle
    levels = knowledge._levels  # noqa: SLF001 - level 0 is the adjacency
    assert {peer_id: set(levels[0][peer_id]) for peer_id in alive} == adjacency
    for level in levels:
        assert set(level) == alive
        for peer_id, support in level.items():
            assert set(support) <= alive - {peer_id}
            assert all(count > 0 for count in support.values())
    # A finished convergence drained the window and installed nothing after.
    assert not knowledge._pending  # noqa: SLF001
    assert set(view._last_candidates) == alive  # noqa: SLF001
    assert not view.dirty_ids()


def _bootstrap(rng, alive):
    """Empty for the first peer, otherwise one to three distinct contacts."""
    if not alive:
        return frozenset()
    return frozenset(rng.sample(sorted(alive), min(len(alive), rng.randint(1, 3))))


@settings(max_examples=60, deadline=None)
@given(
    pool=_coordinate_pools(),
    selection_factory=_SELECTIONS,
    gossip_radius=st.sampled_from([1, 2, 3]),
    script_seed=st.integers(min_value=0, max_value=9999),
    lazy_joins=st.integers(min_value=0, max_value=4),
)
def test_maintained_knowledge_sets_equal_the_bfs_oracle_after_every_converge(
    pool, selection_factory, gossip_radius, script_seed, lazy_joins
):
    peers, move_targets = pool
    by_id = {peer.peer_id: peer for peer in peers}
    rng = random.Random(script_seed)
    fast = OverlayNetwork(selection_factory(), gossip_radius=gossip_radius)
    slow = OverlayNetwork(selection_factory(), gossip_radius=gossip_radius)
    alive, pending, departed = [], list(peers), []

    def join_event():
        if departed and (not pending or rng.random() < 0.4):
            peer = by_id[departed.pop(rng.randrange(len(departed)))]
        else:
            peer = pending.pop()
        event = BatchJoin(peer, bootstrap=_bootstrap(rng, alive))
        alive.append(peer.peer_id)
        return event

    def leave_event():
        victim = alive.pop(rng.randrange(len(alive)))
        departed.append(victim)
        return BatchLeave(victim)

    def move_event():
        mover = rng.choice(alive)
        by_id[mover] = make_peer(mover, move_targets.pop())
        return BatchMove(mover, by_id[mover].coordinates)

    steps = 0
    while pending or (alive and steps < 3 * len(peers) and rng.random() < 0.6):
        steps += 1
        # The first `lazy_joins` steps converge by full sweeps on both
        # overlays, so the engine is created later, on a populated overlay.
        incremental = steps > lazy_joins
        roll = rng.random()
        if roll < 0.35 and len(alive) >= 2:
            # One epoch: a leave and a rejoin of the same id, around whatever
            # else the batch holds.
            batch = [leave_event()]
            rejoined = by_id[departed.pop()]
            if alive and move_targets and rng.random() < 0.5:
                batch.append(move_event())
            if pending and rng.random() < 0.5:
                batch.append(join_event())
            batch.append(BatchJoin(rejoined, bootstrap=_bootstrap(rng, alive)))
            alive.append(rejoined.peer_id)
            fast.apply_batch(batch, incremental=incremental)
            slow.apply_batch(batch, incremental=False)
        elif roll < 0.5 and len(alive) >= 2:
            victim = leave_event().peer_id
            fast.remove_and_converge(victim, incremental=incremental)
            slow.remove_and_converge(victim, incremental=False)
        elif roll < 0.65 and alive and move_targets:
            move = move_event()
            for overlay, mode in ((fast, incremental), (slow, False)):
                overlay.move_peer(move.peer_id, move.coordinates)
                overlay.converge(incremental=mode)
        elif pending or departed:
            join = join_event()
            for overlay, mode in ((fast, incremental), (slow, False)):
                overlay.insert_and_converge(
                    join.peer, bootstrap=join.bootstrap, incremental=mode
                )
        else:
            continue
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        if incremental:
            _assert_maintained_state_is_exact(fast)


class TestMaintainedKnowledgeSets:
    """The support-count structure on its own, on a line 0 - 1 - 2 - 3 - 4."""

    @staticmethod
    def _line(radius):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        return adjacency, MaintainedKnowledgeSets.from_adjacency(adjacency, radius)

    def test_adopting_a_topology_matches_bfs_and_reports_nothing_changed(self):
        for radius in (1, 2, 3, 4):
            adjacency, knowledge = self._line(radius)
            oracle = knowledge_sets(adjacency, radius)
            assert {p: set(knowledge.known(p)) for p in adjacency} == oracle
            assert knowledge.drain_changed() == []

    def test_a_flip_dirties_exactly_the_peers_whose_set_moved(self):
        adjacency, knowledge = self._line(2)
        knowledge.flip(0, 4, True)  # close the ring
        adjacency[0].add(4)
        adjacency[4].add(0)
        before = knowledge_sets({0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}, 2)
        after = knowledge_sets(adjacency, 2)
        assert {p: set(knowledge.known(p)) for p in adjacency} == after
        assert sorted(knowledge.drain_changed()) == sorted(
            p for p in adjacency if before[p] != after[p]
        )
        assert knowledge.drain_changed() == []

    def test_a_gain_and_a_loss_of_one_id_inside_a_window_cancel(self):
        _, knowledge = self._line(2)
        knowledge.flip(0, 4, True)
        knowledge.flip(0, 4, False)
        assert knowledge.drain_changed() == []

    def test_a_departure_leaves_no_entry_keyed_by_the_departed_id(self):
        _, knowledge = self._line(3)
        knowledge.remove_peer(2)
        remaining = {0: {1}, 1: {0}, 3: {4}, 4: {3}}
        assert {p: set(knowledge.known(p)) for p in remaining} == knowledge_sets(remaining, 3)
        for level in knowledge._levels:  # noqa: SLF001
            assert set(level) == set(remaining)
            assert all(2 not in support for support in level.values())
        assert 2 not in knowledge.drain_changed()
