"""Bounded-radius knowledge sets are maintained state: held to the BFS oracle.

Under a gossip radius the incremental engine never re-derives ``I(P)``: it
keeps every set exact from the undirected edge flips the overlay reports
(:class:`repro.overlay.gossip.MaintainedKnowledgeSets`).  These tests drive
hypothesis schedules of join / leave / move / ``apply_batch`` through an
incremental overlay and its full-sweep twin at radius 1, 2 and 3 and check,
after every convergence, that

* the maintained sets equal ``knowledge_sets(overlay.adjacency(), BR)`` --
  plain BFS per peer, the oracle -- every count level equals the counts
  derived from the BFS sets one level down, and the overlay's links are
  the literal union of selected and selectors;
* no support, adjacency, pending or history entry is keyed by a departed id,
  and the view's history is one flag per alive peer, never an id collection;
* every move reached exactly the peers whose oracle set held the mover at the
  previous converge, as a loss plus a gain of the mover;
* the topology is in lockstep with the synchronous-sweep oracle
  (``sweep_apply_batch`` in ``tests/sweep_oracle.py``).

The net-delta window the engine reads its deltas from is held to the same
oracle on its own (``test_the_window_is_the_difference_of_two_bfs_oracles``):
no engine in the loop, so a window that is wrong in a way the engine happens
to tolerate still fails.

The schedules include the shapes the bookkeeping is most likely to get
wrong: the first peer's empty bootstrap, multi-peer bootstraps, a leave and
rejoin of one id inside one batch, and an engine created lazily on an
already-populated overlay.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_oracle import literal_links, sweep_apply_batch, sweep_converge

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
    assert {peer_id: set(overlay.links(peer_id)) for peer_id in alive} == literal_links(overlay)
    oracle = knowledge_sets(adjacency, overlay.gossip_radius)
    assert {peer_id: set(knowledge.known(peer_id)) for peer_id in alive} == oracle
    assert knowledge._tracked == alive  # noqa: SLF001
    # Level 0 is the overlay's links; level k counts, per peer, the links q
    # whose M_k(q) (q plus its BFS k-hop set) holds each other id.
    levels = knowledge._levels  # noqa: SLF001
    for hops, level in enumerate(levels, start=1):
        within = knowledge_sets(adjacency, hops)
        expected = {peer_id: {} for peer_id in alive}
        for peer_id, support in expected.items():
            for neighbour in adjacency[peer_id]:
                for member in ({neighbour} | within[neighbour]) - {peer_id}:
                    support[member] = support.get(member, 0) + 1
        assert level == expected
    for level in levels:
        assert set(level) == alive
        for peer_id, support in level.items():
            assert set(support) <= alive - {peer_id}
            assert all(count > 0 for count in support.values())
    for peer_id in alive:
        # Why the engine may read known(P) without adding the selection to it.
        assert overlay.selected_neighbours(peer_id) <= knowledge.known(peer_id)
    # A finished convergence drained the window and installed nothing after.
    assert not knowledge._pending  # noqa: SLF001
    assert not view._window  # noqa: SLF001
    assert not view._moved  # noqa: SLF001
    # History is a flag per alive peer: the view stores no candidate ids.
    assert view._history == alive  # noqa: SLF001
    assert not hasattr(view, "_last_candidates")
    assert not view.dirty_ids()
    return oracle


def _expect_moves_to_reach_the_previous_knowers(overlay, oracle):
    """From here to the next converge, every ``note_move`` must drop the
    history flag of the mover alone, and record the mover -- to be met as
    lost + gained -- for exactly the peers with history whose BFS set *at the
    previous converge* (``oracle``) held it, whatever the batch did to the
    live sets in between; each of them is scheduled."""
    view = overlay._engine._view  # noqa: SLF001
    note_move = type(view).note_move.__get__(view)

    def reached(mover):
        return {peer_id for peer_id, movers in view._moved.items() if mover in movers}  # noqa: SLF001

    def checked(mover):
        before, earlier = set(view._history), reached(mover)  # noqa: SLF001
        note_move(mover)
        holders = {peer_id for peer_id, known in oracle.items() if mover in known}
        assert before - view._history == before & {mover}  # noqa: SLF001
        assert reached(mover) == earlier | (holders & view._history)  # noqa: SLF001
        assert reached(mover) <= view._dirty  # noqa: SLF001

    view.note_move = checked


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
        # The first `lazy_joins` steps converge by sweeps on both overlays,
        # so the engine is created later, on a populated overlay.
        incremental = steps > lazy_joins
        roll = rng.random()
        if roll < 0.35 and len(alive) >= 2:
            # One epoch: a leave and a rejoin of the same id, around whatever
            # else the batch holds.
            batch = [leave_event()]
            rejoined = by_id[departed.pop()]
            if move_targets and rng.random() < 0.3:
                # Back somewhere else: its knowers see no id come or go.
                rejoined = by_id[rejoined.peer_id] = make_peer(
                    rejoined.peer_id, move_targets.pop()
                )
            if alive and move_targets and rng.random() < 0.5:
                batch.append(move_event())
            if pending and rng.random() < 0.5:
                batch.append(join_event())
            batch.append(BatchJoin(rejoined, bootstrap=_bootstrap(rng, alive)))
            alive.append(rejoined.peer_id)
            if move_targets and rng.random() < 0.3:
                # ... and moves at once: its knowers of a window ago are only
                # on record because its window entry outlived the departure.
                by_id[rejoined.peer_id] = make_peer(rejoined.peer_id, move_targets.pop())
                batch.append(BatchMove(rejoined.peer_id, by_id[rejoined.peer_id].coordinates))
        elif roll < 0.5 and len(alive) >= 2:
            batch = [leave_event()]
        elif roll < 0.65 and alive and move_targets:
            batch = [move_event()]
        elif pending or departed:
            batch = [join_event()]
        else:
            continue
        if incremental:
            fast.apply_batch(batch)
        else:
            sweep_apply_batch(fast, batch)
        sweep_apply_batch(slow, batch)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        if incremental:
            oracle = _assert_maintained_state_is_exact(fast)
            _expect_moves_to_reach_the_previous_knowers(fast, oracle)


@settings(max_examples=150, deadline=None)
@given(
    radius=st.sampled_from([1, 2, 3]),
    script=st.lists(
        st.tuples(
            st.sampled_from(["flip", "flip", "flip", "toggle", "drain"]),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
        max_size=60,
    ),
)
def test_the_window_is_the_difference_of_two_bfs_oracles(radius, script):
    """``add_peer`` / ``flip`` / ``remove_peer`` on the structure alone.

    At every drain each id's ``+1`` / ``-1`` entries are exactly how its BFS
    set differs from the one at the previous drain (an absent id knows
    nobody), ids without an entry did not move, and the window is symmetric
    -- the property ``note_move`` rests on, also checked before the drain
    through ``known_at_last_drain``.
    """
    adjacency = {}
    knowledge = MaintainedKnowledgeSets(radius, adjacency.__getitem__)
    previous = {}
    for action, first, second in script + [("drain", 0, 0)]:
        if action == "toggle":
            if first in adjacency:
                _leave(adjacency, knowledge, first)
            else:
                knowledge.add_peer(first)
                adjacency[first] = set()
        elif action == "flip":
            if first == second or first not in adjacency or second not in adjacency:
                continue
            _flip(adjacency, knowledge, first, second, second not in adjacency[first])
        else:
            oracle = knowledge_sets(adjacency, radius)
            for peer_id in adjacency:
                assert knowledge.known_at_last_drain(peer_id) == previous.get(peer_id, set())
            expected = {}
            for peer_id in oracle.keys() | previous.keys():
                now, then = oracle.get(peer_id, set()), previous.get(peer_id, set())
                if now != then:
                    expected[peer_id] = {
                        **{x: +1 for x in now - then}, **{x: -1 for x in then - now}
                    }
            assert sorted(knowledge.changed_peers()) == sorted(expected.keys() & oracle.keys())
            window = knowledge.drain_changed()
            assert window == expected
            for peer_id, net in window.items():
                assert all(window[other][peer_id] == sign for other, sign in net.items())
            assert {p: set(knowledge.known(p)) for p in adjacency} == oracle
            previous = oracle


def _flip(adjacency, knowledge, first, second, present):
    """The owner's protocol: update the links, then report the flip."""
    for peer, other in ((first, second), (second, first)):
        (adjacency[peer].add if present else adjacency[peer].discard)(other)
    knowledge.flip(first, second, present)


def _leave(adjacency, knowledge, peer_id):
    """A departure withdraws every edge before ``remove_peer``."""
    for other in sorted(adjacency[peer_id]):
        _flip(adjacency, knowledge, peer_id, other, False)
    knowledge.remove_peer(peer_id)
    del adjacency[peer_id]


def test_a_move_reaches_the_knowers_of_a_window_ago_not_the_live_ones():
    """``note_move`` by symmetry, where the live set is the wrong answer.

    A K-closest line 0 - 1 - ... - 6 at radius 2, then one batch: peer 2
    leaves, which cuts the only two-hop path between the mover 3 and its
    knower 1 (1 did not select 2); peer 7 joins off 3 and 6, which lets 6
    gain the mover; then 3 moves.  Peer 1's selection was installed with the
    mover as a candidate, so it meets the mover as lost -- and only lost, it
    no longer knows it -- and, having selected neither 2 nor 3, skips.  The
    mover's selector 4 lost a selected candidate and recomputes in full;
    its other knower of a window ago, 5, still knows it and meets it as lost
    + gained.  Peer 6's selection was not installed with the mover: it meets
    it as a plain gain, at its fresh coordinates.  Reading ``known(mover)``
    as it is now gets 1 and 6 wrong.
    """

    def line(converge):
        overlay = OverlayNetwork(KClosestSelection(k=1), gossip_radius=2)
        for index in range(7):
            x = index * (index + 1) / 2  # growing gaps: everyone selects its left neighbour
            overlay.add_peer(make_peer(index, (x, x / 100)), bootstrap={index - 1} if index else ())
        converge(overlay)
        return overlay

    fast, slow = line(OverlayNetwork.converge), line(sweep_converge)
    assert fast.adjacency() == {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3, 5}, 5: {4, 6}, 6: {5}}
    batch = [
        BatchLeave(2),
        BatchJoin(make_peer(7, (30.0, 0.3)), bootstrap=frozenset({3, 6})),
        BatchMove(3, (17.5, 0.175)),
    ]
    engine = fast._engine  # noqa: SLF001 - the verdicts are the engine's decisions
    plan_round, plans = engine._plan_round, []  # noqa: SLF001
    engine._plan_round = lambda schedule: plans.append(plan_round(schedule)) or plans[-1]  # noqa: SLF001

    assert fast.apply_batch(batch) == sweep_apply_batch(slow, batch)
    verdicts = {peer_id: tuple(entry) for peer_id, *entry in plans[0]}
    assert verdicts[1] == ("skip", set(), {2, 3})
    assert verdicts[4] == ("full", {3, 7}, {2, 3})
    assert verdicts[5] == ("additive", {3, 7}, {3})
    assert verdicts[6] == ("additive", {3, 7}, set())
    assert verdicts[0] == ("skip", set(), {2})  # lost 2, never selected it
    assert verdicts[3] == ("full", set(), set())  # the mover has no history
    assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
    _assert_maintained_state_is_exact(fast)


class TestMaintainedKnowledgeSets:
    """The support-count structure on its own, on a line 0 - 1 - 2 - 3 - 4."""

    @staticmethod
    def _line(radius):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        return adjacency, MaintainedKnowledgeSets.from_links(
            adjacency, adjacency.__getitem__, radius
        )

    def test_adopting_a_topology_matches_bfs_and_reports_nothing_changed(self):
        for radius in (1, 2, 3, 4):
            adjacency, knowledge = self._line(radius)
            oracle = knowledge_sets(adjacency, radius)
            assert {p: set(knowledge.known(p)) for p in adjacency} == oracle
            assert knowledge.drain_changed() == {}

    def test_a_flip_dirties_exactly_the_peers_whose_set_moved(self):
        adjacency, knowledge = self._line(2)
        _flip(adjacency, knowledge, 0, 4, True)  # close the ring
        before = knowledge_sets({0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}, 2)
        after = knowledge_sets(adjacency, 2)
        assert {p: set(knowledge.known(p)) for p in adjacency} == after
        assert knowledge.drain_changed() == {
            p: {x: +1 for x in after[p] - before[p]}
            for p in adjacency
            if before[p] != after[p]
        }
        assert knowledge.drain_changed() == {}

    def test_a_gain_and_a_loss_of_one_id_inside_a_window_cancel(self):
        adjacency, knowledge = self._line(2)
        _flip(adjacency, knowledge, 0, 4, True)
        _flip(adjacency, knowledge, 0, 4, False)
        assert knowledge.drain_changed() == {}

    def test_a_departure_leaves_no_entry_keyed_by_the_departed_id(self):
        adjacency, knowledge = self._line(3)
        _leave(adjacency, knowledge, 2)
        remaining = {0: {1}, 1: {0}, 3: {4}, 4: {3}}
        assert {p: set(knowledge.known(p)) for p in remaining} == knowledge_sets(remaining, 3)
        for level in knowledge._levels:  # noqa: SLF001
            assert set(level) == set(remaining)
            assert all(2 not in support for support in level.values())
        # Only the window still names it: everything it knew, lost, mirrored
        # by everyone who knew it -- and gone with the drain.
        window = knowledge.drain_changed()
        assert window[2] == {0: -1, 1: -1, 3: -1, 4: -1}
        assert all(window[p][2] == -1 for p in remaining)
        assert knowledge.drain_changed() == {}

    def test_a_rejoin_nets_against_what_the_departed_id_knew(self):
        adjacency, knowledge = self._line(2)
        assert knowledge.known_at_last_drain(2) == {0, 1, 3, 4}
        _leave(adjacency, knowledge, 2)
        adjacency[2] = set()
        knowledge.add_peer(2)
        _flip(adjacency, knowledge, 2, 1, True)
        # Peer 2 now knows {0, 1}; a window ago the id knew {0, 1, 3, 4}.
        assert knowledge.known_at_last_drain(2) == {0, 1, 3, 4}
        assert sorted(knowledge.changed_peers()) == [1, 2, 3, 4]
        assert knowledge.drain_changed() == {
            1: {3: -1}, 2: {3: -1, 4: -1}, 3: {1: -1, 2: -1}, 4: {2: -1}
        }
        assert knowledge.known_at_last_drain(2) == {0, 1}
