"""What a bounded-gossip round costs, as counts no kernel or box can move.

Under a gossip radius the incremental engine consumes what the maintained
knowledge sets already know instead of re-deriving it, and speaks ids to the
selection family.  "O(changes)" is a claim about *how often* something is
touched, so it is counted here, on a seeded radius-2 trace of {leave, join,
move} epochs at N ~ 120 (the shape of the ledger's ``bounded_gossip_er2d``):

* ``MaintainedKnowledgeSets.known`` -- the only way to see a whole ``I(P)``
  -- is read at most once per FULL verdict plus once per move or join (a
  join is a move from nowhere: it asks who knew the id a window ago): SKIP
  and ADDITIVE verdicts come out of the net-delta window alone;
* ``note_move`` asks about no peer outside ``I(mover)`` as of the previous
  drain or the current one: it walks the mover's neighbourhood, not the
  population;
* the selection is handed ids and one handle per call, never a
  ``PeerInfo`` list, and on the 2-D empty-rectangle path never calls the
  handle's resolver: every coordinate is a row gather from the overlay's
  column.

The three counts and the per-epoch wall are printed; only the counts are
asserted (runner timings are not comparable, and the claim-bearing timings
are the ledger's).
"""

import random
import statistics
import time

from conftest import print_report

from repro.overlay.gossip import knowledge_sets
from repro.overlay.incremental import RESELECT_FULL
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.base import MemberOf
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers

_ALIVE, _EPOCHS, _RADIUS = 120, 30, 2


class _Asked(set):
    """A set that logs the ids its point operations are asked about."""

    log: set = set()

    def __contains__(self, item):
        self.log.add(item)
        return super().__contains__(item)

    def add(self, item):
        self.log.add(item)
        super().add(item)

    def discard(self, item):
        self.log.add(item)
        super().discard(item)


def test_gossip_rounds_are_counted_o_changes():
    peers = generate_peers(_ALIVE + 2 * _EPOCHS, 2, seed=20)
    joiners = peers[_ALIVE : _ALIVE + _EPOCHS]
    targets = [peer.coordinates for peer in peers[_ALIVE + _EPOCHS :]]
    rng = random.Random(20)
    selection = EmptyRectangleSelection()
    overlay = OverlayNetwork(selection, gossip_radius=_RADIUS)
    alive = []
    for peer in peers[:_ALIVE]:
        overlay.insert_and_converge(peer, bootstrap={rng.choice(alive)} if alive else ())
        alive.append(peer.peer_id)

    engine = overlay._engine  # noqa: SLF001 - the counts are about internal reads
    view = engine._view  # noqa: SLF001
    knowledge = view._knowledge  # noqa: SLF001
    counts = dict.fromkeys(
        ("known_reads", "full_verdicts", "move_asks", "move_bound",
         "resolver_calls", "distinct_ids", "candidate_ids"), 0
    )

    known, plan_round = knowledge.known, engine._plan_round  # noqa: SLF001

    def counted_known(peer_id):
        counts["known_reads"] += 1
        return known(peer_id)

    def counted_plan(schedule):
        entries = plan_round(schedule)
        counts["full_verdicts"] += sum(entry[1] == RESELECT_FULL for entry in entries)
        return entries

    knowledge.known, engine._plan_round = counted_known, counted_plan  # noqa: SLF001
    view._history, view._dirty = _Asked(view._history), _Asked(view._dirty)  # noqa: SLF001

    def watch(entry, collections_of):
        inner = getattr(selection, entry)

        def watched(batch, *args, member_of, **kwargs):  # no handle, no ids: TypeError
            collections = collections_of(batch, *args)
            assert all(type(other) is int for ids in collections for other in ids)
            calls = []
            counted = MemberOf(lambda other: calls.append(other) or member_of(other),
                               member_of.column)
            result = inner(batch, *args, member_of=counted, **kwargs)
            distinct = len(set().union(*collections))
            assert calls == []
            counts["resolver_calls"] += len(calls)
            counts["distinct_ids"] += distinct
            counts["candidate_ids"] += sum(map(len, collections))
            return result

        setattr(selection, entry, watched)

    watch("select_many", lambda references, candidates: [candidates[r.peer_id] for r in references])
    watch("select_many_additive", lambda updates: [ids for _, *delta in updates for ids in delta])

    walls = []
    for joiner, target in zip(joiners, targets):
        mover = rng.choice(alive)
        leaver = rng.choice([peer_id for peer_id in alive if peer_id != mover])
        alive.remove(leaver)
        # The last round of a finished converge installed nothing, so the
        # oracle now is the oracle at the previous drain.
        before = knowledge_sets(overlay.adjacency(), _RADIUS)[mover]
        started = time.perf_counter()
        overlay.remove_peer(leaver)
        overlay.add_peer(joiner, bootstrap={rng.choice(alive)})
        walls.append(time.perf_counter() - started)
        alive.append(joiner.peer_id)
        now = knowledge_sets(overlay.adjacency(), _RADIUS)[mover]
        _Asked.log.clear()
        started = time.perf_counter()
        overlay.move_peer(mover, target)
        asked = set(_Asked.log)
        overlay.converge()
        walls[-1] += time.perf_counter() - started
        assert asked <= before | now | {mover}
        counts["move_asks"] += len(asked)
        counts["move_bound"] += len(before | now) + 1

    print_report(
        f"Bounded-gossip round cost [radius {_RADIUS}, N={_ALIVE}, {_EPOCHS} epochs of leave + join + move]",
        "\n".join(
            [
                f"known() reads           {counts['known_reads']:>8}   (FULL verdicts "
                f"{counts['full_verdicts']} + moves {_EPOCHS} + joins {_EPOCHS})",
                f"note_move ids asked     {counts['move_asks']:>8}   (|I(mover)| then-or-now + 1: "
                f"{counts['move_bound']}; population x moves: {_ALIVE * _EPOCHS})",
                f"resolver calls          {counts['resolver_calls']:>8}   (distinct ids per call, "
                f"summed: {counts['distinct_ids']}; candidate ids handed over: "
                f"{counts['candidate_ids']})",
                f"epoch wall, median      {1000 * statistics.median(walls):>8.2f} ms (not asserted)",
            ]
        ),
    )
    assert counts["known_reads"] <= counts["full_verdicts"] + 2 * _EPOCHS
    assert counts["resolver_calls"] == 0
    assert counts["distinct_ids"] < counts["candidate_ids"]
    assert overlay.reselect_round() is False
