"""Churn steps never walk the peer population.  After an overlay, its tree
maintainer and connectivity feed bootstrap, the population maps (the
overlay's and its coordinate column's ``id -> row`` map) raise once an
iteration yields a second element (``add_peer`` reads the dimension off the
first).  A converged join, leave, move and mixed batch, each refreshed
and queried, must not trip them."""

import __future__
import inspect
import sys
import textwrap

import pytest

from repro.multicast.incremental import OverlayConnectivityFeed, StabilityTreeMaintainer
from repro.overlay.columnar import ColumnarCandidateState
from repro.overlay.incremental import IncrementalReselectionEngine
from repro.overlay.network import BatchJoin, BatchLeave, BatchMove, OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers_with_lifetimes

POPULATION = 60


class PopulationWalk(AssertionError):
    """A churn step iterated a population-sized map past its first element."""


class _Guarded(dict):
    def _walk(self, items):
        for position, item in enumerate(items):
            if position:
                raise PopulationWalk("a churn step iterated a population map")
            yield item


for _name in ("__iter__", "keys", "values", "items"):
    setattr(_Guarded, _name, lambda self, view=getattr(dict, _name): self._walk(view(self)))


def bootstrapped(radius):
    """A converged overlay with a live tree and feed, its maps guarded."""
    peers = generate_peers_with_lifetimes(POPULATION + 4, 2, seed=11)
    overlay = OverlayNetwork(EmptyRectangleSelection(), gossip_radius=radius)
    overlay.apply_batch([BatchJoin(peers[0], bootstrap=frozenset())] + [
        BatchJoin(peer, bootstrap=frozenset({peers[position // 2].peer_id}))
        for position, peer in enumerate(peers[1:POPULATION], start=1)])
    maintainer, feed = StabilityTreeMaintainer(overlay), OverlayConnectivityFeed(overlay)
    ids = overlay.peer_ids
    for name in ("_peers", "_neighbours", "_links"):
        setattr(overlay, name, _Guarded(getattr(overlay, name)))
    column = overlay._column  # noqa: SLF001 - the maps under test are private
    column._row_of = _Guarded(column._row_of)  # noqa: SLF001
    return overlay, maintainer, feed, ids, peers[POPULATION:]


STEPS = {  # (overlay, ids, spare peers) -> one converged churn step
    "join": lambda overlay, ids, spare: overlay.insert_and_converge(
        spare[0], bootstrap={ids[0]}),
    "leave": lambda overlay, ids, spare: overlay.remove_and_converge(ids[1]),
    "move": lambda overlay, ids, spare: (
        overlay.move_peer(ids[2], spare[2].coordinates), overlay.converge()),
    "batch": lambda overlay, ids, spare: overlay.apply_batch([
        BatchJoin(spare[1], bootstrap=frozenset({ids[3]})), BatchLeave(ids[4]),
        BatchMove(ids[5], spare[3].coordinates)]),
}


def churn(setup, steps=tuple(STEPS)):
    """Run the named steps in order, refreshing the tree and feed after each."""
    overlay, maintainer, feed, ids, spare = setup
    for step in steps:
        STEPS[step](overlay, ids, spare)
        maintainer.refresh()
        feed.is_connected()


@pytest.mark.parametrize("radius", [None, 2], ids=["full_knowledge", "radius_2"])
@pytest.mark.parametrize("step", list(STEPS))
def test_churn_step_never_walks_the_population(step, radius):
    churn(bootstrapped(radius), [step])


def _assert_seeded_walk(monkeypatch, owner, name, needle, replacement):
    """Recompile ``owner.name`` from its own source with one line changed;
    the churn steps must then trip the population check."""
    setup = bootstrapped(None)
    function = getattr(owner, name)
    lines, first = inspect.getsourcelines(function)
    source = textwrap.dedent("".join(lines))
    assert needle in source, f"{owner.__name__}.{name} drifted"
    namespace = {}
    exec(compile("\n" * (first - 1) + source.replace(needle, replacement, 1),
                 inspect.getsourcefile(function), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True),
         vars(sys.modules[function.__module__]), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    with pytest.raises(PopulationWalk):
        churn(setup)


def test_rpl005_catches_population_work_in_the_tree_refresh_hot_path(monkeypatch):
    """Reading the whole undirected topology inside the tree refresh --
    instead of the one touched peer's links -- is O(N) work per churn event."""
    _assert_seeded_walk(monkeypatch, StabilityTreeMaintainer, "refresh",
                        "overlay.links(peer_id),", "overlay.adjacency()[peer_id],")


def test_rpl005_catches_an_implicit_set_silently_materialised(monkeypatch):
    """The engine's ``note_join`` rebuilding a population-sized structure
    instead of delegating the O(1) implicit-representation write."""
    _assert_seeded_walk(monkeypatch, IncrementalReselectionEngine, "note_join",
                        "self._view.note_join(peer_id)",
                        "self._dirty_all = sorted(self._overlay._peers)")


def test_rpl005_catches_population_scheduling_in_plan_round(monkeypatch):
    """``plan_round`` swapping its read of the column's id array for a sort
    of the column's id -> row map puts an O(N) Python pass back on every
    convergence round."""
    _assert_seeded_walk(monkeypatch, ColumnarCandidateState, "plan_round",
                        "scheduled = self._schedule()",
                        "scheduled = np.asarray(sorted(self._overlay._column._row_of))")
