"""Churn steps never walk the peer population.  After an overlay, its tree
maintainer and connectivity feed bootstrap, the population maps raise once
an iteration yields a second element (``add_peer`` reads the dimension off
the first).  A converged join, leave, move and mixed batch, each refreshed
and queried, must not trip them."""

import pytest

from repro.multicast.incremental import OverlayConnectivityFeed, StabilityTreeMaintainer
from repro.overlay.columnar import ColumnarCandidateState
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
    view = overlay._engine._view  # noqa: SLF001 - the maps under test are private
    if isinstance(view, ColumnarCandidateState):
        view._rows._row_of_id = _Guarded(view._rows._row_of_id)  # noqa: SLF001
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
