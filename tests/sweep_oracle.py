"""The synchronous-sweep oracle the incremental engine is held to.

``OverlayNetwork.converge`` always runs the engine; the oracle is the public
``reselect_round()`` -- one synchronous round in which every peer re-selects
-- looped to a fixed point.  Test modules import it as a plain module
(``from sweep_oracle import ...``; ``tests/`` is on ``sys.path`` once its
``conftest.py`` is loaded).
"""

from __future__ import annotations

from repro.overlay.network import (
    BatchJoin,
    BatchLeave,
    BatchMove,
    ConvergenceError,
    OverlayNetwork,
)
from repro.overlay.peer import PeerInfo


def sweep_converge(overlay: OverlayNetwork, *, max_rounds: int = 50) -> int:
    """The synchronous-sweep oracle: ``reselect_round()`` until nothing changes.

    Returns the round count (the no-change round included, like
    ``converge``); raises ``ConvergenceError(max_rounds)`` otherwise.
    """
    for round_index in range(1, max_rounds + 1):
        if not overlay.reselect_round():
            return round_index
    raise ConvergenceError(max_rounds)


def sweep_apply_batch(overlay: OverlayNetwork, events, *, max_rounds: int = 50) -> int:
    """``apply_batch`` on the oracle: membership through ``add_peer`` /
    ``remove_peer`` / ``move_peer``, then one :func:`sweep_converge` (``0``
    when the batch was empty or emptied the overlay)."""
    applied = False
    for event in events:
        if isinstance(event, BatchJoin):
            overlay.add_peer(event.peer, bootstrap=event.bootstrap)
        elif isinstance(event, PeerInfo):
            overlay.add_peer(event)
        elif isinstance(event, BatchMove):
            overlay.move_peer(event.peer_id, event.coordinates)
        else:
            overlay.remove_peer(event.peer_id if isinstance(event, BatchLeave) else event)
        applied = True
    if not applied or not overlay.peer_count:
        return 0
    return sweep_converge(overlay, max_rounds=max_rounds)


def sweep_build(peers, selection, *, rng, gossip_radius=None) -> OverlayNetwork:
    """``build_incremental``'s insertion order and bootstrap draws, every
    convergence on the oracle."""
    overlay = OverlayNetwork(selection, gossip_radius=gossip_radius)
    for peer in peers:
        bootstrap = {rng.choice(overlay.peer_ids)} if overlay.peer_count else set()
        sweep_apply_batch(overlay, [BatchJoin(peer, frozenset(bootstrap))])
    return overlay
