"""The Orthogonal Hyperplanes neighbour selection method (instance 1).

The hyperplane set consists of the ``D`` coordinate hyperplanes ``x(i) = 0``
(after the conceptual translation that puts the reference peer at the
origin), so the regions are the ``2^D`` orthants around the reference peer
and the method keeps the ``K`` closest candidates of every orthant.

This is the method the paper uses to build the overlay for the Section 3
(stability) experiments, swept over ``D = 2..10`` and ``K = 1..50``; a
vectorised equilibrium path keeps that sweep tractable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np

from repro.geometry.distance import DistanceFunction
from repro.geometry.hyperplane import HyperplaneSet
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.hyperplanes import HyperplanesSelection, minkowski

__all__ = ["OrthogonalHyperplanesSelection"]


class OrthogonalHyperplanesSelection(HyperplanesSelection):
    """Keep the ``K`` closest candidates in each of the ``2^D`` orthants."""

    def __init__(self, *, k: int = 1, distance: "DistanceFunction | str" = "l2") -> None:
        super().__init__(HyperplaneSet.orthogonal, k=k, distance=distance)

    def _select_vectorised(
        self, reference: PeerInfo, candidates: Sequence[PeerInfo]
    ) -> List[int]:
        others = self._exclude_reference(reference, candidates)
        if not others:
            return []
        ids = np.asarray([peer.peer_id for peer in others], dtype=np.int64)
        coords = np.asarray([tuple(peer.coordinates) for peer in others], dtype=float)
        origin = np.asarray(tuple(reference.coordinates), dtype=float)
        deltas = coords - origin
        powers = 1 << np.arange(coords.shape[1])
        codes = ((deltas > 0) @ powers).astype(np.int64)
        distances = minkowski(deltas, self._distance_order)
        selected: List[int] = []
        for code in np.unique(codes):
            mask = codes == code
            member_ids = ids[mask]
            ranking = np.lexsort((member_ids, distances[mask]))[: self.k]
            selected.extend(int(member_ids[position]) for position in ranking)
        return selected

    def compute_equilibrium(self, peers: Sequence[PeerInfo]) -> Dict[int, Set[int]]:
        """Vectorised full-knowledge equilibrium.

        Uses numpy when the configured distance is a Minkowski norm known by
        name (L1, L2, L-infinity); otherwise falls back to the generic
        per-peer path.  Both paths produce identical neighbour sets (up to the
        deterministic peer-id tie-break), which is covered by tests.
        """
        if self._distance_order is None or not peers:
            return super().compute_equilibrium(peers)

        peer_ids = [peer.peer_id for peer in peers]
        coords = np.asarray([tuple(peer.coordinates) for peer in peers], dtype=float)
        count, dimension = coords.shape
        powers = 1 << np.arange(dimension)
        result: Dict[int, Set[int]] = {}

        for index in range(count):
            deltas = coords - coords[index]
            mask = np.ones(count, dtype=bool)
            mask[index] = False
            # Orthant code of every other peer: bit i set when delta on axis i > 0.
            codes = ((deltas > 0) @ powers).astype(np.int64)
            distances = minkowski(deltas, self._distance_order)
            selected: Set[int] = set()
            other_indices = np.nonzero(mask)[0]
            other_codes = codes[other_indices]
            other_distances = distances[other_indices]
            for code in np.unique(other_codes):
                members = other_indices[other_codes == code]
                member_distances = other_distances[other_codes == code]
                order = np.lexsort((members, member_distances))[: self.k]
                selected.update(int(peer_ids[m]) for m in members[order])
            result[peer_ids[index]] = selected
        return result

