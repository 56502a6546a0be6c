"""The ``H = 0`` selection method (instance 3): the ``K`` closest candidates.

With no hyperplanes there is a single region, so a peer simply keeps the
``K`` candidates closest to it.  The paper lists this as the degenerate
instance of the Hyperplanes method; it produces overlays that are easy to
partition (all neighbours can end up on one side of the peer), which is
exactly why the region-based variants exist -- the ablation benchmarks
quantify that difference.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.geometry.distance import DistanceFunction
from repro.geometry.hyperplane import HyperplaneSet
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.hyperplanes import HyperplanesSelection, minkowski

__all__ = ["KClosestSelection"]


class KClosestSelection(HyperplanesSelection):
    """Keep the ``K`` closest candidates overall (single region)."""

    def __init__(self, *, k: int = 1, distance: "DistanceFunction | str" = "l2") -> None:
        super().__init__(HyperplaneSet.empty, k=k, distance=distance)

    def _select_vectorised(
        self, reference: PeerInfo, candidates: Sequence[PeerInfo]
    ) -> List[int]:
        others = self._exclude_reference(reference, candidates)
        if not others:
            return []
        ids = np.asarray([peer.peer_id for peer in others], dtype=np.int64)
        coords = np.asarray([tuple(peer.coordinates) for peer in others], dtype=float)
        origin = np.asarray(tuple(reference.coordinates), dtype=float)
        distances = minkowski(coords - origin, self._distance_order)
        # The same (distance, peer id) tie-break as the generic path.
        ranking = np.lexsort((ids, distances))[: self.k]
        return [int(ids[position]) for position in ranking]
