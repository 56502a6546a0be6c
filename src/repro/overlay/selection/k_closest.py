"""The ``H = 0`` selection method (instance 3): the ``K`` closest candidates.

With no hyperplanes there is a single region, so a peer simply keeps the
``K`` candidates closest to it, ranked by ``(distance, id)`` -- the family's
array pass with an empty signature.  The paper lists this as the degenerate
instance of the Hyperplanes method; it produces overlays that are easy to
partition (all neighbours can end up on one side of the peer), which is
exactly why the region-based variants exist -- the ablation benchmarks
quantify that difference.
"""

from __future__ import annotations

from repro.geometry.hyperplane import HyperplaneSet
from repro.overlay.selection.hyperplanes import HyperplanesSelection

__all__ = ["KClosestSelection"]


class KClosestSelection(HyperplanesSelection):
    """Keep the ``K`` closest candidates overall (single region)."""

    def __init__(self, *, k: int = 1, distance: str = "l2") -> None:
        super().__init__(HyperplaneSet.empty, k=k, distance=distance)
