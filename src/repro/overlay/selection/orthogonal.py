"""The Orthogonal Hyperplanes neighbour selection method (instance 1).

The hyperplane set consists of the ``D`` coordinate hyperplanes ``x(i) = 0``
(after the conceptual translation that puts the reference peer at the
origin), so the regions are the ``2^D`` orthants around the reference peer
and the method keeps the ``K`` closest candidates of every orthant.  A
candidate on a coordinate plane of the reference is on neither side of it,
so its signature has a ``0`` there and it competes in a region of its own,
as in every instance.

This is the method the paper uses to build the overlay for the Section 3
(stability) experiments, swept over ``D = 2..10`` and ``K = 1..50``; the
family's array pass (:func:`~repro.geometry.index.region_top_ks`) answers
its batches and its full-knowledge equilibrium.
"""

from __future__ import annotations

from repro.geometry.hyperplane import HyperplaneSet
from repro.overlay.selection.hyperplanes import HyperplanesSelection

__all__ = ["OrthogonalHyperplanesSelection"]


class OrthogonalHyperplanesSelection(HyperplanesSelection):
    """Keep the ``K`` closest candidates in each of the ``2^D`` orthants."""

    def __init__(self, *, k: int = 1, distance: str = "l2") -> None:
        super().__init__(HyperplaneSet.orthogonal, k=k, distance=distance)
