"""Geometric substrate for virtual-coordinate P2P overlays.

The paper embeds every peer at a point of a ``D``-dimensional coordinate
space ``[0, VMAX]^D``.  This package provides the geometric vocabulary the
rest of the library is written in:

* :mod:`repro.geometry.point` -- immutable points and coordinate validation.
* :mod:`repro.geometry.distance` -- the distance functions used by the
  neighbour selection methods (L1, L2, L-infinity, Minkowski).
* :mod:`repro.geometry.rectangle` -- axis-aligned hyper-rectangles with
  open/closed/unbounded sides; these model the *responsibility zones* of the
  space-partitioning multicast construction.
* :mod:`repro.geometry.hyperplane` -- hyperplanes through the origin and
  hyperplane sets, used by the Hyperplanes neighbour-selection family.
* :mod:`repro.geometry.regions` -- orthant sign vectors (the regions of the
  Orthogonal Hyperplanes method) and their conversion to hyper-rectangles.
* :mod:`repro.geometry.index` -- the coordinate column every overlay owns,
  the two batched selection kernels that read it (empty-rectangle skylines,
  Hyperplanes per-region top-``K``) and the spatial index (the column plus a
  k-d tree for the ``D >= 3`` skyline) of a full-knowledge overlay.
"""

from repro.geometry.point import Point, as_point, validate_coordinates
from repro.geometry.distance import (
    chebyshev_distance,
    euclidean_distance,
    get_distance,
    manhattan_distance,
    minkowski_distance,
)
from repro.geometry.rectangle import Interval, HyperRectangle
from repro.geometry.hyperplane import Hyperplane, HyperplaneSet
from repro.geometry.regions import (
    all_sign_vectors,
    orthant_rectangle,
    orthant_signs,
)
from repro.geometry.index import SpatialIndex

__all__ = [
    "Point",
    "as_point",
    "validate_coordinates",
    "manhattan_distance",
    "euclidean_distance",
    "chebyshev_distance",
    "minkowski_distance",
    "get_distance",
    "Interval",
    "HyperRectangle",
    "Hyperplane",
    "HyperplaneSet",
    "orthant_signs",
    "orthant_rectangle",
    "all_sign_vectors",
    "SpatialIndex",
]
