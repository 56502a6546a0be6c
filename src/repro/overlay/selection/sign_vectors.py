"""The sign-coefficient Hyperplanes selection method (instance 2).

The hyperplane set contains every hyperplane
``a(1)·x(1) + ... + a(D)·x(D) = 0`` whose coefficients are ``-1``, ``0`` or
``+1`` (one representative per opposite pair, the zero vector excluded).
With ``(3^D - 1) / 2`` hyperplanes the regions are much finer than the
orthants, so the method keeps more neighbours and yields a denser, more
fault-tolerant overlay -- the paper cites it from the authors' earlier
storage-architecture work.
"""

from __future__ import annotations

from repro.geometry.hyperplane import HyperplaneSet
from repro.overlay.selection.hyperplanes import HyperplanesSelection

__all__ = ["SignCoefficientHyperplanesSelection"]


class SignCoefficientHyperplanesSelection(HyperplanesSelection):
    """Keep the ``K`` closest candidates in every sign-coefficient region.

    Warning: the number of hyperplanes grows as ``(3^D - 1) / 2``, so the
    number of distinct regions grows quickly with the dimension.  The paper's
    experiments use this method only implicitly (as related work); it is
    provided for completeness and used by the ablation benchmarks at small
    ``D``.
    """

    def __init__(self, *, k: int = 1, distance: str = "l2") -> None:
        super().__init__(HyperplaneSet.sign_coefficients, k=k, distance=distance)
