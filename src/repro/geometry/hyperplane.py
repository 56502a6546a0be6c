"""Hyperplanes through the origin and hyperplane sets.

The Hyperplanes neighbour selection method of the paper works as follows: a
peer ``P`` conceptually translates the identifiers of the candidate peers so
that ``P`` becomes the origin; a fixed set of ``H`` hyperplanes -- all of
which contain the origin -- then divides the space into regions, and ``P``
keeps the ``K`` closest candidates of every region as overlay neighbours.

Three instances are named in the paper:

1. *Orthogonal Hyperplanes*: the ``D`` coordinate hyperplanes ``x(i) = 0``.
2. *Sign-coefficient hyperplanes*: ``a(1)·x(1) + ... + a(D)·x(D) = 0`` with
   every coefficient in ``{-1, 0, +1}``.
3. ``H = 0``: a single region; the ``K`` closest candidates overall.

This module provides :class:`Hyperplane` (a normal vector) and
:class:`HyperplaneSet` (region signatures), with constructors for the three
instances above.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence, Tuple

from repro.geometry.point import CoordinateLike, as_point

__all__ = ["Hyperplane", "HyperplaneSet"]


class Hyperplane:
    """A hyperplane through the origin, described by its normal coefficients.

    The hyperplane is the set of points ``x`` with ``a · x = 0``.  Its *side
    function* maps a point to ``-1``, ``0`` or ``+1`` depending on the sign of
    the dot product.
    """

    __slots__ = ("_coefficients",)

    def __init__(self, coefficients: Iterable[float]) -> None:
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a hyperplane needs at least one coefficient")
        if all(c == 0.0 for c in coeffs):
            raise ValueError("the zero vector does not define a hyperplane")
        self._coefficients = coeffs

    @property
    def coefficients(self) -> Tuple[float, ...]:
        """Normal vector of the hyperplane."""
        return self._coefficients

    @property
    def dimension(self) -> int:
        """Dimension of the space the hyperplane lives in."""
        return len(self._coefficients)

    def evaluate(self, point: CoordinateLike) -> float:
        """Signed value ``a · point`` (positive on one side, negative on the other)."""
        p = as_point(point)
        if p.dimension != self.dimension:
            raise ValueError(
                f"point dimension {p.dimension} does not match hyperplane dimension {self.dimension}"
            )
        # Left to right, as every distance in repro.geometry adds.
        total = 0.0
        for a, x in zip(self._coefficients, p):
            total += a * x
        return total

    def side(self, point: CoordinateLike) -> int:
        """``-1``, ``0`` or ``+1`` -- which side of the hyperplane the point lies on."""
        value = self.evaluate(point)
        if value > 0:
            return 1
        if value < 0:
            return -1
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return self._coefficients == other._coefficients

    def __hash__(self) -> int:
        return hash(self._coefficients)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hyperplane({self._coefficients!r})"


class HyperplaneSet:
    """A set of hyperplanes through the origin, defining regions of space.

    The *region signature* of a point is the tuple of its sides with respect
    to every hyperplane in the set.  Two points belong to the same region if
    and only if they share a signature.  An empty set (``H = 0``) yields a
    single region whose signature is the empty tuple.
    """

    __slots__ = ("_hyperplanes", "_dimension")

    def __init__(self, hyperplanes: Iterable[Hyperplane], *, dimension: int) -> None:
        planes = tuple(hyperplanes)
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        for plane in planes:
            if plane.dimension != dimension:
                raise ValueError(
                    f"hyperplane of dimension {plane.dimension} does not match set dimension {dimension}"
                )
        self._hyperplanes = planes
        self._dimension = dimension

    # ------------------------------------------------------------------
    # Constructors for the three instances named in the paper
    # ------------------------------------------------------------------
    @classmethod
    def orthogonal(cls, dimension: int) -> "HyperplaneSet":
        """The Orthogonal Hyperplanes instance: the ``D`` planes ``x(i) = 0``."""
        planes = []
        for axis in range(dimension):
            coefficients = [0.0] * dimension
            coefficients[axis] = 1.0
            planes.append(Hyperplane(coefficients))
        return cls(planes, dimension=dimension)

    @classmethod
    def sign_coefficients(cls, dimension: int) -> "HyperplaneSet":
        """All hyperplanes with coefficients in ``{-1, 0, +1}``.

        The zero vector is excluded, and vectors that are negations of one
        another describe the same hyperplane, so only one representative of
        each pair is kept (the one whose first non-zero coefficient is
        positive).
        """
        planes = []
        for coefficients in product((-1.0, 0.0, 1.0), repeat=dimension):
            if all(c == 0.0 for c in coefficients):
                continue
            first_non_zero = next(c for c in coefficients if c != 0.0)
            if first_non_zero < 0:
                continue
            planes.append(Hyperplane(coefficients))
        return cls(planes, dimension=dimension)

    @classmethod
    def empty(cls, dimension: int) -> "HyperplaneSet":
        """The ``H = 0`` instance: no hyperplanes, a single region."""
        return cls((), dimension=dimension)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hyperplanes(self) -> Tuple[Hyperplane, ...]:
        """The hyperplanes of the set."""
        return self._hyperplanes

    @property
    def dimension(self) -> int:
        """Dimension of the underlying space."""
        return self._dimension

    def __len__(self) -> int:
        return len(self._hyperplanes)

    # ------------------------------------------------------------------
    # Region signatures
    # ------------------------------------------------------------------
    def signature(
        self,
        point: CoordinateLike,
        *,
        reference: CoordinateLike = None,
    ) -> Tuple[int, ...]:
        """Region signature of ``point``, optionally relative to ``reference``.

        When ``reference`` is given, the point is first translated so that the
        reference becomes the origin -- this is exactly the conceptual
        translation the neighbour selection method performs around peer ``P``.
        """
        p = as_point(point)
        if reference is not None:
            p = p.relative_to(reference)
        if p.dimension != self._dimension:
            raise ValueError(
                f"point dimension {p.dimension} does not match set dimension {self._dimension}"
            )
        return tuple(plane.side(p) for plane in self._hyperplanes)

    def group_by_region(
        self,
        points: Sequence[CoordinateLike],
        *,
        reference: CoordinateLike = None,
    ):
        """Group ``points`` by region signature.

        Returns a dict mapping signature tuples to lists of indices into
        ``points`` (indices, not the points themselves, so callers can carry
        along peer identifiers or other payloads).
        """
        groups = {}
        for index, point in enumerate(points):
            groups.setdefault(self.signature(point, reference=reference), []).append(index)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HyperplaneSet(dimension={self._dimension}, "
            f"hyperplanes={len(self._hyperplanes)})"
        )
