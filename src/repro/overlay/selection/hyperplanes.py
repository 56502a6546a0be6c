"""The generic Hyperplanes neighbour selection method.

A peer ``P`` conceptually translates every candidate so that ``P`` becomes
the origin of the coordinate system.  A fixed set of ``H`` hyperplanes
through the origin splits space into regions; within every region, ``P``
keeps the ``K`` candidates closest to the origin (i.e. closest to ``P``)
according to a configurable distance function.

The three named instances of the paper are provided as subclasses /
specialisations:

* :class:`~repro.overlay.selection.orthogonal.OrthogonalHyperplanesSelection`
* :class:`~repro.overlay.selection.sign_vectors.SignCoefficientHyperplanesSelection`
* :class:`~repro.overlay.selection.k_closest.KClosestSelection` (``H = 0``)
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.geometry.distance import DistanceFunction, get_distance
from repro.geometry.hyperplane import HyperplaneSet
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import MemberOf, NeighbourSelectionMethod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry.index import SpatialIndex

__all__ = ["HyperplanesSelection", "minkowski"]

HyperplaneSetFactory = Callable[[int], HyperplaneSet]

# Minkowski orders of the distance names the numpy fast paths understand.
MINKOWSKI_ORDERS = {"l1": 1.0, "manhattan": 1.0, "l2": 2.0, "euclidean": 2.0,
                    "linf": float("inf"), "chebyshev": float("inf")}

# Below this many candidates the generic python selection beats building
# numpy arrays; the batched APIs switch implementation per reference.
VECTORISE_THRESHOLD = 48


def minkowski(deltas: np.ndarray, order: float) -> np.ndarray:
    """Row-wise Minkowski norm of a matrix of coordinate differences.

    Columns are added left to right, squaring by multiplication for L2: the
    order and the arithmetic of the python distance functions and of the
    spatial index, so all three rank candidates byte-identically at every
    dimension (numpy's ``.sum`` adds eight or more columns pairwise).
    Supports the orders the named distances map to (1, 2 and infinity);
    other orders are rejected rather than silently miscomputed.
    """
    magnitudes = np.abs(deltas)
    if order == float("inf"):
        return magnitudes.max(axis=1)
    if order not in (1.0, 2.0):
        raise ValueError(f"unsupported Minkowski order {order!r}; known: 1, 2, inf")
    if order == 2.0:
        magnitudes = magnitudes * magnitudes
    total = magnitudes[:, 0].copy()
    for column in magnitudes.T[1:]:
        total += column
    return np.sqrt(total) if order == 2.0 else total


class HyperplanesSelection(NeighbourSelectionMethod):
    """Keep the ``K`` closest candidates of every hyperplane region.

    Parameters
    ----------
    hyperplane_factory:
        Builds the :class:`~repro.geometry.hyperplane.HyperplaneSet` for a
        given dimension.  The factory is invoked lazily (the dimension is only
        known once peers are seen) and its result cached per dimension.
    k:
        Number of neighbours kept per region (the paper's ``K``).
    distance:
        Distance function used for the "closest" ranking, either a callable
        or a name understood by :func:`repro.geometry.distance.get_distance`.
        Defaults to Euclidean distance.
    """

    # Per-region top-K under the strict (distance, peer id) total order is
    # path independent: removing a candidate ranked below the cut in its
    # region never changes any region's top K.
    path_independent = True

    @property
    def supports_index(self) -> bool:  # type: ignore[override]
        """Indexed selection needs a distance with box lower bounds.

        The spatial index prunes subtrees through monotone Minkowski
        distance bounds, so the index-backed path exists exactly when the
        configured distance is one of the named Minkowski norms -- the same
        condition that gates the numpy fast paths.  Arbitrary distance
        callables fall back to the candidate-list scan.
        """
        return self._distance_order is not None

    def __init__(
        self,
        hyperplane_factory: HyperplaneSetFactory,
        *,
        k: int = 1,
        distance: "DistanceFunction | str" = "l2",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self._hyperplane_factory = hyperplane_factory
        self._k = k
        # Minkowski order of the distance when it is a norm known by name;
        # the vectorised subclasses only take their numpy paths when set.
        self._distance_order: Optional[float] = (
            MINKOWSKI_ORDERS.get(distance.strip().lower())
            if isinstance(distance, str)
            else None
        )
        self._distance = get_distance(distance) if isinstance(distance, str) else distance
        self._sets_by_dimension: Dict[int, HyperplaneSet] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of neighbours kept per region."""
        return self._k

    @property
    def distance(self) -> DistanceFunction:
        """Distance function used for ranking candidates."""
        return self._distance

    def hyperplane_set(self, dimension: int) -> HyperplaneSet:
        """The hyperplane set used for ``dimension``-dimensional identifiers."""
        if dimension not in self._sets_by_dimension:
            hyperplane_set = self._hyperplane_factory(dimension)
            if hyperplane_set.dimension != dimension:
                raise ValueError(
                    f"hyperplane factory returned a set of dimension "
                    f"{hyperplane_set.dimension}, expected {dimension}"
                )
            self._sets_by_dimension[dimension] = hyperplane_set
        return self._sets_by_dimension[dimension]

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(
        self,
        reference: PeerInfo,
        candidates: Sequence[PeerInfo],
        *,
        index: "Optional[SpatialIndex]" = None,
    ) -> List[int]:
        if index is not None:
            return self._select_indexed(reference, index)
        others = self._exclude_reference(reference, candidates)
        if not others:
            return []
        hyperplane_set = self.hyperplane_set(reference.dimension)

        by_region: Dict[tuple, List[PeerInfo]] = {}
        for candidate in others:
            signature = hyperplane_set.signature(
                candidate.coordinates, reference=reference.coordinates
            )
            by_region.setdefault(signature, []).append(candidate)

        selected: List[int] = []
        for signature in sorted(by_region):
            region_candidates = by_region[signature]
            region_candidates.sort(
                key=lambda peer: (
                    self._distance(reference.coordinates, peer.coordinates),
                    peer.peer_id,
                )
            )
            selected.extend(peer.peer_id for peer in region_candidates[: self._k])
        return selected

    #: ``(reference, candidates) -> ids``: the numpy selection of the instances
    #: that have one (orthogonal, K-closest), for named Minkowski distances.
    _select_vectorised: Optional[Callable[[PeerInfo, Sequence[PeerInfo]], List[int]]] = None

    def select_many(
        self,
        references: Sequence[PeerInfo],
        candidates_by_peer: Mapping[int, Collection],
        *,
        index: "Optional[SpatialIndex]" = None,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Batched selection; numpy per reference where an instance has it.

        The numpy path assumes the well-formed inputs the overlay layer
        provides and is only taken for large candidate sets where it pays
        off; everything else goes through the generic per-peer loop.  With
        an ``index`` every reference is one ``region_top_k`` query.
        """
        if self._distance_order is None or self._select_vectorised is None:
            return super().select_many(
                references, candidates_by_peer, index=index, member_of=member_of
            )
        return self._select_many_dispatch(
            references,
            candidates_by_peer,
            VECTORISE_THRESHOLD,
            self._select_vectorised,
            index=index,
            member_of=member_of,
        )

    def _select_indexed(
        self, reference: PeerInfo, index: "SpatialIndex"
    ) -> List[int]:
        """Per-region top-``K`` over the spatial index.

        One :meth:`~repro.geometry.index.SpatialIndex.region_top_k` query
        answers the whole selection: the index discovers the non-empty
        regions and their ``K`` closest members by best-first traversal,
        output-sensitive in ``regions x K`` instead of linear in the
        candidate count.  The emission order matches the scan exactly --
        regions in sorted signature order, members in ``(distance, peer
        id)`` rank order.  Shared by the whole Hyperplanes family
        (orthogonal, sign-coefficient and the ``H = 0`` K-closest instance,
        whose single region makes this the classic nearest-``K`` query).
        """
        hyperplane_set = self.hyperplane_set(reference.dimension)
        regions = index.region_top_k(
            reference.coordinates,
            hyperplane_set,
            self._k,
            order=self._distance_order,
            exclude=(reference.peer_id,),
        )
        selected: List[int] = []
        for signature in sorted(regions):
            selected.extend(regions[signature])
        return selected

    def select_many_additive(
        self,
        updates: Sequence[Tuple[PeerInfo, Collection, Collection]],
        *,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Per-region top-``K`` delta rule for candidate sets that only gained.

        The regions are independent and the per-region ranking is the strict
        total order ``(distance, peer id)``, so a single gained candidate
        ``Q`` can only affect *its own* region of the reference peer: the
        new selection of that region is the top ``K`` of ``previous region
        selection + Q``, and every other region is untouched.  Concretely:

        * if the region already holds ``K`` members that all rank ahead of
          ``Q``, the selection is unchanged (the reference is *omitted* from
          the result, which callers read as "unchanged");
        * otherwise ``Q`` enters and the now ``(K+1)``-th ranked member of
          the region -- if any -- is evicted.

        Updates with several gained candidates (gossip-limited rounds on
        small neighbourhoods) fall back to a full ``select`` over ``selected
        + gained``, which path independence makes exact.  The rule is shared
        by the whole Hyperplanes family -- orthogonal, sign-coefficient and
        the degenerate ``H = 0`` (K-closest, one region) instance.
        """
        results: Dict[int, List[int]] = {}
        for reference, selected, gained in updates:
            if member_of is not None:  # the rule ranks PeerInfo objects
                selected = self._id_sorted(selected, member_of)
                gained = self._id_sorted(gained, member_of)
            gained_others = self._exclude_reference(reference, gained)
            if not gained_others:
                continue
            selected_ids = {peer.peer_id for peer in selected}
            if len(gained_others) > 1 or gained_others[0].peer_id in selected_ids:
                results[reference.peer_id] = self.select(
                    reference, self.merge_candidate_delta(selected, gained)
                )
                continue
            gained_peer = gained_others[0]
            hyperplane_set = self.hyperplane_set(reference.dimension)
            signature = hyperplane_set.signature(
                gained_peer.coordinates, reference=reference.coordinates
            )

            def rank(peer: PeerInfo) -> Tuple[float, int]:
                return (
                    self._distance(reference.coordinates, peer.coordinates),
                    peer.peer_id,
                )

            region = [
                peer
                for peer in selected
                if hyperplane_set.signature(
                    peer.coordinates, reference=reference.coordinates
                )
                == signature
            ]
            ranked = sorted(region + [gained_peer], key=rank)
            kept = ranked[: self._k]
            if gained_peer not in kept:
                continue
            evicted = {peer.peer_id for peer in ranked[self._k :]}
            new_selection = [
                peer.peer_id for peer in selected if peer.peer_id not in evicted
            ]
            new_selection.append(gained_peer.peer_id)
            results[reference.peer_id] = sorted(new_selection)
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(k={self._k})"
