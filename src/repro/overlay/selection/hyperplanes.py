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

One rule, two computations of it.  :meth:`HyperplanesSelection.select`
over a candidate list is the literal scan.  Every batched entry point --
``select_many`` (per-peer candidate sets or the whole column),
``select_many_additive`` and ``compute_equilibrium`` -- is one
:func:`~repro.geometry.index.region_top_ks` call over a coordinate column,
which computes the scan's signatures, distances and ``(distance, id)``
order, ties and points on a plane included.  That is why the distance is
named, never a callable: each of the six names is a Minkowski norm (L1, L2,
L-infinity) the array pass knows by its order.
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
    Set,
    Tuple,
)

from repro.geometry.distance import MINKOWSKI_ORDERS, DistanceFunction, get_distance
from repro.geometry.hyperplane import HyperplaneSet
from repro.geometry.index import region_top_ks
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import MemberOf, NeighbourSelectionMethod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry.index import CoordinateColumn

__all__ = ["HyperplanesSelection"]

HyperplaneSetFactory = Callable[[int], HyperplaneSet]


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
        Name of the distance used for the "closest" ranking, one of the keys
        of :data:`repro.geometry.distance.MINKOWSKI_ORDERS`
        (case-insensitive); anything else is a :class:`ValueError`.
        Defaults to Euclidean distance.
    """

    # Per-region top-K under the strict (distance, peer id) total order is
    # path independent: removing a candidate ranked below the cut in its
    # region never changes any region's top K.
    path_independent = True

    def __init__(
        self,
        hyperplane_factory: HyperplaneSetFactory,
        *,
        k: int = 1,
        distance: str = "l2",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self._hyperplane_factory = hyperplane_factory
        self._k = k
        self._distance = get_distance(distance)  # validates the name
        # The Minkowski order the array pass ranks by.
        self._order = MINKOWSKI_ORDERS[distance.strip().lower()]
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
    def select(self, reference: PeerInfo, candidates: Sequence[PeerInfo]) -> List[int]:
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

    def compute_equilibrium(self, peers: Sequence[PeerInfo]) -> Dict[int, Set[int]]:
        """Full knowledge: every peer against the whole population in one
        pass (:meth:`_select_batch` over a temporary column)."""
        selected = self._select_batch(peers, MemberOf.adapt(peers).column)
        return {peer_id: set(ids) for peer_id, ids in selected.items()}

    def select_many(
        self,
        references: Sequence[PeerInfo],
        candidates_by_peer: Optional[Mapping[int, Collection]] = None,
        *,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Batched selection: one pass for a whole batch (:meth:`_select_batch`),
        against each reference's own candidates or, without
        ``candidates_by_peer``, the whole ``member_of.column``."""
        return self._select_batch(
            references, *self._candidate_rows(references, candidates_by_peer, member_of)
        )

    def select_many_additive(
        self,
        updates: Sequence[Tuple[PeerInfo, Collection, Collection]],
        *,
        member_of: Optional[MemberOf] = None,
    ) -> Dict[int, List[int]]:
        """Per-region top-``K`` of ``selected + gained``, every update a row
        of one pass.

        Path independence makes ``selected + gained`` stand in for the full
        candidate set of a clean reference.  Only changed selections are
        returned: those some gained id survives in.  If none survives, every
        region's top ``K`` is drawn from ``selected`` alone, which is
        ``selected``.
        """
        column, updates = self._additive_rows(updates, member_of)
        results = self._select_batch(
            [reference for reference, _, _ in updates],
            column,
            [[*selected, *gained] for _, selected, gained in updates],
        )
        return self._changed(updates, results)

    def _select_batch(
        self,
        references: Sequence[PeerInfo],
        column: "CoordinateColumn",
        rows: Optional[Sequence[Collection[int]]] = None,
    ) -> Dict[int, List[int]]:
        """Every reference answered in one
        :func:`~repro.geometry.index.region_top_ks` call over ``column``:
        from its own row of stored ids (any order, a repeat harmless), or
        from the whole column without ``rows``.  Origins are the references'
        own coordinates, so a reference need not be stored."""
        if not references:
            return {}
        reference_ids, origins = self._origins(references)
        selected = region_top_ks(
            column,
            origins,
            reference_ids,
            self.hyperplane_set(references[0].dimension),
            self._k,
            self._order,
            rows,
        )
        return dict(zip(reference_ids, selected))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(k={self._k})"
