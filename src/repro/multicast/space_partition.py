"""Space-partitioning multicast tree construction (Section 2 of the paper).

The construction is fully decentralized: a peer ``P`` that receives a tree
construction request carrying its responsibility zone ``Z(P)``

1. classifies its overlay neighbours that lie inside ``Z(P)`` into the
   ``2^D`` orthant regions relative to its own identifier (the classification
   of the Orthogonal Hyperplanes method),
2. inside every non-empty region, sorts the neighbours by L1 distance and
   selects the one with the *median* distance,
3. computes the selected neighbour's zone ``Z(Q)`` as the intersection of
   ``Z(P)`` with the open orthant rectangle of ``Q``'s region, and
4. forwards the request (with ``Z(Q)`` inside) to every selected neighbour.

Because the child zones are disjoint, exclude ``P`` and jointly cover the
not-yet-reached part of ``Z(P)``, the construction reaches every peer exactly
once using ``N - 1`` messages, and the tree degree of every peer is bounded
by ``2^D`` children (plus the parent link).

This module implements the construction as a deterministic walk over a
topology snapshot.  :mod:`repro.simulation.protocol` replays the same logic
message-by-message over the simulated network; both produce identical trees,
which is covered by integration tests.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry.distance import DistanceFunction, get_distance
from repro.geometry.rectangle import HyperRectangle
from repro.geometry.regions import orthant_signs
from repro.multicast.tree import MulticastTree
from repro.multicast.zones import child_zone, initial_zone
from repro.overlay.peer import PeerInfo
from repro.overlay.topology import TopologySnapshot

__all__ = [
    "PickStrategy",
    "ConstructionResult",
    "SpacePartitionTreeBuilder",
    "build_space_partition_tree",
    "select_zone_children",
]


class PickStrategy:
    """Which neighbour of a region is selected as the tree child.

    The paper selects the neighbour with the *median* L1 distance.  The other
    strategies are used by the pick-strategy ablation (A2) to show how the
    choice trades tree depth against subtree balance.
    """

    MEDIAN = "median"
    NEAREST = "nearest"
    FARTHEST = "farthest"
    RANDOM = "random"

    ALL = (MEDIAN, NEAREST, FARTHEST, RANDOM)


def select_zone_children(
    reference: PeerInfo,
    neighbours: Sequence[PeerInfo],
    zone: HyperRectangle,
    *,
    pick_strategy: str = PickStrategy.MEDIAN,
    distance: "DistanceFunction | str" = "l1",
    zero_sign: int = 1,
    rng: Optional[random.Random] = None,
) -> List[Tuple[PeerInfo, HyperRectangle]]:
    """One construction step of the Section 2 algorithm, as a pure function.

    Given the peer currently holding the request (``reference``), the overlay
    neighbours it knows about and its responsibility zone, return the selected
    children together with the responsibility zones to forward to them.  This
    is the exact per-peer decision rule; it is shared by the offline
    :class:`SpacePartitionTreeBuilder` and by the message-level protocol in
    :mod:`repro.simulation.protocol`, so the two can never diverge.
    """
    if pick_strategy not in PickStrategy.ALL:
        raise ValueError(
            f"unknown pick strategy {pick_strategy!r}; expected one of {PickStrategy.ALL}"
        )
    distance_fn = get_distance(distance) if isinstance(distance, str) else distance
    generator = rng if rng is not None else random.Random(0)

    by_region: Dict[Tuple[int, ...], List[Tuple[float, int, PeerInfo]]] = {}
    for neighbour in neighbours:
        if neighbour.peer_id == reference.peer_id:
            continue
        if not zone.contains(neighbour.coordinates):
            continue
        signs = orthant_signs(
            reference.coordinates, neighbour.coordinates, zero_sign=zero_sign
        )
        ranking_key = distance_fn(reference.coordinates, neighbour.coordinates)
        by_region.setdefault(signs, []).append((ranking_key, neighbour.peer_id, neighbour))

    children: List[Tuple[PeerInfo, HyperRectangle]] = []
    for signs in sorted(by_region):
        ranked = sorted(by_region[signs], key=lambda entry: (entry[0], entry[1]))
        if pick_strategy == PickStrategy.MEDIAN:
            chosen = ranked[(len(ranked) - 1) // 2][2]
        elif pick_strategy == PickStrategy.NEAREST:
            chosen = ranked[0][2]
        elif pick_strategy == PickStrategy.FARTHEST:
            chosen = ranked[-1][2]
        else:
            chosen = generator.choice(ranked)[2]
        zone_for_child = child_zone(
            zone, reference.coordinates, chosen.coordinates, zero_sign=zero_sign
        )
        children.append((chosen, zone_for_child))
    return children


@dataclass
class ConstructionResult:
    """Everything the construction produced, for measurement and validation.

    Attributes
    ----------
    tree:
        The multicast tree (root = initiator).
    messages_sent:
        Number of construction request messages sent.  The paper's claim is
        that this equals ``N - 1`` when every peer is reached.
    duplicate_deliveries:
        Requests delivered to a peer that had already received one.  Zero by
        construction when the zones are managed correctly.
    unreached_peers:
        Peers of the initiator's zone that never received a request.  Empty
        at full-knowledge equilibrium; may be non-empty on degraded overlays
        (which the coverage ablation measures).
    zones:
        The responsibility zone each reached peer received.
    region_fanout:
        For each reached peer, the number of children it forwarded to
        (bounded by ``2^D``).
    """

    tree: MulticastTree
    messages_sent: int
    duplicate_deliveries: int
    unreached_peers: Set[int]
    zones: Dict[int, HyperRectangle]
    region_fanout: Dict[int, int] = field(default_factory=dict)

    @property
    def reached_count(self) -> int:
        """Number of peers that received the construction request."""
        return self.tree.size

    @property
    def delivered_everywhere(self) -> bool:
        """``True`` when every peer of the overlay was reached."""
        return not self.unreached_peers

    @property
    def longest_root_to_leaf_path(self) -> int:
        """Longest root-to-leaf path of the constructed tree, in hops."""
        return self.tree.height()


class SpacePartitionTreeBuilder:
    """Builds Section 2 multicast trees over a topology snapshot.

    Parameters
    ----------
    pick_strategy:
        How the child of each orthant region is chosen; the paper uses
        ``"median"``.
    distance:
        Distance used to rank neighbours inside a region (paper: L1).
    rng:
        Source of randomness for the ``"random"`` pick strategy; ignored by
        the deterministic strategies.
    zero_sign:
        Tie-break for coordinates equal to the reference peer's coordinate
        (never triggered on paper workloads, which have distinct
        coordinates).
    """

    def __init__(
        self,
        *,
        pick_strategy: str = PickStrategy.MEDIAN,
        distance: "DistanceFunction | str" = "l1",
        rng: Optional[random.Random] = None,
        zero_sign: int = 1,
    ) -> None:
        if pick_strategy not in PickStrategy.ALL:
            raise ValueError(
                f"unknown pick strategy {pick_strategy!r}; expected one of {PickStrategy.ALL}"
            )
        self._pick_strategy = pick_strategy
        self._distance = get_distance(distance) if isinstance(distance, str) else distance
        self._rng = rng if rng is not None else random.Random(0)
        self._zero_sign = zero_sign

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(
        self,
        topology: TopologySnapshot,
        root: int,
        *,
        scope: Optional[HyperRectangle] = None,
    ) -> ConstructionResult:
        """Construct the multicast tree initiated by ``root``.

        ``scope`` restricts the initiator's responsibility zone; by default it
        is the whole coordinate space, i.e. the multicast group is "everyone".
        """
        if root not in topology.peers:
            raise KeyError(f"root {root} is not a peer of the topology")
        peers = topology.peers
        dimension = peers[root].dimension
        root_zone = scope if scope is not None else initial_zone(dimension)
        if root_zone.dimension != dimension:
            raise ValueError(
                f"scope dimension {root_zone.dimension} does not match peer dimension {dimension}"
            )
        if not root_zone.contains(peers[root].coordinates):
            raise ValueError("the initiator must lie inside its own responsibility zone")

        parents: Dict[int, Optional[int]] = {root: None}
        zones: Dict[int, HyperRectangle] = {root: root_zone}
        region_fanout: Dict[int, int] = {}
        messages_sent = 0
        duplicate_deliveries = 0

        queue = deque([root])
        while queue:
            current = queue.popleft()
            current_info = peers[current]
            current_zone = zones[current]
            neighbours = [peers[n] for n in sorted(topology.adjacency[current])]
            children = select_zone_children(
                current_info,
                neighbours,
                current_zone,
                pick_strategy=self._pick_strategy,
                distance=self._distance,
                zero_sign=self._zero_sign,
                rng=self._rng,
            )
            region_fanout[current] = len(children)
            for child_info, zone in children:
                child_id = child_info.peer_id
                messages_sent += 1
                if child_id in parents:
                    duplicate_deliveries += 1
                    continue
                parents[child_id] = current
                zones[child_id] = zone
                queue.append(child_id)

        tree = MulticastTree(root, parents)
        in_scope = {
            peer_id
            for peer_id, info in peers.items()
            if root_zone.contains(info.coordinates)
        }
        unreached = in_scope - set(parents)
        return ConstructionResult(
            tree=tree,
            messages_sent=messages_sent,
            duplicate_deliveries=duplicate_deliveries,
            unreached_peers=unreached,
            zones=zones,
            region_fanout=region_fanout,
        )

    def build_from_every_root(
        self, topology: TopologySnapshot, *, roots: Optional[Sequence[int]] = None
    ) -> Dict[int, ConstructionResult]:
        """Construct one tree per initiator (the paper initiates from every peer).

        ``roots`` restricts the initiators (the figure benchmarks sample roots
        to keep runtimes reasonable); by default every peer initiates once.
        """
        selected_roots = list(roots) if roots is not None else sorted(topology.peers)
        return {root: self.build(topology, root) for root in selected_roots}

def build_space_partition_tree(
    topology: TopologySnapshot,
    root: int,
    *,
    pick_strategy: str = PickStrategy.MEDIAN,
    distance: "DistanceFunction | str" = "l1",
) -> ConstructionResult:
    """Convenience wrapper: build one Section 2 tree with default settings."""
    builder = SpacePartitionTreeBuilder(pick_strategy=pick_strategy, distance=distance)
    return builder.build(topology, root)
