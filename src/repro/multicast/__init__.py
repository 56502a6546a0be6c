"""Multicast tree construction -- the paper's primary contribution.

Two constructions are provided, both fully decentralized and both embedded
into the geometric P2P overlay of :mod:`repro.overlay`:

* :mod:`repro.multicast.space_partition` -- Section 2: responsibility-zone
  splitting along orthant regions; reaches every peer with ``N - 1``
  messages and bounds the per-peer tree degree by ``2^D``.
* :mod:`repro.multicast.stability` -- Section 3: lifetime-aware preferred
  neighbours; departures never disconnect the tree.

Supporting modules: the common tree model (:mod:`repro.multicast.tree`),
responsibility-zone algebra (:mod:`repro.multicast.zones`), dissemination and
churn analysis (:mod:`repro.multicast.dissemination`), the baselines the
constructions are compared against (:mod:`repro.multicast.baselines`), and
the event-driven maintenance layer (:mod:`repro.multicast.incremental`) that
keeps the Section 3 tree repaired in place under churn instead of rebuilding
it from topology snapshots.
"""

from repro.multicast.tree import MulticastTree, TreeValidationError
from repro.multicast.zones import (
    child_zone,
    initial_zone,
    uncovered_points,
    zone_excludes,
    zones_are_disjoint,
)
from repro.multicast.space_partition import (
    ConstructionResult,
    PickStrategy,
    SpacePartitionTreeBuilder,
    build_space_partition_tree,
)
from repro.multicast.stability import (
    PreferredNeighbourForest,
    StabilityTreeBuilder,
    build_stability_tree,
)
from repro.multicast.dissemination import (
    DepartureReport,
    DisseminationReport,
    TreeHealthSample,
    departure_health_series,
    disseminate,
    simulate_departures,
)
from repro.multicast.incremental import (
    OverlayConnectivityFeed,
    StabilityTreeMaintainer,
    TreeDelta,
    TreeMaintenanceEngine,
)
from repro.multicast.baselines import (
    FloodingResult,
    bfs_tree,
    flood_multicast,
    random_parent_tree,
    random_spanning_tree,
    sequential_unicast_tree,
)

__all__ = [
    "MulticastTree",
    "TreeValidationError",
    "initial_zone",
    "child_zone",
    "zones_are_disjoint",
    "zone_excludes",
    "uncovered_points",
    "PickStrategy",
    "ConstructionResult",
    "SpacePartitionTreeBuilder",
    "build_space_partition_tree",
    "PreferredNeighbourForest",
    "StabilityTreeBuilder",
    "build_stability_tree",
    "DisseminationReport",
    "DepartureReport",
    "TreeHealthSample",
    "disseminate",
    "simulate_departures",
    "departure_health_series",
    "TreeDelta",
    "TreeMaintenanceEngine",
    "StabilityTreeMaintainer",
    "OverlayConnectivityFeed",
    "FloodingResult",
    "flood_multicast",
    "bfs_tree",
    "random_spanning_tree",
    "random_parent_tree",
    "sequential_unicast_tree",
]
