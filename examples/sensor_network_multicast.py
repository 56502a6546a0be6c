"""Sensor-network scenario: battery-aware multicast in a clustered deployment.

The paper's second motivation for Section 3 is wireless sensor networks: each
sensor knows the remaining lifetime of its battery.  This example combines
both of the paper's constructions on one deployment:

1. sensors are placed in geographic clusters (clustered virtual coordinates)
   and their battery lifetime becomes the first coordinate,
2. a battery-aware stability tree is built for long-running telemetry
   dissemination (departures of drained sensors never break it), and
3. a *scoped* space-partitioning multicast is run to push a command to the
   sensors of one geographic region only, showing responsibility zones used
   as a group abstraction.

Run with:  python examples/sensor_network_multicast.py
"""

from __future__ import annotations

from repro import (
    EmptyRectangleSelection,
    OrthogonalHyperplanesSelection,
    OverlayNetwork,
    SpacePartitionTreeBuilder,
    StabilityTreeBuilder,
)
from repro.geometry.point import Point
from repro.geometry.rectangle import HyperRectangle, Interval
from repro.metrics.reporting import format_table
from repro.multicast.dissemination import simulate_departures
from repro.overlay.peer import make_peer
from repro.workloads.coordinates import clustered_coordinates
from repro.workloads.lifetimes import battery_lifetimes


def build_sensor_population(count: int, seed: int):
    """Sensors at clustered 2-D positions with battery lifetime as coordinate 0."""
    positions = clustered_coordinates(count, 2, clusters=5, spread=0.06, seed=seed)
    batteries = battery_lifetimes(count, mean=500.0, spread=0.6, seed=seed + 1)
    return [
        make_peer(index, Point((battery,) + tuple(position)))
        for index, (battery, position) in enumerate(zip(batteries, positions))
    ]


def main() -> None:
    sensor_count = 220
    sensors = build_sensor_population(sensor_count, seed=7)

    # Battery-aware dissemination tree (Section 3) over an orthogonal overlay.
    lifetime_overlay = OverlayNetwork.build_equilibrium(
        sensors, OrthogonalHyperplanesSelection(k=2)
    )
    forest = StabilityTreeBuilder().build(lifetime_overlay.snapshot())
    telemetry_tree = forest.to_multicast_tree()
    drain_order = sorted(sensors, key=lambda s: s.lifetime)
    drain_report = simulate_departures(telemetry_tree, [s.peer_id for s in drain_order])

    print("Battery-aware telemetry tree (Section 3)")
    print(
        format_table(
            ["sensors", "height", "diameter", "max degree", "disconnections"],
            [
                [
                    sensor_count,
                    telemetry_tree.height(),
                    telemetry_tree.diameter(),
                    telemetry_tree.maximum_degree(),
                    drain_report.non_leaf_departures,
                ]
            ],
        )
    )

    # Region-scoped command multicast (Section 2) over the geographic overlay.
    geographic_overlay = OverlayNetwork.build_equilibrium(sensors, EmptyRectangleSelection())
    topology = geographic_overlay.snapshot()
    # Scope: all battery levels, but only sensors in one geographic quadrant.
    region = HyperRectangle(
        [Interval.unbounded(), Interval.closed(0.0, 500.0), Interval.closed(0.0, 500.0)]
    )
    in_region = [s for s in sensors if region.contains(s.coordinates)]
    gateway = min(in_region, key=lambda s: s.peer_id)
    command = SpacePartitionTreeBuilder().build(topology, gateway.peer_id, scope=region)

    print("\nRegion-scoped command multicast (Section 2)")
    print(
        format_table(
            ["sensors in region", "reached", "messages", "duplicates", "height"],
            [
                [
                    len(in_region),
                    command.reached_count,
                    command.messages_sent,
                    command.duplicate_deliveries,
                    command.tree.height(),
                ]
            ],
        )
    )
    coverage = command.reached_count / len(in_region)
    print(
        f"\nThe command reached {coverage:.0%} of the region's sensors using "
        f"{command.messages_sent} messages; sensors outside the region were never contacted."
    )

    assert drain_report.is_stable
    assert all(region.contains(sensors[node].coordinates) for node in command.tree.nodes())


if __name__ == "__main__":
    main()
