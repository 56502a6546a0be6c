"""Cloud-lease scenario: stability multicast trees when departure times are known.

The paper motivates Section 3 with cloud computing: peers are applications on
virtual machines leased for fixed periods, so every peer knows exactly when
it will leave.  This example:

1. generates peers whose departure time comes from a lease model (random
   start plus one of a few fixed lease durations) and embeds it as the first
   virtual coordinate,
2. builds the Orthogonal Hyperplanes overlay,
3. builds the preferred-neighbour (stability) multicast tree, and
4. replays the lease expirations in order against both the stability tree and
   a lifetime-oblivious BFS tree of the same overlay, counting how many
   departures disconnect each.

Run with:  python examples/cloud_lease_multicast.py
"""

from __future__ import annotations

from repro import OrthogonalHyperplanesSelection, OverlayNetwork, StabilityTreeBuilder
from repro.geometry.point import Point
from repro.metrics.reporting import format_table
from repro.multicast.baselines import bfs_tree
from repro.multicast.dissemination import simulate_departures
from repro.overlay.peer import make_peer
from repro.workloads.coordinates import distinct_uniform_coordinates
from repro.workloads.lifetimes import lease_lifetimes


def build_lease_population(count: int, dimension: int, seed: int):
    """Peers whose first coordinate is a lease expiry time (minutes from now)."""
    lifetimes = lease_lifetimes(count, lease_durations=[60.0, 360.0, 1440.0], seed=seed)
    other_axes = distinct_uniform_coordinates(count, dimension - 1, vmax=1440.0, seed=seed + 1)
    return [
        make_peer(index, Point((lifetime,) + tuple(axes)))
        for index, (lifetime, axes) in enumerate(zip(lifetimes, other_axes))
    ]


def main() -> None:
    peer_count, dimension, k = 250, 3, 2
    peers = build_lease_population(peer_count, dimension, seed=2024)

    overlay = OverlayNetwork.build_equilibrium(peers, OrthogonalHyperplanesSelection(k=k))
    topology = overlay.snapshot()

    forest = StabilityTreeBuilder().build(topology)
    assert forest.is_single_tree(), "preferred links must form a single tree"
    stability_tree = forest.to_multicast_tree()

    lifetimes = {peer.peer_id: peer.lifetime for peer in peers}
    departure_order = sorted(lifetimes, key=lifetimes.get)

    oblivious_tree = bfs_tree(topology, root=departure_order[len(departure_order) // 2])

    stability_report = simulate_departures(stability_tree, departure_order)
    oblivious_report = simulate_departures(oblivious_tree, departure_order, stop_at_root=False)

    print("Lease-aware vs lease-oblivious multicast trees "
          f"({peer_count} peers, D={dimension}, K={k})")
    print(
        format_table(
            ["tree", "height", "diameter", "max degree", "disconnections", "orphaned peers"],
            [
                [
                    "stability (Section 3)",
                    stability_tree.height(),
                    stability_tree.diameter(),
                    stability_tree.maximum_degree(),
                    stability_report.non_leaf_departures,
                    stability_report.orphaned_peer_events,
                ],
                [
                    "BFS (lease-oblivious)",
                    oblivious_tree.height(),
                    oblivious_tree.diameter(),
                    oblivious_tree.maximum_degree(),
                    oblivious_report.non_leaf_departures,
                    oblivious_report.orphaned_peer_events,
                ],
            ],
        )
    )
    print(
        "\nEvery lease expiry removes a leaf of the stability tree, so the session "
        "never loses connectivity; the oblivious tree strands "
        f"{oblivious_report.orphaned_peer_events} peer-deliveries over the same schedule."
    )

    assert stability_report.is_stable
    assert forest.parents_outlive_children()


if __name__ == "__main__":
    main()
