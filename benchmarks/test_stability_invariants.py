"""Textual claim X2: the preferred-neighbour links always form a lifetime-ordered tree.

The paper reports that for every tested ``(D, K)`` the links formed a tree
rooted at the peer with the largest ``T``, with ``T`` strictly decreasing
towards the leaves.  This bench re-checks the claim over the Section 3 sweep
and additionally replays the departures in lifetime order to confirm the
operational consequence: the tree is never disconnected by a departure.
"""

from conftest import print_report

from repro.experiments.common import build_section3_topology, derive_seed
from repro.metrics.reporting import format_table
from repro.multicast.dissemination import simulate_departures
from repro.multicast.stability import StabilityTreeBuilder


def _check_invariants(scale):
    builder = StabilityTreeBuilder()
    rows = []
    all_hold = True
    for dimension in scale.section3_dimensions:
        for k in (scale.k_values[0], scale.k_values[-1]):
            topology = build_section3_topology(
                scale.peer_count, dimension, k, seed=derive_seed(scale.seed, 30, dimension, k)
            )
            forest = builder.build(topology)
            is_tree = forest.is_single_tree()
            ordered = forest.parents_outlive_children()
            rooted = forest.root_has_largest_lifetime()
            stable = False
            if is_tree:
                tree = forest.to_multicast_tree()
                lifetimes = {p: info.lifetime for p, info in topology.peers.items()}
                order = sorted(lifetimes, key=lifetimes.get)
                stable = simulate_departures(tree, order).is_stable
            all_hold = all_hold and is_tree and ordered and rooted and stable
            rows.append([dimension, k, is_tree, rooted, ordered, stable])
    return rows, all_hold


def test_stability_invariants_hold_for_every_configuration(benchmark, scale):
    rows, all_hold = benchmark.pedantic(_check_invariants, args=(scale,), iterations=1, rounds=1)
    print_report(
        f"Claim X2 - preferred links form a lifetime-ordered tree [{scale.name}]",
        format_table(
            ["D", "K", "single tree", "rooted at max T", "T decreasing", "departure-stable"],
            rows,
        ),
    )
    assert all_hold
