"""Benchmark: incremental vs full-sweep insert-one-converge convergence.

The paper's experimental procedure inserts peers one by one and lets the
overlay converge after every insertion.  The full-sweep path re-runs
selection for every peer in every round (roughly cubic overall); the
incremental engine re-selects only peers whose candidate sets changed.  This
benchmark builds the same empty-rectangle overlays on both paths, checks
they produce identical directed neighbour maps, and reports the wall-time
ratio -- the incremental path must win by at least 5x at the largest
cross-checked size.  At churn scale (``N = 1000``) only the incremental
path runs: the full sweep needs tens of minutes there, which is exactly the
bottleneck the engine removes.
"""

import random
import time

from conftest import print_report

from repro.experiments.common import derive_seed
from repro.metrics.reporting import format_table
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers

# Sizes cross-checked on both paths, and the incremental-only churn scale.
_CROSS_CHECK_SIZES = {"smoke": (60, 150), "bench": (100, 300), "paper": (100, 300)}
_CHURN_SCALE_SIZE = {"smoke": 300, "bench": 1000, "paper": 1000}


def _build(peers, seed, *, incremental):
    start = time.perf_counter()
    overlay = OverlayNetwork.build_incremental(
        peers,
        EmptyRectangleSelection(),
        rng=random.Random(seed),
        incremental=incremental,
    )
    return overlay, time.perf_counter() - start


def test_incremental_beats_full_sweep(scale):
    sizes = _CROSS_CHECK_SIZES.get(scale.name, (100, 300))
    rows = []
    ratios = {}
    for count in sizes:
        seed = derive_seed(scale.seed, 20, count)
        peers = generate_peers(count, 2, seed=seed)
        fast, fast_seconds = _build(peers, seed, incremental=True)
        slow, slow_seconds = _build(peers, seed, incremental=False)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        ratios[count] = slow_seconds / max(fast_seconds, 1e-9)
        rows.append(
            [count, f"{slow_seconds:.2f}", f"{fast_seconds:.2f}", f"{ratios[count]:.1f}x"]
        )
    print_report(
        f"Incremental vs full-sweep insert-one-converge [{scale.name}]",
        format_table(["N", "full sweep (s)", "incremental (s)", "speedup"], rows),
        "identical directed neighbour maps at every size",
    )
    largest = max(sizes)
    assert ratios[largest] >= 5.0, (
        f"incremental path only {ratios[largest]:.1f}x faster than the full "
        f"sweep at N={largest}; expected at least 5x"
    )


def test_incremental_converges_at_churn_scale(benchmark, scale):
    count = _CHURN_SCALE_SIZE.get(scale.name, 1000)
    seed = derive_seed(scale.seed, 21, count)
    peers = generate_peers(count, 2, seed=seed)

    overlay = benchmark.pedantic(
        lambda: _build(peers, seed, incremental=True)[0], iterations=1, rounds=1
    )

    assert overlay.peer_count == count
    # The insert-one-converge fixed point under full knowledge is the
    # equilibrium topology; the vectorised equilibrium builder is the
    # independent witness.
    equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
    assert overlay.directed_neighbour_map() == equilibrium.directed_neighbour_map()
    print_report(
        f"Churn-scale insert-one-converge [{scale.name}]",
        format_table(
            ["N", "path", "matches equilibrium"],
            [[count, "incremental", True]],
        ),
    )
