"""Benchmark: incremental vs full-sweep insert-one-converge convergence.

The paper's experimental procedure inserts peers one by one and lets the
overlay converge after every insertion.  The full-sweep path re-runs
selection for every peer in every round (roughly cubic overall); the
incremental engine re-selects only peers whose candidate sets changed.  This
benchmark builds the same empty-rectangle overlays on both paths, checks
they produce identical directed neighbour maps, and counts the reselections
each path asks of the selection method -- the incremental path must ask for
at least 5x fewer at the largest cross-checked size (a counted healthy run:
12x at ``N = 150``, 20x at ``N = 300``; an engine that stopped skipping
clean peers reads 1x).  The counts repeat exactly for a seed; the wall times
are reported beside them and not asserted, because the sweep's cost is all
selection kernel and so prices the kernel, not the engine.  At churn scale
(``N = 1000``) only the incremental path runs: the full sweep needs tens of
minutes there, which is exactly the bottleneck the engine removes.
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


class _CountingSelection(EmptyRectangleSelection):
    """Tallies the reselections asked of the method: references handed to a
    full recompute (counted once, at the outer entry) plus additive updates."""

    def __init__(self):
        super().__init__()
        self.reselections = 0
        self._installing = False

    def select_many(self, references, candidates_by_peer, **kwargs):
        if not self._installing:
            self.reselections += len(references)
        return super().select_many(references, candidates_by_peer, **kwargs)

    def select_many_additive(self, updates, **kwargs):
        self.reselections += len(updates)
        return super().select_many_additive(updates, **kwargs)

    def install_many(self, full_references, candidates_by_peer, additive_cohorts, **kwargs):
        self.reselections += len(full_references)
        self._installing = True
        try:
            return super().install_many(
                full_references, candidates_by_peer, additive_cohorts, **kwargs
            )
        finally:
            self._installing = False


def _build(peers, seed, *, incremental, selection=None):
    start = time.perf_counter()
    overlay = OverlayNetwork.build_incremental(
        peers,
        selection or EmptyRectangleSelection(),
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
        fast_counts, slow_counts = _CountingSelection(), _CountingSelection()
        fast, fast_seconds = _build(peers, seed, incremental=True, selection=fast_counts)
        slow, slow_seconds = _build(peers, seed, incremental=False, selection=slow_counts)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        ratios[count] = slow_counts.reselections / max(fast_counts.reselections, 1)
        rows.append(
            [
                count,
                slow_counts.reselections,
                fast_counts.reselections,
                f"{ratios[count]:.1f}x",
                f"{slow_seconds:.2f}",
                f"{fast_seconds:.2f}",
            ]
        )
    print_report(
        f"Incremental vs full-sweep insert-one-converge [{scale.name}]",
        format_table(
            [
                "N",
                "full sweep (reselections)",
                "incremental (reselections)",
                "fewer",
                "full sweep (s)",
                "incremental (s)",
            ],
            rows,
        ),
        "identical directed neighbour maps at every size",
    )
    largest = max(sizes)
    assert ratios[largest] >= 5.0, (
        f"incremental path asked for only {ratios[largest]:.1f}x fewer reselections "
        f"than the full sweep at N={largest}; expected at least 5x"
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
