"""Benchmark: insert-one-converge convergence on the incremental engine.

The paper's experimental procedure inserts peers one by one and lets the
overlay converge after every insertion; the engine re-selects only the peers
whose candidate sets changed.  This benchmark builds empty-rectangle
overlays that way, checks each against the equilibrium witness, and counts
the reselections the engine asks of the selection method against an
absolute ceiling per size (measured 1,041 at ``N = 100`` and 4,309 at
``N = 300``, where a synchronous sweep per insertion asks 10,098 and 90,298;
an engine that stopped skipping clean peers would read like the sweep).  The
counts repeat exactly for a seed; the wall time is printed, not asserted.
At churn scale (``N = 1000``) the same build is timed.
"""

import random
import time

from conftest import print_report

from repro.experiments.common import derive_seed
from repro.metrics.reporting import format_table
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers

# Counted sizes with their reselection ceilings (about twice the measured
# 522 / 1,812 at smoke scale and 1,041 / 4,309 at bench scale), and the churn
# scale.
_COUNTED_SIZES = {"smoke": (60, 150), "bench": (100, 300), "paper": (100, 300)}
_RESELECTION_CEILINGS = {60: 1_000, 150: 3_600, 100: 2_000, 300: 9_000}
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


def _build(peers, seed, *, selection=None):
    start = time.perf_counter()
    overlay = OverlayNetwork.build_incremental(
        peers, selection or EmptyRectangleSelection(), rng=random.Random(seed)
    )
    return overlay, time.perf_counter() - start


def test_engine_reselections_stay_under_their_ceilings(scale):
    rows = []
    for count in _COUNTED_SIZES.get(scale.name, (100, 300)):
        seed = derive_seed(scale.seed, 20, count)
        peers = generate_peers(count, 2, seed=seed)
        counting = _CountingSelection()
        overlay, seconds = _build(peers, seed, selection=counting)
        equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert overlay.directed_neighbour_map() == equilibrium.directed_neighbour_map()
        ceiling = _RESELECTION_CEILINGS[count]
        rows.append([count, counting.reselections, ceiling, f"{seconds:.2f}"])
        assert counting.reselections <= ceiling, (
            f"the engine asked for {counting.reselections} reselections at N={count}; "
            f"the ceiling is {ceiling}"
        )
    print_report(
        f"Insert-one-converge reselections [{scale.name}]",
        format_table(["N", "reselections", "ceiling", "wall (s)"], rows),
        "directed neighbour maps equal the equilibrium at every size",
    )


def test_incremental_converges_at_churn_scale(benchmark, scale):
    count = _CHURN_SCALE_SIZE.get(scale.name, 1000)
    seed = derive_seed(scale.seed, 21, count)
    peers = generate_peers(count, 2, seed=seed)

    overlay = benchmark.pedantic(
        lambda: _build(peers, seed)[0], iterations=1, rounds=1
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
