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

Outside two dimensions, the Figure 1 cells ``N = 400, D = 3``, ``N = 300,
D = 5`` and ``N = 1000, D = 3`` are built by insertion under absolute wall
budgets (``slow``, in the weekly job), each map checked against
``build_equilibrium``: an additive update there once went through a
per-reference numpy loop and the builds ran 7-12x slower with every count
unchanged, and a whole-column full recompute there is the presorted skyline
pass, whose cells take many rounds at these sizes.  So are two Orthogonal
Hyperplanes cells of the Section 3 sweep, ``N = 300, D =
10, K = 5`` and ``N = 1000, D = 3, K = 2``, each map checked against the
literal per-peer loop: a per-pair Python additive rule and a k-d region
walk once took 184 s and 76 s there.
"""

import random
import time

import pytest
from conftest import persist_bench_record, print_report

from repro.experiments.common import derive_seed
from repro.metrics.reporting import format_table
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.base import NeighbourSelectionMethod
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.workloads.peers import generate_peers, generate_peers_with_lifetimes

# Counted sizes with their reselection ceilings (about twice the measured
# 522 / 1,812 at smoke scale and 1,041 / 4,309 at bench scale), and the churn
# scale.
_COUNTED_SIZES = {"smoke": (60, 150), "bench": (100, 300), "paper": (100, 300)}
_RESELECTION_CEILINGS = {60: 1_000, 150: 3_600, 100: 2_000, 300: 9_000}
_CHURN_SCALE_SIZE = {"smoke": 300, "bench": 1000, "paper": 1000}

# (N, D, wall budget in seconds) of the Figure 1 cells built outside two
# dimensions: about three times the 2.1 s, 5.2 s and 4.7-5.5 s they took on a
# shared 2-vCPU x86-64 box, so a slower runner does not flake and the old
# per-reference path (15.0 s and 62.1 s for the first two there) cannot pass.
_FIGURE1_CELLS = ((400, 3, 6.0), (300, 5, 16.0), (1000, 3, 15.0))

# (N, D, K) of the Orthogonal Hyperplanes cells built by insertion, each under
# a 25 s wall budget: about three times the 8.5-9.0 s both took on the same
# box, where the per-pair additive rule took 184 s and 76 s.
_ORTHOGONAL_CELLS = ((300, 10, 5), (1000, 3, 2))
_ORTHOGONAL_BUDGET = 25.0


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
    # equilibrium topology; build_equilibrium, every peer's select() against
    # everyone, is the independent witness.
    equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
    assert overlay.directed_neighbour_map() == equilibrium.directed_neighbour_map()
    print_report(
        f"Churn-scale insert-one-converge [{scale.name}]",
        format_table(
            ["N", "path", "matches equilibrium"],
            [[count, "incremental", True]],
        ),
    )


@pytest.mark.slow
@pytest.mark.parametrize("count,dimension,budget", _FIGURE1_CELLS)
def test_insertion_outside_two_dimensions_meets_its_wall_budget(count, dimension, budget):
    peers = generate_peers_with_lifetimes(count, dimension, seed=1)
    overlay, seconds = _build(peers, 1)
    start = time.perf_counter()
    witness = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
    witness_seconds = time.perf_counter() - start
    assert overlay.directed_neighbour_map() == witness.directed_neighbour_map()
    persist_bench_record(
        f"figure1_insertion_n{count}_d{dimension}",
        peer_count=count,
        wall_seconds=seconds,
        wall_budget_seconds=budget,
        dimension=dimension,
        witness_wall_seconds=round(witness_seconds, 3),
    )
    print_report(
        f"Insert-one-converge outside two dimensions [N={count}, D={dimension}]",
        format_table(
            ["N", "D", "wall (s)", "budget (s)", "witness (s)"],
            [[count, dimension, f"{seconds:.2f}", budget, f"{witness_seconds:.2f}"]],
        ),
    )
    assert seconds <= budget, (
        f"building N={count} D={dimension} by insertion took {seconds:.2f} s; "
        f"the budget is {budget} s"
    )


@pytest.mark.slow
@pytest.mark.parametrize("count,dimension,k", _ORTHOGONAL_CELLS)
def test_orthogonal_insertion_meets_its_wall_budget(count, dimension, k):
    peers = generate_peers_with_lifetimes(count, dimension, seed=1)
    selection = OrthogonalHyperplanesSelection(k=k)
    overlay, seconds = _build(peers, 1, selection=selection)
    start = time.perf_counter()
    literal = NeighbourSelectionMethod.compute_equilibrium(selection, peers)
    witness_seconds = time.perf_counter() - start
    assert overlay.directed_neighbour_map() == literal
    persist_bench_record(
        f"figure1_insertion_orthogonal_n{count}_d{dimension}_k{k}",
        peer_count=count,
        wall_seconds=seconds,
        wall_budget_seconds=_ORTHOGONAL_BUDGET,
        dimension=dimension,
        k=k,
        witness_wall_seconds=round(witness_seconds, 3),
    )
    print_report(
        f"Orthogonal Hyperplanes insert-one-converge [N={count}, D={dimension}, K={k}]",
        format_table(
            ["N", "D", "K", "wall (s)", "budget (s)", "literal loop (s)"],
            [[count, dimension, k, f"{seconds:.2f}", _ORTHOGONAL_BUDGET,
              f"{witness_seconds:.2f}"]],
        ),
    )
    assert seconds <= _ORTHOGONAL_BUDGET, (
        f"building Orthogonal N={count} D={dimension} K={k} by insertion took "
        f"{seconds:.2f} s; the budget is {_ORTHOGONAL_BUDGET} s"
    )
