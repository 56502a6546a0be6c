"""Benchmark: index-backed full convergence vs the scan path at ``N = 2000``.

The spatial index replaces the last super-linear hot path of the
convergence stack: a full recomputation's ``O(N)`` candidate scan per dirty
peer.  This benchmark builds the Section 2 workload at ``N = 2000`` (``D =
2``, the dimension of the paper's Figure 1(c) scaling experiments, with
lifetimes embedded so the stability tree is defined) and drives the same
two-phase scenario through an index-backed overlay and a scan-path overlay:

* **full convergence** -- every peer joins (chain bootstrap), then one
  incremental convergence resolves the entire population from the all-dirty
  state: ``N`` full selections, the index's home turf;
* **churn epochs** -- 5% of the population departs in one batch and rejoins
  in the next, with a live :class:`StabilityTreeMaintainer` refreshed per
  epoch -- the departures force scan-path selectors onto ``O(N)``
  recomputations, the rejoins exercise the additive path both arms share.

Both arms must land on the byte-identical overlay fixed point and
byte-identical maintained stability tree.  Both also answer full recomputes
with the batched quadrant kernel -- the indexed arm over the index's
coordinate column, a cohort of references per call; the scan arm over arrays
it builds from ``PeerInfo`` objects, one masked call per round -- so their
ratio measures column reuse, not an index against a Python loop, and stopped
being a floor worth asserting (7.98x with the k-d walk, ~5x at PR 14, 2.5x
once PR 16 batched the scan arm).  The index-backed arm is therefore held to
an **absolute** wall-clock budget (ROADMAP aim 1), and the ratio only to
``>= 1``: the index may never be the slower way to converge.  Marked
``slow``: the two arms take several seconds, so the CI tier-1 job deselects
it and the weekly scheduled job asserts the budget.
"""

import time

import pytest
from conftest import persist_bench_record, print_report

from repro.experiments.common import derive_seed
from repro.metrics.reporting import format_table
from repro.multicast.incremental import StabilityTreeMaintainer
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers_with_lifetimes

pytestmark = pytest.mark.slow

_PEER_COUNT = 2000
_DIMENSION = 2
_CHURN_STRIDE = 20  # every 20th peer departs and rejoins: 100 peers per phase
_SPEEDUP_FLOOR = 1.0
# Index-backed arm, converge + churn.  Measured 0.6-0.8 s with the packed-key
# kernel (1.95 s before it); the slack is for slower runners, not for drift.
_WALL_BUDGET_SECONDS = 1.5


def _run(peers, *, use_index):
    overlay = OverlayNetwork(EmptyRectangleSelection(), use_index=use_index)
    started = time.perf_counter()
    for peer in peers:
        overlay.add_peer(peer)
    rounds = overlay.converge(max_rounds=80)
    converge_seconds = time.perf_counter() - started

    maintainer = StabilityTreeMaintainer(overlay)
    churn = peers[::_CHURN_STRIDE]
    started = time.perf_counter()
    overlay.apply_batch([peer.peer_id for peer in churn])
    maintainer.refresh()
    overlay.apply_batch(list(churn))
    maintainer.refresh()
    churn_seconds = time.perf_counter() - started
    return overlay, maintainer, rounds, converge_seconds, churn_seconds


def test_indexed_convergence_meets_its_budget_with_identical_fixed_point(scale):
    seed = derive_seed(scale.seed, 29, _PEER_COUNT)
    peers = generate_peers_with_lifetimes(_PEER_COUNT, _DIMENSION, seed=seed)

    fast, fast_tree, fast_rounds, fast_converge, fast_churn = _run(
        peers, use_index=True
    )
    slow, slow_tree, slow_rounds, slow_converge, slow_churn = _run(
        peers, use_index=False
    )

    # Identical trajectories: same rounds, byte-identical overlay and tree.
    assert fast_rounds == slow_rounds
    assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
    assert fast_tree.engine.parent_map() == slow_tree.engine.parent_map()
    assert fast.index is not None and fast.index.ids() == fast.peer_ids

    fast_total = fast_converge + fast_churn
    slow_total = slow_converge + slow_churn
    speedup = slow_total / max(fast_total, 1e-9)
    print_report(
        f"Index-backed vs scan-path convergence [N={_PEER_COUNT}, D={_DIMENSION}]",
        format_table(
            ["arm", "rounds", "converge [s]", "churn [s]", "total [s]"],
            [
                [
                    "spatial index",
                    fast_rounds,
                    f"{fast_converge:.2f}",
                    f"{fast_churn:.2f}",
                    f"{fast_total:.2f}",
                ],
                [
                    "candidate scan",
                    slow_rounds,
                    f"{slow_converge:.2f}",
                    f"{slow_churn:.2f}",
                    f"{slow_total:.2f}",
                ],
            ],
        ),
        f"kd-tree rebuilds on the indexed arm: {fast.index.rebuilds}",
        f"index-backed wall: {fast_total:.2f}s (budget {_WALL_BUDGET_SECONDS}s); "
        f"against the scan path: {speedup:.1f}x (floor {_SPEEDUP_FLOOR:.0f}x)",
    )
    assert fast_total <= _WALL_BUDGET_SECONDS, (
        f"the index-backed run took {fast_total:.2f}s; its budget is "
        f"{_WALL_BUDGET_SECONDS}s"
    )
    assert speedup >= _SPEEDUP_FLOOR, (
        f"the index-backed run took {fast_total:.2f}s against {slow_total:.2f}s "
        "for the scan path: the index is the slower way to converge"
    )
    persist_bench_record(
        "index_scaling_full_convergence",
        peer_count=_PEER_COUNT,
        wall_seconds=fast_total,
        speedup=speedup,
        speedup_floor=_SPEEDUP_FLOOR,
        wall_budget_seconds=_WALL_BUDGET_SECONDS,
        baseline_wall_seconds=round(slow_total, 3),
        dimension=_DIMENSION,
        converge_wall_seconds=round(fast_converge, 3),
        baseline_converge_wall_seconds=round(slow_converge, 3),
        churn_wall_seconds=round(fast_churn, 3),
        baseline_churn_wall_seconds=round(slow_churn, 3),
    )
