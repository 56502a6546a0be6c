"""What one two-dimensional ``orthant_skylines`` call costs at the ledger's shapes.

Every full empty-rectangle recompute in two dimensions is this kernel.  The
table pytest-benchmark prints for this file puts its per-call cost in the
log of every tier-1 run -- no profiler, no ledger pass -- at the
``references x members`` shapes the ledger's workloads really produce:

* 12 x 340 and 17 x 234: one full pass (``_KERNEL_ELEMENTS // members``
  references) over the alive population of ``churn_trace_er2d`` at its
  upper-quartile and its mean size (1,420 such passes per replay);
* 48 x 149 in member rows of about 24 ids: a bounded-gossip round's batch,
  each reference over its own candidate row within the union of all of
  them (the 634 calls of the seed-7 ``bounded_gossip_er2d`` body, its 514
  additive and 120 full batches: median 48.5 references over 149 members,
  p10-p90 18-94 references over 110-150 members, 23.9 ids per row);
* 8 x 3000: eight of the 3,000 one-reference passes of the all-dirty first
  convergence of ``cold_converge_er2d``.

No threshold: runner timings are not comparable, and the claim-bearing
numbers are the ledger's.  The only assertion is that the timed call is the
right answer, on one sampled reference against the brute force.
"""

from itertools import product

import numpy as np

import pytest

from repro.geometry.index import brute_force_orthant_skyline, orthant_skylines


@pytest.mark.parametrize(
    "references, members, ragged",
    [
        pytest.param(12, 340, False, id="churn-12x340"),
        pytest.param(17, 234, False, id="churn-17x234"),
        pytest.param(48, 149, True, id="bounded-gossip-48x149-rows"),
        pytest.param(8, 3000, False, id="cold-converge-8x3000"),
    ],
)
def test_quadrant_kernel_call(benchmark, references, members, ragged):
    rng = np.random.default_rng(members)
    coordinates = rng.random((members, 2)) * 1000.0
    ids = rng.permutation(3 * members)[:members].astype(np.int64)
    rows = rng.choice(members, size=references, replace=False)
    mask = rng.random((references, members)) < 24 / members if ragged else None
    member_rows = None if mask is None else np.nonzero(mask)

    selected = benchmark.pedantic(
        orthant_skylines,
        args=(coordinates[rows], ids[rows], ids, coordinates, member_rows),
        rounds=20,
        iterations=10,
        warmup_rounds=1,
    )

    sampled = int(rng.integers(references))
    visible = np.ones(members, dtype=bool) if mask is None else mask[sampled]
    points = dict(zip(ids[visible].tolist(), map(tuple, coordinates[visible].tolist())))
    reference = int(ids[rows[sampled]])
    expected = []
    for signs in product((-1, 1), repeat=2):
        expected.extend(
            brute_force_orthant_skyline(
                points, tuple(coordinates[rows[sampled]]), signs, exclude=(reference,)
            )
        )
    assert selected[sampled] == sorted(expected)
