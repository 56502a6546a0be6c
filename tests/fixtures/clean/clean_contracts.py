"""Clean corpus: near-miss shapes that must NOT trip any checker.

Each function sits as close to a rule's trigger as possible while honouring
the contract, so a checker that over-reaches fails the negative test.
"""

import math
import random


def ordered_total(weights):
    """Explicitly ordered accumulation is the sanctioned spelling."""
    total = 0.0
    for key in sorted(weights):
        total += weights[key]
    return total


def sorted_sum(values):
    return sum(sorted(values))


def insensitive_total(values):
    return math.fsum(values)


def seeded_generator(seed=0, rng=None):
    """The rng-parameter seeding contract (PR 4)."""
    return rng if rng is not None else random.Random(seed)
