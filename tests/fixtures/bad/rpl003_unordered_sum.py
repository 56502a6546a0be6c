"""Known-bad: order-sensitive float accumulation in byte-identity code."""

import numpy as np


def total_weight(weights):
    """Sums dict values in hash-iteration order."""
    return sum(weights.values())  # expect: RPL003


def sorted_total(values):
    """Sorting fixes the order, but from Python 3.12 on builtin sum compensates."""
    return sum(sorted(values))  # expect: RPL003


def grid_mass(cells):
    return np.sum(cells)  # expect: RPL003


def row_keys(matrix):
    return matrix.sum(axis=1)  # expect: RPL003
