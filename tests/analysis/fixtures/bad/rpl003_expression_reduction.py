"""Known-bad: array reductions on expressions and numpy contractions."""

import numpy as np


def box_volume(upper, lower):
    return (upper - lower).prod()  # expect: RPL003


def first_row_score(rows, weights):
    return rows[0].dot(weights)  # expect: RPL003


def scores(matrix, weights):
    return np.einsum("ij,j->i", matrix, weights)  # expect: RPL003
