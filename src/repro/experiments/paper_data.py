"""Reference series digitized from the paper's Figure 1.

The brief announcement reports all results as small bar/line charts without
numeric tables, so the values below are approximate readings of Figure 1
(a)-(e).  They are used only for *shape* comparison (orderings, trends,
rough magnitudes) in the benchmark output; nothing in the library treats
them as exact.

All series are for ``N = 1000`` peers except panel (c), which sweeps ``N``
at ``D = 2``.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "FIGURE_1A_MAX_DEGREE",
    "FIGURE_1A_AVG_DEGREE",
    "FIGURE_1B_MAX_LONGEST_PATH",
    "FIGURE_1B_AVG_LONGEST_PATH",
    "FIGURE_1C_PEER_COUNTS",
    "FIGURE_1C_MAX_DEGREE",
    "FIGURE_1C_AVG_DEGREE",
    "FIGURE_1D_DIAMETER",
    "FIGURE_1E_MAX_DEGREE",
    "PAPER_CLAIMS",
]

# ---------------------------------------------------------------------------
# Figure 1 (a): overlay degree vs dimension (empty-rectangle overlay, N=1000).
# ---------------------------------------------------------------------------
FIGURE_1A_MAX_DEGREE: Dict[int, float] = {2: 45.0, 3: 160.0, 4: 350.0, 5: 620.0}
FIGURE_1A_AVG_DEGREE: Dict[int, float] = {2: 12.0, 3: 35.0, 4: 90.0, 5: 190.0}

# ---------------------------------------------------------------------------
# Figure 1 (b): longest root-to-leaf path vs dimension (N=1000, every root).
# ---------------------------------------------------------------------------
FIGURE_1B_MAX_LONGEST_PATH: Dict[int, float] = {2: 27.0, 3: 18.0, 4: 13.0, 5: 10.0}
FIGURE_1B_AVG_LONGEST_PATH: Dict[int, float] = {2: 18.0, 3: 12.0, 4: 9.0, 5: 7.0}

# ---------------------------------------------------------------------------
# Figure 1 (c): overlay degree vs peer count (D=2).  The paper also plots the
# reference curve 10 * log10(N).
# ---------------------------------------------------------------------------
FIGURE_1C_PEER_COUNTS: Tuple[int, ...] = (100, 400, 700, 1000, 4000)
FIGURE_1C_MAX_DEGREE: Dict[int, float] = {100: 22.0, 400: 30.0, 700: 34.0, 1000: 38.0, 4000: 46.0}
FIGURE_1C_AVG_DEGREE: Dict[int, float] = {100: 9.0, 400: 11.0, 700: 11.5, 1000: 12.0, 4000: 13.5}

# ---------------------------------------------------------------------------
# Figure 1 (d): stability-tree diameter vs K (N=1000), selected dimensions.
# The full figure sweeps D=2..10 and K=1..50; the nested dict below records
# the approximate envelope at a few K values for the smallest and largest D.
# ---------------------------------------------------------------------------
FIGURE_1D_DIAMETER: Dict[int, Dict[int, float]] = {
    2: {1: 60.0, 6: 30.0, 16: 20.0, 31: 15.0, 46: 12.0},
    10: {1: 12.0, 6: 8.0, 16: 6.0, 31: 5.0, 46: 4.0},
}

# ---------------------------------------------------------------------------
# Figure 1 (e): maximum stability-tree degree vs K (N=1000).
# ---------------------------------------------------------------------------
FIGURE_1E_MAX_DEGREE: Dict[int, Dict[int, float]] = {
    2: {1: 15.0, 6: 60.0, 16: 130.0, 31: 220.0, 46: 300.0},
    10: {1: 60.0, 6: 300.0, 16: 600.0, 31: 850.0, 46: 1000.0},
}

# ---------------------------------------------------------------------------
# Claims stated in the text rather than plotted.
# ---------------------------------------------------------------------------
PAPER_CLAIMS = {
    "construction_messages": "The algorithm sends N - 1 messages, where N is the total number of peers.",
    "tree_degree_bound": "The maximum tree degree of a peer was bounded by 2^D, as expected.",
    "degree_growth": "For D=2 both the maximum and average overlay degree seem proportional to log(N).",
    "stability_tree": "The preferred neighbour links always formed a tree, rooted at the largest T(P), "
    "with T decreasing towards the leaves.",
    "stability_shape": "For small values of K, both the maximum degree and the tree diameter are quite small.",
}
