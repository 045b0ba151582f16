"""Core contribution: DTR link-weight search (paper Algorithms 1 and 2).

This package implements the paper's heuristic for jointly optimizing the
two link-weight vectors of dual-topology routing under a lexicographic
objective, plus the single-topology (STR) Fortz-Thorup-style baseline and
its epsilon-relaxed variant (Sections 3.3.2 and 5.3).
"""

from repro.core.lexicographic import LexCost
from repro.core.progress import ProgressFn, ProgressTicker
from repro.core.search_params import SearchParams
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.rank_selection import draw_rank, rank_probabilities
from repro.core.perturbation import perturb_weights
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.joint_search import alpha_sweep
from repro.core.annealing import AnnealingParams
from repro.core.slicing import SlicedResult, optimize_sliced_low, slice_traffic_matrix

__all__ = [
    "SlicedResult",
    "optimize_sliced_low",
    "slice_traffic_matrix",
    "alpha_sweep",
    "AnnealingParams",
    "LexCost",
    "ProgressFn",
    "ProgressTicker",
    "SearchParams",
    "DualTopologyEvaluator",
    "draw_rank",
    "rank_probabilities",
    "perturb_weights",
    "NeighborhoodSampler",
]
