"""Modularity maximization via semidefinite relaxation and random-hyperplane
rounding, with additive guarantee certificates and brute-force oracles."""

from .bounds import (
    CONSTANTS,
    BoundConstants,
    cut_envelopes,
    cut_error_curve,
    cut_error_function,
    f_k,
    full_lower_bound_curve,
    g_k,
    h_k,
    verify_auxiliary_bounds,
)
from .exact import ExactResult, exact_cut, exact_full
from .graph import Graph, GraphFormatError, degrees, parse_edge_list, render_edge_list
from .modularity import Partition, QMatrix, build_q, modularity
from .rounding import (
    GuaranteeReport,
    RoundingOutcome,
    hyperplane_round,
    round_cut,
    round_full,
    select_k_star,
)
from .sdp import (
    SdpSolution,
    SolverOptions,
    solve_cut_sdp,
    solve_full_sdp,
)

__version__ = "0.1.0"

__all__ = [
    "BoundConstants",
    "CONSTANTS",
    "ExactResult",
    "Graph",
    "GraphFormatError",
    "GuaranteeReport",
    "Partition",
    "QMatrix",
    "RoundingOutcome",
    "SdpSolution",
    "SolverOptions",
    "build_q",
    "cut_envelopes",
    "cut_error_curve",
    "cut_error_function",
    "degrees",
    "exact_cut",
    "exact_full",
    "f_k",
    "full_lower_bound_curve",
    "g_k",
    "h_k",
    "hyperplane_round",
    "modularity",
    "parse_edge_list",
    "render_edge_list",
    "round_cut",
    "round_full",
    "select_k_star",
    "solve_cut_sdp",
    "solve_full_sdp",
    "verify_auxiliary_bounds",
]
