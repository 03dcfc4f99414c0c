"""Solvers for covering finite metrics with non-uniform ball classes."""

from .metric import MetricSpace, gonzalez_kcenter, validate_metric
from .model import (
    Ball,
    NukcInstance,
    NukcSolution,
    RadiusClass,
    achieved_dilation,
    build_nukc_lp,
    compress_radii,
    coverage,
    lift_compressed_solution,
    min_feasible_dilation,
    validate_solution,
)
from .embed import lift_tree_solution
from .rmfct import (
    LayeredTree,
    build_rmfct_lp,
    round_depth2,
    round_loose,
)
from .solvers import (
    charikar_kcwo,
    charikar_kcwo_search,
    round_bottom_heavy,
    solve_guess_q,
    solve_kcwo,
    solve_two_radii,
)
from .bicriteria import enum_solve
from .gadgets import hardness_gadget, random_euclidean, random_layered_tree, random_metric
from .oracle import SizeBudgetError, exact_nukc

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
