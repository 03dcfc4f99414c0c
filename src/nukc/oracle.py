"""Exact brute-force solvers for small instances.

These establish ground truth for the approximation tests; they refuse
instances above an explicit size budget instead of running forever.
"""

from __future__ import annotations

import numpy as np

from .metric import within
from .model import (
    Ball,
    InfeasibleInstanceError,
    NukcInstance,
    NukcSolution,
    candidate_dilations,
    smallest_feasible,
)


MAX_N = 12  # most points exact_nukc searches
MAX_K = 4  # most balls exact_nukc places


class SizeBudgetError(ValueError):
    """Instance exceeds the oracle's search budget."""


def _coverable(instance: NukcInstance, alpha: float) -> list | None:
    """Find a ball placement covering everything at dilation alpha, or
    None.  Depth-first search: the lowest uncovered point must be covered
    by some remaining ball, so branch over (class, center) pairs reaching
    it.  Prunes branches whose remaining balls cannot cover the rest."""
    n, h = instance.n, instance.num_classes
    dist = instance.space.dist
    radii = instance.radii
    reach = [within(dist, alpha * radii[t]) for t in range(h)]
    # Max points any single ball of class t can cover.
    max_cover = [int(reach[t].sum(axis=1).max()) for t in range(h)]
    budgets = [c.multiplicity for c in instance.classes]

    def search(uncovered: frozenset, remaining: tuple, placed: list):
        if not uncovered:
            return list(placed)
        if sum(b * max_cover[t] for t, b in enumerate(remaining)) < len(uncovered):
            return None
        p = min(uncovered)
        for t in range(h):
            if remaining[t] == 0:
                continue
            rem = list(remaining)
            rem[t] -= 1
            rem = tuple(rem)
            for q in np.nonzero(reach[t][p])[0]:
                newly = frozenset(u for u in uncovered if not reach[t][q, u])
                placed.append((int(q), t))
                hit = search(newly, rem, placed)
                if hit is not None:
                    return hit
                placed.pop()
        return None

    return search(frozenset(range(n)), tuple(budgets), [])


def exact_nukc(instance: NukcInstance) -> tuple[float, NukcSolution]:
    """Exact optimal dilation via binary search over the candidate set
    {d(p, q) / r_t} plus 0, with a feasibility DFS per candidate.

    Returns (dilation, solution); the solution's balls use radius
    dilation * r_t.  Raises SizeBudgetError above the stated limits and
    InfeasibleInstanceError when no candidate dilation admits a cover."""
    if instance.n > MAX_N or instance.total_k > MAX_K:
        raise SizeBudgetError(
            f"exact_nukc budget is n <= {MAX_N}, total k <= {MAX_K}; "
            f"got n = {instance.n}, k = {instance.total_k}"
        )
    cands = candidate_dilations(instance)
    found = smallest_feasible(cands, lambda a: _coverable(instance, a))
    if found is None:
        raise InfeasibleInstanceError(
            "instance is uncoverable at every candidate dilation "
            f"(largest tried: {cands[-1]:g})"
        )
    alpha, placement = found
    return alpha, NukcSolution([Ball(c, t, alpha * instance.radii[t]) for c, t in placement])
