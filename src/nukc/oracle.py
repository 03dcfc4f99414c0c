"""Exact brute-force solvers for small instances.

These establish ground truth for the approximation tests; they refuse
instances above an explicit size budget instead of running forever.
"""

from __future__ import annotations

import math
from itertools import combinations

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


def exact_nukc(
    instance: NukcInstance, max_n: int = 12, max_k: int = 4
) -> tuple[float, NukcSolution]:
    """Exact optimal dilation via binary search over the candidate set
    {d(p, q) / r_t} plus 0, with a feasibility DFS per candidate.

    Returns (dilation, solution); the solution's balls use radius
    dilation * r_t.  Raises SizeBudgetError above the stated limits and
    InfeasibleInstanceError when no candidate dilation admits a cover."""
    if instance.n > max_n or instance.total_k > max_k:
        raise SizeBudgetError(
            f"exact_nukc budget is n <= {max_n}, total k <= {max_k}; "
            f"got n = {instance.n}, k = {instance.total_k}"
        )
    cands = candidate_dilations(instance)

    def probe(alpha):
        placement = _coverable(instance, alpha)
        return None if placement is None else lambda: placement

    found = smallest_feasible(cands, probe)
    if found is None:
        raise InfeasibleInstanceError(
            "instance is uncoverable at every candidate dilation "
            f"(largest tried: {cands[-1]:g})"
        )
    alpha, placement = found
    balls = [
        Ball(center, t, alpha * instance.radii[t]) for center, t in placement()
    ]
    return alpha, NukcSolution(balls)


def exact_kcwo(space, k: int, l: int, max_n: int = 12, max_k: int = 4):
    """Exact k-center with l excused points: minimize r such that some k
    centers leave at most l points farther than r.  Enumerates center
    subsets; for each, the needed radius is the (l+1)-th largest
    point-to-centers distance.

    Returns (radius, centers, outliers)."""
    n = space.n
    if n > max_n or k > max_k:
        raise SizeBudgetError(
            f"exact_kcwo budget is n <= {max_n}, k <= {max_k}; got n = {n}, k = {k}"
        )
    if l >= n or k == 0:
        if l >= n:
            return 0.0, [], list(range(n))
        raise ValueError("k = 0 with fewer than n excused points is uncoverable")
    kk = min(k, n)
    best = (math.inf, None, None)
    for subset in combinations(range(n), kk):
        d = space.dist[list(subset)].min(axis=0)
        order = np.argsort(-d, kind="stable")
        radius = float(d[order[l]])
        if radius < best[0] - 1e-15:
            outliers = sorted(int(i) for i in order[:l] if d[order[l]] < d[i] - 1e-15)
            best = (radius, list(subset), outliers)
    return best
