"""Constant-factor bicriteria search via guessed top-level centers.

The driver compresses the radii (doubling buckets), fixes the fractional
optimum dilation alpha*, and recursively guesses, per top level t <= tau,
whether an embedded winner is (affirmative) or is not (negative, together
with its 11*r_t neighborhood) a center of the unknown integral solution.
Points near affirmative guesses are served directly at radius 22*r_t;
points drawing half their fractional coverage from levels >= tau are
rounded bottom-heavy; the remainder either admits a cover by small classes
alone (closing the branch) or drives the next round of guesses.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .metric import covered, within
from .model import (
    Ball,
    NukcInstance,
    NukcSolution,
    achieved_dilation,
    build_nukc_lp,
    compress_radii,
    coverage,
    fractional_cover,
    lift_compressed_solution,
    proving_point,
    relaxation_search,
)
from .embed import embed
from .oracle import SizeBudgetError
from .rmfct import ROUND_TOL
from .solvers import ilog, round_bottom_heavy, solve_guess_q, zero_dilation_solution

logger = logging.getLogger(__name__)

GATHER_FACTOR = 22.0  # affirmative guesses serve points within 22 * r_t
EXCLUDE_FACTOR = 11.0  # negative guesses ban centers within 11 * r_t
SHORT_CIRCUIT_K = 16
GUESS_Q_MAX = 12


def min_level(neg: np.ndarray, instance: NukcInstance) -> np.ndarray:
    """Per point p, one more than the largest level t whose whole ball
    B(p, r_t) is negatively guessed at level t, 0 when there is none: an
    (n,) array over the (n, h) mask `neg`.  Covering rows for p start at
    this level."""
    inside = within(instance.space.dist[:, :, None], np.asarray(instance.radii))  # [p, q, t]
    banned = ~(inside & ~neg).any(axis=1)  # [p, t]
    return (banned * np.arange(1, instance.num_classes + 1)).max(axis=1)


def build_guess_lp(points, aff: np.ndarray, neg: np.ndarray,
                   instance: NukcInstance) -> lp.CoveringLp:
    """Relaxation at dilation 1 restricted by a guess: covering rows for
    `points` starting at their min_level, budget rows over all points,
    the cells of the (n, h) mask `aff` pinned to 1 and those of `neg`
    pinned to 0 (`aff` wins a collision)."""
    pinned = np.where(aff, 1.0, np.where(neg, 0.0, np.nan))
    start = min_level(neg, instance)[sorted(points)]
    return build_nukc_lp(instance, 1.0, points=points, start=start, pinned=pinned)


@dataclass
class EnumResult:
    solution: NukcSolution  # on the original instance
    alpha: float  # fractional lower bound (compressed = also valid for original)
    short_circuit: bool = False
    used_fallback: bool = False
    nodes_explored: int = 0
    count_bound: list = field(default_factory=list)  # per compressed class
    dilation_ratio: float = 0.0  # achieved dilation / alpha


def enum_parameters(L: int, total_k: int) -> tuple[int, int]:
    """Guess depth tau and recursion budget gamma0."""
    tau = max(0, ilog(ilog(L + 1)))
    tau = min(tau, L)
    g1 = math.ceil(math.log2(max(math.log2(max(4.0, total_k)), 2.0)))
    g2 = math.ceil(
        math.log2(max(math.log2(max(math.log2(max(16.0, total_k)), 2.0)), 2.0))
    )
    gamma0 = max(1, 4 * g1 * g2)
    return tau, gamma0


def enum_solve(instance: NukcInstance) -> EnumResult:
    """Full pipeline: compress, search, lift back, measure.

    Instances with at most SHORT_CIRCUIT_K total balls short-circuit to the
    guess-and-cover pipeline (the asymptotic parameters degenerate there).
    A recursion that exhausts its budget without closing any branch falls
    back to the same pipeline, flagged in the result."""
    compressed = compress_radii(instance)
    cinst = compressed.instance
    n, h = cinst.n, cinst.num_classes
    tau, gamma0 = enum_parameters(h - 1, instance.total_k)
    alpha, _ = relaxation_search(cinst)

    def finish(csol: NukcSolution, short_circuit, used_fallback, nodes):
        lifted = lift_compressed_solution(csol, compressed, instance)
        # Per-class cap on the lifted solution: the compressed class i emits
        # at most 9 * k_i + 2 * (h + 1) balls, spread round-robin over its
        # lift-target indices; each original class collects the per-index
        # share of every target index it owns.
        bound = [0] * instance.num_classes
        for ci, targets in enumerate(compressed.lift_targets):
            emitted = 9 * cinst.classes[ci].multiplicity + 2 * (h + 1)
            per_index = math.ceil(emitted / sum(stop - start for start, stop in targets))
            for start, stop in targets:  # 1-based original radius indices
                for t, count in enumerate(instance.class_counts_in(start, stop)):
                    bound[t] += per_index * count
        res = EnumResult(
            solution=lifted,
            alpha=alpha,
            short_circuit=short_circuit,
            used_fallback=used_fallback,
            nodes_explored=nodes,
            count_bound=bound,
        )
        ach = achieved_dilation(instance, lifted)
        res.dilation_ratio = ach / alpha if alpha > 0 else (0.0 if ach == 0 else math.inf)
        return res

    if alpha == 0.0:
        return finish(zero_dilation_solution(cinst), True, False, 0)

    if instance.total_k <= SHORT_CIRCUIT_K:
        return finish(_guess_q_auto(cinst, alpha).solution, True, False, 0)

    scaled = cinst.scaled(alpha)
    radii = scaled.radii
    dist = scaled.space.dist
    winner_cap = 2.0 * sum(cinst.classes[s].multiplicity for s in range(tau + 1))
    nodes = [0]

    def recurse(aff: np.ndarray, neg: np.ndarray, gamma: int):
        nodes[0] += 1
        logger.debug("enum node %d: |A|=%d |D|=%d gamma=%d",
                     nodes[0], aff.sum(), neg.sum(), gamma)
        placed = np.argwhere(aff).tolist()  # [p, t] in ascending order
        balls_a = [Ball(p, t, GATHER_FACTOR * radii[t]) for p, t in placed]
        covered_by_A = covered(dist, [b.center for b in balls_a],
                               [b.radius_used for b in balls_a])
        rest = np.flatnonzero(~covered_by_A).tolist()
        problem = build_guess_lp(rest, aff, neg, scaled)
        if proving_point(problem) is None:
            return None
        x_star = fractional_cover(problem)
        cov = coverage(scaled, x_star)
        x_b = [p for p in rest if cov[p, tau:].sum() >= 0.5 - ROUND_TOL]
        in_b = set(x_b)
        x_t = [p for p in rest if p not in in_b]
        bh_b = round_bottom_heavy(scaled, x_star, tau, points=x_b).balls if x_b else []
        if not x_t:
            return NukcSolution(balls_a + bh_b)
        # Can the remainder be covered by levels above tau alone?
        forced = neg | (np.arange(h) <= tau)
        problem_t = build_guess_lp(x_t, aff, forced, scaled)
        if proving_point(problem_t) is not None:
            x_small = fractional_cover(problem_t)
            bh_t = round_bottom_heavy(scaled, x_small, tau, points=x_t).balls
            return NukcSolution(balls_a + bh_b + bh_t)
        if gamma <= 0:
            return None
        level = min_level(neg, scaled)
        for t in range(tau + 1):
            c_t = [p for p in x_t if level[p] == t]
            if not c_t:
                continue
            tree = embed(scaled, x_star, points=c_t).tree
            winners = [tree.psi[v] for v in tree.levels[t]]
            if len(winners) > winner_cap:
                raise RuntimeError(
                    f"level-{t} winner count {len(winners)} exceeds the "
                    f"half-mass cap {winner_cap}"
                )
            for p in winners:
                aff_p = aff.copy()
                aff_p[p, t] = True
                hit = recurse(aff_p, neg, gamma - 1)
                if hit is not None:
                    return hit
                neg_p = neg.copy()
                neg_p[:, t] |= within(dist[p], EXCLUDE_FACTOR * radii[t])
                hit = recurse(aff, neg_p, gamma - 1)
                if hit is not None:
                    return hit
        return None

    csol = recurse(np.zeros((n, h), dtype=bool), np.zeros((n, h), dtype=bool), gamma0)
    if csol is not None:
        return finish(csol, False, False, nodes[0])
    return finish(_guess_q_auto(cinst, alpha).solution, False, True, nodes[0])


def _guess_q_auto(instance: NukcInstance, alpha: float):
    """Smallest q from 1 to GUESS_Q_MAX whose guess enumeration fits the
    size budget (tau_q shrinks as q grows).  alpha, the relaxation's
    optimum, is the floor of its dilation search."""
    for q in range(1, GUESS_Q_MAX + 1):
        try:
            return solve_guess_q(instance, q, floor=alpha)
        except SizeBudgetError:
            continue
    raise SizeBudgetError(f"guess enumeration over budget even at q = {GUESS_Q_MAX}")
