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
    CompressedInstance,
    NukcInstance,
    NukcSolution,
    _settle,
    achieved_dilation,
    build_nukc_lp,
    compress_radii,
    coverage,
    lift_compressed_solution,
    relaxation_search,
)
from .embed import embed_basic
from .oracle import SizeBudgetError
from .rmfct import ROUND_TOL
from .solvers import ilog, round_bottom_heavy, solve_guess_q, zero_dilation_solution

logger = logging.getLogger(__name__)

GATHER_FACTOR = 22.0  # affirmative guesses serve points within 22 * r_t
EXCLUDE_FACTOR = 11.0  # negative guesses ban centers within 11 * r_t
SHORT_CIRCUIT_K = 16
GUESS_Q_MAX = 12


@dataclass(frozen=True)
class GuessPair:
    """Affirmative tuples A (point, level, pinned to 1) and negative
    tuples D (pinned to 0 and feeding min_level).  A wins on collisions."""

    affirmative: frozenset
    negative: frozenset

    @staticmethod
    def empty() -> "GuessPair":
        return GuessPair(frozenset(), frozenset())

    def with_affirmative(self, tup) -> "GuessPair":
        return GuessPair(self.affirmative | {tup}, self.negative)

    def with_negative(self, tuples) -> "GuessPair":
        return GuessPair(self.affirmative, self.negative | set(tuples))


def min_level(pair: GuessPair, instance: NukcInstance, p: int) -> int:
    """One more than the largest level t whose whole ball B(p, r_t) is
    negatively guessed at level t; 0 when there is none.  Covering rows for
    p start at this level."""
    h = instance.num_classes
    neg = pair.negative
    best = -1
    for t in range(h):
        ball_pts = instance.space.ball(p, instance.radii[t])
        if all((q, t) in neg for q in ball_pts):
            best = t
    return best + 1


def build_guess_lp(points, pair: GuessPair, instance: NukcInstance) -> lp.LpProblem:
    """Relaxation at dilation 1 restricted by a guess pair: covering rows
    for `points` starting at their min_level, budget rows over all points,
    affirmative tuples pinned to 1, negative tuples pinned to 0 (A wins on
    collision)."""
    pinned = dict.fromkeys(pair.negative, 0.0)
    pinned.update(dict.fromkeys(pair.affirmative, 1.0))
    start = {p: min_level(pair, instance, p) for p in points}
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


def enum_solve(instance: NukcInstance, force_full: bool = False) -> EnumResult:
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

    if instance.total_k <= SHORT_CIRCUIT_K and not force_full:
        return finish(_guess_q_auto(compressed, alpha).solution, True, False, 0)

    scaled = cinst.scaled(alpha)
    radii = scaled.radii
    dist = scaled.space.dist
    all_points = list(range(n))
    winner_cap = 2.0 * sum(cinst.classes[s].multiplicity for s in range(tau + 1))
    memo: dict = {}
    nodes = [0]

    def recurse(pair: GuessPair, gamma: int):
        key = (pair.affirmative, pair.negative)
        if key in memo:
            return memo[key]
        nodes[0] += 1
        logger.debug(
            "enum node %d: |A|=%d |D|=%d gamma=%d",
            nodes[0],
            len(pair.affirmative),
            len(pair.negative),
            gamma,
        )
        result = None
        covered_by_A = covered(dist, [p for p, _ in pair.affirmative],
                               [GATHER_FACTOR * radii[t] for _, t in pair.affirmative])
        rest = [p for p in all_points if not covered_by_A[p]]
        solve = _settle(build_guess_lp(rest, pair, scaled), h)
        if solve is None:
            memo[key] = None
            return None
        x_star = solve()
        cov = coverage(scaled, x_star)
        x_b = [p for p in rest if cov[p, tau:].sum() >= 0.5 - ROUND_TOL]
        in_b = set(x_b)
        x_t = [p for p in rest if p not in in_b]
        balls_a = [
            Ball(p, t, GATHER_FACTOR * radii[t]) for (p, t) in sorted(pair.affirmative)
        ]
        bh_b = round_bottom_heavy(scaled, x_star, tau, points=x_b).balls if x_b else []
        if not x_t:
            result = NukcSolution(balls_a + bh_b)
            memo[key] = result
            return result
        # Can the remainder be covered by levels above tau alone?
        forced = {(p, t) for p in all_points for t in range(tau + 1)}
        pair_f = pair.with_negative(forced)
        solve_t = _settle(build_guess_lp(x_t, pair_f, scaled), h)
        if solve_t is not None:
            x_small = solve_t()
            bh_t = round_bottom_heavy(scaled, x_small, tau, points=x_t).balls
            result = NukcSolution(balls_a + bh_b + bh_t)
            memo[key] = result
            return result
        if gamma <= 0:
            memo[key] = None
            return None
        for t in range(tau + 1):
            c_t = [p for p in x_t if min_level(pair, scaled, p) == t]
            if not c_t:
                continue
            emb = embed_basic(scaled, x_star, points=c_t)
            winners = emb.winners[t]
            if len(winners) > winner_cap:
                raise RuntimeError(
                    f"level-{t} winner count {len(winners)} exceeds the "
                    f"half-mass cap {winner_cap}"
                )
            for p in winners:
                hit = recurse(pair.with_affirmative((p, t)), gamma - 1)
                if hit is not None:
                    result = hit
                    break
                near = within(dist[p], EXCLUDE_FACTOR * radii[t])
                banned = [(int(q), t) for q in np.flatnonzero(near)]
                hit = recurse(pair.with_negative(banned), gamma - 1)
                if hit is not None:
                    result = hit
                    break
            if result is not None:
                break
        memo[key] = result
        return result

    csol = recurse(GuessPair.empty(), gamma0)
    if csol is not None:
        return finish(csol, False, False, nodes[0])
    return finish(_guess_q_auto(compressed, alpha).solution, False, True, nodes[0])


def _guess_q_auto(compressed: CompressedInstance, alpha: float):
    """Smallest q from 1 to GUESS_Q_MAX whose guess enumeration fits the
    size budget (tau_q shrinks as q grows).  alpha, the relaxation's
    optimum, is the floor of its dilation search."""
    for q in range(1, GUESS_Q_MAX + 1):
        try:
            return solve_guess_q(compressed, q, floor=alpha)
        except SizeBudgetError:
            continue
    raise SizeBudgetError(f"guess enumeration over budget even at q = {GUESS_Q_MAX}")
