"""Approximation pipelines built on the tree embedding.

* solve_kcwo: factor-2 k-center with excused points (two classes, the
  second of radius zero), via height-two rounding.
* solve_two_radii: factor (1 + sqrt 5) for two radius classes, branching
  on the golden-ratio threshold between the radii.
* round_bottom_heavy: covers every point drawing at least half its
  fractional coverage from classes >= tau, at 4x budgets and 8x radii.
* solve_guess_q: enumerate centers of the largest classes, LP-cover the
  rest, round bottom-heavy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .embed import embed_barrier, embed_basic, lift_tree_solution
from .metric import MetricSpace, covered, gonzalez_kcenter, within
from .model import (
    Ball,
    CompressedInstance,
    NukcInstance,
    NukcSolution,
    balls_in_budget_order,
    candidate_dilations,
    candidate_values,
    coverage,
    min_feasible_dilation,
    smallest_feasible,
    solve_fractional,
)
from .oracle import SizeBudgetError
from .rmfct import ROUND_TOL, FirefighterSolution, round_depth2, round_loose, solve_rmfct_lp

THETA = (math.sqrt(5.0) + 1.0) / 2.0
TWO_RADII_FACTOR = 1.0 + math.sqrt(5.0)


def ilog(value: float) -> int:
    """ceil(log2(max(value, 2))): the iterated-log step used throughout."""
    return int(math.ceil(math.log2(max(value, 2)) - 1e-12))


def iterated_log(value: int, times: int) -> int:
    v = value
    for _ in range(times):
        v = ilog(v)
    return v


@dataclass
class KcwoResult:
    centers: list
    outliers: list
    radius: float

    def to_solution(self) -> NukcSolution:
        """As a two-class ball solution: centers carry class 0, excused
        points get zero-radius balls of class 1."""
        balls = [Ball(c, 0, self.radius) for c in self.centers]
        balls += [Ball(p, 1, 0.0) for p in self.outliers]
        return NukcSolution(balls)


def _duplicate_classes(space: MetricSpace) -> list:
    """Representatives of the distance-zero equivalence classes."""
    reps = []
    for p in range(space.n):
        if not within(space.dist[p, reps], 0.0).any():
            reps.append(p)
    return reps


def solve_kcwo(space: MetricSpace, k: int, l: int) -> KcwoResult:
    """Cover all but at most l points with k balls of a common radius at
    most twice the optimum.

    kCwO is two radii with r2 = 0: the instance ((k, 1), (l, 0)) goes
    through the two-class relax-embed-round-lift path, and its class-0
    balls, of radius 2 * alpha, are the centers.  Excused points are
    counted as the radius-0 class counts them: one point per distance-zero
    group that no center reaches."""
    n = space.n
    if k < 0 or l < 0 or k + l < 1:
        raise ValueError("solve_kcwo needs k >= 0, l >= 0, k + l >= 1")
    if l >= n:
        return KcwoResult([], list(range(n)), 0.0)
    if k == 0:
        raise ValueError(f"k = 0 cannot cover {n} points with only {l} excused")
    instance = NukcInstance(space, [(k, 1.0), (l, 0.0)] if l > 0 else [(k, 1.0)])
    alpha, cover = _relax_embed_round_lift(instance)
    centers = sorted(b.center for b in cover.balls if b.class_index == 0)
    radius = 2.0 * alpha
    reached = covered(space.dist, centers, radius)
    outliers = [p for p in _duplicate_classes(space) if not reached[p]]
    if len(centers) > k or len(outliers) > l:
        raise RuntimeError(
            f"rounding produced {len(centers)} centers / {len(outliers)} excused "
            f"points against budgets ({k}, {l})"
        )
    return KcwoResult(centers, outliers, radius)


def charikar_kcwo(space: MetricSpace, k: int, l: int, r: float) -> KcwoResult | None:
    """Greedy baseline at a fixed radius guess: k times, pick the center
    whose r-ball covers the most uncovered points (ties to the lowest id)
    and remove its 3r-ball.  Succeeds when at most l points remain.  Never
    refuses when r is the exact optimal radius."""
    n = space.n
    uncovered = np.ones(n, dtype=bool)
    inner = within(space.dist, r)
    outer = within(space.dist, 3.0 * r)
    centers = []
    for _ in range(k):
        if not uncovered.any():
            break
        gains = (inner & uncovered[None, :]).sum(axis=1)
        c = int(np.argmax(gains))
        centers.append(c)
        uncovered &= ~outer[c]
    outliers = [int(p) for p in np.nonzero(uncovered)[0]]
    if len(outliers) > l:
        return None
    return KcwoResult(centers, outliers, 3.0 * r)


def charikar_kcwo_search(space: MetricSpace, k: int, l: int) -> KcwoResult:
    """Smallest candidate radius at which the greedy succeeds.  A first-hit
    scan, not a bisection: the greedy is not known to be monotone in r."""
    if l >= space.n:
        return KcwoResult([], list(range(space.n)), 0.0)
    for r in candidate_values(space.dist, [1.0]):
        res = charikar_kcwo(space, k, l, r)
        if res is not None:
            return res
    raise ValueError("greedy failed at every candidate radius")


def solve_two_radii(space: MetricSpace, class1, class2) -> NukcSolution:
    """Factor (1 + sqrt 5) for two classes (k1, r1), (k2, r2), r1 >= r2.

    When r1 < theta * r2 (theta the golden ratio), a single farthest-first
    sweep with k1 + k2 centers already gives dilation 2*theta times
    optimal.  Otherwise the relaxation at the optimal candidate dilation is
    embedded, rounded at height two, and lifted with radii 2*alpha*(r1+r2)
    and 2*alpha*r2, giving 2*(1 + 1/theta) = 1 + sqrt 5."""
    (k1, r1), (k2, r2) = class1, class2
    if r1 < r2:
        raise ValueError("classes must come radius-descending")
    instance = NukcInstance(space, [(k1, r1), (k2, r2)])
    if r2 > 0 and r1 < THETA * r2:
        centers, radius = gonzalez_kcenter(space, k1 + k2)
        return balls_in_budget_order(instance, centers, radius)

    return _relax_embed_round_lift(instance)[1]


def _relax_embed_round_lift(instance: NukcInstance):
    """(alpha, cover) for one or two classes: alpha the smallest candidate
    dilation with a feasible relaxation, the cover its height-two rounding,
    lifted with radii 2*alpha*(r_t + ... + r_{h-1})."""
    alpha, x = min_feasible_dilation(instance)
    if alpha == 0.0:
        return alpha, zero_dilation_solution(instance)
    scaled = instance.scaled(alpha)
    # The relaxation rows at (instance, alpha) and (scaled, 1) coincide, so
    # x stays feasible for the scaled instance at dilation 1.
    emb = embed_basic(scaled, x)
    if instance.num_classes == 1:
        chosen = set(emb.tree.levels[0])
    else:
        chosen = round_depth2(emb.tree, emb.y).chosen
    return alpha, lift_tree_solution(emb, FirefighterSolution(chosen=chosen))


def zero_dilation_solution(instance: NukcInstance) -> NukcSolution:
    """Cover at dilation zero: one zero-radius ball per distance-zero
    equivalence class, distributed over the classes in budget order.  Only
    valid when the total budget covers the number of such classes."""
    return balls_in_budget_order(instance, _duplicate_classes(instance.space), 0.0)


# ---------------------------------------------------------------------------
# Bottom-heavy rounding.
# ---------------------------------------------------------------------------


def round_bottom_heavy(
    instance: NukcInstance,
    x: np.ndarray,
    tau: int,
    points=None,
) -> NukcSolution:
    """Round x on the points drawing coverage >= 1/2 from classes >= tau.

    The points split by where that mass sits — the window [tau, mid] with
    mid = ilog(L), or (mid, L] — and each part keeps >= 1/4 of coverage in
    its window.  Scaling its x by 4 (capped at 1) makes the part fractionally
    covered by the window alone; the barrier embedding of the part is
    re-solved to a basic point and rounded by loose vertices.  Per class t:
    at most 4*k_t + (tree height) balls, radius 8*r_t, never below tau."""
    n, h = instance.n, instance.num_classes
    L = h - 1
    if not (0 <= tau <= L):
        raise ValueError(f"tau must lie in [0, {L}], got {tau}")
    cov = coverage(instance, x)
    if points is None:
        pts = [p for p in range(n) if cov[p, tau:].sum() >= 0.5 - ROUND_TOL]
    else:
        pts = sorted(points)
        bad = [p for p in pts if cov[p, tau:].sum() < 0.5 - ROUND_TOL]
        if bad:
            raise ValueError(
                f"points {bad} draw less than half their coverage from classes >= {tau}"
            )
    mid = min(L, max(tau, ilog(L)))
    upper = [p for p in pts if cov[p, tau : mid + 1].sum() >= 0.25 - ROUND_TOL]
    in_upper = set(upper)
    lower = [p for p in pts if p not in in_upper]
    balls = []
    for window, part in (((tau, mid), upper), ((mid + 1, L), lower)):
        if not part:
            continue
        a, b = window
        x4 = np.minimum(4.0 * np.asarray(x, dtype=float).reshape(n, h), 1.0)
        x4[:, :a] = 0.0
        x4[:, b + 1 :] = 0.0
        emb = embed_barrier(instance, x4, points=part)
        budgets = [
            4.0 * instance.classes[t].multiplicity if a <= t <= b else 0.0
            for t in range(h)
        ] + [0.0]
        emb.tree.budgets = budgets
        y = solve_rmfct_lp(emb.tree, alpha=1.0)
        if y is None:
            raise RuntimeError("re-solved firefighter relaxation was infeasible")
        balls.extend(lift_tree_solution(emb, round_loose(emb.tree, y)).balls)
    if any(b.class_index < tau for b in balls):
        raise RuntimeError("bottom-heavy rounding opened a ball below tau")
    return NukcSolution(balls)


# ---------------------------------------------------------------------------
# Guess-the-top, LP-cover the rest.
# ---------------------------------------------------------------------------


@dataclass
class GuessQResult:
    solution: NukcSolution
    dilation: float  # candidate dilation the pipeline locked onto
    tau: int


def _window_lp_feasible(instance, alpha, tau, fixed_balls):
    """Cover the points missed by `fixed_balls` using classes >= tau only,
    at dilation alpha.  Returns (x, uncovered), x None when infeasible and
    otherwise a zero-argument callable returning the fractional cover."""
    n, h = instance.n, instance.num_classes
    radii = instance.radii
    hit = covered(instance.space.dist, [c for c, _ in fixed_balls],
                  [alpha * radii[t] for _, t in fixed_balls])
    uncovered = np.flatnonzero(~hit).tolist()
    if not uncovered:
        return (lambda: np.zeros((n, h))), uncovered
    below_tau = {(p, t): 0.0 for p in range(n) for t in range(tau)}
    x = solve_fractional(instance, alpha, points=uncovered, start=tau, pinned=below_tau)
    return x, uncovered


def solve_guess_q(
    compressed: CompressedInstance | NukcInstance,
    q: int,
    guess_budget: int = 200_000,
    floor: float = 0.0,
) -> GuessQResult:
    """Enumerate center placements for classes below tau_q (the q-times
    iterated log of L, clamped to [0, L]), LP-cover the remaining points
    with classes >= tau_q, and round bottom-heavy.  The dilation is the
    smallest candidate at which some guess admits a fractional cover, and
    the guess is the first in enumeration order to admit one there.

    One pass over the guesses finds them: each guess is probed just below
    the best dilation found so far and bisected downward only when that
    probe hits.  No guess fits below the relaxation's optimum (a guess plus
    its window cover is a point of the full relaxation), so a caller that
    knows it passes it as `floor`: candidates below it are skipped, and
    the pass stops once the best reaches it."""
    instance = (
        compressed.instance if isinstance(compressed, CompressedInstance) else compressed
    )
    n, h = instance.n, instance.num_classes
    L = h - 1
    tau = max(0, min(L, iterated_log(L, max(q, 1))))

    guess_classes = list(range(tau))
    combos = 1
    for t in guess_classes:
        combos *= math.comb(n + instance.classes[t].multiplicity - 1,
                            instance.classes[t].multiplicity)
    if combos > guess_budget:
        raise SizeBudgetError(
            f"guess enumeration needs {combos} placements (> budget {guess_budget})"
        )
    per_class = [
        combinations_with_replacement(range(n), instance.classes[t].multiplicity)
        for t in guess_classes
    ]
    guesses = (
        [(c, t) for t, picks in zip(guess_classes, combo) for c in picks]
        for combo in product(*per_class)
    )

    cands = candidate_dilations(instance)

    def probe(i, guess):
        x, uncovered = _window_lp_feasible(instance, cands[i], tau, guess)
        return None if x is None else (lambda: (x(), uncovered))

    lo, hi = bisect_left(cands, floor), len(cands)
    best = None  # (guess, its hit at cands[hi])
    for guess in guesses:
        if hi == lo:
            break
        found = smallest_feasible(range(lo, hi), lambda i: probe(i, guess))
        if found is not None:
            hi, hit = found
            best = guess, hit
    if best is None:
        raise ValueError("no guess admits a cover at the largest candidate dilation")
    alpha = cands[hi]
    guess, hit = best
    x, uncovered = hit()

    balls = [Ball(c, t, alpha * instance.radii[t]) for c, t in guess]
    if uncovered:
        scaled = instance if alpha == 0 else instance.scaled(alpha)
        balls.extend(round_bottom_heavy(scaled, x, tau, points=uncovered).balls)
    return GuessQResult(NukcSolution(balls), dilation=alpha, tau=tau)
