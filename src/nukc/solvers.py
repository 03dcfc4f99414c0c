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

from . import lp
from .embed import embed, lift_tree_solution
from .metric import MetricSpace, covered, gonzalez_kcenter, within
from .model import (
    Ball,
    NukcInstance,
    NukcSolution,
    balls_in_budget_order,
    build_nukc_lp,
    candidate_dilations,
    candidate_values,
    coverage,
    proving_point,
    relaxation_search,
    smallest_feasible,
)
from .oracle import SizeBudgetError
from .rmfct import ROUND_TOL, round_depth2, round_loose, solve_rmfct_lp

THETA = (math.sqrt(5.0) + 1.0) / 2.0
TWO_RADII_FACTOR = 1.0 + math.sqrt(5.0)
LOG_SLACK = 1e-12  # log2 of a power of two may land a hair above the integer
GUESS_BUDGET = 200_000  # most center placements solve_guess_q enumerates


def ilog(value: float) -> int:
    """ceil(log2(max(value, 2))): the iterated-log step used throughout."""
    return int(math.ceil(math.log2(max(value, 2)) - LOG_SLACK))


def iterated_log(value: int, times: int) -> int:
    """ilog applied `times` times, stopping early at its fixed point 1."""
    v = value
    while times > 0 and ilog(v) != v:
        v, times = ilog(v), times - 1
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
    dilation with a feasible relaxation, the cover its embedding tree's
    exact height-two rounding (which fits, as the tree LP is feasible),
    lifted with radii 2*alpha*(r_t + ... + r_{h-1}).  The rounding reads
    only the tree, so x is the point that proved alpha feasible."""
    alpha, x = relaxation_search(instance)
    if alpha == 0.0:
        return alpha, zero_dilation_solution(instance)
    scaled = instance.scaled(alpha)
    # The relaxation rows at (instance, alpha) and (scaled, 1) coincide, so
    # x stays feasible for the scaled instance at dilation 1.
    emb = embed(scaled, x)
    return alpha, lift_tree_solution(emb, round_depth2(emb.tree))


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
    points,
) -> NukcSolution:
    """Round x on `points`, each drawing coverage >= 1/2 from classes >= tau
    (else ValueError).

    The points split by where that mass sits — the window [tau, mid] with
    mid = ilog(L), or (mid, L] — and each part keeps >= 1/4 of coverage in
    its window.  Scaling its x by 4 (capped at 1) makes the part fractionally
    covered by the window alone.  The barrier embedding of the part is
    rounded by loose vertices on its own node values; only when those leave
    more loose vertices than the tree height is the tree LP re-solved to a
    basic point and that rounded instead.  Either way, per class t: at most
    4*k_t + (tree height) balls, radius 8*r_t, never below tau."""
    n, h = instance.n, instance.num_classes
    L = h - 1
    if not (0 <= tau <= L):
        raise ValueError(f"tau must lie in [0, {L}], got {tau}")
    cov = coverage(instance, x)
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
        emb = embed(instance, x4, points=part, barrier=True)
        budgets = [
            4.0 * instance.classes[t].multiplicity if a <= t <= b else 0.0
            for t in range(h)
        ] + [0.0]
        emb.tree.budgets = budgets
        try:
            chosen = round_loose(emb.tree, emb.y)
        except RuntimeError:  # more loose vertices than the tree height
            y = solve_rmfct_lp(emb.tree)
            if y is None:
                raise RuntimeError("re-solved firefighter relaxation was infeasible")
            chosen = round_loose(emb.tree, y)
        balls.extend(lift_tree_solution(emb, chosen).balls)
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


def _window_lp(instance, alpha, tau, uncovered):
    """The LP covering the points `uncovered` (ascending) using classes >=
    tau only, at dilation alpha."""
    n, h = instance.n, instance.num_classes
    below_tau = np.where(np.arange(h) < tau, np.zeros((n, h)), np.nan)
    return build_nukc_lp(instance, alpha, points=uncovered, start=tau, pinned=below_tau)


def solve_guess_q(instance: NukcInstance, q: int, floor: float) -> GuessQResult:
    """Enumerate center placements for classes below tau_q (the q-times
    iterated log of L, clamped to [0, L]), LP-cover the remaining points
    with classes >= tau_q, and round bottom-heavy.  The dilation is the
    smallest candidate at which some guess admits a fractional cover, and
    the guess is the first in enumeration order to admit one there.

    No guess fits below the relaxation's optimum (a guess plus its window
    cover is a point of the full relaxation), so the caller passes it (or
    any lower bound) as `floor` and candidates below it are skipped.  The
    answer is one `smallest_feasible` search over the rest, whose probe
    walks the guesses in enumeration order up to the first that fits.  The
    search probes the floor first and stops there when a guess fits.

    At one dilation every window LP has the same columns, budgets and
    pins, and one row per point its guess misses, so a guess that misses
    every point some refuted guess misses cannot fit: the probe skips it
    before building its LP."""
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    n, h = instance.n, instance.num_classes
    L = h - 1
    tau = max(0, min(L, iterated_log(L, q)))

    guess_classes = list(range(tau))
    combos = 1
    for t in guess_classes:
        combos *= math.comb(n + instance.classes[t].multiplicity - 1,
                            instance.classes[t].multiplicity)
    if combos > GUESS_BUDGET:
        raise SizeBudgetError(
            f"guess enumeration needs {combos} placements (> budget {GUESS_BUDGET})"
        )

    def fit(alpha):
        """(guess, problem, uncovered) for the first guess in enumeration
        order that admits a cover at `alpha`, its window LP (None when the
        guess misses no point) and the points it misses; None when no
        guess does."""
        per_class = [
            combinations_with_replacement(range(n), instance.classes[t].multiplicity)
            for t in guess_classes
        ]
        refuted = []  # the minimal missed sets of refuted guesses, as int bitsets
        for combo in product(*per_class):
            guess = [(c, t) for t, picks in zip(guess_classes, combo) for c in picks]
            missed = ~covered(instance.space.dist, [c for c, _ in guess],
                              [alpha * instance.radii[t] for _, t in guess])
            uncovered = np.flatnonzero(missed).tolist()
            if not uncovered:
                return guess, None, uncovered
            bits = int.from_bytes(np.packbits(missed, bitorder="little").tobytes(), "little")
            if any(r & bits == r for r in refuted):
                continue
            problem = _window_lp(instance, alpha, tau, uncovered)
            if proving_point(problem) is not None:
                return guess, problem, uncovered
            refuted = [r for r in refuted if r & bits != bits] + [bits]
        return None

    cands = candidate_dilations(instance)
    found = smallest_feasible(cands[bisect_left(cands, floor):], fit)
    if found is None:
        raise ValueError("no guess admits a cover at the largest candidate dilation")
    alpha, (guess, problem, uncovered) = found

    balls = [Ball(c, t, alpha * instance.radii[t]) for c, t in guess]
    if uncovered:
        scaled = instance if alpha == 0 else instance.scaled(alpha)
        x = lp.solve(problem)
        if x is None:
            raise lp.LpSolverError("simplex refuted an LP a feasibility check confirmed")
        balls.extend(round_bottom_heavy(scaled, x, tau, points=uncovered).balls)
    return GuessQResult(NukcSolution(balls), dilation=alpha, tau=tau)
