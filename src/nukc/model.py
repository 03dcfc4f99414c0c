"""Instance model for covering with non-uniform ball classes.

An instance is a finite metric space plus radius classes (k_t, r_t) sorted
by strictly decreasing radius.  A solution is a set of balls, each tagged
with the class it is charged to; quality is measured by two factors:
count (balls per class versus k_t) and radius (used radius versus r_t).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import lp
from .metric import MetricSpace, covered, within


class InfeasibleInstanceError(ValueError):
    """No dilation makes the fractional relaxation feasible."""


@dataclass(frozen=True)
class RadiusClass:
    multiplicity: int
    radius: float

    def __post_init__(self):
        if not 1 <= self.multiplicity <= sys.maxsize:
            raise ValueError(
                f"class multiplicity must lie in [1, {sys.maxsize}], got {self.multiplicity}"
            )
        if not (math.isfinite(self.radius) and self.radius >= 0):
            raise ValueError(f"class radius must be finite and >= 0, got {self.radius}")


class NukcInstance:
    """Metric space plus radius classes, radii strictly decreasing.

    Classes given with equal radii are merged (multiplicities added).
    """

    def __init__(self, space: MetricSpace, classes):
        self.space = space
        merged: dict[float, int] = {}
        for cls in classes:
            if not isinstance(cls, RadiusClass):
                cls = RadiusClass(int(cls[0]), float(cls[1]))
            merged[cls.radius] = merged.get(cls.radius, 0) + cls.multiplicity
        if not merged:
            raise ValueError("instance needs at least one radius class")
        self.classes = [
            RadiusClass(merged[r], r) for r in sorted(merged, reverse=True)
        ]

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def radii(self) -> list:
        return [c.radius for c in self.classes]

    @property
    def budgets(self) -> list:
        return [c.multiplicity for c in self.classes]

    @property
    def total_k(self) -> int:
        return sum(c.multiplicity for c in self.classes)

    def scaled(self, alpha: float) -> "NukcInstance":
        """The same instance with every radius multiplied by alpha > 0."""
        if alpha <= 0:
            raise ValueError("scaling factor must be positive")
        return NukcInstance(
            self.space, [(c.multiplicity, c.radius * alpha) for c in self.classes]
        )

    def expand_radii(self) -> list:
        """All radii as individual (sorted, non-increasing) entries, paired
        with their class index: [(radius, class_index), ...].  One entry per
        ball, so only for small k; the solvers read `class_of` and
        `class_counts_in`, which work from the classes' (radius, count) runs."""
        out = []
        for t, c in enumerate(self.classes):
            out.extend([(c.radius, t)] * c.multiplicity)
        return out

    def class_of(self, j: int) -> int:
        """The class holding the j-th largest of the k radii (1-based)."""
        return bisect_left(list(accumulate(self.budgets)), j)

    def class_counts_in(self, start: int, stop: int) -> list:
        """How many of the 1-based radius positions start..stop-1 (sorted
        non-increasing) fall in each class."""
        counts, first = [], 1
        for c in self.classes:
            end = first + c.multiplicity
            counts.append(max(0, min(stop, end) - max(start, first)))
            first = end
        return counts


@dataclass(frozen=True)
class Ball:
    center: int
    class_index: int
    radius_used: float


@dataclass
class NukcSolution:
    balls: list

    def class_counts(self, num_classes: int) -> list:
        counts = [0] * num_classes
        for b in self.balls:
            counts[b.class_index] += 1
        return counts


def balls_in_budget_order(instance: NukcInstance, centers, radius: float) -> NukcSolution:
    """One ball of `radius` per center, charged to the classes in budget
    order: the first k_0 centers to class 0, the next k_1 to class 1, and
    so on."""
    if len(centers) > instance.total_k:
        raise ValueError(f"not enough balls: {len(centers)} centers, {instance.total_k} balls")
    return NukcSolution(
        [Ball(c, instance.class_of(j), radius) for j, c in enumerate(centers, start=1)]
    )


def var_index(p: int, t: int, num_classes: int) -> int:
    return p * num_classes + t


def build_nukc_lp(
    instance: NukcInstance,
    dilation: float,
    points=None,
    start=0,
    pinned=None,
) -> lp.LpProblem:
    """The fractional relaxation at a given dilation.

    Variables x[p, t] in [0, 1].  One covering row per point in `points`
    (default: all), in ascending order, and one budget row per class.  The
    row of point p holds classes from `start` on: one level for every
    point, or a mapping from point to level.  `pinned` maps (point, class)
    to the value that variable is fixed at.
    """
    n, h = instance.n, instance.num_classes
    bounds = np.full((n * h, 2), (0.0, 1.0))
    for (q, t), value in (pinned or {}).items():
        bounds[var_index(q, t, h)] = value
    pts = list(range(n)) if points is None else sorted(points)
    first = [start[p] for p in pts] if isinstance(start, Mapping) else start
    with np.errstate(over="ignore"):  # an overflow to inf reaches every point, as it should
        reach = dilation * np.asarray(instance.radii, dtype=float)
    rows = within(instance.space.dist[pts][:, :, None], reach)  # rows[i, q, t]
    rows &= np.arange(h) >= np.reshape(first, (-1, 1, 1))
    return lp.LpProblem(
        constraints=np.vstack([rows.reshape(len(pts), n * h), np.tile(np.eye(h), n)]),
        ge=np.arange(len(pts) + h) < len(pts),
        rhs=np.concatenate([np.ones(len(pts)), instance.budgets]),
        bounds=bounds,
    )


# Needs and capacities are integers when pins are 0/1, so a refutation asks
# the need to exceed the supply by this margin, far above float error.
CERT_MARGIN = 0.5


def _certify(problem: lp.LpProblem, h: int):
    """Settle a covering LP from build_nukc_lp (h classes) without pivoting:
    False when a packing bound refutes it, True when an integral greedy
    choice satisfies it, None when neither does.

    Refutation: covering rows whose free supports are pairwise disjoint
    (picked smallest support first) need the sum of their residuals from
    the union U of those supports, and U holds at most sum_t min(cap_t,
    |U in class t|) with cap_t the budget left after the pins: weak duality
    with y = 1 on the rows and z = 1 on the budget rows.
    It needs 0/1 coefficients, [0, 1] free bounds and one budget row per
    class, which build_nukc_lp guarantees; it is never run inside lp.solve.
    """
    C, rhs, bounds = problem.constraints, problem.rhs, problem.bounds
    m = len(C) - h
    free = bounds[:, 0] < bounds[:, 1]
    fixed = np.where(free, 0.0, bounds[:, 0])
    need = rhs[:m] - C[:m] @ fixed
    cap = rhs[m:] - fixed.reshape(-1, h).sum(axis=0)
    supp = (C[:m] > 0) & free
    rows = np.flatnonzero(need > 0)
    rows = rows[np.argsort(supp[rows].sum(axis=1), kind="stable")]
    sets = supp[rows].astype(float)
    clash = (sets @ sets.T > 0).tolist()
    picked = []
    for i in range(len(rows)):
        if not any(clash[i][j] for j in picked):
            picked.append(i)
    # Every prefix of the picked rows is such a set; the empty prefix
    # refutes pins that overrun a budget.
    per_class = sets[picked].reshape(len(picked), len(free) // h, h).sum(axis=1)
    union = np.cumsum(np.vstack([np.zeros(h), per_class]), axis=0)
    needs = np.cumsum(np.concatenate([[0.0], need[rows[picked]]]))
    if np.any(needs > np.minimum(cap, union).sum(axis=1) + CERT_MARGIN):
        return False

    # Greedy: open the free variable meeting the most unmet rows, within
    # the remaining budgets, until every row is met or none helps.
    x = fixed.copy()
    unmet = need > 0
    gain = supp[unmet].sum(axis=0)
    cls = np.arange(len(x)) % h
    while unmet.any():
        score = gain * (cap[cls] >= 1)
        j = int(np.argmax(score))
        if score[j] == 0:
            return None
        x[j] = 1.0
        cap[j % h] -= 1
        met = unmet & supp[:, j]
        unmet &= ~met
        gain -= supp[met].sum(axis=0)
    lhs = C @ x
    return True if np.all(np.where(problem.ge, lhs >= rhs, lhs <= rhs)) else None


def _settle(problem: lp.LpProblem, h: int):
    """None when the covering LP `problem` (from build_nukc_lp, h classes)
    is infeasible, else a zero-argument callable returning its basic
    feasible x, shape (n, h).  A refuted LP is never solved; a confirmed one
    is solved only when the callable runs, so a search solves just its
    winner.  Either way x is the simplex's, so it does not depend on which
    certificate fired."""
    verdict = _certify(problem, h)
    if verdict is False:
        return None
    if verdict is None:
        sol = lp.solve(problem)
        return (lambda: sol.values.reshape(-1, h)) if sol.ok else None

    def solve():
        sol = lp.solve(problem)
        if not sol.ok:
            raise lp.LpSolverError("simplex refuted an LP the greedy cover satisfies")
        return sol.values.reshape(-1, h)

    return solve


def solve_fractional(instance: NukcInstance, dilation: float, **kwargs):
    """The relaxation at `dilation` as a search probe: None when it is
    infeasible, else a zero-argument callable returning a basic feasible x
    of shape (n, h) (see `_settle`)."""
    return _settle(build_nukc_lp(instance, dilation, **kwargs), instance.num_classes)


def candidate_values(dist: np.ndarray, radii) -> list:
    """Sorted distinct values d(p, q) / r over pairs p < q and positive
    radii r, plus 0."""
    upper = dist[np.triu_indices(len(dist), 1)]
    return np.unique(np.concatenate([[0.0]] + [upper / r for r in radii if r > 0])).tolist()


def candidate_dilations(instance: NukcInstance) -> list:
    """All values the optimal dilation can take: pairwise distance over
    positive class radius, plus 0."""
    return candidate_values(instance.space.dist, instance.radii)


def smallest_feasible(cands, probe):
    """Smallest candidate whose probe hits, for a probe monotone along the
    sorted `cands`.  A probe returns None on a miss and a zero-argument
    callable on a hit.  Probes the largest candidate, then the smallest,
    then bisects.  Returns (candidate, the winner's callable), the callable
    not yet run, so a caller that needs only the candidate never runs it;
    None when the largest candidate misses."""
    hi = len(cands) - 1
    hit = probe(cands[hi])
    if hit is None:
        return None
    if hi > 0:
        first = probe(cands[0])
        if first is not None:
            return cands[0], first
    lo = 0  # cands[lo] misses, cands[hi] hits with `hit`
    while hi - lo > 1:
        mid = (lo + hi) // 2
        got = probe(cands[mid])
        if got is None:
            lo = mid
        else:
            hi, hit = mid, got
    return cands[hi], hit


def relaxation_search(instance: NukcInstance):
    """(alpha, solve): alpha the smallest dilation (over the candidate set)
    whose relaxation is feasible, solve() a basic feasible x there.
    Feasibility is monotone in the dilation, so binary search applies.  A
    probe the certificates confirm is not solved until solve() runs, so a
    caller that needs only alpha never calls it."""
    cands = candidate_dilations(instance)
    found = smallest_feasible(cands, lambda d: solve_fractional(instance, d))
    if found is None:
        raise InfeasibleInstanceError(
            "relaxation infeasible at the largest candidate dilation "
            f"({cands[-1]:g}); not enough balls to cover the points"
        )
    return found


def min_feasible_dilation(instance: NukcInstance):
    """Smallest dilation (over the candidate set) whose relaxation is
    feasible, together with a basic feasible x (see `relaxation_search`)."""
    alpha, solve = relaxation_search(instance)
    return alpha, solve()


def coverage(instance: NukcInstance, x: np.ndarray) -> np.ndarray:
    """cov[p, t]: the x-mass of class t within r_t of point p, shape (n, h)."""
    n, h = instance.n, instance.num_classes
    x = np.asarray(x, dtype=float).reshape(n, h)
    dist = instance.space.dist
    cov = np.zeros((n, h))
    for t, r in enumerate(instance.radii):
        cov[:, t] = within(dist, r) @ x[:, t]
    return cov


@dataclass
class ValidationReport:
    uncovered: list = field(default_factory=list)
    radius_violations: list = field(default_factory=list)  # (ball idx, used, limit)
    count_violations: list = field(default_factory=list)  # (class, count, limit)

    @property
    def ok(self) -> bool:
        return not (self.uncovered or self.radius_violations or self.count_violations)

    def __str__(self):
        if self.ok:
            return "valid"
        parts = []
        if self.uncovered:
            parts.append(f"uncovered points: {self.uncovered}")
        if self.radius_violations:
            parts.append(f"radius violations: {self.radius_violations}")
        if self.count_violations:
            parts.append(f"count violations: {self.count_violations}")
        return "\n".join(parts)


def validate_solution(
    instance: NukcInstance,
    solution: NukcSolution,
    count_factor: float = 1.0,
    radius_factor: float = 1.0,
) -> ValidationReport:
    """Check a solution as an (count_factor, radius_factor) bicriteria
    answer: every point covered, each ball's used radius at most
    radius_factor * r_t, and per-class ball counts at most
    ceil(count_factor * k_t).  Factors must be >= 0 (a NaN factor compares
    false, so it would pass anything); an infinite limit checks nothing."""
    if not (count_factor >= 0 and radius_factor >= 0):
        raise ValueError("count and radius factors must be numbers >= 0")
    report = ValidationReport()
    n, h = instance.n, instance.num_classes
    for idx, b in enumerate(solution.balls):
        if not (0 <= b.class_index < h):
            raise ValueError(f"ball {idx} refers to unknown class {b.class_index}")
        if not (0 <= b.center < n):
            raise ValueError(
                f"ball {idx} has center {b.center}, not a point id in [0, {n})"
            )
        limit = radius_factor * instance.radii[b.class_index]
        if math.isfinite(limit) and not within(b.radius_used, limit):
            report.radius_violations.append((idx, b.radius_used, limit))
    hit = covered(instance.space.dist, [b.center for b in solution.balls],
                  [b.radius_used for b in solution.balls])
    report.uncovered = np.flatnonzero(~hit).tolist()
    counts = solution.class_counts(h)
    if math.isfinite(count_factor):
        for t in range(h):
            limit = math.ceil(count_factor * instance.classes[t].multiplicity - 1e-9)
            if counts[t] > limit:
                report.count_violations.append((t, counts[t], limit))
    return report


def achieved_dilation(instance: NukcInstance, solution: NukcSolution) -> float:
    """max over points of min over balls of d(p, center)/r_t, using each
    ball's class radius.  Zero-radius balls count only for points at
    distance 0.  Returns inf if some point is not covered at any dilation."""
    d = instance.space.dist[:, [b.center for b in solution.balls]]  # d[p, ball]
    r = np.array([instance.radii[b.class_index] for b in solution.balls])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r > 0, d / r, np.where(within(d, 0.0), 0.0, math.inf))
    return float(ratio.min(axis=1, initial=math.inf).max(initial=0.0))


# ---------------------------------------------------------------------------
# Radius preprocessing: doubling compression.
# ---------------------------------------------------------------------------


@dataclass
class CompressedInstance:
    """Doubling compression of an instance with k individual radii.

    Sorted radii r_1 >= ... >= r_k (1-based) are bucketed at barrier
    indices 2^i: bucket i holds indices [2^i, 2^(i+1)) and is rounded up to
    r_hat_i = r_{2^i}, so bucket i has multiplicity 2^i (the last bucket
    possibly fewer).  Buckets with equal rounded radius merge.
    """

    instance: NukcInstance  # the compressed instance
    # per compressed class: (start, stop) ranges of the 1-based original
    # radius indices its lifted balls are distributed over, in ascending
    # order (bucket i targets [2^(i-1), 2^i); bucket 0 targets index 1)
    lift_targets: list = field(default_factory=list)


def compress_radii(original: NukcInstance) -> CompressedInstance:
    """Build the doubling compression from the instance's (radius, count)
    runs: the k individual radii are never listed, so k may be huge."""
    k = original.total_k
    merged: dict[float, dict] = {}
    for i in range(k.bit_length()):  # bucket i starts at 1-based index 2^i <= k
        start = 2**i
        radius = original.radii[original.class_of(start)]
        entry = merged.setdefault(radius, {"mult": 0, "targets": []})
        entry["mult"] += min(2 ** (i + 1) - 1, k) - start + 1
        entry["targets"].append((1, 2) if i == 0 else (2 ** (i - 1), 2**i))
    order = sorted(merged, reverse=True)
    inst = NukcInstance(original.space, [(merged[r]["mult"], r) for r in order])
    return CompressedInstance(instance=inst, lift_targets=[merged[r]["targets"] for r in order])


def lift_compressed_solution(
    compressed_solution: NukcSolution,
    compressed: CompressedInstance,
    original: NukcInstance,
) -> NukcSolution:
    """Map a compressed (alpha, beta) solution back to the original
    instance as a (3*alpha, beta) solution: the centers charged to
    compressed class i are redistributed round-robin over the original
    radius indices in [2^(i-1), 2^i) (class 0 folds onto index 1), keeping
    each ball's used radius.  Those indices carry radii at least as large
    as the compressed one, so the radius factor is preserved; the doubling
    of the index range plus the fold onto index 1 costs the factor 3 in
    counts."""
    balls = []
    for tc, targets in enumerate(compressed.lift_targets):
        cballs = [b for b in compressed_solution.balls if b.class_index == tc]
        size = sum(stop - start for start, stop in targets)
        for i, b in enumerate(cballs):
            offset = i % size
            for start, stop in targets:  # the offset-th target index, 1-based
                if offset < stop - start:
                    break
                offset -= stop - start
            balls.append(Ball(b.center, original.class_of(start + offset), b.radius_used))
    return NukcSolution(balls)
