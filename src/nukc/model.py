"""Instance model for covering with non-uniform ball classes.

An instance is a finite metric space plus radius classes (k_t, r_t) sorted
by strictly decreasing radius.  A solution is a set of balls, each tagged
with the class it is charged to; quality is measured by two factors:
count (balls per class versus k_t) and radius (used radius versus r_t).
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import lp
from .metric import MetricSpace, covered, within

COUNT_SLACK = 1e-9  # float error in count_factor * k_t: 1.1 * 10 is 11.000000000000002


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


def build_nukc_lp(
    instance: NukcInstance,
    dilation: float,
    points=None,
    start=0,
    pinned=None,
) -> lp.CoveringLp:
    """The fractional relaxation at a given dilation.

    Variables x[p, t] in [0, 1].  One covering row per point in `points`
    (default: all), in ascending order, and one budget row per class.  The
    row of point p holds classes from `start` on: one level for every
    point, or one level per row, in the rows' ascending point order.
    `pinned`, an (n, h) array, fixes x[q, t] at pinned[q, t] wherever that
    is not NaN.
    """
    n, h = instance.n, instance.num_classes
    bounds = np.full((n * h, 2), (0.0, 1.0))
    if pinned is not None:
        pins = np.reshape(pinned, (-1, 1))
        bounds = np.where(np.isnan(pins), bounds, pins)
    dist = instance.space.dist if points is None else instance.space.dist[sorted(points)]
    with np.errstate(over="ignore"):  # an overflow to inf reaches every point, as it should
        reach = dilation * np.asarray(instance.radii, dtype=float)
    rows = within(dist[:, :, None], reach)  # rows[i, q, t]
    if np.any(start):
        rows &= np.arange(h) >= np.reshape(start, (-1, 1, 1))
    return lp.CoveringLp(
        supp=rows.reshape(len(dist), n * h),
        cls=np.arange(n * h) % h,
        budgets=np.asarray(instance.budgets, dtype=float),
        bounds=bounds,
    )


def _bitsets(rows: np.ndarray) -> list:
    """Each row of a 2-D boolean array as a Python int, bit j for column j."""
    width = -(-rows.shape[1] // 8)
    flat = np.packbits(rows, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(flat[i * width:(i + 1) * width], "little") for i in range(len(rows))]


def _certify(cover: lp.CoveringLp):
    """Settle a covering LP without pivoting: (False, None) when
    `lp.refutes` proves a packing bound, (True, x) when `lp.confirms`
    accepts x, an integral greedy choice, and else (None, x): x, a vertex
    of the box, is where `lp.verdict` starts.

    Refutation: covering rows whose free supports are pairwise disjoint
    (picked smallest support first) need the sum of their residuals from
    the union U of those supports, and U supplies at most sum_t min(cap_t,
    |U in class t|) with cap_t the budget left after the lower bounds.  A
    prefix whose need exceeds that supply gives y = 1 on its rows and z_t
    = 1 on each class with cap_t below its count in U (on [0, 1] boxes,
    L = need - supply).  Both run on Python ints used as bitsets: each
    row's free support over the columns (|U in class t| is a popcount) and
    each column's over the rows that need mass (its gain is a popcount).
    """
    bounds, cls, h = cover.bounds, cover.cls, len(cover.budgets)
    onehot = cls[:, None] == np.arange(h)  # onehot[j, t]: variable j is in class t
    free = bounds[:, 0] < bounds[:, 1]
    x = bounds[:, 0].astype(float)
    need = 1.0 - cover.supp @ x
    cap = (cover.budgets - x @ onehot).tolist()
    short = np.flatnonzero(need > 0)
    supp, need = cover.supp[short] & free, need[short].tolist()  # the rows that need mass
    rows, m = _bitsets(np.concatenate((supp, onehot.T))), len(need)
    # Every prefix of the picked rows is such a set; the empty prefix
    # refutes lower bounds that overrun a budget.
    union, total, masks, y = 0, 0.0, rows[m:], np.zeros(len(cover.supp))
    by_size = sorted(range(m), key=[r.bit_count() for r in rows[:m]].__getitem__)
    for i in [None] + by_size:
        if i is not None:
            if rows[i] & union:
                continue
            union, total, y[short[i]] = union | rows[i], total + need[i], 1.0
        counts = [(union & mask).bit_count() for mask in masks]
        if total > sum(map(min, cap, counts)) and operator.gt(*lp.refutes(
                cover, y, np.array([float(c < k) for c, k in zip(cap, counts)]))):
            return False, None

    # Greedy: open the free variable meeting the most unmet rows (lowest
    # index on ties), within the remaining budgets, until every row is met
    # or none helps.  Gains only fall, so a column whose stored gain is
    # still its gain tops every other; a column's int is read when it tops.
    cols = np.packbits(supp.T.copy(), axis=1, bitorder="little").tobytes()  # a copy packs faster
    width, unmet, opened, cls = -(-m // 8), (1 << m) - 1, [], cls.tolist()
    heap = [(-g, j) for j, g in enumerate(supp.sum(axis=0).tolist()) if g and cap[cls[j]] >= 1]
    heapq.heapify(heap)
    while unmet and heap:
        stored, j = heap[0]
        col = int.from_bytes(cols[j * width:(j + 1) * width], "little") & unmet
        gain = col.bit_count()
        if 0 < gain < -stored:  # stale: back in at its gain
            heapq.heapreplace(heap, (-gain, j))
            continue
        heapq.heappop(heap)
        if gain:
            opened.append(j)
            cap[cls[j]] -= 1
            unmet &= ~col
            if cap[cls[j]] < 1:  # its class is spent: drop the class's columns
                heap = [e for e in heap if cls[e[1]] != cls[j]]
                heapq.heapify(heap)
    x[opened] = bounds[opened, 1]
    return (True if not unmet and lp.confirms(cover, x) else None), x


def proving_point(cover: lp.CoveringLp, proofs=None):
    """The point of the box that proved the covering LP `cover` feasible,
    or None when it is not.  The certificates answer first (the greedy's
    vertex); only a probe they leave open pivots: `lp.verdict` from that
    vertex with the search's `proofs`.  Every answer is proved, so a
    verdict that proves neither raises `lp.LpSolverError`.  A caller that
    needs a basic x uses `fractional_cover`."""
    answer, x = _certify(cover)
    if answer is None:
        answer, x = lp.verdict(cover, x, proofs)
    if answer is None:
        raise lp.LpSolverError("verdict proved neither feasibility nor infeasibility")
    return x if answer else None


def fractional_cover(cover: lp.CoveringLp) -> np.ndarray:
    """The simplex's basic feasible x, shape (n, h), of a covering LP from
    build_nukc_lp that `proving_point` confirmed."""
    x = lp.solve(cover)
    if x is None:
        raise lp.LpSolverError("simplex refuted an LP a feasibility check confirmed")
    return x.reshape(-1, len(cover.budgets))


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
    """(candidate, witness) for the smallest of the sorted `cands` at which
    `probe` returns a witness, anything but None, for a probe monotone
    along them; None when it returns None at the largest, or `cands` is
    empty.  Probes the smallest candidate, and stops there when it holds;
    then the largest, then bisects."""
    if not cands:
        return None
    if (witness := probe(cands[0])) is not None:
        return cands[0], witness
    lo, hi = 0, len(cands) - 1
    if hi == 0 or (witness := probe(cands[hi])) is None:
        return None
    found = cands[hi], witness
    while hi - lo > 1:  # cands[lo] fails, cands[hi] holds
        mid = (lo + hi) // 2
        if (witness := probe(cands[mid])) is not None:
            hi, found = mid, (cands[mid], witness)
        else:
            lo = mid
    return found


def relaxation_search(instance: NukcInstance) -> tuple[float, np.ndarray]:
    """(alpha, x): the smallest dilation (over the candidate set) whose
    relaxation is feasible, and the point that proved it (see
    `proving_point`).  Feasibility is monotone in the dilation, so binary
    search applies; only a probe the checks leave open runs the simplex.
    The probes share rows, columns and bounds, so each verdict's proof is
    checked on the later ones before they pivot (see `lp.verdict`)."""
    cands = candidate_dilations(instance)
    proofs = []
    found = smallest_feasible(cands, lambda d: proving_point(build_nukc_lp(instance, d), proofs))
    if found is None:
        raise InfeasibleInstanceError(
            "relaxation infeasible at the largest candidate dilation "
            f"({cands[-1]:g}); not enough balls to cover the points"
        )
    return found


def min_feasible_dilation(instance: NukcInstance):
    """Smallest dilation (over the candidate set) whose relaxation is
    feasible, together with a basic feasible x there (see
    `relaxation_search` and `fractional_cover`); only tests and examples
    read it."""
    alpha, _ = relaxation_search(instance)
    return alpha, fractional_cover(build_nukc_lp(instance, alpha))


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
            limit = math.ceil(count_factor * instance.classes[t].multiplicity - COUNT_SLACK)
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
