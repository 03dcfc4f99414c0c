import math
import sys
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ball, expand_radii, guess_window, replayed_search
from nukc import model
from nukc.bicriteria import build_guess_lp
from nukc.metric import COVER_TOL, MetricSpace
from nukc.model import (
    Ball,
    InfeasibleInstanceError,
    NukcInstance,
    NukcSolution,
    achieved_dilation,
    build_nukc_lp,
    candidate_dilations,
    compress_radii,
    coverage,
    lift_compressed_solution,
    min_feasible_dilation,
    proving_point,
    relaxation_search,
    smallest_feasible,
    validate_solution,
)
from nukc import lp
from nukc.gadgets import random_euclidean, random_instance
from nukc.oracle import exact_nukc


# Reference implementations: the per-entry loop builders, the per-point
# start-level loop and the candidate loop that the vectorised code replaced,
# kept to pin its output.


def var_index(p, t, num_classes):
    """Column of x[p, t] in an LP over n * h variables."""
    return p * num_classes + t


# A covering LP laid out densely, as lp lays it out to pivot: row i reads
# constraints[i] . x >= rhs[i] where ge[i], and <= rhs[i] elsewhere.
DenseLp = namedtuple("DenseLp", "constraints ge rhs bounds")


def dense(cover):
    """The rows lp pivots on for `cover`, with its bounds."""
    return DenseLp(*lp._rows(cover), cover.bounds)


def reference_problem(instance, bounds, cover_rows):
    """Covering rows, then one budget row per class, as a DenseLp."""
    n, h = instance.n, instance.num_classes
    budget_rows = []
    for t in range(h):
        row = np.zeros(n * h)
        for p in range(n):
            row[var_index(p, t, h)] = 1.0
        budget_rows.append(row)
    rows = cover_rows + budget_rows
    return DenseLp(
        constraints=np.array(rows).reshape(len(rows), n * h),
        ge=np.array([True] * len(cover_rows) + [False] * h),
        rhs=np.array([1.0] * len(cover_rows)
                     + [float(c.multiplicity) for c in instance.classes]),
        bounds=np.array(bounds),
    )


def reference_nukc_lp(instance, dilation, points=None, class_window=None):
    n, h = instance.n, instance.num_classes
    radii = instance.radii
    bounds = [(0.0, 1.0)] * (n * h)
    if class_window is not None:
        wlo, whi = class_window
        for p in range(n):
            for t in range(h):
                if not (wlo <= t <= whi):
                    bounds[var_index(p, t, h)] = (0.0, 0.0)
    pts = range(n) if points is None else points
    dist = instance.space.dist
    rows = []
    for p in pts:
        row = np.zeros(n * h)
        for t in range(h):
            if class_window is not None and not (class_window[0] <= t <= class_window[1]):
                continue
            reach = dilation * radii[t] + COVER_TOL
            for q in np.nonzero(dist[p] <= reach)[0]:
                row[var_index(int(q), t, h)] = 1.0
        rows.append(row)
    return reference_problem(instance, bounds, rows)


def reference_min_level(neg, instance, p):
    """One more than the largest level t whose whole ball B(p, r_t) is
    negatively guessed at level t; 0 when there is none."""
    best = -1
    for t in range(instance.num_classes):
        if all(neg[q, t] for q in ball(instance.space, p, instance.radii[t])):
            best = t
    return best + 1


def reference_guess_lp(points, aff, neg, instance):
    n, h = instance.n, instance.num_classes
    dist = instance.space.dist
    radii = instance.radii
    bounds = [(0.0, 1.0)] * (n * h)
    for q, t in np.argwhere(neg):
        bounds[var_index(q, t, h)] = (0.0, 0.0)
    for q, t in np.argwhere(aff):
        bounds[var_index(q, t, h)] = (1.0, 1.0)
    rows = []
    for p in sorted(points):
        row = np.zeros(n * h)
        for t in range(reference_min_level(neg, instance, p), h):
            for q in np.nonzero(dist[p] <= radii[t] + COVER_TOL)[0]:
                row[var_index(int(q), t, h)] = 1.0
        rows.append(row)
    return reference_problem(instance, bounds, rows)


def reference_candidates(instance):
    vals = {0.0}
    dist = instance.space.dist
    for r in instance.radii:
        if r > 0:
            for i in range(instance.n):
                for j in range(i + 1, instance.n):
                    vals.add(dist[i, j] / r)
    return sorted(vals)


# The numpy certificates that the bitset ones replaced, kept as they were
# (one pass over the columns per opened variable) but for returning the
# same (answer, x) pairs, to pin their answers and greedy vertices on forms
# wider than one machine word.  Its refutation margin is its own literal
# 0.5, as the certificates had it.
def reference_certify(cover):
    """Settle a covering LP without pivoting: (False, None) when a packing
    bound refutes it, (True, x) when x, an integral greedy choice,
    satisfies it.  When neither does, (None, x): the greedy's choice, a
    vertex of the box within every class budget, for `lp.verdict` to start
    from.

    Refutation: covering rows whose free supports are pairwise disjoint
    (picked smallest support first) need the sum of their residuals from
    the union U of those supports, and U holds at most sum_t min(cap_t,
    |U in class t|) with cap_t the budget left after the pins: weak duality
    with y = 1 on the rows and z = 1 on the budget rows.
    It needs [0, 1] free bounds, which the builders guarantee; it is never
    run inside lp.solve.
    """
    bounds, cls, h = cover.bounds, cover.cls, len(cover.budgets)
    onehot = cls[:, None] == np.arange(h)  # onehot[j, t]: variable j is in class t
    free = bounds[:, 0] < bounds[:, 1]
    fixed = np.where(free, 0.0, bounds[:, 0])
    need = 1.0 - cover.supp @ fixed
    cap = cover.budgets - fixed @ onehot
    supp = cover.supp & free
    rows = np.flatnonzero(need > 0)
    rows = rows[np.argsort(supp[rows].sum(axis=1), kind="stable")]
    sets = supp[rows].astype(float)
    clash = sets @ sets.T > 0
    picked, blocked = [], np.zeros(len(rows), dtype=bool)  # rows meeting a picked row
    for i in range(len(rows)):
        if not blocked[i]:
            picked.append(i)
            blocked |= clash[i]
    # Every prefix of the picked rows is such a set; the empty prefix
    # refutes pins that overrun a budget.
    union = np.cumsum(np.vstack([np.zeros(h), sets[picked] @ onehot]), axis=0)
    needs = np.cumsum(np.concatenate([[0.0], need[rows[picked]]]))
    if np.any(needs > np.minimum(cap, union).sum(axis=1) + 0.5):
        return False, None

    # Greedy: open the free variable meeting the most unmet rows, within
    # the remaining budgets, until every row is met or none helps.
    x = fixed.copy()
    unmet = need > 0
    gain = supp[unmet].sum(axis=0)
    while unmet.any():
        score = gain * (cap[cls] >= 1)
        j = int(np.argmax(score))
        if score[j] == 0:
            return None, x
        x[j] = 1.0
        cap[cls[j]] -= 1
        met = unmet & supp[:, j]
        unmet &= ~met
        gain -= supp[met].sum(axis=0)
    met = np.all(cover.supp @ x >= 1.0) and np.all(x @ onehot <= cover.budgets)
    return (True if met else None), x


def same_certificate(got, want) -> bool:
    """The same answer, and greedy vertices with the same dtype and bytes
    (or none, on a refutation)."""
    (answer, x), (want_answer, want_x) = got, want
    if answer is not want_answer or (x is None) != (want_x is None):
        return False
    return x is None or (x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes())


def random_form(rng, m, n_vars, h, density, free_frac, budget_hi):
    """An lp.CoveringLp with m rows over n_vars variables in h classes:
    random supports of the given density, each variable free in [0, 1]
    with probability free_frac and otherwise pinned at 0 or 1, and integer
    budgets up to budget_hi."""
    free = rng.rand(n_vars) < free_frac
    pins = (rng.rand(n_vars) < 0.5).astype(float)
    return lp.CoveringLp(
        supp=rng.rand(m, n_vars) < density,
        cls=rng.randint(h, size=n_vars),
        budgets=rng.randint(budget_hi + 1, size=h).astype(float),
        bounds=np.column_stack([np.where(free, 0.0, pins), np.where(free, 1.0, pins)]),
    )


def assert_same_lp(got, want):
    """The covering LP `got` laid out as the DenseLp `want`: same rows in
    the same order, same relations, rhs and bounds, same dtypes and
    shapes, bit for bit."""
    for field, g, w in zip(DenseLp._fields, dense(got), want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), field
        assert g.tobytes() == w.tobytes(), field


def assert_same_form(got, want):
    """Two covering LPs with the same supports, classes, budgets and
    bounds, with the same dtypes and shapes, bit for bit."""
    for name in ("supp", "cls", "budgets", "bounds"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name


def seeded_case(seed):
    """A random instance, a dilation from its candidate set and a random
    ascending subset of its points."""
    rng = np.random.RandomState(seed)
    inst = random_instance(1 + seed % 9, seed=seed, max_classes=4)
    cands = candidate_dilations(inst)
    dilation = cands[rng.randint(len(cands))]
    points = sorted(int(p) for p in np.nonzero(rng.rand(inst.n) < 0.6)[0])
    return rng, inst, dilation, points


class TestInstance:
    def test_classes_sorted_descending_and_merged(self, line_space):
        inst = NukcInstance(line_space, [(1, 1.0), (2, 3.0), (1, 3.0)])
        assert inst.radii == [3.0, 1.0]
        assert inst.budgets == [3, 1]
        assert inst.total_k == 4

    def test_bad_multiplicity_rejected(self, line_space):
        with pytest.raises(ValueError):
            NukcInstance(line_space, [(0, 1.0)])

    @pytest.mark.parametrize("k", [sys.maxsize + 1, 2**70])
    def test_multiplicity_beyond_an_index_rejected(self, line_space, k):
        with pytest.raises(ValueError, match="multiplicity"):
            NukcInstance(line_space, [(k, 1.0)])

    def test_merged_multiplicity_beyond_an_index_rejected(self, line_space):
        with pytest.raises(ValueError, match="multiplicity"):
            NukcInstance(line_space, [(sys.maxsize, 1.0), (1, 1.0)])

    def test_negative_radius_rejected(self, line_space):
        with pytest.raises(ValueError):
            NukcInstance(line_space, [(1, -1.0)])

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, line_space, radius):
        with pytest.raises(ValueError, match="finite"):
            NukcInstance(line_space, [(1, radius)])

    def test_scaled(self, line_instance):
        doubled = line_instance.scaled(2.0)
        assert doubled.radii == [4.0, 2.0]
        assert doubled.budgets == line_instance.budgets

    def test_expand_radii(self, line_space):
        inst = NukcInstance(line_space, [(2, 3.0), (1, 1.0)])
        assert expand_radii(inst) == [(3.0, 0), (3.0, 0), (1.0, 1)]


class TestFractional:
    def test_candidates_are_distance_radius_ratios(self, line_instance):
        cands = candidate_dilations(line_instance)
        assert cands[0] == 0.0
        assert all(b >= a for a, b in zip(cands, cands[1:]))
        # 1.0 = d(0,1)/r_2 and 0.5 = d(0,1)/r_1 both appear.
        assert any(math.isclose(c, 0.5) for c in cands)
        assert any(math.isclose(c, 1.0) for c in cands)

    def test_min_feasible_dilation_on_line(self, line_instance):
        # Balls 2a around one point and 1a around another must cover
        # {0,1,2,10,11}: a=1 works (2-ball at 1, 1-ball between 10 and 11
        # fails: d=1, so 1-ball at 10 covers 11 at dilation 1).
        alpha, x = min_feasible_dilation(line_instance)
        assert alpha == pytest.approx(1.0)
        assert x.shape == (5, 2)

    def test_lower_bounds_exact(self):
        for seed in range(25):
            inst = random_instance(8, seed=seed, max_k=2)
            if inst.total_k > 4:
                continue
            alpha, _ = min_feasible_dilation(inst)
            opt, _ = exact_nukc(inst)
            assert alpha <= opt + 1e-9

    def test_budget_rows_bind_counts(self, line_space):
        # One unit ball cannot cover two far clusters at any dilation
        # below 9; the LP notices through the budget row.
        inst = NukcInstance(line_space, [(1, 1.0)])
        assert proving_point(build_nukc_lp(inst, 1.0)) is None
        assert proving_point(build_nukc_lp(inst, 11.0)) is not None

    def test_infeasible_zero_radii(self, line_space):
        inst = NukcInstance(line_space, [(2, 0.0)])
        with pytest.raises(InfeasibleInstanceError):
            min_feasible_dilation(inst)

    @pytest.mark.parametrize("seed", range(20))
    def test_candidates_match_reference(self, seed):
        inst = random_instance(1 + seed % 9, seed=seed, max_classes=4)
        assert candidate_dilations(inst) == reference_candidates(inst)

    def test_min_feasible_dilation_solves_each_probe_once(self, monkeypatch):
        solves, probes = [], []
        real_solve, real_build = lp.solve, model.build_nukc_lp

        def counting_solve(cover):
            solves.append(cover)
            return real_solve(cover)

        def recording_build(instance, dilation, **kwargs):
            probes.append(dilation)
            return real_build(instance, dilation, **kwargs)

        monkeypatch.setattr(lp, "solve", counting_solve)
        monkeypatch.setattr(model, "build_nukc_lp", recording_build)
        for seed in range(10):
            inst = random_instance(8, seed=seed)
            solves.clear(), probes.clear()
            alpha, x = min_feasible_dilation(inst)
            # Each dilation is probed once; the winner's LP is built once
            # more and solved once.
            *searched, winner = probes
            assert len(searched) == len(set(searched)) and winner == alpha
            assert len({id(p) for p in solves}) == len(solves) <= len(probes)
            direct = real_solve(real_build(inst, alpha))
            assert np.array_equal(x, direct.reshape(inst.n, inst.num_classes))

    def test_alpha_only_search_solves_only_open_probes(self, monkeypatch):
        # A probe reaches the simplex only when neither the certificates nor
        # lp.verdict settle it; min_feasible_dilation solves its winner once.
        # Dense rows are laid out once per verdict that pivots, which runs on
        # each probe the certificates and the stored proofs leave open, and
        # once per solve.
        verdicts, solves, certified, laid, pivoted = [], [], [], [], []
        real_verdict, real_solve, real_phase_one = lp.verdict, lp.solve, lp._phase_one
        real_certify, real_rows = model._certify, lp._rows

        def recording_verdict(*args, **kwargs):
            got = real_verdict(*args, **kwargs)
            verdicts.append(got[0])
            return got

        monkeypatch.setattr(lp, "verdict", recording_verdict)
        monkeypatch.setattr(lp, "solve", lambda cover, *args, **kwargs:
                            solves.append(cover) or real_solve(cover, *args, **kwargs))
        monkeypatch.setattr(model, "_certify", lambda cover:
                            certified.append(real_certify(cover)) or certified[-1])
        monkeypatch.setattr(lp, "_rows", lambda cover: laid.append(cover) or real_rows(cover))
        monkeypatch.setattr(lp, "_phase_one", lambda s, run:
                            pivoted.append(run) or real_phase_one(s, run))
        unsolved = settled = undense = stored = 0
        for seed in range(40):
            inst = random_instance(8, seed=seed, max_classes=4)
            for calls in (verdicts, solves, certified, laid, pivoted):
                calls.clear()
            alpha, _ = relaxation_search(inst)
            assert len(solves) == verdicts.count(None)
            opened = sum(answer is None for answer, _ in certified)
            assert len(verdicts) == opened
            pivoting = pivoted.count(lp.DEGENERATE_RUN)
            assert len(laid) == pivoting + len(solves)
            settled += len(verdicts) - verdicts.count(None)
            stored += len(verdicts) - pivoting
            unsolved += not solves
            undense += len(certified) - opened
            for calls in (verdicts, solves, certified, laid, pivoted):
                calls.clear()
            want_alpha, _ = min_feasible_dilation(inst)
            assert alpha == want_alpha
            assert len(solves) == verdicts.count(None) + 1
            assert len(laid) == pivoted.count(lp.DEGENERATE_RUN) + len(solves)
            assert laid[-1] is solves[-1]
            assert_same_form(solves[-1], build_nukc_lp(inst, alpha))
        # Some searches ran no simplex, lp.verdict settled some probes the
        # certificates left open, stored proofs settled some without laying
        # out dense rows, and the certificates settled the rest.
        assert unsolved > 0 and settled > 0 and stored > 0 and undense > 0

    def test_lp_shape(self, line_instance):
        prob = dense(build_nukc_lp(line_instance, 1.0))
        n, h = line_instance.n, line_instance.num_classes
        # n covering rows + h budget rows over n * h variables
        assert prob.constraints.shape == (n + h, n * h)


class TestBuilder:
    @pytest.mark.parametrize("seed", range(40))
    def test_plain_rows_match_reference(self, seed):
        _, inst, dilation, points = seeded_case(seed)
        assert_same_lp(build_nukc_lp(inst, dilation), reference_nukc_lp(inst, dilation))
        assert_same_lp(
            build_nukc_lp(inst, dilation, points=points),
            reference_nukc_lp(inst, dilation, points=points),
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_window_rows_match_reference(self, seed):
        rng, inst, dilation, _ = seeded_case(seed)
        h = inst.num_classes
        tau = int(rng.randint(h))
        fixed = [(int(rng.randint(inst.n)), int(rng.randint(h)))]
        problem, uncovered = guess_window(inst, dilation, tau, fixed)
        if not uncovered:
            assert problem is None
            return
        want = reference_nukc_lp(inst, dilation, points=uncovered, class_window=(tau, h - 1))
        assert_same_lp(problem, want)

    @pytest.mark.parametrize("seed", range(40))
    def test_guess_rows_match_reference(self, seed):
        rng, inst, _, points = seeded_case(seed)
        draw = rng.rand(inst.n, inst.num_classes)
        neg, aff = draw < 0.5, draw > 0.8
        if neg.any():  # an A/D collision: A must win
            aff.flat[np.argmax(neg)] = True
        want = reference_guess_lp(points, aff, neg, inst)
        assert_same_lp(build_guess_lp(points, aff, neg, inst), want)

    def test_huge_radius_reaches_every_point_without_warning(self, line_space):
        # 10 * 1e308 overflows to inf: every point is within reach.
        inst = NukcInstance(line_space, [(1, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cover = build_nukc_lp(inst, 10.0)
        assert cover.supp.all()

    def test_start_levels_and_pins(self, line_instance):
        pinned = np.full((line_instance.n, 2), np.nan)
        pinned[2, 1] = 1.0
        # One start level per row, rows in ascending point order: 0, then 4.
        cover = build_nukc_lp(line_instance, 1.0, points=[4, 0], start=[1, 0], pinned=pinned)
        rows = cover.supp
        # Ascending point order; point 0's row holds class 1 only.
        assert rows[0][0::2].sum() == 0 and rows[0][1::2].sum() == 2
        assert rows[1][0::2].sum() == 2 and rows[1][1::2].sum() == 2
        assert cover.bounds[var_index(2, 1, 2)].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("seed", range(20))
    def test_defaults_equal_every_point_from_level_zero(self, seed):
        _, inst, dilation, _ = seeded_case(seed)
        n, h = inst.n, inst.num_classes
        got = build_nukc_lp(inst, dilation)
        assert_same_form(got, build_nukc_lp(inst, dilation, points=range(n),
                                            start=np.zeros(n, int)))
        tiled = np.tile(np.arange(h), n)
        assert got.cls.dtype == tiled.dtype and np.array_equal(got.cls, tiled)


class TestSmallestFeasible:
    """model.smallest_feasible: (candidate, witness) at the smallest
    candidate whose probe returns a witness, or None."""

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 16])
    def test_matches_linear_scan(self, length):
        cands = [0.5 * i for i in range(length)]
        for threshold in range(length + 1):  # threshold == length: none holds
            probed = []

            def probe(c):
                probed.append(c)
                return f"witness at {c}" if c >= 0.5 * threshold else None

            scan = next((c for c in cands if c >= 0.5 * threshold), None)
            want = None if scan is None else (scan, f"witness at {scan}")
            assert smallest_feasible(cands, probe) == want
            assert probed[0] == cands[0]
            assert len(probed) == len(set(probed))
            if threshold == 0:
                assert probed == [cands[0]]
            elif length > 1:
                assert probed[1] == cands[-1]

    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_falsy_witness_holds(self, length):
        # An empty placement is a witness: only None fails.
        cands = list(range(length))
        for threshold in range(length):
            got = smallest_feasible(cands, lambda c: [] if c >= threshold else None)
            assert got == (threshold, [])

    def test_search_returns_the_replayed_proving_point(self):
        # The x relaxation_search returns is what the winner, probed once
        # more with the store its probes filled, gives, byte for byte.
        for seed in range(60):
            inst = random_instance(8 + seed % 9, seed=seed, max_classes=3)
            alpha, x = relaxation_search(inst)
            want_alpha, proofs = replayed_search(inst)
            again = proving_point(build_nukc_lp(inst, alpha), proofs)
            assert alpha == want_alpha and x.tobytes() == again.tobytes()


class TestCertificate:
    """model._certify: False refutes a covering LP, True confirms it with
    the greedy's vertex."""

    def line(self, coords, classes):
        return NukcInstance(MetricSpace.from_coords(np.array(coords, dtype=float)), classes)

    def test_need_equal_to_supply_is_not_refuted(self):
        # Two far points, two unit balls: the disjoint rows need 2 and
        # their supports supply exactly 2.
        inst = self.line([[0], [10]], [(2, 1.0)])
        assert model._certify(build_nukc_lp(inst, 1.0))[0] is True

    def test_packing_refutes_far_points(self, line_space):
        inst = NukcInstance(line_space, [(1, 1.0)])
        assert model._certify(build_nukc_lp(inst, 1.0))[0] is False

    def test_pin_that_uses_up_a_budget(self):
        inst = self.line([[0], [10]], [(1, 2.0), (1, 1.0)])
        # The one big ball sits at point 0; point 1 needs the small one.
        pinned = np.full((2, 2), np.nan)
        pinned[0, 0] = 1.0
        assert model._certify(build_nukc_lp(inst, 1.0, pinned=pinned))[0] is True
        pinned[1, 1] = 0.0
        assert model._certify(build_nukc_lp(inst, 1.0, pinned=pinned))[0] is False
        # Pins alone overrun the big ball's budget.
        pinned[1] = (1.0, np.nan)
        over = build_nukc_lp(inst, 1.0, points=[], pinned=pinned)
        assert model._certify(over)[0] is False

    def test_start_level_h_is_an_empty_row(self, line_instance):
        h = line_instance.num_classes
        empty = build_nukc_lp(line_instance, 100.0, points=[3], start=h)
        assert not empty.supp[0].any()
        assert model._certify(empty)[0] is False

    def test_duplicate_points(self):
        # Rows of duplicate points overlap, so only one of them counts.
        inst = self.line([[0], [0], [0], [5]], [(2, 1.0)])
        assert model._certify(build_nukc_lp(inst, 1.0))[0] is True
        lone = self.line([[0], [0], [5]], [(1, 1.0)])
        assert model._certify(build_nukc_lp(lone, 1.0))[0] is False

    def test_boxes_narrower_than_the_unit_interval(self):
        # x0 >= 1 with x0 in [0, 0.5]: the greedy opens x0 at its upper
        # bound, which meets no row, so its vertex goes to lp.verdict.
        narrow = lp.CoveringLp(supp=np.array([[True]]), cls=np.array([0]),
                               budgets=np.array([1.0]), bounds=np.array([[0.0, 0.5]]))
        answer, vertex = model._certify(narrow)
        assert answer is None and vertex.tolist() == [0.5]
        assert proving_point(narrow) is None and lp.solve(narrow) is None
        # x0 + x1 >= 1 on [0, 0.5]^2 within a budget of 1: only (0.5, 0.5).
        pair = lp.CoveringLp(supp=np.array([[True, True]]), cls=np.array([0, 0]),
                             budgets=np.array([1.0]), bounds=np.array([[0.0, 0.5]] * 2))
        assert lp.confirms(pair, np.array([0.5, 0.5]))
        answer, vertex = model._certify(pair)
        assert answer is None and vertex.tolist() == [0.5, 0.0]
        assert proving_point(pair) is not None and lp.solve(pair).tolist() == [0.5, 0.5]

    def test_open_lp_starts_the_verdict_at_the_greedy_vertex(self, monkeypatch):
        # _certify hands an open LP's greedy vertex to lp.verdict as its start.
        calls, checked = [], 0
        real_verdict = lp.verdict
        monkeypatch.setattr(lp, "verdict", lambda cover, start=None, *args, **kwargs:
                            calls.append((cover, start))
                            or real_verdict(cover, start, *args, **kwargs))
        for seed in range(10):
            inst = random_instance(10, seed=seed, max_classes=3)
            calls.clear()
            relaxation_search(inst)
            for cover, start in calls:
                answer, vertex = model._certify(cover)
                assert answer is None and np.array_equal(start, vertex)
            checked += len(calls)
        assert checked

    @pytest.mark.parametrize("seed", range(30))
    def test_search_with_and_without_certificates(self, seed, monkeypatch):
        inst = random_instance(7, seed=seed)
        alpha, x = min_feasible_dilation(inst)
        monkeypatch.setattr(model, "_certify", lambda cover: (None, None))
        want_alpha, want_x = min_feasible_dilation(inst)
        assert alpha == want_alpha and np.array_equal(x, want_x)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 90), n_vars=st.integers(1, 90),
           h=st.integers(1, 4), density=st.sampled_from([0.02, 0.1, 0.3, 0.7]),
           free_frac=st.sampled_from([1.0, 0.9, 0.5, 0.0]), budget_hi=st.integers(0, 12))
    def test_bitsets_match_the_numpy_reference(self, seed, m, n_vars, h, density, free_frac,
                                                budget_hi):
        cover = random_form(np.random.RandomState(seed), m, n_vars, h, density, free_frac,
                            budget_hi)
        assert same_certificate(model._certify(cover), reference_certify(cover))

    @pytest.mark.parametrize("shape", [
        dict(m=100, n_vars=120, h=3, density=0.05, free_frac=1.0, budget_hi=30),  # wider than 64
        dict(m=70, n_vars=200, h=2, density=0.05, free_frac=0.97, budget_hi=20),
        dict(m=0, n_vars=40, h=3, density=0.3, free_frac=0.9, budget_hi=4),  # zero rows
        dict(m=30, n_vars=50, h=3, density=0.3, free_frac=0.0, budget_hi=40),  # all fixed
        dict(m=30, n_vars=90, h=2, density=0.1, free_frac=0.5, budget_hi=1),  # pins overrun
        dict(m=20, n_vars=3, h=4, density=0.5, free_frac=1.0, budget_hi=2),  # classes without columns
    ])
    def test_edge_forms_match_the_numpy_reference(self, shape):
        seen = set()
        for seed in range(40):
            cover = random_form(np.random.RandomState(seed), **shape)
            got = model._certify(cover)
            assert same_certificate(got, reference_certify(cover))
            seen.add("open" if got[0] is None else got[0])
        if shape["m"] > 64:
            assert seen == {True, False, "open"}

    def test_wide_builder_probes_match_the_numpy_reference(self):
        # Seeded n = 40-70 instances at a spread of candidate dilations,
        # whole and with per-point start levels and 0/1 pins.
        seen = set()
        for seed in range(6):
            rng = np.random.RandomState(seed)
            inst = random_instance(40 + 6 * seed, seed=seed, max_classes=3)
            n, h = inst.n, inst.num_classes
            cands = candidate_dilations(inst)
            for dilation in np.quantile(cands, np.linspace(0.0, 0.3, 10), method="lower"):
                pinned = np.where(rng.rand(n, h) < 0.05, (rng.rand(n, h) < 0.3) * 1.0, np.nan)
                points = sorted(rng.choice(n, size=rng.randint(1, n + 1), replace=False).tolist())
                for cover in (build_nukc_lp(inst, dilation),
                              build_nukc_lp(inst, dilation, points=points,
                                            start=rng.randint(h, size=len(points)), pinned=pinned)):
                    got = model._certify(cover)
                    assert same_certificate(got, reference_certify(cover))
                    seen.add("open" if got[0] is None else got[0])
        assert seen == {True, False, "open"}


class TestProofStore:
    """A relaxation search keeps each verdict's proof and final basis for
    its later probes.  A stored proof is checked again on every LP it
    answers, and a verdict started from a stored basis answers only
    through the same checks, so the store saves pivots and changes no
    answer."""

    @staticmethod
    def search(inst, monkeypatch, keep=True):
        """relaxation_search on inst, with or without its proof store:
        (alpha, the winner's x bytes, each probe's hit, the store, per
        open probe (cover, start, answer, answer without a store, whether
        a stored proof gave it), and the phase-one iterations of the
        search's own verdicts)."""
        hits, opens, store, its = [], [], [], []
        real_probe, real_verdict, real_phase_one = model.proving_point, lp.verdict, lp._phase_one

        def recording_probe(cover, proofs=None):
            x = real_probe(cover, proofs if keep else None)
            hits.append(x is not None)
            return x

        def phase_one(s, run):
            got = real_phase_one(s, run)
            its.append(got[2])
            return got

        def verdict(cover, start=None, proofs=None):
            before = len(proofs or ())
            with monkeypatch.context() as counting:
                counting.setattr(lp, "_phase_one", phase_one)
                got = real_verdict(cover, start, proofs)
            store[:] = proofs or ()
            opens.append((cover, start, got[0], real_verdict(cover, start)[0],
                          proofs is not None and len(proofs) == before))
            return got

        with monkeypatch.context() as patch:
            patch.setattr(model, "proving_point", recording_probe)
            patch.setattr(lp, "verdict", verdict)
            alpha, _ = relaxation_search(inst)
        x = model.fractional_cover(build_nukc_lp(inst, alpha))
        return alpha, x.tobytes(), hits, store, opens, sum(its)

    @staticmethod
    def instances():
        return [random_instance(8 + seed % 9, seed=seed, max_classes=3) for seed in range(60)]

    def test_store_changes_no_answer(self, monkeypatch):
        reused = iterations = plain_iterations = 0
        for inst in self.instances():
            alpha, x, hits, _, opens, its = self.search(inst, monkeypatch)
            storeless = self.search(inst, monkeypatch, keep=False)
            assert (alpha, x, hits) == storeless[:3]
            assert [got for *_, got, _, _ in opens] == [plain for *_, plain, _ in opens]
            reused += sum(settled for *_, settled in opens)
            iterations, plain_iterations = iterations + its, plain_iterations + storeless[5]
        # Of the 88 open probes on these seeds, 26 are settled by a stored
        # proof (27 before verdicts started warm: a warm verdict's point is
        # another point of the box, and it settles one later probe fewer),
        # and the warm starts cut the verdicts' pivot-loop iterations from
        # 831 without the store to 473.
        assert reused >= 26
        assert iterations <= 473 and plain_iterations >= 831

    def test_foreign_proofs_change_no_verdict(self, monkeypatch):
        # Every other search's proofs: those of instances with the same n
        # and h fit the LP's shape, the rest do not.
        runs = [(inst, *self.search(inst, monkeypatch)[3:5]) for inst in self.instances()]
        same_shape = 0
        for i, (inst, _, opens) in enumerate(runs):
            foreign = [proof for j, (_, store, _) in enumerate(runs) if j != i for proof in store]
            for cover, start, _, plain, _ in opens:
                assert lp.verdict(cover, start, list(foreign))[0] == plain
            same_shape += len(opens) * sum(
                (other.n, other.num_classes) == (inst.n, inst.num_classes)
                for j, (other, store, _) in enumerate(runs) if j != i for _ in store)
        assert same_shape > 0


class TestCoverage:
    def test_suffix_and_window(self, line_instance):
        x = np.zeros((5, 2))
        x[1, 0] = 1.0  # 2-ball at point 1 covers 0,1,2 at dilation 1
        x[3, 1] = 1.0  # 1-ball at point 3 covers 3,4
        cov = coverage(line_instance, x)
        assert cov.shape == (5, 2)
        assert cov[0, 0:].sum() == pytest.approx(1.0)
        assert cov[0, 1:].sum() == pytest.approx(0.0)
        assert cov[4, 1:].sum() == pytest.approx(1.0)
        assert cov[4, 0:2].sum() == pytest.approx(1.0)


class TestValidation:
    def test_clean_solution(self, line_instance):
        sol = NukcSolution([Ball(1, 0, 2.0), Ball(3, 1, 1.0)])
        report = validate_solution(line_instance, sol)
        assert report.ok
        assert achieved_dilation(line_instance, sol) == pytest.approx(1.0)

    def test_uncovered_and_violations_reported(self, line_instance):
        sol = NukcSolution([Ball(0, 0, 5.0), Ball(1, 0, 1.0)])
        report = validate_solution(line_instance, sol)
        assert not report.ok
        assert 10 in report.uncovered or 3 in report.uncovered
        assert report.radius_violations  # 5.0 > 2.0
        assert report.count_violations  # two class-0 balls, budget 1
        assert "uncovered" in str(report)

    @pytest.mark.parametrize("center", [-1, 5])
    def test_center_outside_point_ids_rejected(self, line_instance, center):
        sol = NukcSolution([Ball(center, 0, 2.0)])
        with pytest.raises(ValueError, match="not a point id"):
            validate_solution(line_instance, sol)

    @pytest.mark.parametrize(
        "factors", [(-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_negative_or_nan_factors_rejected(self, line_instance, factors):
        sol = NukcSolution([Ball(1, 0, 2.0), Ball(3, 1, 1.0)])
        with pytest.raises(ValueError, match=">= 0"):
            validate_solution(line_instance, sol, *factors)

    def test_infinite_factor_on_zero_radius_checks_nothing(self, line_space):
        # inf * 0 is NaN: the limit must count as unchecked, not as violated.
        inst = NukcInstance(line_space, [(1, 0.0)])
        sol = NukcSolution([Ball(0, 0, 20.0)])
        assert validate_solution(inst, sol, radius_factor=math.inf).ok
        assert validate_solution(inst, sol).radius_violations == [(0, 20.0, 0.0)]

    @pytest.mark.parametrize("seed", range(6))
    def test_achieved_dilation_matches_point_ball_loop(self, seed):
        rng = np.random.RandomState(seed)
        inst = NukcInstance(random_euclidean(7, 2, seed)[0], [(2, 0.3), (1, 0.0)])
        balls = [Ball(int(c), int(t), 0.0) for c, t in
                 zip(rng.randint(7, size=seed), rng.randint(2, size=seed))]
        worst = 0.0
        for p in range(inst.n):
            best = math.inf
            for b in balls:
                d, r = inst.space.dist[p, b.center], inst.radii[b.class_index]
                best = min(best, d / r) if r > 0 else (0.0 if d <= COVER_TOL else best)
            worst = max(worst, best)
        assert achieved_dilation(inst, NukcSolution(balls)) == worst

    def test_zero_radius_dilation_only_at_distance_zero(self, line_space):
        inst = NukcInstance(line_space, [(1, 0.0)])
        sol = NukcSolution([Ball(3, 0, 0.0)])
        # Zero-radius balls cover only their own point, at any dilation.
        assert achieved_dilation(inst, sol) == math.inf


def reference_compression(original):
    """Lift targets (a sorted list of 1-based radius indices per compressed
    class) and each index's class, from the list of all k radii: the
    per-ball form the run-based compression replaced."""
    expanded = expand_radii(original)
    targets = {}
    for i in range(len(expanded).bit_length()):
        radius = expanded[2**i - 1][0]
        targets.setdefault(radius, []).extend([1] if i == 0 else range(2 ** (i - 1), 2**i))
    return [sorted(targets[r]) for r in sorted(targets, reverse=True)], [t for _, t in expanded]


class TestCompression:
    @pytest.mark.parametrize("seed", range(30))
    def test_runs_match_per_ball_reference(self, seed):
        inst = random_instance(5, seed=seed, max_classes=4, max_k=6)
        want_targets, want_class = reference_compression(inst)
        comp = compress_radii(inst)
        got = [[j for start, stop in ranges for j in range(start, stop)]
               for ranges in comp.lift_targets]
        assert got == want_targets
        assert [inst.class_of(j) for j in range(1, inst.total_k + 1)] == want_class
        for start in range(1, inst.total_k + 1):
            for stop in range(start, inst.total_k + 2):
                counts = inst.class_counts_in(start, stop)
                assert counts == [want_class[start - 1 : stop - 1].count(t)
                                  for t in range(inst.num_classes)]

    def test_doubling_structure(self, line_space):
        # Expanded radii [8, 5, 4, 2]: barriers at 1-based indices 1, 2, 4.
        inst = NukcInstance(
            line_space, [(1, 8.0), (1, 5.0), (1, 4.0), (1, 2.0)]
        )
        comp = compress_radii(inst)
        got = [(c.multiplicity, c.radius) for c in comp.instance.classes]
        assert got == [(1, 8.0), (2, 5.0), (1, 2.0)]

    def test_last_bucket_possibly_smaller(self, line_space):
        # k = 3 expanded radii: buckets 1, 2 (mult 2, trimmed to indices 2-3).
        inst = NukcInstance(line_space, [(1, 8.0), (1, 5.0), (1, 4.0)])
        comp = compress_radii(inst)
        got = [(c.multiplicity, c.radius) for c in comp.instance.classes]
        assert got == [(1, 8.0), (2, 5.0)]

    def test_compressed_optimum_not_worse(self):
        for seed in range(15):
            inst = random_instance(8, seed=seed, max_classes=4)
            comp = compress_radii(inst)
            a_orig, _ = min_feasible_dilation(inst)
            a_comp, _ = min_feasible_dilation(comp.instance)
            assert a_comp <= a_orig + 1e-9

    def test_lift_validates_at_triple_counts(self):
        for seed in range(20):
            inst = random_instance(9, seed=seed, max_classes=4, max_k=2)
            comp = compress_radii(inst)
            if comp.instance.total_k > 4:
                continue
            opt, csol = exact_nukc(comp.instance)
            lifted = lift_compressed_solution(csol, comp, inst)
            report = validate_solution(inst, lifted, 3.0, max(opt, 1e-12) + 1e-9)
            assert report.ok, f"seed {seed}: {report}"
