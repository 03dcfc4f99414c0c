import math
import sys
import warnings

import numpy as np
import pytest

from nukc import model
from nukc.bicriteria import GuessPair, build_guess_lp, min_level
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
    relaxation_search,
    smallest_feasible,
    solve_fractional,
    validate_solution,
    var_index,
)
from nukc import lp
from nukc.gadgets import random_euclidean, random_instance
from nukc.oracle import exact_nukc
from nukc.solvers import _window_lp_feasible


# Reference implementations: the per-entry loop builders and the candidate
# loop that the vectorised code replaced, kept to pin its output.


def reference_problem(instance, bounds, cover_rows):
    """Covering rows, then one budget row per class, as an LpProblem."""
    n, h = instance.n, instance.num_classes
    budget_rows = []
    for t in range(h):
        row = np.zeros(n * h)
        for p in range(n):
            row[var_index(p, t, h)] = 1.0
        budget_rows.append(row)
    rows = cover_rows + budget_rows
    return lp.LpProblem(
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


def reference_guess_lp(points, pair, instance):
    n, h = instance.n, instance.num_classes
    dist = instance.space.dist
    radii = instance.radii
    bounds = [(0.0, 1.0)] * (n * h)
    for (q, t) in sorted(pair.negative):
        bounds[var_index(q, t, h)] = (0.0, 0.0)
    for (q, t) in sorted(pair.affirmative):
        bounds[var_index(q, t, h)] = (1.0, 1.0)
    rows = []
    for p in sorted(points):
        row = np.zeros(n * h)
        for t in range(min_level(pair, instance, p), h):
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


def assert_same_lp(got, want):
    """Same rows in the same order, same relations, rhs and bounds, same
    dtypes and shapes, bit for bit."""
    assert got.num_vars == want.num_vars
    for field in ("constraints", "ge", "rhs", "bounds"):
        g, w = getattr(got, field), getattr(want, field)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), field
        assert g.tobytes() == w.tobytes(), field


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
        assert inst.expand_radii() == [(3.0, 0), (3.0, 0), (1.0, 1)]


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
        sol = solve_fractional(inst, 1.0)
        assert sol is None
        assert solve_fractional(inst, 11.0) is not None

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
        real_solve, real_fractional = lp.solve, model.solve_fractional

        def counting_solve(problem):
            solves.append(problem)
            return real_solve(problem)

        def recording_fractional(instance, dilation, **kwargs):
            probes.append(dilation)
            return real_fractional(instance, dilation, **kwargs)

        monkeypatch.setattr(lp, "solve", counting_solve)
        monkeypatch.setattr(model, "solve_fractional", recording_fractional)
        for seed in range(10):
            inst = random_instance(8, seed=seed)
            solves.clear(), probes.clear()
            alpha, x = min_feasible_dilation(inst)
            # Certified probes skip the simplex; the winner's LP is solved
            # once, whether at its probe or deferred.
            assert len(probes) == len(set(probes))
            assert len({id(p) for p in solves}) == len(solves) <= len(probes)
            direct = real_solve(build_nukc_lp(inst, alpha)).values
            assert np.array_equal(x, direct.reshape(inst.n, inst.num_classes))

    def test_alpha_only_search_solves_only_open_probes(self, monkeypatch):
        verdicts, solves = [], []
        real_certify, real_solve = model._certify, lp.solve
        monkeypatch.setattr(model, "_certify", lambda problem, h:
                            verdicts.append(real_certify(problem, h)) or verdicts[-1])
        monkeypatch.setattr(lp, "solve", lambda problem:
                            solves.append(problem) or real_solve(problem))
        deferred = 0
        for seed in range(20):
            inst = random_instance(8, seed=seed, max_classes=4)
            verdicts.clear(), solves.clear()
            alpha, solve = relaxation_search(inst)
            # Only probes neither certificate settled reach the simplex.
            assert len(solves) == verdicts.count(None)
            before = len(solves)
            x = solve()
            deferred += len(solves) - before
            want_alpha, want_x = min_feasible_dilation(inst)
            assert alpha == want_alpha and x.tobytes() == want_x.tobytes()
        # Some winners were confirmed by the greedy cover: the alpha-only
        # search skipped their solve.
        assert deferred > 0

    def test_lp_shape(self, line_instance):
        prob = build_nukc_lp(line_instance, 1.0)
        n, h = line_instance.n, line_instance.num_classes
        assert prob.num_vars == n * h
        # n covering rows + h budget rows
        assert len(prob.constraints) == n + h


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
    def test_window_rows_match_reference(self, seed, monkeypatch):
        rng, inst, dilation, _ = seeded_case(seed)
        h = inst.num_classes
        tau = int(rng.randint(h))
        fixed = [(int(rng.randint(inst.n)), int(rng.randint(h)))]
        built = []
        real_build = model.build_nukc_lp

        def recording_build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(model, "build_nukc_lp", recording_build)
        x, uncovered = _window_lp_feasible(inst, dilation, tau, fixed)
        if not uncovered:
            assert not built and not x().any()
            return
        assert len(built) == 1
        want = reference_nukc_lp(inst, dilation, points=uncovered, class_window=(tau, h - 1))
        assert_same_lp(built[0], want)

    @pytest.mark.parametrize("seed", range(40))
    def test_guess_rows_match_reference(self, seed):
        rng, inst, _, points = seeded_case(seed)
        n, h = inst.n, inst.num_classes
        tuples = [(q, t) for q in range(n) for t in range(h)]
        draw = rng.rand(len(tuples))
        negative = [tup for tup, u in zip(tuples, draw) if u < 0.5]
        affirmative = [tup for tup, u in zip(tuples, draw) if u > 0.8]
        if negative:  # an A/D collision: A must win
            affirmative.append(negative[0])
        pair = GuessPair(frozenset(affirmative), frozenset(negative))
        want = reference_guess_lp(points, pair, inst)
        assert_same_lp(build_guess_lp(points, pair, inst), want)

    def test_huge_radius_reaches_every_point_without_warning(self, line_space):
        # 10 * 1e308 overflows to inf: every point is within reach.
        inst = NukcInstance(line_space, [(1, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = build_nukc_lp(inst, 10.0)
        assert prob.constraints[prob.ge].all()

    def test_start_mapping_and_pins(self, line_instance):
        prob = build_nukc_lp(line_instance, 1.0, points=[4, 0], start={0: 1, 4: 0},
                             pinned={(2, 1): 1.0})
        rows = prob.constraints[prob.ge]
        # Ascending point order; point 0's row holds class 1 only.
        assert rows[0][0::2].sum() == 0 and rows[0][1::2].sum() == 2
        assert rows[1][0::2].sum() == 2 and rows[1][1::2].sum() == 2
        assert prob.bounds[var_index(2, 1, 2)].tolist() == [1.0, 1.0]


class TestSmallestFeasible:
    @pytest.mark.parametrize("length", [1, 2, 3, 7, 16])
    def test_matches_linear_scan(self, length):
        cands = [0.5 * i for i in range(length)]
        for threshold in range(length + 1):  # threshold == length: none holds
            probed, ran = [], []

            def probe(c):
                probed.append(c)
                return (lambda: ran.append(c) or ("hit", c)) if c >= 0.5 * threshold else None

            scan = next(((c, ("hit", c)) for c in cands if c >= 0.5 * threshold), None)
            found = smallest_feasible(cands, probe)
            assert ran == []  # the winner's callable comes back unrun
            assert (found and (found[0], found[1]())) == scan
            assert probed[0] == cands[-1]
            assert len(probed) == len(set(probed))
            assert ran == ([] if scan is None else [scan[0]])
            if scan is not None and length > 1:
                assert probed[1] == cands[0]


class TestCertificate:
    """model._certify: False refutes a covering LP, True confirms it."""

    def line(self, coords, classes):
        return NukcInstance(MetricSpace.from_coords(np.array(coords, dtype=float)), classes)

    def test_need_equal_to_supply_is_not_refuted(self):
        # Two far points, two unit balls: the disjoint rows need 2 and
        # their supports supply exactly 2.
        inst = self.line([[0], [10]], [(2, 1.0)])
        assert model._certify(build_nukc_lp(inst, 1.0), 1) is True

    def test_packing_refutes_far_points(self, line_space):
        inst = NukcInstance(line_space, [(1, 1.0)])
        assert model._certify(build_nukc_lp(inst, 1.0), 1) is False

    def test_pin_that_uses_up_a_budget(self):
        inst = self.line([[0], [10]], [(1, 2.0), (1, 1.0)])
        # The one big ball sits at point 0; point 1 needs the small one.
        pinned = {(0, 0): 1.0}
        assert model._certify(build_nukc_lp(inst, 1.0, pinned=pinned), 2) is True
        blocked = build_nukc_lp(inst, 1.0, pinned={**pinned, (1, 1): 0.0})
        assert model._certify(blocked, 2) is False
        # Pins alone overrun the big ball's budget.
        over = build_nukc_lp(inst, 1.0, points=[], pinned={(0, 0): 1.0, (1, 0): 1.0})
        assert model._certify(over, 2) is False

    def test_start_level_h_is_an_empty_row(self, line_instance):
        h = line_instance.num_classes
        empty = build_nukc_lp(line_instance, 100.0, points=[3], start=h)
        assert not empty.constraints[0].any()
        assert model._certify(empty, h) is False

    def test_duplicate_points(self):
        # Rows of duplicate points overlap, so only one of them counts.
        inst = self.line([[0], [0], [0], [5]], [(2, 1.0)])
        assert model._certify(build_nukc_lp(inst, 1.0), 1) is True
        lone = self.line([[0], [0], [5]], [(1, 1.0)])
        assert model._certify(build_nukc_lp(lone, 1.0), 1) is False

    @pytest.mark.parametrize("seed", range(30))
    def test_search_with_and_without_certificates(self, seed, monkeypatch):
        inst = random_instance(7, seed=seed)
        alpha, x = min_feasible_dilation(inst)
        monkeypatch.setattr(model, "_certify", lambda problem, h: None)
        want_alpha, want_x = min_feasible_dilation(inst)
        assert alpha == want_alpha and np.array_equal(x, want_x)


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
    expanded = original.expand_radii()
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
