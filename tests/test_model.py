import math

import numpy as np
import pytest

from nukc.metric import MetricSpace
from nukc.model import (
    Ball,
    InfeasibleInstanceError,
    NukcInstance,
    NukcSolution,
    achieved_dilation,
    build_nukc_lp,
    candidate_dilations,
    club_radii,
    compress_radii,
    coverage,
    lift_clubbed_solution,
    lift_compressed_solution,
    min_feasible_dilation,
    solve_fractional,
    validate_solution,
)
from nukc import lp
from nukc.gadgets import random_instance
from nukc.oracle import exact_nukc


class TestInstance:
    def test_classes_sorted_descending_and_merged(self, line_space):
        inst = NukcInstance(line_space, [(1, 1.0), (2, 3.0), (1, 3.0)])
        assert inst.radii == [3.0, 1.0]
        assert inst.budgets == [3, 1]
        assert inst.total_k == 4

    def test_bad_multiplicity_rejected(self, line_space):
        with pytest.raises(ValueError):
            NukcInstance(line_space, [(0, 1.0)])

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

    def test_lp_shape(self, line_instance):
        prob = build_nukc_lp(line_instance, 1.0)
        n, h = line_instance.n, line_instance.num_classes
        assert prob.num_vars == n * h
        # n covering rows + h budget rows
        assert len(prob.constraints) == n + h


class TestCoverage:
    def test_suffix_and_window(self, line_instance):
        x = np.zeros((5, 2))
        x[1, 0] = 1.0  # 2-ball at point 1 covers 0,1,2 at dilation 1
        x[3, 1] = 1.0  # 1-ball at point 3 covers 3,4
        prof = coverage(line_instance, x)
        assert prof.suffix(0, 0) == pytest.approx(1.0)
        assert prof.suffix(0, 1) == pytest.approx(0.0)
        assert prof.suffix(4, 1) == pytest.approx(1.0)
        assert prof.window(4, 0, 1) == pytest.approx(1.0)


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

    def test_zero_radius_dilation_only_at_distance_zero(self, line_space):
        inst = NukcInstance(line_space, [(1, 0.0)])
        sol = NukcSolution([Ball(3, 0, 0.0)])
        # Zero-radius balls cover only their own point, at any dilation.
        assert achieved_dilation(inst, sol) == math.inf


class TestClubbing:
    def test_powers_of_two(self, line_space):
        inst = NukcInstance(line_space, [(1, 5.0), (1, 3.0), (1, 1.0)])
        clubbed, mapping = club_radii(inst)
        assert clubbed.radii == [8.0, 4.0, 1.0]
        assert [c.multiplicity for c in clubbed.classes] == [1, 1, 1]

    def test_equal_results_merge(self, line_space):
        inst = NukcInstance(line_space, [(1, 4.0), (1, 3.0), (1, 1.0)])
        clubbed, mapping = club_radii(inst)
        assert clubbed.radii == [4.0, 1.0]
        assert clubbed.budgets == [2, 1]

    def test_zero_radius_preserved(self, line_space):
        inst = NukcInstance(line_space, [(1, 3.0), (2, 0.0)])
        clubbed, _ = club_radii(inst)
        assert clubbed.radii == [4.0, 0.0]

    def test_clubbed_optimum_not_worse(self):
        for seed in range(15):
            inst = random_instance(8, seed=seed)
            clubbed, _ = club_radii(inst)
            a_orig, _ = min_feasible_dilation(inst)
            a_club, _ = min_feasible_dilation(clubbed)
            assert a_club <= a_orig + 1e-9

    def test_lift_maps_back_with_doubled_radii(self, line_space):
        inst = NukcInstance(line_space, [(1, 5.0), (1, 3.0)])
        clubbed, mapping = club_radii(inst)  # radii 8, 4
        csol = NukcSolution([Ball(1, 0, 8.0), Ball(3, 1, 4.0)])
        lifted = lift_clubbed_solution(csol, mapping, inst)
        report = validate_solution(inst, lifted, 1.0, 2.0)
        assert report.ok


class TestCompression:
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
