import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from nukc.gadgets import random_euclidean, random_instance
from nukc.metric import MetricSpace
from nukc import solvers
from nukc.model import (
    Ball,
    NukcInstance,
    achieved_dilation,
    candidate_dilations,
    compress_radii,
    min_feasible_dilation,
    smallest_feasible,
    solve_fractional,
    validate_solution,
)
from nukc.oracle import SizeBudgetError, exact_kcwo, exact_nukc
from nukc.solvers import (
    TWO_RADII_FACTOR,
    _window_lp_feasible,
    charikar_kcwo_search,
    ilog,
    iterated_log,
    round_bottom_heavy,
    solve_guess_q,
    solve_kcwo,
    solve_two_radii,
    zero_dilation_solution,
)


class TestIlog:
    def test_values(self):
        assert ilog(1) == 1
        assert ilog(2) == 1
        assert ilog(3) == 2
        assert ilog(4) == 2
        assert ilog(5) == 3
        assert ilog(16) == 4

    def test_iterated(self):
        assert iterated_log(16, 1) == 4
        assert iterated_log(16, 2) == 2
        assert iterated_log(16, 3) == 1
        # Fixed point at 1.
        assert iterated_log(16, 10) == 1


class TestKcwo:
    @pytest.mark.parametrize("seed", range(40))
    def test_factor_two(self, seed):
        rng = np.random.RandomState(seed)
        space, _ = random_euclidean(int(rng.randint(4, 11)), 2, seed=seed)
        k, l = int(rng.randint(1, 4)), int(rng.randint(0, 4))
        opt, _, _ = exact_kcwo(space, k, l)
        res = solve_kcwo(space, k, l)
        assert res.radius <= 2 * opt + 1e-9
        assert len(res.centers) <= k and len(res.outliers) <= l
        covered = np.zeros(space.n, dtype=bool)
        for c in res.centers:
            covered |= space.dist[c] <= res.radius + 1e-9
        covered[list(res.outliers)] = True
        assert covered.all()

    @pytest.mark.parametrize(
        "coords,k,l",
        [([[1], [0], [0]], 1, 1)]
        + [
            (rng.randint(0, 4, size=(rng.randint(2, 12), 1)).tolist(),
             int(rng.randint(1, 4)), int(rng.randint(0, 4)))
            for rng in map(np.random.RandomState, range(60))
        ],
        ids=["1-0-0"] + [f"grid-seed-{seed}" for seed in range(60)],
    )
    def test_coincident_points(self, coords, k, l):
        """On a grid with repeated points the radius-0 class excuses a whole
        distance-zero group with one ball."""
        space = MetricSpace.from_coords(np.array(coords, dtype=float))
        opt, _, _ = exact_kcwo(space, k, l)
        res = solve_kcwo(space, k, l)
        assert res.radius <= 2 * opt + 1e-9
        assert len(res.centers) <= k and len(res.outliers) <= l
        classes = [(k, res.radius or 1.0)] + ([(l, 0.0)] if l else [])
        report = validate_solution(NukcInstance(space, classes), res.to_solution(), 1.0, 1.0)
        assert report.ok, str(report)

    def test_all_points_outliers(self):
        space, _ = random_euclidean(4, 2, seed=0)
        res = solve_kcwo(space, 1, 4)
        assert res.radius == 0.0

    def test_k_zero_rejected(self):
        space, _ = random_euclidean(4, 2, seed=0)
        with pytest.raises(ValueError):
            solve_kcwo(space, 0, 1)

    @pytest.mark.parametrize("seed", range(15))
    def test_greedy_charikar_covers(self, seed):
        rng = np.random.RandomState(100 + seed)
        space, _ = random_euclidean(9, 2, seed=seed)
        k, l = int(rng.randint(1, 4)), int(rng.randint(0, 3))
        res = charikar_kcwo_search(space, k, l)
        covered = np.zeros(space.n, dtype=bool)
        for c in res.centers:
            covered |= space.dist[c] <= res.radius + 1e-9
        covered[list(res.outliers)] = True
        assert covered.all()
        assert len(res.centers) <= k and len(res.outliers) <= l


class TestTwoRadii:
    @pytest.mark.parametrize("seed", range(40))
    def test_golden_factor(self, seed):
        inst = random_instance(9, seed=seed, max_k=2)
        if inst.num_classes != 2 or inst.total_k > 4:
            return
        opt, _ = exact_nukc(inst)
        sol = solve_two_radii(
            inst.space,
            (inst.budgets[0], inst.radii[0]),
            (inst.budgets[1], inst.radii[1]),
        )
        d = achieved_dilation(inst, sol)
        assert d <= TWO_RADII_FACTOR * opt + 1e-9
        report = validate_solution(inst, sol, 1.0, TWO_RADII_FACTOR * max(opt, 1e-12) + 1e-9)
        assert report.ok, f"seed {seed}: {report}"

    def test_orders_must_be_descending(self, line_space):
        with pytest.raises(ValueError):
            solve_two_radii(line_space, (1, 1.0), (1, 2.0))

    def test_degenerate_enough_centers(self, line_space):
        sol = solve_two_radii(line_space, (3, 1.0), (2, 0.5))
        assert achieved_dilation(line_space_instance(line_space), sol) == 0.0


def line_space_instance(space):
    return NukcInstance(space, [(3, 1.0), (2, 0.5)])


class TestZeroDilation:
    def test_assigns_distinct_points(self, line_space):
        inst = NukcInstance(line_space, [(3, 2.0), (2, 1.0)])
        sol = zero_dilation_solution(inst)
        assert achieved_dilation(inst, sol) == 0.0
        assert validate_solution(inst, sol, 1.0, 1.0).ok

    def duplicate_space(self):
        """Four distance-zero classes: {0, 1}, {2, 3}, {4}, {5}."""
        return MetricSpace.from_coords(np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [5.0]]))

    def test_classes_in_budget_order_across_budgets(self):
        inst = NukcInstance(self.duplicate_space(), [(2, 2.0), (3, 1.0)])
        sol = zero_dilation_solution(inst)
        assert sol.balls == [Ball(0, 0, 0.0), Ball(2, 0, 0.0), Ball(4, 1, 0.0), Ball(5, 1, 0.0)]

    def test_not_enough_balls(self):
        inst = NukcInstance(self.duplicate_space(), [(1, 2.0), (2, 1.0)])
        with pytest.raises(ValueError, match="not enough balls"):
            zero_dilation_solution(inst)


class TestBottomHeavy:
    def make(self, seed):
        inst = random_instance(10, seed=seed, max_classes=4)
        comp = compress_radii(inst)
        cinst = comp.instance
        alpha, x = min_feasible_dilation(cinst)
        if alpha <= 0:
            return None
        return cinst.scaled(alpha), x

    @pytest.mark.parametrize("seed", range(25))
    def test_bounds(self, seed):
        pair = self.make(seed)
        if pair is None:
            return
        inst, x = pair
        L = inst.num_classes - 1
        tau = 0  # every point draws all coverage from classes >= 0
        sol = round_bottom_heavy(inst, x, tau)
        dist = inst.space.dist
        # At tau = 0 every point is eligible and must be covered.
        for p in range(inst.n):
            assert any(
                dist[p, b.center] <= b.radius_used + 1e-9 for b in sol.balls
            )
        # Per class: count <= 4 k_t + tree height, radius 8 r_t, class >= tau.
        height = inst.num_classes + 1
        counts = sol.class_counts(inst.num_classes)
        for t in range(inst.num_classes):
            assert counts[t] <= 4 * inst.budgets[t] + height
        for b in sol.balls:
            assert b.class_index >= tau
            assert b.radius_used <= 8 * inst.radii[b.class_index] + 1e-9

    def test_rejects_thin_points(self):
        pair = self.make(1)
        if pair is None:
            pytest.skip("degenerate instance")
        inst, x = pair
        L = inst.num_classes - 1
        if L == 0:
            pytest.skip("single class")
        thin = np.zeros_like(x)
        thin[:, 0] = x.sum(axis=1).clip(0, 1)  # all mass on the top class
        with pytest.raises(ValueError):
            round_bottom_heavy(inst, thin, L, points=list(range(inst.n)))

    def test_tau_out_of_range(self):
        pair = self.make(2)
        inst, x = pair
        with pytest.raises(ValueError):
            round_bottom_heavy(inst, x, inst.num_classes + 3)


class TestGuessQ:
    @pytest.mark.parametrize("seed", range(20))
    def test_covers_and_bounds(self, seed):
        inst = random_instance(9, seed=seed, max_classes=3)
        comp = compress_radii(inst)
        cinst = comp.instance
        try:
            res = solve_guess_q(comp, 1)
        except SizeBudgetError:
            return
        sol = res.solution
        dist = cinst.space.dist
        for p in range(cinst.n):
            assert any(dist[p, b.center] <= b.radius_used + 1e-9 for b in sol.balls)
        # Guessed classes sit below tau at exactly the locked dilation;
        # rounded classes are >= tau at radius factor <= 8.
        for b in sol.balls:
            limit = 8 * max(res.dilation, 1e-12) * cinst.radii[b.class_index]
            assert b.radius_used <= limit + 1e-9

    def test_locked_dilation_bounded_by_integral_optimum(self):
        for seed in range(12):
            inst = random_instance(8, seed=seed, max_k=2)
            comp = compress_radii(inst)
            if comp.instance.total_k > 4:
                continue
            opt, _ = exact_nukc(comp.instance)
            try:
                res = solve_guess_q(comp, 1)
            except SizeBudgetError:
                continue
            assert res.dilation <= opt + 1e-9

    def test_budget_refusal(self):
        space, _ = random_euclidean(40, 2, seed=0)
        inst = NukcInstance(space, [(30, 1.0), (1, 0.9), (2, 0.5), (4, 0.2)])
        comp = compress_radii(inst)
        with pytest.raises(SizeBudgetError):
            solve_guess_q(comp, 1, guess_budget=10)


def reference_guess_search(instance, tau):
    """The guess-q search as a per-candidate scan, kept to pin the one-pass
    search: bisect the candidate dilations, and at each probe take the
    first guess in enumeration order whose window LP fits.  Returns
    (dilation, guess, x), x None when the guess covers every point."""
    per_class = [
        list(combinations_with_replacement(range(instance.n), instance.classes[t].multiplicity))
        for t in range(tau)
    ]
    guesses = [
        [(c, t) for t, picks in enumerate(combo) for c in picks]
        for combo in product(*per_class)
    ]

    def first_fits(alpha):
        for guess in guesses:
            x, uncovered = _window_lp_feasible(instance, alpha, tau, guess)
            if x is not None:
                return lambda: (guess, x() if uncovered else None)
        return None

    alpha, hit = smallest_feasible(candidate_dilations(instance), first_fits)
    return (alpha, *hit())


def guess_corpus():
    """Seeds whose compressed instance (n 6-10, up to 4 classes) has at
    least two classes, so guess-q at q = 1 guesses class 0 at least: n or
    more placements."""
    cases = []
    for seed in range(100):
        comp = compress_radii(random_instance(6 + seed % 5, seed=seed, max_classes=4))
        if comp.instance.num_classes >= 2:
            cases.append(seed)
    return cases


GUESS_CASES = guess_corpus()


class TestGuessSearch:
    def test_corpus_size(self):
        assert len(GUESS_CASES) >= 60

    @pytest.mark.parametrize("seed", GUESS_CASES)
    def test_one_pass_matches_per_candidate_scan(self, seed, monkeypatch):
        comp = compress_radii(random_instance(6 + seed % 5, seed=seed, max_classes=4))
        inst = comp.instance
        alpha, _ = min_feasible_dilation(inst)
        rounded = []
        real_round = solvers.round_bottom_heavy
        monkeypatch.setattr(solvers, "round_bottom_heavy",
                            lambda scaled, x, tau, points: rounded.append(x)
                            or real_round(scaled, x, tau, points=points))
        L = inst.num_classes - 1
        tau = min(L, iterated_log(L, 1))
        want_dilation, want_guess, want_x = reference_guess_search(inst, tau)
        want_balls = [Ball(c, t, want_dilation * inst.radii[t]) for c, t in want_guess]
        for floor in (0.0, alpha):
            rounded.clear()
            res = solve_guess_q(comp, 1, floor=floor)
            assert res.tau == tau
            assert res.dilation == want_dilation
            # No guess fits below the relaxation's optimum.
            assert res.dilation >= alpha
            assert res.solution.balls[: len(want_balls)] == want_balls
            if want_x is None:
                assert rounded == []
            else:
                assert len(rounded) == 1 and rounded[0].tobytes() == want_x.tobytes()
