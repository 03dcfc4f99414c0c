import numpy as np
import pytest
from scipy.optimize import linprog

from nukc import lp


def scipy_reference(problem):
    """Independent solve of the same problem via scipy's HiGHS backend."""
    n = problem.num_vars
    c = problem.objective if problem.objective is not None else np.zeros(n)
    flip = np.where(problem.ge, -1.0, 1.0)  # every row as <=
    a_ub = flip[:, None] * problem.constraints
    b_ub = flip * problem.rhs
    bounds = [(lo, None if hi == np.inf else hi) for lo, hi in problem.bounds]
    return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")


def make_problem(rows, ge, rhs, bounds, objective=None):
    return lp.LpProblem(
        constraints=np.array(rows, dtype=float).reshape(len(rows), len(bounds)),
        ge=np.array(ge, dtype=bool),
        rhs=np.array(rhs, dtype=float),
        bounds=np.array(bounds, dtype=float),
        objective=None if objective is None else np.array(objective, dtype=float),
    )


def random_problem(seed):
    rng = np.random.RandomState(seed)
    n = rng.randint(2, 6)
    m = rng.randint(1, 5)
    bounds = [(0.0, float(rng.uniform(0.5, 3.0))) for _ in range(n)]
    rows, ge, rhs = [], [], []
    for _ in range(m):
        rows.append(rng.uniform(-1, 2, size=n))
        ge.append(rng.rand() >= 0.5)
        rhs.append(rng.uniform(-1, 3))
    return make_problem(rows, ge, rhs, bounds, objective=rng.uniform(-2, 2, size=n))


class TestSolveKnown:
    def test_simple_minimization(self):
        # min x0 + x1 s.t. x0 + x1 >= 1, 0 <= x <= 1 -> objective 1.
        prob = make_problem([[1.0, 1.0]], [True], [1.0], [(0.0, 1.0)] * 2, [1.0, 1.0])
        sol = lp.solve(prob)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-8)

    def test_feasibility_only_problem(self):
        prob = make_problem([[1.0, 1.0]], [True], [1.5], [(0.0, 1.0)] * 2)
        sol = lp.solve(prob)
        assert sol.status == "feasible"
        assert sol.values.sum() >= 1.5 - 1e-7

    def test_infeasible(self):
        prob = make_problem([[1.0]], [True], [2.0], [(0.0, 1.0)])
        sol = lp.solve(prob)
        assert sol.status == "infeasible"
        assert not sol.ok

    def test_binding_upper_bounds(self):
        # max x0 + 2 x1 (as min of the negative) with x <= (1, 2), sum <= 2.
        prob = make_problem([[1.0, 1.0]], [False], [2.0], [(0.0, 1.0), (0.0, 2.0)],
                            [-1.0, -2.0])
        sol = lp.solve(prob)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-4.0, abs=1e-8)
        assert sol.values == pytest.approx([0.0, 2.0], abs=1e-8)

    def test_no_rows(self):
        bounds = [(0.5, 1.0), (-1.0, 2.0)]
        assert lp.solve(make_problem([], [], [], bounds)).values.tolist() == [0.5, -1.0]
        sol = lp.solve(make_problem([], [], [], bounds, [1.0, -1.0]))
        assert sol.status == "optimal"
        assert sol.values.tolist() == [0.5, 2.0] and sol.objective_value == -1.5

    def test_unbounded(self):
        prob = make_problem([[1.0, -1.0]], [False], [1.0], [(0.0, np.inf)] * 2, [0.0, -1.0])
        assert lp.solve(prob).status == "unbounded"

    @pytest.mark.parametrize(
        "change,match",
        [
            (lambda p: setattr(p, "ge", p.ge[:1]), "one entry per row"),
            (lambda p: setattr(p, "rhs", np.append(p.rhs, 1.0)), "one entry per row"),
            (lambda p: setattr(p, "bounds", p.bounds[:1]), "bounds must be"),
            (lambda p: setattr(p, "bounds", p.bounds[:, :1]), "bounds must be"),
            (lambda p: p.bounds.__setitem__(1, (2.0, 1.0)), "variable 1 has empty bound"),
            (lambda p: setattr(p, "objective", np.ones(3)), "objective has wrong width"),
        ],
        ids=["ge-short", "rhs-long", "bounds-rows", "bounds-cols", "empty-interval",
             "objective-width"],
    )
    def test_malformed_problem_rejected(self, change, match):
        prob = make_problem([[1.0, 1.0], [1.0, 0.0]], [True, False], [1.0, 1.0],
                            [(0.0, 1.0)] * 2, [1.0, 1.0])
        change(prob)
        with pytest.raises(ValueError, match=match):
            lp.solve(prob)


class TestSolveAgainstScipy:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_objective(self, seed):
        prob = random_problem(seed)
        ours = lp.solve(prob)
        ref = scipy_reference(prob)
        if ref.status == 2:  # infeasible
            assert ours.status == "infeasible"
            return
        assert ref.status == 0
        assert ours.status == "optimal"
        assert ours.objective_value == pytest.approx(ref.fun, abs=1e-6)
        # Returned point satisfies every row.
        lhs = prob.constraints @ ours.values
        assert np.all(np.where(prob.ge, lhs >= prob.rhs - 1e-6, lhs <= prob.rhs + 1e-6))

    @pytest.mark.parametrize("seed", range(20))
    def test_solutions_are_basic(self, seed):
        prob = random_problem(seed)
        sol = lp.solve(prob)
        if sol.ok:
            assert sol.is_basic
            # Basic: at most m variables strictly between their bounds.
            strict = sum(
                1
                for v, (lo, hi) in zip(sol.values, prob.bounds)
                if v > lo + 1e-7 and v < hi - 1e-7
            )
            assert strict <= len(prob.constraints)


class TestFormat:
    def test_format_lp_mentions_all_sections(self):
        prob = make_problem([[1.0, -1.0]], [True], [0.5], [(0.0, 1.0)] * 2)
        text = lp.format_lp(prob)
        assert "Minimize" in text
        assert "Subject To" in text
        assert "Bounds" in text
        assert ">= 0.5" in text
