import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nukc import lp, model
from nukc.bicriteria import build_guess_lp
from nukc.gadgets import random_instance
from nukc.model import NukcInstance, build_nukc_lp, candidate_dilations, relaxation_search
from nukc.solvers import _window_lp


def scipy_reference(problem):
    """Independent feasibility check of the same problem via scipy's HiGHS
    backend, with a zero objective."""
    c = np.zeros(problem.num_vars)
    flip = np.where(problem.ge, -1.0, 1.0)  # every row as <=
    a_ub = flip[:, None] * problem.constraints
    b_ub = flip * problem.rhs
    bounds = [(lo, None if hi == np.inf else hi) for lo, hi in problem.bounds]
    return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")


def make_problem(rows, ge, rhs, bounds):
    return lp.LpProblem(
        constraints=np.array(rows, dtype=float).reshape(len(rows), len(bounds)),
        ge=np.array(ge, dtype=bool),
        rhs=np.array(rhs, dtype=float),
        bounds=np.array(bounds, dtype=float),
    )


def rows_hold(problem, values, tol=1e-6):
    lhs = problem.constraints @ values
    return np.all(np.where(problem.ge, lhs >= problem.rhs - tol, lhs <= problem.rhs + tol))


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
    return make_problem(rows, ge, rhs, bounds)


@st.composite
def covering_lps(draw, max_n=7):
    """A covering LP from build_nukc_lp at a candidate dilation, with
    per-point start levels, 0/1 pins and class budgets up to 10^9."""
    n = draw(st.integers(1, max_n), label="n")
    inst = random_instance(n, seed=draw(st.integers(0, 10_000), label="seed"), max_classes=3)
    inst = NukcInstance(inst.space, [
        (draw(st.sampled_from([c.multiplicity, 10**6, 10**9]), label=f"k {t}"), c.radius)
        for t, c in enumerate(inst.classes)
    ])
    h = inst.num_classes
    cands = candidate_dilations(inst)
    dilation = cands[draw(st.integers(0, len(cands) - 1), label="candidate")]
    points = sorted(draw(st.sets(st.integers(0, n - 1)), label="points"))
    start = [draw(st.integers(0, h), label=f"start {p}") for p in points]
    pins = draw(
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, h - 1)),
            st.sampled_from([0.0, 1.0]),
            max_size=n * h,
        ),
        label="pinned",
    )
    pinned = np.full((n, h), np.nan)  # NaN: free
    for cell, value in pins.items():
        pinned[cell] = value
    return build_nukc_lp(inst, dilation, points=points, start=start, pinned=pinned)


@st.composite
def open_covering_lps(draw):
    """(problem, h, vertex): the dense covering LP from build_nukc_lp
    nearest its instance's relaxation optimum, among the 12 nearest
    candidates, that neither certificate of model._certify settles; its
    class count; and the greedy's vertex.  (covering_lps almost never draws
    such an LP.)"""
    n = draw(st.integers(12, 16), label="n")
    inst = random_instance(n, seed=draw(st.integers(0, 10_000), label="seed"), max_classes=3)
    h = inst.num_classes
    cands = candidate_dilations(inst)
    at = cands.index(relaxation_search(inst))
    for i in sorted(range(len(cands)), key=lambda i: abs(i - at))[:12]:
        cover = build_nukc_lp(inst, cands[i])
        vertex = model._certify(cover)
        if not isinstance(vertex, bool):
            return cover.problem(), h, vertex
    assume(False)


def box_vertex(data, problem):
    """A vertex of the problem's box drawn from `data`: each variable at
    its lower or its (finite) upper bound."""
    lo, hi = problem.bounds.T
    at_upper = data.draw(st.lists(st.booleans(), min_size=len(lo), max_size=len(lo)),
                         label="at upper")
    return np.where(np.array(at_upper, dtype=bool) & np.isfinite(hi), hi, lo)


def mixed_sign_problem(seed):
    """A small LP with mixed-sign rows, like random_problem's, whose
    variables may also start below 0 or have no upper bound."""
    rng = np.random.RandomState(seed)
    n, m = rng.randint(1, 7), rng.randint(1, 6)
    bounds = [(0.0, float(rng.uniform(0.5, 3.0))) if rng.rand() < 0.7
              else (float(rng.uniform(-1.0, 0.0)), np.inf) for _ in range(n)]
    return make_problem(rng.uniform(-1, 2, size=(m, n)), rng.rand(m) >= 0.5,
                        rng.uniform(-1, 3, size=m), bounds)


class TestSolveKnown:
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
        # x0 + x1 >= 3 with x <= (1, 2): only the corner (1, 2) is feasible.
        prob = make_problem([[1.0, 1.0]], [True], [3.0], [(0.0, 1.0), (0.0, 2.0)])
        sol = lp.solve(prob)
        assert sol.status == "feasible"
        assert sol.values == pytest.approx([1.0, 2.0], abs=1e-8)

    def test_no_rows(self):
        bounds = [(0.5, 1.0), (-1.0, 2.0)]
        assert lp.solve(make_problem([], [], [], bounds)).values.tolist() == [0.5, -1.0]

    def test_unbounded(self):
        # Variables without an upper bound: x0 >= 5 and x0 - x1 <= 1 need x1 >= 4.
        prob = make_problem([[1.0, 0.0], [1.0, -1.0]], [True, False], [5.0, 1.0],
                            [(0.0, np.inf)] * 2)
        sol = lp.solve(prob)
        assert sol.status == "feasible"
        assert rows_hold(prob, sol.values)
        assert sol.values[1] >= 4.0 - 1e-8

    @pytest.mark.parametrize(
        "change,match",
        [
            (lambda p: setattr(p, "ge", p.ge[:1]), "one entry per row"),
            (lambda p: setattr(p, "rhs", np.append(p.rhs, 1.0)), "one entry per row"),
            (lambda p: setattr(p, "bounds", p.bounds[:1]), "bounds must be"),
            (lambda p: setattr(p, "bounds", p.bounds[:, :1]), "bounds must be"),
            (lambda p: p.bounds.__setitem__(1, (2.0, 1.0)), "variable 1 has empty bound"),
        ],
        ids=["ge-short", "rhs-long", "bounds-rows", "bounds-cols", "empty-interval"],
    )
    def test_malformed_problem_rejected(self, change, match):
        prob = make_problem([[1.0, 1.0], [1.0, 0.0]], [True, False], [1.0, 1.0],
                            [(0.0, 1.0)] * 2)
        change(prob)
        with pytest.raises(ValueError, match=match):
            lp.solve(prob)


class TestSolveAgainstScipy:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_objective(self, seed):
        """Same feasibility verdict as HiGHS with a zero objective, and the
        returned point satisfies every row."""
        prob = random_problem(seed)
        ours = lp.solve(prob)
        ref = scipy_reference(prob)
        assert ref.status in (0, 2)  # feasible or infeasible
        assert ours.status == ("feasible" if ref.status == 0 else "infeasible")
        if ours.ok:
            assert rows_hold(prob, ours.values)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_covering_lps_match_reference(self, data):
        """On covering LPs from build_nukc_lp with per-point start levels and
        pinned variables, the simplex finds a point exactly when HiGHS does,
        and the certificates never contradict HiGHS."""
        cover = data.draw(covering_lps())
        prob = cover.problem()
        ours = lp.solve(prob)
        feasible = scipy_reference(prob).status == 0
        assert ours.ok == feasible
        verdict = model._certify(cover)
        assert not isinstance(verdict, bool) or verdict == feasible
        if ours.ok:
            assert rows_hold(prob, ours.values)

    @pytest.mark.parametrize("seed", range(20))
    def test_solutions_are_basic(self, seed):
        prob = random_problem(seed)
        sol = lp.solve(prob)
        if sol.ok:
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


class TestVerdict:
    """lp.verdict answers True or False only where its own check proves it,
    so it never contradicts the simplex."""

    @settings(max_examples=200, deadline=None)
    @given(covering_lps(max_n=12))
    def test_covering_lps_agree_with_simplex(self, cover):
        prob = cover.problem()
        verdict = lp.verdict(prob)
        assert verdict is None or verdict == lp.solve(prob).ok

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mixed_sign_lps_agree_with_simplex(self, seed):
        prob = mixed_sign_problem(seed)
        verdict = lp.verdict(prob)
        assert verdict is None or verdict == lp.solve(prob).ok

    @pytest.mark.parametrize("seed", range(60))
    def test_bounded_lps_are_settled(self, seed):
        # With every variable boxed, the final multipliers prove every
        # infeasible verdict.
        prob = random_problem(seed)
        assert lp.verdict(prob) == lp.solve(prob).ok

    def test_known_problems(self):
        assert lp.verdict(make_problem([[1.0, 1.0]], [True], [1.5], [(0.0, 1.0)] * 2))
        assert lp.verdict(make_problem([[1.0]], [True], [2.0], [(0.0, 1.0)])) is False
        corner = make_problem([[1.0, 1.0]], [True], [3.0], [(0.0, 1.0), (0.0, 2.0)])
        assert lp.verdict(corner) is True
        assert lp.verdict(make_problem([], [], [], [(0.5, 1.0)])) is True
        # x0 >= 1 with x0 fixed at 0: a slack budget row x0 <= 10^7 must not
        # widen the covering row's threshold.
        budget = make_problem([[1.0], [1.0]], [True, False], [1.0, 1e7], [(0.0, 0.0)])
        assert lp.verdict(budget) is False
        assert not lp.solve(budget).ok

    def test_budget_multiplier_beyond_one_is_kept(self):
        # x0 covers rows 0-2, x1..x3 one row each, x4 only row 3; one unit
        # of budget leaves a row short.  The multipliers (1, 1, 1, 1, -3)
        # prove it; the budget row's -3 must survive the clip, since with
        # it clipped into [0, 1] the bound drops to -3.
        prob = make_problem(
            [[1, 1, 0, 0, 0], [1, 0, 1, 0, 0], [1, 0, 0, 1, 0], [0, 0, 0, 0, 1],
             [1, 1, 1, 1, 1]],
            [True] * 4 + [False], [1] * 5, [(0.0, 1.0)] * 5)
        s = lp._phase_one_setup(prob)
        # The threshold is sum |lam_i| * 1e-7 over the clipped multipliers.
        assert lp._lagrangian_bound(s, np.array([1, 1, 1, 1, -3.0])) == (1.0, pytest.approx(7e-7))
        bound, tol = lp._lagrangian_bound(s, np.array([1, 1, 1, 1, 0.0]))
        assert bound == -3.0 and tol == pytest.approx(4e-7)
        # A covering row's 3 exceeds its artificial's cost of 1: clipped to 1.
        assert lp._lagrangian_bound(s, np.array([3, 1, 1, 1, -3.0])) == (1.0, pytest.approx(7e-7))
        assert not lp.solve(prob).ok
        assert lp.verdict(prob) is False

    def test_unbounded_column_with_negative_reduced_cost(self):
        # x0 >= 1 with x0 in [0, inf): lam = 0.5 prices x0 at -0.5, so the
        # Lagrangian is -inf, never a refutation.
        prob = make_problem([[1.0]], [True], [1.0], [(0.0, np.inf)])
        bound, tol = lp._lagrangian_bound(lp._phase_one_setup(prob), np.array([0.5]))
        assert bound == -np.inf and tol == pytest.approx(0.5e-7)
        assert lp.verdict(prob) is True

    def test_stored_multipliers_of_the_wrong_sign_refute_nothing(self):
        # x0 <= 2 on the box [0, 1]: w = +1 on the <= row would give
        # min (2 - x0) = 1 > tol, but a <= row's multiplier must be <= 0.
        prob = make_problem([[1.0]], [False], [2.0], [(0.0, 1.0)])
        assert lp._refutes(lp._phase_one_setup(prob), np.array([1.0]))[0] == -np.inf
        # The other two proofs have the wrong shape and are skipped.
        proofs = [(False, np.array([1.0])), (True, np.zeros(2)), (False, np.ones(2))]
        assert lp.verdict(prob, None, proofs) is True
        assert len(proofs) == 4 and proofs[-1][0] is True

    def test_malformed_problem_rejected(self):
        prob = make_problem([[1.0]], [True], [1.0], [(0.0, 1.0)])
        prob.bounds[0] = (2.0, 1.0)
        with pytest.raises(ValueError, match="empty bound"):
            lp.verdict(prob)


class TestVerdictStart:
    """lp.verdict from any vertex of the box answers as it does from the
    lower bounds: its checks do not depend on where the pivots start."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_vertex_agrees_with_reference(self, data):
        prob = data.draw(covering_lps(max_n=12)).problem()
        feasible = scipy_reference(prob).status == 0
        assert lp.verdict(prob, box_vertex(data, prob)) == lp.verdict(prob) == feasible

    @settings(max_examples=60, deadline=None)
    @given(open_covering_lps())
    def test_greedy_vertex_agrees_with_reference(self, case):
        prob, h, vertex = case
        m = len(prob.constraints) - h
        # Within every class budget, short of some covering row.
        assert np.all(prob.constraints[m:] @ vertex <= prob.rhs[m:])
        assert np.any(prob.constraints[:m] @ vertex < prob.rhs[:m])
        feasible = scipy_reference(prob).status == 0
        assert lp.verdict(prob, vertex) == lp.verdict(prob) == feasible

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_refutation_from_any_start_is_infeasible(self, seed, data):
        prob = mixed_sign_problem(seed)
        verdict = lp.verdict(prob, box_vertex(data, prob))
        if verdict is False:
            assert scipy_reference(prob).status == 2
        assert verdict is None or verdict == lp.solve(prob).ok

    @pytest.mark.parametrize("seed", range(60))
    def test_bounded_lps_are_settled_from_any_vertex(self, seed):
        prob = random_problem(seed)
        at_upper = np.random.RandomState(seed).rand(prob.num_vars) < 0.5
        start = np.where(at_upper, prob.bounds[:, 1], prob.bounds[:, 0])
        assert lp.verdict(prob, start) == lp.solve(prob).ok

    def test_artificials_only_on_rows_the_start_misses(self):
        # x0 + x1 >= 1.5 and x0 >= 1: the start (1, 0) meets only row 1.
        prob = make_problem([[1.0, 1.0], [1.0, 0.0]], [True, True], [1.5, 1.0],
                            [(0.0, 1.0), (0.0, np.inf)])
        s = lp._phase_one_setup(prob, [1.0, 0.0])
        assert s.A.shape == (2, 2 + 2 + 1)  # structural, slack, one artificial
        assert s.x.tolist() == [1.0, 0.0, 0.0, 0.0, 0.5]
        assert s.basis.tolist() == [4, 3]
        assert lp.verdict(prob, [1.0, 0.0]) is True

    @pytest.mark.parametrize(
        "start,match",
        [
            (np.zeros(3), r"start must be \(2,\), got \(3,\)"),
            (np.zeros((2, 1)), r"start must be \(2,\), got \(2, 1\)"),
            ([0.5, 0.0], "start of variable 0 is 0.5, not a finite bound"),
            ([1.0, 3.0], "start of variable 1 is 3.0, not a finite bound"),
            ([0.0, np.inf], "start of variable 1 is inf, not a finite bound"),
            ([np.nan, 0.0], "start of variable 0 is nan, not a finite bound"),
        ],
        ids=["long", "column", "strictly-inside", "beyond-upper", "infinite-upper", "nan"],
    )
    def test_start_must_be_a_vertex_of_the_box(self, start, match):
        prob = make_problem([[1.0, 1.0]], [True], [1.5], [(0.0, 1.0), (0.0, np.inf)])
        with pytest.raises(ValueError, match=match):
            lp._phase_one_setup(prob, start)
        with pytest.raises(ValueError, match=match):
            lp.verdict(prob, start)


def path_covering_lps():
    """200 seeded covering LPs from build_nukc_lp within two candidates of
    their relaxation's optimum."""
    for seed in range(200):
        inst = random_instance(8 + seed % 9, seed=seed, max_classes=3)
        cands = candidate_dilations(inst)
        at = cands.index(relaxation_search(inst))
        yield build_nukc_lp(inst, cands[min(max(at + seed % 5 - 2, 0), len(cands) - 1)])


def pivot_path_cases():
    """(problem, start): random_problem and mixed_sign_problem for seeds
    0-999 with start None, and path_covering_lps with the greedy's vertex
    where the certificates leave the LP open (69 of them) and None
    elsewhere."""
    for seed in range(1000):
        yield random_problem(seed), None
        yield mixed_sign_problem(seed), None
    for cover in path_covering_lps():
        vertex = model._certify(cover)
        yield cover.problem(), (None if isinstance(vertex, bool) else vertex)


# SHA-256 over every pivot_path_cases LP's solve status and x bytes and its
# verdicts from the lower bounds and from the start.  A change to the pivot
# loop that is meant to keep every pivot must keep this digest.
PIVOT_PATH_DIGEST = "5da8bfc11bc33409bacd3133f7c8bc82447f83c7618cf76deb776dd318a1d88f"


class TestPivotPath:
    def test_solve_and_verdict_take_the_pinned_pivots(self):
        digest = hashlib.sha256()
        for prob, start in pivot_path_cases():
            sol = lp.solve(prob)
            digest.update(sol.status.encode())
            if sol.ok:
                digest.update(sol.values.tobytes())
            digest.update(repr(lp.verdict(prob)).encode())
            if start is not None:
                digest.update(repr(lp.verdict(prob, start)).encode())
        assert digest.hexdigest() == PIVOT_PATH_DIGEST


def certify_cases():
    """path_covering_lps, then for seeds 0-149 a guess LP from
    bicriteria.build_guess_lp (seeded affirmative and negative masks over
    a random subset of the points, so pins and per-point start levels) on
    the instance scaled to its relaxation optimum, and a guess-q window LP
    from solvers._window_lp (seeded fixed balls, a seeded tau, within two
    candidates of the optimum).  Of the 300 guess and window LPs, 17 are
    left open."""
    yield from path_covering_lps()
    for seed in range(150):
        rng = np.random.RandomState(seed)
        inst = random_instance(8 + seed % 7, seed=1000 + seed, max_classes=3)
        n, h = inst.n, inst.num_classes
        cands = candidate_dilations(inst)
        alpha = relaxation_search(inst)
        scaled = inst.scaled(alpha) if alpha > 0 else inst
        aff = rng.rand(n, h) < 0.08
        neg = rng.rand(n, h) < 0.25
        points = sorted(rng.choice(n, size=rng.randint(1, n + 1), replace=False).tolist())
        yield build_guess_lp(points, aff, neg, scaled)
        at = cands.index(alpha)
        dilation = cands[min(max(at + seed % 5 - 2, 0), len(cands) - 1)]
        tau = int(rng.randint(h))
        fixed = [(int(rng.randint(n)), int(rng.randint(tau))) for _ in range(rng.randint(3))] \
            if tau else []
        problem, _ = _window_lp(inst, dilation, tau, fixed)
        if problem is not None:
            yield problem


# SHA-256 over model._certify's answer on every certify_cases LP, and the
# bytes of its greedy vertex where it leaves the LP open.  A change to the
# certificates or to the covering LP they read that is meant to keep every
# answer must keep this digest.
CERTIFY_DIGEST = "a5b1040f035fb2a335c1e8e55904afcafd1e2d0e3556852e80b0071f78d5e174"


class TestCertifyPath:
    def test_certify_gives_the_pinned_answers(self):
        digest, outcomes = hashlib.sha256(), {"True": 0, "False": 0, "open": 0}
        for cover in certify_cases():
            got = model._certify(cover)
            if isinstance(got, bool):
                digest.update(repr(got).encode())
                outcomes[repr(got)] += 1
            else:
                digest.update(b"open" + got.tobytes())
                outcomes["open"] += 1
        assert outcomes == {"True": 194, "False": 220, "open": 86}
        assert digest.hexdigest() == CERTIFY_DIGEST
