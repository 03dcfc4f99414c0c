import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from helpers import guess_window, replayed_search
from nukc import lp, model
from nukc.bicriteria import build_guess_lp
from nukc.gadgets import random_euclidean, random_instance, random_layered_tree
from nukc.model import NukcInstance, build_nukc_lp, candidate_dilations, relaxation_search
from nukc.rmfct import LayeredTree, build_rmfct_lp


def onehot(cover):
    """(h, N): row t marks the variables of class t."""
    return cover.cls == np.arange(len(cover.budgets))[:, None]


def scipy_reference(cover):
    """Independent feasibility check of the same covering LP via scipy's
    HiGHS backend, with a zero objective."""
    a_ub = np.vstack([-cover.supp.astype(float), onehot(cover)])  # every row as <=
    b_ub = np.concatenate([-np.ones(len(cover.supp)), cover.budgets])
    return linprog(np.zeros(len(cover.bounds)), A_ub=a_ub, b_ub=b_ub, bounds=cover.bounds,
                   method="highs")


def make_cover(supp, cls, budgets, bounds):
    bounds = np.array(bounds, dtype=float)
    return lp.CoveringLp(
        supp=np.array(supp, dtype=bool).reshape(len(supp), len(bounds)),
        cls=np.array(cls, dtype=int),
        budgets=np.array(budgets, dtype=float),
        bounds=bounds,
    )


def rows_hold(cover, values, tol=1e-6):
    return (np.all(cover.supp @ values >= 1.0 - tol)
            and np.all(onehot(cover) @ values <= cover.budgets + tol))


def random_cover(seed):
    """A small covering LP on a random finite box: supports over 2-6
    variables in 1-3 classes, budgets in [0, 3], and per variable a box
    [lo, lo + w] with lo below, at or above 0 and some boxes a point."""
    rng = np.random.RandomState(seed)
    n, m, h = rng.randint(2, 7), rng.randint(1, 5), rng.randint(1, 4)
    lo = np.where(rng.rand(n) < 0.3, rng.uniform(-0.5, 0.5, n), 0.0)
    width = np.where(rng.rand(n) < 0.15, 0.0, rng.uniform(0.2, 2.0, n))
    return lp.CoveringLp(supp=rng.rand(m, n) < 0.6, cls=rng.randint(h, size=n),
                         budgets=rng.uniform(0.0, 3.0, h),
                         bounds=np.column_stack([lo, lo + width]))


def tree_lps(seed):
    """build_rmfct_lp on a seeded layered tree of depth 1-4, at level
    budget scales 0.5, 1, 1.5 and 2.5."""
    tree = random_layered_tree(1 + seed % 4, 3, seed=seed)
    return [build_rmfct_lp(LayeredTree(tree.levels, tree.parent, [alpha] * tree.num_levels))
            for alpha in (0.5, 1.0, 1.5, 2.5)]


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
    """(cover, vertex): the covering LP from build_nukc_lp nearest its
    instance's relaxation optimum, among the 12 nearest candidates, that
    neither certificate of model._certify settles, and the greedy's vertex.
    (covering_lps almost never draws such an LP.)"""
    n = draw(st.integers(12, 16), label="n")
    inst = random_instance(n, seed=draw(st.integers(0, 10_000), label="seed"), max_classes=3)
    cands = candidate_dilations(inst)
    at = cands.index(relaxation_search(inst)[0])
    for i in sorted(range(len(cands)), key=lambda i: abs(i - at))[:12]:
        cover = build_nukc_lp(inst, cands[i])
        answer, vertex = model._certify(cover)
        if answer is None:
            return cover, vertex
    assume(False)


def box_vertex(data, cover):
    """A vertex of the cover's box drawn from `data`: each variable at its
    lower or its upper bound."""
    lo, hi = cover.bounds.T
    at_upper = data.draw(st.lists(st.booleans(), min_size=len(lo), max_size=len(lo)),
                         label="at upper")
    return np.where(at_upper, hi, lo)


class TestSolveKnown:
    def test_feasibility_only_problem(self):
        cover = make_cover([[1, 1]], [0, 0], [2.0], [(0.0, 0.75)] * 2)
        x = lp.solve(cover)
        assert x is not None
        assert x.sum() >= 1.0 - 1e-7

    def test_infeasible(self):
        assert lp.solve(make_cover([[1]], [0], [1.0], [(0.0, 0.5)])) is None

    def test_unproven_optimum_raises(self, monkeypatch):
        # A pivot loop that ends at its start, an optimum by its account,
        # with multipliers that prove nothing: the start misses the row of
        # this feasible LP, yet None would claim that no point exists.
        cover = make_cover([[1, 1]], [0, 0], [2.0], [(0.0, 1.0)] * 2)
        monkeypatch.setattr(lp, "_phase_one",
                            lambda s, run: ("optimal", np.zeros(len(s.rhs)), 0))
        with pytest.raises(lp.LpSolverError, match="optimal"):
            lp.solve(cover)

    @pytest.mark.parametrize("outcome", ["optimal", "budget", "singular", "unbounded"])
    def test_proved_none_from_any_stop(self, monkeypatch, outcome):
        # x0 >= 1 on the box [0, 0.5]: y = 1 on the covering row proves it
        # infeasible, whichever way the loop stopped.
        cover = make_cover([[1]], [0], [1.0], [(0.0, 0.5)])
        monkeypatch.setattr(lp, "_phase_one", lambda s, run: (outcome, np.array([1.0, 0.0]), 0))
        assert lp.solve(cover) is None

    def test_binding_upper_bounds(self):
        # x0 + x1 >= 1 with x <= (0.25, 0.75): only the corner is feasible.
        cover = make_cover([[1, 1]], [0, 0], [2.0], [(0.0, 0.25), (0.0, 0.75)])
        assert lp.solve(cover) == pytest.approx([0.25, 0.75], abs=1e-8)

    def test_no_covering_rows(self):
        cover = make_cover([], [0, 0], [5.0], [(0.5, 1.0), (-1.0, 2.0)])
        assert lp.solve(cover).tolist() == [0.5, -1.0]

    @pytest.mark.parametrize(
        "change,match",
        [
            (lambda c: setattr(c, "bounds", c.bounds[:1]), "bounds must be"),
            (lambda c: setattr(c, "bounds", c.bounds[:, :1]), "bounds must be"),
            (lambda c: c.bounds.__setitem__(1, (2.0, 1.0)), r"variable 1 has bounds \[2.0, 1.0\]"),
            (lambda c: c.bounds.__setitem__(1, (0.0, np.inf)), r"variable 1 has bounds \[0.0, inf\]"),
            (lambda c: c.bounds.__setitem__(0, (-np.inf, 1.0)), "variable 0 has bounds"),
            (lambda c: c.bounds.__setitem__(1, (np.nan, 1.0)), "variable 1 has bounds"),
        ],
        ids=["bounds-rows", "bounds-cols", "empty-interval", "infinite-upper", "infinite-lower",
             "nan"],
    )
    def test_malformed_problem_rejected(self, change, match):
        cover = make_cover([[1, 1], [1, 0]], [0, 0], [2.0], [(0.0, 1.0)] * 2)
        change(cover)
        with pytest.raises(ValueError, match=match):
            lp.solve(cover)


class TestSolveAgainstScipy:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_objective(self, seed):
        """Same feasibility verdict as HiGHS with a zero objective, and the
        returned point satisfies every row."""
        cover = random_cover(seed)
        x = lp.solve(cover)
        ref = scipy_reference(cover)
        assert ref.status in (0, 2)  # feasible or infeasible
        assert (x is not None) == (ref.status == 0)
        if x is not None:
            assert rows_hold(cover, x)

    @pytest.mark.parametrize("seed", range(20))
    def test_tree_lps_match_reference(self, seed):
        for cover in tree_lps(seed):
            x = lp.solve(cover)
            assert (x is not None) == (scipy_reference(cover).status == 0)
            if x is not None:
                assert rows_hold(cover, x)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_covering_lps_match_reference(self, data):
        """On covering LPs from build_nukc_lp with per-point start levels and
        pinned variables, the simplex finds a point exactly when HiGHS does,
        and the certificates never contradict HiGHS."""
        cover = data.draw(covering_lps())
        x = lp.solve(cover)
        feasible = scipy_reference(cover).status == 0
        assert (x is not None) == feasible
        verdict, _ = model._certify(cover)
        assert verdict is None or verdict == feasible
        if x is not None:
            assert rows_hold(cover, x)

    @pytest.mark.parametrize("seed", range(20))
    def test_solutions_are_basic(self, seed):
        # Basic: at most one variable per row (covering and budget rows)
        # strictly between its bounds.  round_loose relies on it.
        for cover in [random_cover(seed), *tree_lps(seed)]:
            x = lp.solve(cover)
            if x is not None:
                lo, hi = cover.bounds.T
                strict = np.sum((x > lo + 1e-7) & (x < hi - 1e-7))
                assert strict <= len(cover.supp) + len(cover.budgets)


class TestFormat:
    def test_format_lp_mentions_all_sections(self):
        cover = make_cover([[1, 0, 1], [0, 1, 0]], [0, 1, 1], [1.0, 2.5],
                           [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0)])
        assert lp.format_lp(cover) == "\n".join([
            "Minimize", " obj: 0", "Subject To",
            " c0: + 1 x0 + 1 x2 >= 1", " c1: + 1 x1 >= 1",
            " c2: + 1 x0 <= 1", " c3: + 1 x1 + 1 x2 <= 2.5",
            "Bounds", " 0 <= x0 <= 1", " 0 <= x1 <= 0", " 1 <= x2 <= 1", "End"])

    def test_empty_row(self):
        cover = make_cover([[0, 0]], [0, 0], [1.0], [(0.0, 1.0)] * 2)
        assert " c0: 0 >= 1" in lp.format_lp(cover).splitlines()


class TestVerdict:
    """lp.verdict answers True or False only where its own check proves it,
    so it never contradicts the simplex."""

    @settings(max_examples=200, deadline=None)
    @given(covering_lps(max_n=12))
    def test_covering_lps_agree_with_simplex(self, cover):
        verdict = lp.verdict(cover)[0]
        assert verdict is None or verdict == (lp.solve(cover) is not None)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_covers_agree_with_simplex(self, seed):
        cover = random_cover(seed)
        verdict = lp.verdict(cover)[0]
        assert verdict is None or verdict == (lp.solve(cover) is not None)

    @pytest.mark.parametrize("seed", range(60))
    def test_bounded_lps_are_settled(self, seed):
        # With every variable boxed, the final multipliers prove every
        # infeasible verdict.
        for cover in [random_cover(seed), *tree_lps(seed)]:
            assert lp.verdict(cover)[0] == (lp.solve(cover) is not None)

    def test_known_problems(self):
        assert lp.verdict(make_cover([[1, 1]], [0, 0], [2.0], [(0.0, 0.75)] * 2))[0]
        assert lp.verdict(make_cover([[1]], [0], [1.0], [(0.0, 0.5)]))[0] is False
        corner = make_cover([[1, 1]], [0, 0], [2.0], [(0.0, 0.25), (0.0, 0.75)])
        answer, x = lp.verdict(corner)
        assert answer is True and x.tolist() == [0.25, 0.75] and lp.confirms(corner, x)
        assert lp.verdict(make_cover([], [0], [1.0], [(0.5, 1.0)]))[0] is True
        # x0 >= 1 with x0 fixed at 0: a slack budget row x0 <= 10^7 must not
        # widen the covering row's threshold.
        budget = make_cover([[1]], [0], [1e7], [(0.0, 0.0)])
        assert lp.verdict(budget)[0] is False
        assert lp.solve(budget) is None

    def test_budget_multiplier_beyond_one_is_kept(self):
        # x0 covers rows 0-2, x1..x3 one row each, x4 only row 3; one unit
        # of budget leaves a row short.  The multipliers (1, 1, 1, 1, -3)
        # prove it; the budget row's -3 must survive the clip, since with
        # it clipped into [0, 1] the bound drops to -3.
        cover = make_cover(
            [[1, 1, 0, 0, 0], [1, 0, 1, 0, 0], [1, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
            [0] * 5, [1.0], [(0.0, 1.0)] * 5)
        s = lp._system(cover, lp._vertex(cover))
        # The threshold is sum |lam_i| * 1e-7 over the clipped multipliers.
        assert lp._lagrangian_bound(s, np.array([1, 1, 1, 1, -3.0])) == (1.0, pytest.approx(7e-7))
        bound, tol = lp._lagrangian_bound(s, np.array([1, 1, 1, 1, 0.0]))
        assert bound == -3.0 and tol == pytest.approx(4e-7)
        # A covering row's 3 exceeds its artificial's cost of 1: clipped to 1.
        assert lp._lagrangian_bound(s, np.array([3, 1, 1, 1, -3.0])) == (1.0, pytest.approx(7e-7))
        assert lp.solve(cover) is None
        assert lp.verdict(cover)[0] is False

    def test_stored_multipliers_of_the_wrong_sign_refute_nothing(self):
        # x0 <= 2 on the box [0, 1]: z = -1 on the class would give
        # min (2 - x0) = 1 > tol, but a class multiplier must be >= 0.  A
        # stored budget-row multiplier lam is z = -lam.
        cover = make_cover([], [0], [2.0], [(0.0, 1.0)])
        assert lp.refutes(cover, np.zeros(0), np.array([-1.0]))[0] == -np.inf
        # The other two proofs have the wrong shape and are skipped; no
        # entry carries a basis, so the verdict starts cold.
        proofs = [(False, np.array([1.0]), None), (True, np.zeros(2), None),
                  (False, np.ones(2), None)]
        assert lp.verdict(cover, None, proofs)[0] is True
        assert len(proofs) == 4 and proofs[-1][0] is True

    def test_a_stored_point_comes_back_inside_the_box(self):
        # x0 >= 1 on [0, 1]: the stored point 3 holds once clipped, and it
        # is handed back clipped.
        cover = make_cover([[1]], [0], [2.0], [(0.0, 1.0)])
        answer, x = lp.verdict(cover, None, [(True, np.array([3.0]), None)])
        assert answer is True and x.tolist() == [1.0]

    def test_malformed_problem_rejected(self):
        for bad in [(2.0, 1.0), (0.0, np.inf)]:
            cover = make_cover([[1]], [0], [1.0], [bad])
            with pytest.raises(ValueError, match="not a finite nonempty interval"):
                lp.verdict(cover)

    @pytest.mark.parametrize("answer", [True, False])
    def test_stored_proofs_answer_before_any_layout_but_after_the_checks(self, answer,
                                                                        monkeypatch):
        # x0 + x1 >= 1 with a budget of 2, proved by the point (1, 1); x0 >= 1
        # with x0 <= 0.5, refuted by y = 1 on the row (stored as (1, -0)).
        supp, proof = ([[1, 1]], np.ones(2)) if answer else ([[1, 0]], np.array([1.0, 0.0]))
        bounds = [(0.0, 1.0), (0.0, 1.0)] if answer else [(0.0, 0.5), (0.0, 1.0)]
        cover = make_cover(supp, [0, 0], [2.0], bounds)
        monkeypatch.setattr(lp, "_rows", None)  # laying out the dense rows fails
        got, x = lp.verdict(cover, None, [(answer, proof, None)])
        assert got is answer
        assert x.tolist() == [1.0, 1.0] if answer else x is None
        # Bad bounds or a bad start are rejected even though the proof would
        # still answer.
        for bad_bound in [(0.0, np.inf), (-np.inf, 1.0), (2.0, 1.0)]:
            broken = make_cover(supp, [0, 0], [2.0], [bounds[0], bad_bound])
            with pytest.raises(ValueError, match="not a finite nonempty interval"):
                lp.verdict(broken, None, [(answer, proof, None)])
        with pytest.raises(ValueError, match="start of variable 1 is 0.5, not a bound"):
            lp.verdict(cover, [0.0, 0.5], [(answer, proof, None)])


class TestVerdictStart:
    """lp.verdict from any vertex of the box answers as it does from the
    lower bounds: its checks do not depend on where the pivots start."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_vertex_agrees_with_reference(self, data):
        cover = data.draw(covering_lps(max_n=12))
        feasible = scipy_reference(cover).status == 0
        assert lp.verdict(cover, box_vertex(data, cover))[0] == lp.verdict(cover)[0] == feasible

    @settings(max_examples=60, deadline=None)
    @given(open_covering_lps())
    def test_greedy_vertex_agrees_with_reference(self, case):
        cover, vertex = case
        # Within every class budget, short of some covering row.
        assert np.all(onehot(cover) @ vertex <= cover.budgets)
        assert np.any(cover.supp @ vertex < 1.0)
        feasible = scipy_reference(cover).status == 0
        assert lp.verdict(cover, vertex)[0] == lp.verdict(cover)[0] == feasible

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_refutation_from_any_start_is_infeasible(self, seed, data):
        cover = random_cover(seed)
        verdict = lp.verdict(cover, box_vertex(data, cover))[0]
        if verdict is False:
            assert scipy_reference(cover).status == 2
        assert verdict is None or verdict == (lp.solve(cover) is not None)

    @pytest.mark.parametrize("seed", range(60))
    def test_bounded_lps_are_settled_from_any_vertex(self, seed):
        rng = np.random.RandomState(seed)
        for cover in [random_cover(seed), *tree_lps(seed)]:
            lo, hi = cover.bounds.T
            start = np.where(rng.rand(len(lo)) < 0.5, hi, lo)
            assert lp.verdict(cover, start)[0] == (lp.solve(cover) is not None)

    def test_artificials_only_on_rows_the_start_misses(self):
        # x0 + x1 >= 1, x0 >= 1 and x0 + x1 <= 10: the start (0, 1) meets
        # rows 0 and 2 and misses row 1.
        cover = make_cover([[1, 1], [1, 0]], [0, 0], [10.0], [(0.0, 1.0)] * 2)
        s = lp._system(cover, lp._vertex(cover, [0.0, 1.0]))
        assert s.A.shape == (3, 2 + 3 + 1)  # structural, slack, one artificial
        assert s.art.tolist() == [1]
        # Every slack starts at 0, the basic ones of rows 0 and 2 too: the
        # pivot loop's first refactor solves for each basic value before
        # anything reads it, and a basic column's price ignores its value.
        assert s.x.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
        assert s.basis.tolist() == [2, 5, 4]
        assert lp.verdict(cover, [0.0, 1.0])[0] is True

    @pytest.mark.parametrize(
        "start,match",
        [
            (np.zeros(3), r"start must be \(2,\), got \(3,\)"),
            (np.zeros((2, 1)), r"start must be \(2,\), got \(2, 1\)"),
            ([0.5, 0.0], "start of variable 0 is 0.5, not a bound"),
            ([1.0, 3.0], "start of variable 1 is 3.0, not a bound"),
            ([0.0, np.inf], "start of variable 1 is inf, not a bound"),
            ([np.nan, 0.0], "start of variable 0 is nan, not a bound"),
        ],
        ids=["long", "column", "strictly-inside", "beyond-upper", "infinite-upper", "nan"],
    )
    def test_start_must_be_a_vertex_of_the_box(self, start, match):
        cover = make_cover([[1, 1]], [0, 0], [2.0], [(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError, match=match):
            lp._vertex(cover, start)
        with pytest.raises(ValueError, match=match):
            lp.verdict(cover, start)


def path_covering_lps():
    """200 seeded covering LPs from build_nukc_lp within two candidates of
    their relaxation's optimum."""
    for seed in range(200):
        inst = random_instance(8 + seed % 9, seed=seed, max_classes=3)
        cands = candidate_dilations(inst)
        at = cands.index(relaxation_search(inst)[0])
        yield build_nukc_lp(inst, cands[min(max(at + seed % 5 - 2, 0), len(cands) - 1)])


def pivot_path_cases():
    """(cover, start): random_cover for seeds 0-999 and tree_lps for seeds
    0-39 with start None, then certify_cases with the greedy's vertex where
    the certificates leave the LP open and None elsewhere."""
    for seed in range(1000):
        yield random_cover(seed), None
    for seed in range(40):
        for cover in tree_lps(seed):
            yield cover, None
    for cover in certify_cases():
        answer, vertex = model._certify(cover)
        yield cover, (vertex if answer is None else None)


# SHA-256 over every pivot_path_cases LP's solve status ("feasible" and the
# x bytes, or "infeasible") and its verdicts from the lower bounds and from
# the start.  A change to the pivot loop that is meant to keep every pivot
# must keep this digest.
PIVOT_PATH_DIGEST = "deff66ada1c23c2a81d0522014223b885bb4a320db3b39e46f84a295970577b3"


class TestPivotPath:
    def test_solve_and_verdict_take_the_pinned_pivots(self):
        digest = hashlib.sha256()
        for cover, start in pivot_path_cases():
            x = lp.solve(cover)
            digest.update(b"infeasible" if x is None else b"feasible" + x.tobytes())
            digest.update(repr(lp.verdict(cover)[0]).encode())
            if start is not None:
                digest.update(repr(lp.verdict(cover, start)[0]).encode())
        assert digest.hexdigest() == PIVOT_PATH_DIGEST


def warm_path_instances():
    """The 60 seeded instances the proof-store tests search (n = 8-16),
    then six shaped like the benchmark's dense-mid corpus (n = 40 in the
    plane, one per class spec of its two-radii, kcwo and bicriteria cases,
    seeds 0 and 1)."""
    for seed in range(60):
        yield random_instance(8 + seed % 9, seed=seed, max_classes=3)
    for seed in range(2):
        space, _ = random_euclidean(40, 2, seed)
        for classes in ([(2, 0.4), (4, 0.1)], [(3, 0.1), (2, 0.0)],
                        [(2, 0.3), (6, 0.1), (10, 0.03)]):
            yield NukcInstance(space, classes)


def open_probes(inst, monkeypatch):
    """replayed_search on inst with each lp.verdict call recorded: (cover,
    start, the store's latest basis before the call or None, answer, x)."""
    probes, real = [], lp.verdict

    def verdict(cover, start=None, proofs=None):
        basis = proofs[-1][2] if proofs else None
        got = real(cover, start, proofs)
        probes.append((cover, start, basis, *got))
        return got

    with monkeypatch.context() as patch:
        patch.setattr(lp, "verdict", verdict)
        replayed_search(inst)
    return probes


# SHA-256 over each open probe's answer (each lp.verdict call of a
# relaxation search) and the bytes of each point it confirms, over
# replayed_search on warm_path_instances.  Verdicts after a search's first
# pivoting one start from the store's latest basis.  A change to the warm
# start or the pivot loop that is meant to keep every pivot must keep
# this digest.
WARM_PATH_DIGEST = "49f7f23b12f3aa73d291a619b716335f58d440113bd4a5b3fc120993375dbaa9"
WARM_PROBES = 90  # open probes with a stored basis; 50 in the first 60 searches


class TestWarmStart:
    """A relaxation search's verdicts start from the previous verdict's
    basis: a composite phase one in the same pivot loop, answering only
    through `confirms` and `refutes`."""

    def test_searches_take_the_pinned_warm_path(self, monkeypatch):
        digest, warm = hashlib.sha256(), 0
        for inst in warm_path_instances():
            for _, _, basis, answer, x in open_probes(inst, monkeypatch):
                digest.update(repr(answer).encode() + (b"" if x is None else x.tobytes()))
                warm += basis is not None
        assert warm == WARM_PROBES
        assert digest.hexdigest() == WARM_PATH_DIGEST

    def test_warm_and_cold_verdicts_agree(self, monkeypatch):
        # Over every open probe of 60 seeded searches: where the warm start
        # from the stored basis and a cold verdict both decide, they agree.
        warm = decided = 0
        for inst in itertools.islice(warm_path_instances(), 60):
            for cover, start, basis, _, _ in open_probes(inst, monkeypatch):
                if basis is None:
                    continue
                warm += 1
                answer, _ = lp._settle(lp._system(cover, lp._vertex(cover, start), basis),
                                       lp.DEGENERATE_RUN)
                cold = lp.verdict(cover, start)[0]
                if answer is not None and cold is not None:
                    decided += 1
                    assert answer == cold
        assert warm == decided == 50  # each warm start decides

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_any_stored_basis_agrees_with_reference(self, seed, data):
        # A basis of random columns, dependent ones swapped for slacks, and
        # the structural columns at random bounds: the warm start's basis
        # is nonsingular, and its answer, where it decides, is HiGHS's.
        cover = random_cover(seed)
        m, n = len(cover.supp) + len(cover.budgets), len(cover.bounds)
        cols = np.array(data.draw(st.lists(st.integers(0, n + m - 1), min_size=m, max_size=m),
                                  label="columns"))
        at_upper = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                      label="at upper"))
        s = lp._system(cover, lp._vertex(cover), (cols, at_upper))
        assert abs(np.linalg.det(s.A[:, s.basis])) >= 0.5  # an integer matrix: 0 or >= 1
        answer, _ = lp._settle(s, lp.DEGENERATE_RUN)
        if answer is not None:
            assert answer == (scipy_reference(cover).status == 0)

    def test_certificates_settle_both_end_probes(self):
        # Neither end probe of a relaxation search reaches lp.verdict, so
        # the order in which the search takes them leaves its store as it is.
        for inst in warm_path_instances():
            cands = candidate_dilations(inst)
            for dilation in (cands[0], cands[-1]):
                assert model._certify(build_nukc_lp(inst, dilation))[0] is not None

    def test_stored_basis_of_another_shape_starts_cold(self, monkeypatch):
        # Each stored proof has the wrong shape and is skipped, and so is its
        # basis: the verdict builds only a cold system and answers as a
        # verdict without a store, storing the same point and final basis.
        cover = make_cover([[1, 1]], [0, 0], [2.0], [(0.0, 1.0)] * 2)
        cold = []
        assert lp.verdict(cover, proofs=cold)[0] is True
        built, real = [], lp._system
        monkeypatch.setattr(lp, "_system", lambda cover, x0, stored=None:
                            built.append(stored) or real(cover, x0, stored))
        for stored in (None, (np.arange(3), np.zeros(2, bool)),
                       (np.arange(2), np.zeros(3, bool))):
            built.clear()
            proofs = [(True, np.zeros(3), stored)]
            answer, x = lp.verdict(cover, proofs=proofs)
            assert built == [None]
            assert answer is True and x.tobytes() == cold[0][1].tobytes()
            assert [a.tolist() for a in proofs[1][2]] == [a.tolist() for a in cold[0][2]]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_cold_and_warm_systems_share_the_rows(self, seed, data):
        # One builder: a warm system is the cold one without its artificial
        # columns, over the same rhs, structural and slack columns and bounds.
        cover = random_cover(seed)
        m, n = len(cover.supp) + len(cover.budgets), len(cover.bounds)
        cols = np.array(data.draw(st.lists(st.integers(0, n + m - 1), min_size=m, max_size=m),
                                  label="columns"))
        at_upper = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                      label="at upper"))
        cold = lp._system(cover, box_vertex(data, cover))
        warm = lp._system(cover, lp._vertex(cover), (cols, at_upper))
        assert warm.A.shape == (m, n + m) and warm.art.size == 0 and warm.art_tol == 0.0
        assert np.array_equal(cold.rhs, warm.rhs)
        assert np.array_equal(cold.A[:, :n + m], warm.A)
        assert np.array_equal(cold.lo[:n + m], warm.lo) and np.array_equal(cold.hi[:n + m], warm.hi)
        assert not warm.cost.any() and cold.cost.sum() == cold.art.size
        assert np.array_equal(warm.x[:n], np.where(at_upper, *cover.bounds.T[::-1]))
        assert not cold.x[n:n + m].any() and not warm.x[n:].any()

    def test_final_basis_maps_artificials_to_their_slacks(self):
        # The start (0, 1) misses row 1 only, so its artificial (column 5)
        # is basic there; it is stored as row 1's slack, column 2 + 1.
        cover = make_cover([[1, 1], [1, 0]], [0, 0], [10.0], [(0.0, 1.0)] * 2)
        s = lp._system(cover, lp._vertex(cover, [0.0, 1.0]))
        cols, at_upper = lp._final_basis(s)
        assert cols.tolist() == [2, 3, 4] and at_upper.tolist() == [False, True]

    def test_dependent_columns_are_swapped_for_slacks(self):
        # Columns 0 and 1 are both (1, 0, 1, 0): the second depends on the
        # first and is swapped for a slack.  The other three span all but
        # (1, -1, -1, 1), which weighs every row alike, so partial pivoting
        # takes row 0's slack, column 4.
        C = np.array([[1, 1, 1, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
        A = np.hstack([C, -np.eye(4)])
        cols = lp._nonsingular(A, np.array([0, 1, 2, 3]))
        assert cols.tolist() == [0, 4, 2, 3]
        assert abs(np.linalg.det(A[:, cols])) >= 0.5
        nonsingular = np.array([0, 2, 3, 4])
        assert lp._nonsingular(A, nonsingular).tolist() == nonsingular.tolist()

    def test_relatively_tiny_pivots_are_skipped(self, monkeypatch):
        # Row 0 reads x0 >= 1 and row 1 x1 + x2 >= 1, which the start (0, 1,
        # 0) meets exactly, so row 1's slack is basic at 0.  Rounding left
        # -5e-10 where row 1 has no x0: with the rule, that pivot is below
        # PIVOT_REL_TOL of the column's largest, and x0 moves to its upper
        # bound in one step; with only the absolute PIVOT_TOL, x0 first
        # enters on it, a degenerate pivot on a 5e-10 element.
        cover = make_cover([[1, 0, 0], [0, 1, 1]], [0, 0, 0], [3.0], [(0.0, 1.0)] * 3)
        runs = []
        for rel in (lp.PIVOT_REL_TOL, 0.0):
            monkeypatch.setattr(lp, "PIVOT_REL_TOL", rel)
            s = lp._system(cover, lp._vertex(cover, [0.0, 1.0, 0.0]))
            s.A[1, 0] = -5e-10
            outcome, _, iterations = lp._phase_one(s, 0)
            runs.append((outcome, iterations, s.basis.tolist()))
        assert runs == [("feasible", 1, [6, 4, 5]), ("feasible", 2, [6, 2, 5])]


@functools.cache
def certify_cases():
    """The tuple of _certify_cases, built once."""
    return tuple(_certify_cases())


def _certify_cases():
    """path_covering_lps, then for seeds 0-149 a guess LP from
    bicriteria.build_guess_lp (seeded affirmative and negative masks over
    a random subset of the points, so pins and per-point start levels) on
    the instance scaled to its relaxation optimum, and a guess-q window LP
    from helpers.guess_window (seeded fixed balls, a seeded tau, within two
    candidates of the optimum).  Of the 300 guess and window LPs, 17 are
    left open."""
    yield from path_covering_lps()
    for seed in range(150):
        rng = np.random.RandomState(seed)
        inst = random_instance(8 + seed % 7, seed=1000 + seed, max_classes=3)
        n, h = inst.n, inst.num_classes
        cands = candidate_dilations(inst)
        alpha, _ = relaxation_search(inst)
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
        problem, _ = guess_window(inst, dilation, tau, fixed)
        if problem is not None:
            yield problem


# SHA-256 over model._certify's answer on every certify_cases LP, and the
# bytes of its greedy vertex where it leaves the LP open.  Where it
# confirms, the vertex it hands back is checked, not hashed.  A change to the
# certificates or to the covering LP they read that is meant to keep every
# answer must keep this digest.
CERTIFY_DIGEST = "a5b1040f035fb2a335c1e8e55904afcafd1e2d0e3556852e80b0071f78d5e174"
FEASIBLE_CERTIFY_CASES = 243  # of the 500: 194 that the greedy confirms, 49 that it leaves open


class TestCertifyPath:
    def test_certify_gives_the_pinned_answers(self):
        digest, outcomes = hashlib.sha256(), {"True": 0, "False": 0, "open": 0}
        for cover in certify_cases():
            got, vertex = model._certify(cover)
            if got is None:
                digest.update(b"open" + vertex.tobytes())
                outcomes["open"] += 1
            else:
                digest.update(repr(got).encode())
                outcomes[repr(got)] += 1
                assert lp.confirms(cover, vertex) if got else vertex is None
        assert outcomes == {"True": 194, "False": 220, "open": 86}
        assert digest.hexdigest() == CERTIFY_DIGEST


class TestProvingPoint:
    """model.proving_point: None, or a point of the box that lp.confirms
    accepts, with the same answer and bytes on a repeat call."""

    @staticmethod
    def check(cover, proofs=None):
        x = model.proving_point(cover, proofs)
        again = model.proving_point(cover, proofs)
        assert (x is None) == (again is None)
        if x is not None:
            lo, hi = cover.bounds.T
            assert lp.confirms(cover, x) and np.all((lo <= x) & (x <= hi))
            assert again.tobytes() == x.tobytes()
        return x

    def test_certify_cases(self):
        found = [self.check(cover) is not None for cover in certify_cases()]
        assert sum(found) == FEASIBLE_CERTIFY_CASES

    def test_undecided_verdict_raises(self, monkeypatch):
        # x0 + x1 >= 1 on [0, 0.5]^2 within a budget of 1: the certificates
        # leave it open, and a verdict that proves neither answer is an
        # error, not a second, unproven run.
        pair = make_cover([[1, 1]], [0, 0], [1.0], [(0.0, 0.5)] * 2)
        assert model._certify(pair)[0] is None
        monkeypatch.setattr(lp, "verdict", lambda cover, start=None, proofs=None: (None, None))
        with pytest.raises(lp.LpSolverError, match="proved neither"):
            model.proving_point(pair)

    def test_after_relaxation_searches(self):
        # The winner and the candidates above it have a point, those below
        # none, with a store that the search's probes, replayed, filled.
        stored = 0
        for seed in range(8):
            inst = random_instance(10 + seed, seed=seed, max_classes=3)
            alpha, proofs = replayed_search(inst)
            assert alpha == relaxation_search(inst)[0]
            stored += len(proofs)
            cands = candidate_dilations(inst)
            at = cands.index(alpha)
            for dilation in cands[max(at - 2, 0):at + 3]:
                x = self.check(build_nukc_lp(inst, dilation), proofs)
                assert (x is not None) == (dilation >= alpha)
        assert stored > 0


def scanned_clip(s, lam):
    """A copy of lam clipped just enough to keep the reduced cost of each
    slack and artificial column of s >= 0, its limits found by scanning
    the unit columns of s.A for their rows and coefficients."""
    n = len(s.cover.bounds)
    unit = s.A[:, n:]
    rows = np.argmax(unit != 0, axis=0)
    coef = unit[rows, np.arange(unit.shape[1])]
    limit = s.cost[n:] / coef
    upper, lower = np.full(len(lam), np.inf), np.full(len(lam), -np.inf)
    np.minimum.at(upper, rows[coef > 0], limit[coef > 0])
    np.maximum.at(lower, rows[coef < 0], limit[coef < 0])
    return np.clip(lam, lower, upper)


def reference_lagrangian_bound(cover, s, lam):
    """The dense Lagrangian bound that lp.refutes replaced, as it was but
    clipping a copy of lam, on the phase-one system s of `cover`: clip lam
    just enough to keep the slack and artificial reduced costs >= 0, then
    price the structural columns of the dense rows (lp._rows) over the
    box.  Returns (L, tol)."""
    C, ge, rhs = lp._rows(cover)
    n = C.shape[1]
    row_tol = lp.FEAS_TOL * np.maximum(1.0, np.abs(rhs))
    w = scanned_clip(s, lam)
    tol = float(np.abs(w) @ row_tol)
    reduced = (s.cost - w @ s.A)[:n]
    lo, hi = s.lo[:n], s.hi[:n]
    up, down = reduced < 0, reduced > 0
    if np.any(np.where(ge, w < 0, w > 0)):
        return -np.inf, tol
    return float(w @ rhs + reduced[down] @ lo[down] + reduced[up] @ hi[up]), tol


class TestCheckPair:
    """lp.confirms and lp.refutes, the one confirming and the one refuting
    check, shared by the certificates, the stored proofs and the pivot
    loop."""

    def test_verdict_multipliers_match_the_dense_bound(self):
        # On every certify_cases LP the certificates leave open, the
        # multipliers lp.verdict ends with give the same (L, tol) on the
        # covering form as on the dense system, and the same answer.
        compared = refuted = 0
        for cover in certify_cases():
            answer, vertex = model._certify(cover)
            if answer is not None:
                continue
            s = lp._system(cover, lp._vertex(cover, vertex))
            _, lam, _ = lp._phase_one(s, lp.DEGENERATE_RUN)
            if lam is None:
                continue
            clipped = lam.copy()
            got, want = lp._lagrangian_bound(s, clipped), reference_lagrangian_bound(cover, s, lam)
            # The clip limits read from s.art are the ones the scan of A
            # finds, down to the sign of each zero.
            assert clipped.tobytes() == scanned_clip(s, lam).tobytes()
            assert got == pytest.approx(want, rel=0, abs=1e-12)
            assert (got[0] > got[1]) == (want[0] > want[1])
            compared += 1
            refuted += got[0] > got[1]
        assert compared == 86 and 0 < refuted < compared

    def test_packing_multipliers_refute_exactly_the_false_answers(self, monkeypatch):
        # _certify hands lp.refutes y = 1 on its picked rows and z = 1 on
        # the classes whose budget left is below their count in the union;
        # L > tol exactly where it answers False, and L is then the integral
        # packing gap.
        real_refutes, calls = lp.refutes, []
        monkeypatch.setattr(lp, "refutes", lambda cover, y, z:
                            calls.append((y, z, real_refutes(cover, y, z))) or calls[-1][2])
        gaps = []
        for cover in certify_cases():
            calls.clear()
            got, _ = model._certify(cover)
            assert (got is False) == any(bound > tol for _, _, (bound, tol) in calls)
            for y, z, _ in calls:
                assert set(y.tolist()) <= {0.0, 1.0} and set(z.tolist()) <= {0.0, 1.0}
            if got is False:
                gaps.append(calls[-1][2][0])
        assert len(gaps) == 220 and min(gaps) >= 1.0 and all(g == int(g) for g in gaps)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_a_confirmed_point_agrees_with_highs(self, seed, data):
        # A point of the box that lp.confirms accepts means HiGHS finds the
        # LP feasible; the simplex's point is always accepted, and a point
        # outside the box is judged as its clip.
        cover = random_cover(seed)
        lo, hi = cover.bounds.T
        x = lp.solve(cover)
        if x is None or data.draw(st.booleans(), label="own point"):
            x = lo + (hi - lo) * np.array(data.draw(
                st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=len(lo), max_size=len(lo)),
                label="fractions"))
        else:
            assert lp.confirms(cover, x)
        shifted = x + np.where(x == hi, 1.0, 0.0) - np.where(x == lo, 1.0, 0.0)
        assert lp.confirms(cover, shifted) == lp.confirms(cover, x)
        if lp.confirms(cover, x):
            assert scipy_reference(cover).status == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_refuting_multipliers_agree_with_highs(self, seed, data):
        # Multipliers y, z >= 0 with L > tol mean HiGHS finds the LP
        # infeasible; a negative one refutes nothing.
        cover = random_cover(seed)
        weights = st.sampled_from([0.0, 0.5, 1.0, 2.0])
        y = np.array(data.draw(st.lists(weights, min_size=len(cover.supp),
                                        max_size=len(cover.supp)), label="y"))
        z = np.array(data.draw(st.lists(weights, min_size=len(cover.budgets),
                                        max_size=len(cover.budgets)), label="z"))
        bound, tol = lp.refutes(cover, y, z)
        if bound > tol:
            assert scipy_reference(cover).status == 2
        if y.size:
            y[0] = -1.0
            assert lp.refutes(cover, y, z)[0] == -np.inf
