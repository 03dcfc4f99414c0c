import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nukc import bicriteria, lp
from nukc.bicriteria import (
    build_guess_lp,
    enum_parameters,
    enum_solve,
    min_level,
)
from nukc.gadgets import random_instance
from nukc.metric import MetricSpace
from nukc.model import NukcInstance, min_feasible_dilation


class TestParameters:
    def test_tau_small_for_desk_scale(self):
        for L in range(0, 6):
            tau, gamma0 = enum_parameters(L, 8)
            assert 0 <= tau <= L
            assert gamma0 >= 1

    def test_gamma_grows_with_k(self):
        _, g_small = enum_parameters(3, 4)
        _, g_big = enum_parameters(3, 10**9)
        assert g_big >= g_small


class TestMinLevel:
    def test_fully_banned_ball_raises_start_level(self, line_space):
        inst = NukcInstance(line_space, [(1, 2.0), (1, 1.0)])
        # At the top radius 2, points 0, 1 and 2 each have the ball {0, 1, 2}.
        neg = np.zeros((5, 2), dtype=bool)
        neg[[0, 1, 2], 0] = True
        assert min_level(neg, inst).tolist() == [1, 1, 1, 0, 0]
        assert min_level(np.zeros((5, 2), dtype=bool), inst).tolist() == [0] * 5


class TestGuessLp:
    def test_affirmative_wins_pin_collisions(self, line_space):
        inst = NukcInstance(line_space, [(1, 2.0), (1, 1.0)])
        neg = np.zeros((5, 2), dtype=bool)
        neg[1, 0] = True
        prob = build_guess_lp(list(range(5)), neg.copy(), neg, inst)
        lo, hi = prob.bounds.reshape(5, 2, 2)[1, 0]
        assert (lo, hi) == (1.0, 1.0)

    def test_negative_pins_zero(self, line_space):
        inst = NukcInstance(line_space, [(1, 2.0), (1, 1.0)])
        neg = np.zeros((5, 2), dtype=bool)
        neg[1, 0] = True
        prob = build_guess_lp(list(range(5)), np.zeros_like(neg), neg, inst)
        assert prob.bounds.reshape(5, 2, 2)[1, 0].tolist() == [0.0, 0.0]

    def test_every_center_banned_is_infeasible_at_huge_k(self, line_space):
        inst = NukcInstance(MetricSpace(line_space.dist[:3, :3]), [(10**9, 1.0)])
        neg = np.ones((3, 1), dtype=bool)
        prob = build_guess_lp(list(range(3)), np.zeros_like(neg), neg, inst)
        assert lp.solve(prob) is None
        assert lp.verdict(prob)[0] is False


class TestEnumSolve:
    @pytest.mark.parametrize("seed", range(25))
    def test_short_circuit_covers_with_bounded_counts(self, seed):
        inst = random_instance(10, seed=seed, max_classes=3)
        res = enum_solve(inst)
        self.check(inst, res)
        assert res.short_circuit  # total k <= 16 at this scale

    @pytest.mark.parametrize("seed", range(15))
    def test_full_recursion(self, seed, monkeypatch):
        monkeypatch.setattr(bicriteria, "SHORT_CIRCUIT_K", -1)  # none short-circuits
        inst = random_instance(10, seed=seed, max_classes=3)
        res = enum_solve(inst)
        self.check(inst, res)
        assert not res.short_circuit
        assert res.nodes_explored >= 1

    def check(self, inst, res):
        sol = res.solution
        dist = inst.space.dist
        for p in range(inst.n):
            assert any(dist[p, b.center] <= b.radius_used + 1e-9 for b in sol.balls)
        counts = sol.class_counts(inst.num_classes)
        h = inst.num_classes
        for t in range(h):
            assert counts[t] <= res.count_bound[t]
        alpha, _ = min_feasible_dilation(inst)
        if alpha > 0:
            assert np.isfinite(res.dilation_ratio)

    def test_zero_dilation_edge(self):
        # More centers than points: optimum dilation 0.
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        space = MetricSpace.from_coords(coords)
        inst = NukcInstance(space, [(2, 1.0), (1, 0.5)])
        res = enum_solve(inst)
        assert res.alpha == 0.0
        assert res.dilation_ratio in (0.0, 1.0) or np.isfinite(res.dilation_ratio)


# Solves the first 40 instances shaped like the benchmark's enum-small
# corpus (n = 12, up to three classes, the compressed top class holding one
# ball or being the only class) and prints the calls to the three routines
# that do the work.
ENUM_WORK_SCRIPT = """
import json
from collections import Counter
from nukc import lp, model, solvers
from nukc.bicriteria import enum_solve
from nukc.gadgets import random_instance
from nukc.model import compress_radii

calls = Counter()


def counted(module, name):
    inner = getattr(module, name)

    def call(*args, **kwargs):
        calls[f"{module.__name__}.{name}"] += 1
        return inner(*args, **kwargs)

    setattr(module, name, call)


for module, name in ((lp, "solve"), (model, "_certify"), (solvers, "_window_lp")):
    counted(module, name)
seed, solved = 0, 0
while solved < 40:
    inst = random_instance(12, seed=seed, max_classes=3)
    comp = compress_radii(inst).instance
    if comp.num_classes == 1 or comp.classes[0].multiplicity == 1:
        enum_solve(inst)
        solved += 1
    seed += 1
print(json.dumps(calls))
"""

# Ceilings on those counts: what the guess search, one smallest_feasible
# call whose first probe is the relaxation's optimum and which skips the
# guesses a refuted guess dominates, and rounding on the embedding's own
# values do (without the skip: 507 and 160).  A change that does more of
# this work fails here; one that does less should lower its ceiling.
ENUM_WORK_CEILING = {"nukc.lp.solve": 40, "nukc.model._certify": 464,
                     "nukc.solvers._window_lp": 117}

# Runs relaxation_search on the first 30 instances shaped like the
# benchmark's dense-mid corpus (n = 40 in the plane, seeds 0-9, each with
# the class specs of its two-radii, kcwo and bicriteria cases) and prints
# the pivot loop's iterations.
RELAX_WORK_SCRIPT = """
import json
from nukc import lp
from nukc.gadgets import random_euclidean
from nukc.model import NukcInstance, relaxation_search

inner, iterations = lp._phase_one, []


def counted(s, run):
    got = inner(s, run)
    iterations.append(got[2])
    return got


lp._phase_one = counted
for seed in range(10):
    space, _ = random_euclidean(40, 2, seed)
    for classes in ([(2, 0.4), (4, 0.1)], [(3, 0.1), (2, 0.0)], [(2, 0.3), (6, 0.1), (10, 0.03)]):
        relaxation_search(NukcInstance(space, classes))
print(json.dumps({"nukc.lp._phase_one iterations": sum(iterations)}))
"""

# The count with verdicts started from the previous verdict's basis (5,343
# when every verdict started from the greedy's vertex).  A change that
# stops the warm starts fails here; one that does less should lower it.
RELAX_WORK_CEILING = {"nukc.lp._phase_one iterations": 3378}


def work_counts(script):
    """The JSON counts `script` prints last, run in a fresh interpreter with
    one BLAS thread as the benchmark runs: exact, noise-free work."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def assert_under(counts, ceiling):
    over = {name: counts.get(name, 0) for name, most in ceiling.items()
            if counts.get(name, 0) > most}
    assert not over, f"work counts over their ceilings {ceiling}: {over}"


def test_enum_work_stays_under_its_ceiling():
    assert_under(work_counts(ENUM_WORK_SCRIPT), ENUM_WORK_CEILING)


def test_relaxation_work_stays_under_its_ceiling():
    assert_under(work_counts(RELAX_WORK_SCRIPT), RELAX_WORK_CEILING)
