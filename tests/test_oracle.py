import itertools

import numpy as np
import pytest

from helpers import exact_kcwo
from nukc.gadgets import random_euclidean, random_instance
from nukc.metric import MetricSpace
from nukc import oracle
from nukc.model import Ball, NukcInstance, validate_solution
from nukc.oracle import SizeBudgetError, exact_nukc


def brute_force_nukc(instance):
    """Independent reference: enumerate all center assignments."""
    n = instance.n
    slots = []
    for t, cls in enumerate(instance.classes):
        slots.extend([t] * cls.multiplicity)
    best = None
    for centers in itertools.product(range(n), repeat=len(slots)):
        # Dilation needed by this placement.
        need = 0.0
        ok = True
        for p in range(n):
            best_p = None
            for c, t in zip(centers, slots):
                r = instance.radii[t]
                d = instance.space.dist[p, c]
                if r > 0:
                    v = d / r
                elif d <= 1e-12:
                    v = 0.0
                else:
                    continue
                if best_p is None or v < best_p:
                    best_p = v
            if best_p is None:
                ok = False
                break
            need = max(need, best_p)
        if ok and (best is None or need < best):
            best = need
    return best


class TestExactNukc:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        inst = random_instance(7, seed=seed, max_k=2)
        if inst.total_k > 3:
            return
        opt, sol = exact_nukc(inst)
        assert opt == pytest.approx(brute_force_nukc(inst), abs=1e-9)
        report = validate_solution(inst, sol, 1.0, max(opt, 1e-12) + 1e-9)
        assert report.ok

    def test_solution_validates_at_its_dilation(self):
        for seed in range(10):
            inst = random_instance(10, seed=seed, max_k=2)
            if inst.total_k > 4:
                continue
            opt, sol = exact_nukc(inst)
            scaled = inst.scaled(max(opt, 1e-12))
            assert validate_solution(scaled, sol, 1.0, 1.0 + 1e-9).ok

    def test_budget_refusal(self):
        space, _ = random_euclidean(20, 2, seed=0)
        inst = NukcInstance(space, [(1, 1.0)])
        with pytest.raises(SizeBudgetError):
            exact_nukc(inst)

    def test_zero_dilation_when_centers_suffice(self, line_space, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_K", 5)
        inst = NukcInstance(line_space, [(4, 1.0), (1, 0.5)])
        opt, _ = exact_nukc(inst)
        assert opt == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_one_search_per_candidate(self, seed, monkeypatch):
        # The placement comes from the search: no dilation is searched twice.
        probed, real = [], oracle._coverable
        monkeypatch.setattr(oracle, "_coverable",
                            lambda instance, alpha: probed.append(alpha) or real(instance, alpha))
        inst = random_instance(7, seed=seed, max_k=2)
        if inst.total_k > oracle.MAX_K:
            return
        opt, sol = exact_nukc(inst)
        assert len(probed) == len(set(probed)) and opt in probed
        assert sol.balls == [Ball(c, t, opt * inst.radii[t]) for c, t in real(inst, opt)]


class TestExactKcwo:
    def brute(self, space, k, l):
        n = space.n
        best = None
        for centers in itertools.combinations(range(n), min(k, n)):
            dists = sorted(min(space.dist[p, c] for c in centers) for p in range(n))
            # Drop the l farthest points.
            radius = dists[-(l + 1)] if l < n else 0.0
            if best is None or radius < best:
                best = radius
        return best

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.RandomState(seed)
        space, _ = random_euclidean(8, 2, seed=seed)
        k, l = int(rng.randint(1, 4)), int(rng.randint(0, 4))
        radius, centers, outliers = exact_kcwo(space, k, l)
        assert radius == pytest.approx(self.brute(space, k, l), abs=1e-12)
        assert len(centers) <= k
        assert len(outliers) <= l
        covered = np.zeros(space.n, dtype=bool)
        for c in centers:
            covered |= space.dist[c] <= radius + 1e-9
        covered[list(outliers)] = True
        assert covered.all()

    def test_budget_refusal(self):
        space, _ = random_euclidean(20, 2, seed=1)
        with pytest.raises(SizeBudgetError):
            exact_kcwo(space, 2, 1)
