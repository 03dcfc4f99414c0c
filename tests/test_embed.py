import numpy as np
import pytest

from helpers import min_feasible_dilation
from nukc import fileio
from nukc.cli import main
from nukc.embed import embed, lift_tree_solution
from nukc.gadgets import random_instance
from nukc.metric import MetricSpace
from nukc.model import NukcInstance, validate_solution
from nukc.rmfct import FirefighterInfeasibleError


def embeddable(seed, n=10, **kwargs):
    """Random instance scaled to its fractional optimum, plus the x."""
    inst = random_instance(n, seed=seed, **kwargs)
    alpha, x = min_feasible_dilation(inst)
    if alpha <= 0:
        return None
    return inst.scaled(alpha), x


def residuals(result):
    tree, y = result.tree, result.y
    worst_path = min(
        sum(y.get(v, 0.0) for v in tree.path_to_root(leaf)) for leaf in tree.leaves
    )
    worst_budget = max(
        sum(y.get(v, 0.0) for v in tree.levels[lvl]) - tree.budgets[lvl]
        for lvl in range(tree.num_levels - 1)
    )
    return worst_path, worst_budget


def winners(tree, t):
    """The level-t winners, in pick order."""
    return [tree.psi[v] for v in tree.levels[t]]


class TestEmbedStructure:
    def test_empty_point_set(self, line_instance):
        with pytest.raises(ValueError, match="empty"):
            embed(line_instance, np.zeros((5, 2)), points=[])

    def test_leaves_are_the_embedded_points(self):
        pair = embeddable(1)
        inst, x = pair
        res = embed(inst, x)
        assert [res.tree.psi[v] for v in res.tree.leaves] == list(range(inst.n))

    def test_levels_match_classes_plus_leaf_level(self):
        pair = embeddable(1)
        inst, x = pair
        res = embed(inst, x)
        assert res.tree.num_levels == inst.num_classes + 1
        assert res.tree.budgets[-1] == 0.0
        assert res.tree.budgets[:-1] == [float(b) for b in inst.budgets]

    def test_subset_embedding(self):
        pair = embeddable(2)
        inst, x = pair
        pts = list(range(0, inst.n, 2))
        res = embed(inst, x, points=pts)
        assert [res.tree.psi[v] for v in res.tree.leaves] == pts

    def test_winner_ties_ignore_lp_residue(self, tmp_path):
        # A kCwO instance at its relaxation's alpha: x is 0/1, so its
        # suffix coverages tie exactly, and residue of 3e-16 in a few
        # entries (what a simplex's rank-one updates leave) must not
        # break the ties differently.
        path = tmp_path / "inst.json"
        main(["generate", "--kind", "euclidean", "--n", "40", "--seed", "4",
              "--classes", "3:0.1,2:0", "--out", str(path)])
        inst = NukcInstance(fileio.instance_from_obj(fileio.load(path)).space,
                            [(3, 1.0), (2, 0.0)])
        alpha, x = min_feasible_dilation(inst)
        clean = np.round(x)
        noisy = clean.copy()
        noisy[[1, 3, 6, 11], 1] = 3e-16
        picked = winners(embed(inst.scaled(alpha), clean).tree, 0)
        assert picked == [1, 4]
        assert winners(embed(inst.scaled(alpha), noisy).tree, 0) == picked


class TestFeasibilityResiduals:
    @pytest.mark.parametrize("seed", range(40))
    def test_basic(self, seed):
        pair = embeddable(seed)
        if pair is None:
            return
        worst_path, worst_budget = residuals(embed(*pair))
        assert worst_path >= 1 - 1e-7
        assert worst_budget <= 1e-7

    @pytest.mark.parametrize("seed", range(40))
    def test_barrier(self, seed):
        pair = embeddable(seed)
        if pair is None:
            return
        worst_path, worst_budget = residuals(embed(*pair, barrier=True))
        assert worst_path >= 1 - 1e-7
        assert worst_budget <= 1e-7


class TestBarrierAudit:
    @pytest.mark.parametrize("seed", range(30))
    def test_ancestors_within_eight_radii(self, seed):
        pair = embeddable(seed, max_classes=4)
        if pair is None:
            return
        inst, x = pair
        res = embed(inst, x, barrier=True)  # the built-in audit raises on violation
        # Re-verify here independently of the built-in audit.
        dist, radii = inst.space.dist, inst.radii
        tree = res.tree
        for leaf in tree.leaves:
            for v in tree.path_to_root(leaf)[1:]:
                lvl = tree.level_of[v]
                assert dist[tree.psi[v], tree.psi[leaf]] <= 8 * radii[lvl] + 1e-9

    def test_wide_radius_gap_forces_barrier_span(self):
        # Radii 100 and 1: the barrier build must not insert a level-1
        # budget violation when chaining through the span.
        coords = np.array([[0.0], [50.0], [100.0]])
        space = MetricSpace.from_coords(coords)
        inst = NukcInstance(space, [(1, 100.0), (1, 1.0)])
        alpha, x = min_feasible_dilation(inst)
        res = embed(inst.scaled(alpha), x, barrier=True)
        for lvl in range(res.tree.num_levels - 1):
            s = sum(res.y.get(v, 0.0) for v in res.tree.levels[lvl])
            assert s <= res.tree.budgets[lvl] + 1e-7


class TestLift:
    def test_lift_radius_basic_is_telescoped(self):
        pair = embeddable(3)
        inst, x = pair
        res = embed(inst, x)
        for t in range(inst.num_classes):
            assert res.lift[t] == pytest.approx(2 * sum(inst.radii[t:]))

    def test_lift_radius_barrier_is_eightfold(self):
        pair = embeddable(3)
        inst, x = pair
        res = embed(inst, x, barrier=True)
        for t in range(inst.num_classes):
            assert res.lift[t] == pytest.approx(8 * inst.radii[t])

    def test_lift_rejects_leaf_level_nodes(self):
        pair = embeddable(4)
        inst, x = pair
        res = embed(inst, x)
        leaf = res.tree.leaves[0]
        with pytest.raises(ValueError, match="leaf"):
            lift_tree_solution(res, {leaf})

    def test_lift_reports_uncovered(self):
        pair = embeddable(4)
        inst, x = pair
        res = embed(inst, x)
        with pytest.raises(FirefighterInfeasibleError):
            lift_tree_solution(res, set())

    def test_lift_reports_uncovered_leaf_nodes(self):
        # On a subset embedding, leaf node ids and point ids differ: the
        # report names the tree's leaves, as round_loose's does.
        inst, x = embeddable(2)
        res = embed(inst, x, points=list(range(0, inst.n, 2)))
        with pytest.raises(FirefighterInfeasibleError) as err:
            lift_tree_solution(res, set())
        assert err.value.uncovered_leaves == res.tree.leaves

    @pytest.mark.parametrize("seed", range(15))
    def test_choosing_every_internal_node_covers(self, seed):
        pair = embeddable(seed)
        if pair is None:
            return
        inst, x = pair
        res = embed(inst, x)
        internal = {
            v for v in res.tree.level_of if res.tree.level_of[v] < inst.num_classes
        }
        sol = lift_tree_solution(res, internal)
        report = validate_solution(inst, sol, count_factor=float("inf"), radius_factor=2 * inst.num_classes)
        assert not report.uncovered
