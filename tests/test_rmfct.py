import itertools

import numpy as np
import pytest

from helpers import exact_rmfct
from nukc.embed import embed
from nukc.gadgets import random_euclidean, random_layered_tree
from nukc.model import NukcInstance, min_feasible_dilation
from nukc.rmfct import (
    ROUND_TOL,
    FirefighterInfeasibleError,
    LayeredTree,
    build_rmfct_lp,
    round_depth2,
    round_loose,
    solve_rmfct_lp,
    uncovered_leaves,
)
from nukc import lp


def path_tree():
    # A root-excluded path 1 - 2 - 3, budgets 1 each.
    return LayeredTree([[1], [2], [3]], {1: None, 2: 1, 3: 2}, [1, 1, 1])


def binary_tree():
    # Complete binary of depth 2 with the root dropped: nodes 1, 2 on
    # level 0 and leaves 3..6 below them.
    levels = [[1, 2], [3, 4, 5, 6]]
    parent = {1: None, 2: None, 3: 1, 4: 1, 5: 2, 6: 2}
    return LayeredTree(levels, parent, [1, 1])


def scaled(tree, alpha):
    """The tree with every level budget multiplied by alpha."""
    return LayeredTree(tree.levels, tree.parent, [alpha * b for b in tree.budgets])


def reference_rmfct_lp(tree):
    """The per-entry loop builder the indexed one replaced, laid out as lp
    lays out a covering LP to pivot: (constraints, ge, rhs, bounds)."""
    nodes = sorted(tree.level_of)
    idx = {v: i for i, v in enumerate(nodes)}
    rows, rhs = [], []
    for leaf in tree.leaves:
        row = np.zeros(len(nodes))
        for v in tree.path_to_root(leaf):
            row[idx[v]] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for i, lv in enumerate(tree.levels):
        row = np.zeros(len(nodes))
        for v in lv:
            row[idx[v]] = 1.0
        rows.append(row)
        rhs.append(tree.budgets[i])
    return (np.array(rows).reshape(len(rows), len(nodes)),
            np.arange(len(rows)) < len(tree.leaves),
            np.array(rhs),
            np.array([(0.0, 1.0)] * len(nodes)))


def relabelled(tree, seed):
    """The tree with shuffled node ids and random budgets, so that id order
    and level order disagree."""
    rng = np.random.RandomState(seed)
    nodes = sorted(tree.level_of)
    new = {v: 3 * int(i) + 5 for v, i in zip(nodes, rng.permutation(len(nodes)))}
    return LayeredTree(
        [[new[v] for v in lv] for lv in tree.levels],
        {new[v]: None if p is None else new[p] for v, p in tree.parent.items()},
        rng.randint(0, 4, size=tree.num_levels),
    )


def level_counts(tree, chosen):
    """The number of chosen nodes on each level."""
    return [sum(tree.level_of[v] == t for v in chosen) for t in range(tree.num_levels)]


def brute_force_value(tree):
    """Independent reference: try all node subsets (small trees only)."""
    nodes = sorted(tree.level_of)
    best = None
    for r in range(len(nodes) + 1):
        for subset in itertools.combinations(nodes, r):
            if uncovered_leaves(tree, subset):
                continue
            worst = 0.0
            ok = True
            for lvl in range(tree.num_levels):
                cnt = sum(1 for v in subset if tree.level_of[v] == lvl)
                b = tree.budgets[lvl]
                if cnt == 0:
                    continue
                if b == 0:
                    ok = False
                    break
                worst = max(worst, cnt / b)
            if ok and (best is None or worst < best):
                best = worst
    return best


class TestLayeredTree:
    def test_structure_validation(self):
        with pytest.raises(ValueError, match="two levels"):
            LayeredTree([[0], [0]], {0: None}, [1, 1])
        with pytest.raises(ValueError, match="one level up"):
            LayeredTree([[0], [1], [2]], {0: None, 1: 0, 2: 0}, [1, 1, 1])
        with pytest.raises(ValueError, match="budgets"):
            LayeredTree([[0], [1]], {0: None, 1: 0}, [1])
        with pytest.raises(ValueError, match="node 1 on level 0 has no child"):
            LayeredTree([[0, 1], [2], [3]], {0: None, 1: None, 2: 0, 3: 2}, [1, 1, 1])
        with pytest.raises(ValueError, match="last level"):
            LayeredTree([], {}, [])
        with pytest.raises(ValueError, match="parent 7 of node 1"):
            LayeredTree([[1]], {1: 7}, [1])
        with pytest.raises(ValueError, match="node 2 in the parent map"):
            LayeredTree([[1]], {1: None, 2: 1}, [1])

    def test_path_to_root(self):
        tree = binary_tree()
        assert tree.path_to_root(5) == [5, 2]
        assert tree.leaves == [3, 4, 5, 6]


class TestLp:
    def test_lp_rows(self):
        tree = binary_tree()
        constraints, _, _ = lp._rows(build_rmfct_lp(tree))
        # 4 leaf path rows + 2 level rows.
        assert len(constraints) == 6

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_match_reference(self, seed):
        tree = relabelled(random_layered_tree(1 + seed % 4, 3, seed=seed), seed)
        tree = scaled(tree, 1.0 + seed / 7.0)
        cover = build_rmfct_lp(tree)
        got, want = (*lp._rows(cover), cover.bounds), reference_rmfct_lp(tree)
        for field, g, w in zip(("constraints", "ge", "rhs", "bounds"), got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), field
            assert g.tobytes() == w.tobytes(), field

    def test_binary_tree_fractional_threshold(self):
        # With y = a on the top nodes and 1 - a on leaves, the budgets
        # force max(2a, 4(1 - a)) <= alpha, minimized at a = 2/3: the
        # fractional threshold is alpha = 4/3.
        tree = binary_tree()
        assert solve_rmfct_lp(scaled(tree, 4.0 / 3.0 + 1e-9)) is not None
        assert solve_rmfct_lp(scaled(tree, 1.3)) is None

    def test_infeasible_at_small_alpha(self):
        assert solve_rmfct_lp(scaled(binary_tree(), 0.2)) is None


class TestRoundDepth2:
    def test_handcrafted_half_integral(self):
        # Two top nodes each with two leaves; budgets (1, 2, 0)-style
        # depth-2 shape: top budget 1, second budget 2.  The tree LP has
        # the half-integral point y = 1/2 everywhere.
        levels = [[0, 1], [2, 3, 4, 5]]
        parent = {0: None, 1: None, 2: 0, 3: 0, 4: 1, 5: 1}
        tree = LayeredTree(levels, parent, [1.0, 2.0])
        chosen = round_depth2(tree)
        assert not uncovered_leaves(tree, chosen)
        counts = level_counts(tree, chosen)
        assert counts[0] <= 1 and counts[1] <= 2
        # Equal child counts: the tie goes to the lower id.
        assert chosen == {0, 4, 5}

    def test_accepts_three_levels_with_zero_leaf_budget(self):
        # Embed-produced trees carry an extra leaf level with budget 0.
        levels = [[0, 1], [2, 3], [4, 5]]
        parent = {0: None, 1: None, 2: 0, 3: 1, 4: 2, 5: 3}
        tree = LayeredTree(levels, parent, [1.0, 1.0, 0.0])
        chosen = round_depth2(tree)
        assert not uncovered_leaves(tree, chosen)
        assert chosen == {0, 3}

    def test_rejects_deep_trees(self):
        with pytest.raises(ValueError):
            round_depth2(path_tree())

    def test_rejects_infeasible_input(self):
        # Either top node leaves two leaves to a second-level budget of 1.
        levels = [[0, 1], [2, 3, 4, 5]]
        parent = {0: None, 1: None, 2: 0, 3: 0, 4: 1, 5: 1}
        tree = LayeredTree(levels, parent, [1.0, 1.0])
        with pytest.raises(FirefighterInfeasibleError):
            round_depth2(tree)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_lp_solutions_round_cleanly(self, seed):
        rng = np.random.RandomState(seed)
        tree = random_layered_tree(2, max_branching=4, seed=seed)
        tree = LayeredTree(tree.levels, tree.parent,
                           [float(rng.randint(1, 4)), float(rng.randint(1, 4))])
        if solve_rmfct_lp(tree) is None:
            return
        chosen = round_depth2(tree)
        assert not uncovered_leaves(tree, chosen)
        counts = level_counts(tree, chosen)
        for lvl in range(tree.num_levels - 1):
            assert counts[lvl] <= tree.budgets[lvl] + 1e-9

    @pytest.mark.parametrize("seed", range(100))
    @pytest.mark.parametrize("depth", [2, 3])
    def test_greedy_is_the_integral_optimum(self, depth, seed):
        """On integer, fractional and zero budgets, the greedy fits exactly
        when some node set does, and with integer budgets exactly when the
        tree LP is feasible."""
        rng = np.random.RandomState(7000 + seed)
        base = random_layered_tree(depth, max_branching={2: 4, 3: 2}[depth], seed=seed)
        whole = rng.randint(0, 4, size=2).astype(float)
        for budgets in (whole, whole + rng.uniform(0.0, 1.0, size=2)):
            tree = LayeredTree(base.levels, base.parent, [*budgets, 0.0][:depth])
            try:
                chosen = round_depth2(tree)
            except FirefighterInfeasibleError:
                chosen = None
            try:
                value = exact_rmfct(tree)[0]
            except FirefighterInfeasibleError:
                value = np.inf
            assert (chosen is not None) == (value <= 1.0)
            if chosen is not None:
                assert not uncovered_leaves(tree, chosen)
                assert all(c <= b for c, b in zip(level_counts(tree, chosen), tree.budgets))
            if budgets is whole:
                assert (chosen is not None) == (solve_rmfct_lp(tree) is not None)

    def test_one_class_embedding_keeps_every_top_node(self):
        space, _ = random_euclidean(12, 2, seed=3)
        instance = NukcInstance(space, [(3, 1.0)])
        alpha, x = min_feasible_dilation(instance)
        tree = embed(instance.scaled(alpha), x).tree
        assert tree.budgets[-1] == 0.0
        assert round_depth2(tree) == set(tree.levels[0])


class TestRoundLoose:
    @pytest.mark.parametrize("seed", range(60))
    def test_feasible_with_bounded_excess(self, seed):
        rng = np.random.RandomState(1000 + seed)
        depth = int(rng.randint(2, 5))
        tree = random_layered_tree(depth, max_branching=3, seed=seed)
        y = solve_rmfct_lp(tree)
        if y is None:
            return
        chosen = round_loose(tree, y)
        assert not uncovered_leaves(tree, chosen)
        height = tree.num_levels
        assert sum(y.get(v, 0.0) < 1.0 - ROUND_TOL for v in chosen) <= height
        counts = level_counts(tree, chosen)
        for lvl in range(tree.num_levels):
            assert counts[lvl] <= tree.budgets[lvl] + height

    def test_infeasible_y_reported(self):
        tree = binary_tree()
        with pytest.raises(FirefighterInfeasibleError) as err:
            round_loose(tree, {v: 0.0 for v in range(7)})
        assert err.value.uncovered_leaves


class TestExact:
    def test_path_value_one(self):
        value, chosen = exact_rmfct(path_tree())
        assert value == 1.0

    def test_binary_value_two(self):
        value, chosen = exact_rmfct(binary_tree())
        assert value == 2.0
        assert not uncovered_leaves(binary_tree(), chosen)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        tree = random_layered_tree(2, max_branching=3, seed=seed)
        if tree.num_nodes > 10:
            return
        value, chosen = exact_rmfct(tree)
        assert value == pytest.approx(brute_force_value(tree))

    def test_node_budget_guard(self):
        tree = random_layered_tree(4, max_branching=3, seed=0)
        if tree.num_nodes > 24:
            with pytest.raises(ValueError):
                exact_rmfct(tree)
