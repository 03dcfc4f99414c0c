import numpy as np
import pytest

from nukc.gadgets import (
    RootedTree,
    gadget_radii,
    hardness_gadget,
    random_euclidean,
    random_instance,
    random_layered_tree,
    random_metric,
)
from nukc.metric import validate_metric
from nukc.oracle import exact_nukc
from nukc.rmfct import exact_rmfct


def complete_binary(depth):
    parents = [None]
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for _ in range(2):
                parents.append(v)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return RootedTree(parents)


class TestRootedTree:
    def test_depth_and_leaves(self):
        rt = complete_binary(2)
        assert rt.depth == 2
        assert len(rt.leaves) == 4

    def test_uneven_leaves_rejected(self):
        with pytest.raises(ValueError):
            RootedTree([None, 0, 0, 1])  # leaves at depths 1 and 2

    def test_to_layered_drops_root(self):
        lt = complete_binary(2).to_layered()
        assert lt.num_levels == 2
        assert lt.num_nodes == 6


class TestGadgetArithmetic:
    def test_radius_recurrence_depth2_c1(self):
        # base = 3: r_2 = 0, r_1 = 6, r_0 = 3*6 + 6 = 24.
        assert gadget_radii(2, 1.0) == [24.0, 6.0, 0.0]

    def test_edge_weights_and_leaf_distances(self):
        inst = hardness_gadget(complete_binary(2), c=1)
        # Same-parent leaves at distance 2 * 3 = 6 = r_1; opposite
        # branches at 3 + 9 + 9 + 3 = 24 = r_0.
        d = inst.space.dist
        assert d[0, 1] == 6.0
        assert d[0, 2] == 24.0
        assert inst.radii == [6.0, 0.0]
        assert inst.budgets == [1, 1]

    def test_radii_end_with_zero(self):
        for depth in (2, 3, 4):
            inst = hardness_gadget(complete_binary(depth), c=1)
            assert inst.radii[-1] == 0.0
            assert inst.num_classes == depth

    def test_lca_identity_exact_for_integer_c(self):
        # All pairwise distances must land exactly on a gadget radius
        # (integer arithmetic, no float error).
        inst = hardness_gadget(complete_binary(3), c=2)
        radii = set(gadget_radii(3, 2.0))
        d = inst.space.dist
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                assert d[i, j] in radii

    def test_c_below_one_rejected(self):
        with pytest.raises(ValueError):
            hardness_gadget(complete_binary(2), c=0.5)

    def test_nan_c_rejected_with_its_own_message(self):
        # NaN fails `c < 1` too, so it once reached the metric check.
        with pytest.raises(ValueError, match=r"^gadget needs c >= 1, got nan$"):
            hardness_gadget(complete_binary(2), c=float("nan"))

    def test_overflow_guard(self):
        deep = complete_binary(2)
        with pytest.raises(ValueError, match="overflow|62"):
            hardness_gadget(deep, c=2.0**40)

    def test_yes_tree_dilation_is_low(self):
        # RMFC value 1: one pick per level hits every path, so dilation 1
        # covers; three leaves pairwise >= r_1 apart rule out anything less.
        rt = RootedTree([None, 0, 0, 1, 1, 2])
        assert exact_rmfct(rt.to_layered())[0] == 1.0
        opt, _ = exact_nukc(hardness_gadget(rt, c=1))
        assert opt == 1.0

    def test_no_tree_dilation_at_least_2c(self):
        rt = complete_binary(2)
        assert exact_rmfct(rt.to_layered())[0] >= 2.0
        opt, _ = exact_nukc(hardness_gadget(rt, c=2))
        assert opt >= 4.0


class TestRandomGenerators:
    def test_determinism(self):
        a, ca = random_euclidean(8, 2, seed=5)
        b, cb = random_euclidean(8, 2, seed=5)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(ca, cb)

    def test_trivial_space(self):
        space, _ = random_euclidean(1, 2, seed=0)
        assert space.n == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_random_metric_is_metric(self, seed):
        space = random_metric(7, seed=seed)
        assert validate_metric(space.dist, tol=1e-7) == []

    def test_random_layered_tree_leaves_at_depth(self):
        for seed in range(5):
            rt = random_layered_tree(3, 3, seed)
            assert all(rt.depth_of[v] == 3 for v in rt.leaves)

    def test_random_instance_shape(self):
        inst = random_instance(9, seed=3)
        assert inst.n == 9
        assert 1 <= inst.num_classes <= 3
        assert all(a >= b for a, b in zip(inst.radii, inst.radii[1:]))
