import hashlib

import numpy as np
import pytest

from helpers import exact_rmfct
from nukc import gadgets
from nukc.gadgets import (
    gadget_radii,
    hardness_gadget,
    random_euclidean,
    random_instance,
    random_layered_tree,
    random_metric,
)
from nukc.metric import validate_metric
from nukc.oracle import exact_nukc
from nukc.rmfct import LayeredTree


def complete_binary(depth):
    """Complete binary tree below an implicit root, nodes 1, 2, ... level
    by level, budget 1 per level."""
    levels = [list(range(2**i - 1, 2 ** (i + 1) - 1)) for i in range(1, depth + 1)]
    parent = {v: (v - 1) // 2 or None for lv in levels for v in lv}
    return LayeredTree(levels, parent, [1.0] * depth)


def yes_tree():
    # Nodes 1, 2 below the root; leaves 3, 4 under 1 and 5 under 2.
    return LayeredTree([[1, 2], [3, 4, 5]], {1: None, 2: None, 3: 1, 4: 1, 5: 2}, [1, 1])


class TestRootedTree:
    def test_depth_and_leaves(self):
        rt = complete_binary(2)
        assert rt.num_levels == 2
        assert rt.leaves == [3, 4, 5, 6]
        assert rt.num_nodes == 6

    def test_uneven_leaves_rejected(self):
        # Leaves at depths 1 and 2: node 2 on level 0 has no child.
        with pytest.raises(ValueError, match="node 2 on level 0 has no child"):
            LayeredTree([[1, 2], [3]], {1: None, 2: None, 3: 1}, [1, 1])


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
        rt = yes_tree()
        assert exact_rmfct(rt)[0] == 1.0
        opt, _ = exact_nukc(hardness_gadget(rt, c=1))
        assert opt == 1.0

    def test_no_tree_dilation_at_least_2c(self):
        rt = complete_binary(2)
        assert exact_rmfct(rt)[0] >= 2.0
        opt, _ = exact_nukc(hardness_gadget(rt, c=2))
        assert opt >= 4.0


# SHA-256 of random_metric(400, seed).dist.tobytes() as the scalar loop
# (reference_random_metric) gives it: the benchmark's matrix-io instances
# must not move.
RANDOM_METRIC_DIGESTS = {
    0: "e25ff0cb0801633b8f1361c4c0645aaa419f21a01ead4005d536aa3eb48e5f1a",
    11: "8723b6b21c956df58270a3a50d3528e00445957a3a55b18677b297753ac02b1a",
    12: "85c993728014f12a6082d9f1850e23a20ed14880b7fac9a47cfa802b00e69c06",
}


def reference_random_metric(n, seed):
    """random_metric's distance matrix from one scalar draw at a time."""
    from scipy.sparse.csgraph import floyd_warshall

    rng = np.random.RandomState(seed)
    weights = np.full((n, n), np.inf)
    np.fill_diagonal(weights, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.rand() < 0.4:
                weights[i, j] = weights[j, i] = rng.uniform(0.5, 2.0)
    for i in range(n - 1):
        if not np.isfinite(weights[i, i + 1]):
            weights[i, i + 1] = weights[i + 1, i] = rng.uniform(0.5, 2.0)
    return floyd_warshall(weights)


class TestRandomGenerators:
    def test_determinism(self):
        a, ca = random_euclidean(8, 2, seed=5)
        b, cb = random_euclidean(8, 2, seed=5)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(ca, cb)

    def test_trivial_space(self):
        space, _ = random_euclidean(1, 2, seed=0)
        assert space.n == 1

    # n = 400 with seeds 0, 11 and 12 are the first matrices of the
    # benchmark's matrix-io corpus: random_metric does not certify its own
    # closure, so the certificate is checked here.
    @pytest.mark.parametrize("n,seed", [pytest.param(7, s, id=str(s)) for s in range(10)]
                             + [pytest.param(400, s, id=f"n400-{s}") for s in (0, 11, 12)])
    def test_random_metric_is_metric(self, n, seed):
        space = random_metric(n, seed=seed)
        assert space.n == n
        assert validate_metric(space.dist) == []

    @pytest.mark.parametrize("chunk", [2, 3, 7, gadgets.DRAW_CHUNK])
    def test_random_metric_matches_the_scalar_loop(self, chunk, monkeypatch):
        # Chunks of 2 and 3 draws split many edges from their weights.
        monkeypatch.setattr(gadgets, "DRAW_CHUNK", chunk)
        for n in range(1, 31):
            for seed in range(3):
                got = random_metric(n, seed).dist
                assert got.tobytes() == reference_random_metric(n, seed).tobytes(), (n, seed)

    @pytest.mark.parametrize("seed", sorted(RANDOM_METRIC_DIGESTS))
    def test_random_metric_is_pinned(self, seed):
        digest = hashlib.sha256(random_metric(400, seed).dist.tobytes()).hexdigest()
        assert digest == RANDOM_METRIC_DIGESTS[seed]

    def test_random_layered_tree_leaves_at_depth(self):
        for seed in range(5):
            rt = random_layered_tree(3, 3, seed)
            assert all(rt.level_of[v] == 2 for v in rt.level_of if not rt.children[v])
            assert rt.levels == [sorted(lv) for lv in rt.levels]
            assert sorted(rt.level_of) == list(range(1, rt.num_nodes + 1))

    def test_random_instance_shape(self):
        inst = random_instance(9, seed=3)
        assert inst.n == 9
        assert 1 <= inst.num_classes <= 3
        assert all(a >= b for a, b in zip(inst.radii, inst.radii[1:]))
