"""Instance generators: the firefighter-to-ball-cover hardness gadget and
random test instances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import MetricSpace
from .model import NukcInstance
from .rmfct import LayeredTree

GADGET_TOL = 1e-9  # rounding of a radius's exact integer sum to float


@dataclass
class RootedTree:
    """A rooted tree with every leaf at the same depth.  parents[0] is None
    (the root); parents[v] < v for v > 0."""

    parents: list

    def __post_init__(self):
        if not self.parents or self.parents[0] is not None:
            raise ValueError("node 0 must be the root (parent None)")
        for v, p in enumerate(self.parents):
            if v > 0 and not (isinstance(p, int) and 0 <= p < v):
                raise ValueError(f"node {v} has invalid parent {p}")
        self.depth_of = [0] * len(self.parents)
        children = [[] for _ in self.parents]
        for v, p in enumerate(self.parents):
            if v > 0:
                self.depth_of[v] = self.depth_of[p] + 1
                children[p].append(v)
        self.children = children
        self.leaves = [v for v in range(len(self.parents)) if not children[v]]
        depths = {self.depth_of[v] for v in self.leaves}
        if len(depths) != 1:
            raise ValueError(f"all leaves must share one depth, got depths {sorted(depths)}")
        self.depth = depths.pop()
        if self.depth < 1:
            raise ValueError("tree must have depth at least 1")

    def to_layered(self, budgets=None) -> LayeredTree:
        """Non-root nodes arranged by depth; default budget 1 per level."""
        levels = [[] for _ in range(self.depth)]
        parent = {}
        for v in range(1, len(self.parents)):
            levels[self.depth_of[v] - 1].append(v)
            p = self.parents[v]
            parent[v] = None if p == 0 else p
        if budgets is None:
            budgets = [1.0] * self.depth
        return LayeredTree(levels, parent, budgets)


def gadget_radii(depth: int, c: float) -> list:
    """Radii r_0..r_h for the gadget: r_h = 0 and
    r_{i-1} = (2c+1) * r_i + 2 * (2c+1)."""
    base = 2 * c + 1
    radii = [0.0] * (depth + 1)
    for i in range(depth, 0, -1):
        radii[i - 1] = base * radii[i] + 2 * base
    return radii


def hardness_gadget(tree: RootedTree, c: float) -> NukcInstance:
    """Leaves of the tree under the weighted path metric: the edge between
    depths i-1 and i weighs (2c+1)^(h-i+1).  Radius classes are the h
    singletons r_1 > ... > r_h = 0.  Two leaves whose lowest common
    ancestor sits at depth t are at distance exactly r_t (enforced).

    With closed balls (a point is covered at distance <= a * r_t) the
    optimal dilation separates the two firefighter answers:

    - YES (one pick per level hits every root-leaf path) gives dilation
      <= 1: for the pick u at depth t, centre the class-t ball on any leaf
      below u; at dilation 1 it reaches every leaf of u's subtree.  It is
      exactly 1 unless a cover exists below 1, where a class-t ball reaches
      only one depth-(t+1) subtree (a single leaf for t = h).  At depth 2
      that cover holds at most two leaves, so every YES tree with three or
      more leaves sits at exactly 1.
    - NO (some level needs two picks) gives dilation > 2c+1: below
      r_{t-1} / r_t a class-t ball centred at a leaf reaches only the
      leaves of one depth-t subtree (the radius-0 class-h ball reaches one
      leaf at any dilation), so a cover there is one pick per level.  For
      t < h, r_{t-1} / r_t = (2c+1) + 2(2c+1) / r_t exceeds 2c+1.
      At depth 2 the optimum is exactly r_0 / r_1 = 2c+2."""
    if not c >= 1:  # NaN fails this too
        raise ValueError(f"gadget needs c >= 1, got {c}")
    h = tree.depth
    base = 2 * c + 1
    if h * math.log2(base) > 62:
        raise ValueError(
            f"gadget weights overflow 62 bits: depth {h} with 2c+1 = {base}"
        )
    radii = gadget_radii(h, c)
    leaves = tree.leaves
    n = len(leaves)
    # Depth of the lowest common ancestor for each leaf pair.
    anc = {}
    for leaf in leaves:
        chain = []
        v = leaf
        while v is not None:
            chain.append(v)
            v = tree.parents[v]
        anc[leaf] = chain  # leaf .. root
    dist = np.zeros((n, n))
    for a in range(n):
        seta = set(anc[leaves[a]])
        for b in range(a + 1, n):
            lca_depth = max(
                tree.depth_of[v] for v in anc[leaves[b]] if v in seta
            )
            d = float(radii[lca_depth])
            if abs(d - 2 * sum(base**j for j in range(1, h - lca_depth + 1))) > GADGET_TOL:
                raise AssertionError("gadget distance identity violated")
            dist[a, b] = dist[b, a] = d
    space = MetricSpace(dist, check=True)
    classes = [(1, radii[t]) for t in range(1, h + 1)]
    return NukcInstance(space, classes)


# ---------------------------------------------------------------------------
# Random generators (all seeded and deterministic).
# ---------------------------------------------------------------------------


def random_euclidean(n: int, dim: int, seed: int):
    """Uniform points in the unit box.  Returns (space, coords)."""
    rng = np.random.RandomState(seed)
    coords = rng.rand(n, dim)
    return MetricSpace.from_coords(coords), coords


def random_metric(n: int, seed: int) -> MetricSpace:
    """Shortest-path metric of a connected random weighted graph."""
    from scipy.sparse.csgraph import floyd_warshall

    rng = np.random.RandomState(seed)
    weights = np.full((n, n), np.inf)
    np.fill_diagonal(weights, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.rand() < 0.4:
                weights[i, j] = weights[j, i] = rng.uniform(0.5, 2.0)
    for i in range(n - 1):  # guarantee connectivity
        if not np.isfinite(weights[i, i + 1]):
            weights[i, i + 1] = weights[i + 1, i] = rng.uniform(0.5, 2.0)
    dist = floyd_warshall(weights)
    return MetricSpace(dist, check=True)


def random_layered_tree(depth: int, max_branching: int, seed: int) -> RootedTree:
    """Random rooted tree with every leaf at exactly `depth`."""
    if depth < 1 or max_branching < 1:
        raise ValueError("depth and max_branching must be >= 1")
    rng = np.random.RandomState(seed)
    parents = [None]
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for _ in range(int(rng.randint(1, max_branching + 1))):
                parents.append(v)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return RootedTree(parents)


def random_instance(
    n: int, seed: int, max_classes: int = 3, max_k: int = 3, euclidean: bool = True
) -> NukcInstance:
    """Random small instance with 1..max_classes distinct radius classes."""
    rng = np.random.RandomState(seed)
    if euclidean:
        space, _ = random_euclidean(n, 2, seed)
    else:
        space = random_metric(n, seed)
    scale = space.diameter() or 1.0
    num = int(rng.randint(1, max_classes + 1))
    radii = sorted(rng.uniform(0.05, 0.8, size=num) * scale, reverse=True)
    classes = [(int(rng.randint(1, max_k + 1)), float(r)) for r in radii]
    return NukcInstance(space, classes)
