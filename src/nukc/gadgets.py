"""Instance generators: the firefighter-to-ball-cover hardness gadget and
random test instances."""

from __future__ import annotations

import math

import numpy as np

from .metric import MetricSpace
from .model import NukcInstance
from .rmfct import LayeredTree

GADGET_TOL = 1e-9  # rounding of a radius's exact integer sum to float


def gadget_radii(depth: int, c: float) -> list:
    """Radii r_0..r_h for the gadget: r_h = 0 and
    r_{i-1} = (2c+1) * r_i + 2 * (2c+1)."""
    base = 2 * c + 1
    radii = [0.0] * (depth + 1)
    for i in range(depth, 0, -1):
        radii[i - 1] = base * radii[i] + 2 * base
    return radii


def hardness_gadget(tree: LayeredTree, c: float) -> NukcInstance:
    """Leaves of the tree under the weighted path metric, with an implicit
    root at depth 0 above level 0 (level i sits at depth i+1): the edge
    between depths i-1 and i weighs (2c+1)^(h-i+1).  Radius classes are the h
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
    h = tree.num_levels
    base = 2 * c + 1
    if h * math.log2(base) > 62:
        raise ValueError(
            f"gadget weights overflow 62 bits: depth {h} with 2c+1 = {base}"
        )
    radii = gadget_radii(h, c)
    paths = [tree.path_to_root(leaf) for leaf in tree.leaves]
    n = len(paths)
    dist = np.zeros((n, n))
    for a in range(n):
        seta = set(paths[a])
        for b in range(a + 1, n):
            # Paths run leaf first, so the first shared node is the lowest
            # common ancestor; none shared means the implicit root, depth 0.
            lca_depth = next((1 + tree.level_of[v] for v in paths[b] if v in seta), 0)
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


DRAW_CHUNK = 1 << 16  # most uniform draws random_metric holds at once


def random_metric(n: int, seed: int) -> MetricSpace:
    """Shortest-path metric of a connected random weighted graph.

    The graph is the one a scalar loop draws: for each pair i < j in row
    order, an edge when rand() < 0.4, weighted uniform(0.5, 2.0) by the
    next draw; then each missing edge (i, i + 1), in order of i, weighted
    by the next draws.  The same stream is read in chunks of at most
    DRAW_CHUNK doubles (random_sample(k) gives the k doubles of k rand()
    calls, and uniform(0.5, 2.0) is 0.5 + 1.5 * rand()).  A shortest-path
    closure is a metric by construction, so it is not certified again
    here; every load of its file certifies it."""
    from scipy.sparse.csgraph import floyd_warshall

    rng = np.random.RandomState(seed)
    weights = np.full((n, n), np.inf)
    np.fill_diagonal(weights, 0.0)
    rows = np.arange(n)
    first = rows * (2 * n - rows - 1) // 2  # ordinal of pair (i, i + 1)
    pairs, done, rest = n * (n - 1) // 2, 0, np.empty(0)
    while done < pairs:  # a pair takes at most two draws
        u = np.concatenate([rest, rng.random_sample(min(DRAW_CHUNK, 2 * (pairs - done)))])
        edge, idx = u < 0.4, np.arange(len(u))
        # u[0] decides a pair.  A draw after one that is not an edge
        # decision decides too; within a run of edge draws, deciding and
        # weighting alternate.
        head = np.maximum.accumulate(np.where(np.concatenate([[True], ~edge[:-1]]), idx, 0))
        decide = np.flatnonzero((idx - head) % 2 == 0)[: pairs - done]
        if edge[decide[-1]] and decide[-1] + 1 == len(u):  # its weight is in the next chunk
            decide = decide[:-1]
        hit = decide[edge[decide]]
        ordinal = done + np.flatnonzero(edge[decide])
        i = np.searchsorted(first, ordinal, side="right") - 1
        j = ordinal - first[i] + i + 1
        weights[i, j] = weights[j, i] = 0.5 + 1.5 * u[hit + 1]
        done += len(decide)
        rest = u[decide[-1] + 1 + edge[decide[-1]]:]
    gaps = np.flatnonzero(~np.isfinite(np.diagonal(weights, 1)))  # guarantee connectivity
    draws = np.concatenate([rest[: len(gaps)], rng.random_sample(max(0, len(gaps) - len(rest)))])
    weights[gaps, gaps + 1] = weights[gaps + 1, gaps] = 0.5 + 1.5 * draws
    return MetricSpace(floyd_warshall(weights), check=False)


def random_layered_tree(depth: int, max_branching: int, seed: int) -> LayeredTree:
    """Random tree with every leaf on level depth - 1 and budget 1 per
    level; nodes are numbered 1, 2, ... level by level."""
    if depth < 1 or max_branching < 1:
        raise ValueError("depth and max_branching must be >= 1")
    rng = np.random.RandomState(seed)
    levels, parent = [], {}
    frontier = [None]
    for _ in range(depth):
        level = []
        for p in frontier:
            for _ in range(int(rng.randint(1, max_branching + 1))):
                level.append(len(parent) + 1)
                parent[level[-1]] = p
        levels.append(level)
        frontier = level
    return LayeredTree(levels, parent, [1.0] * depth)


def random_instance(n: int, seed: int, max_classes: int = 3, max_k: int = 3) -> NukcInstance:
    """Random small instance with 1..max_classes distinct radius classes."""
    rng = np.random.RandomState(seed)
    space, _ = random_euclidean(n, 2, seed)
    scale = space.diameter() or 1.0
    num = int(rng.randint(1, max_classes + 1))
    radii = sorted(rng.uniform(0.05, 0.8, size=num) * scale, reverse=True)
    classes = [(int(rng.randint(1, max_k + 1)), float(r)) for r in radii]
    return NukcInstance(space, classes)
