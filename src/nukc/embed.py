"""Embedding a fractional ball-cover into a layered tree.

Given a fractional solution x feasible at dilation 1, the embedding builds
a layered tree whose level t corresponds to radius class t and whose
leaves are the instance points, together with node values y that are
feasible for the firefighter relaxation at budget factor 1: leaf path sums
are at least 1 and the level-t y sum is at most k_t.

One clustering round per level, gathering radius 2*r_t, unless `barrier`
is set.  Lifting a chosen level-t node opens a ball of radius
2 * (r_t + r_{t+1} + ... + r_{h-1}) at its mapped point.

With `barrier`, rounds jump over levels whose radii are within a factor
two, replicating winners down the skipped span; the gathering radius at a
span topped by level t is 2*r_t.  Consecutive span radii shrink
geometrically, so an ancestor at level t is within 8*r_t of every
descendant's mapped point, and lifting opens balls of radius 8*r_t.  The
factor-8 bound is audited at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import covered, within
from .model import Ball, NukcInstance, NukcSolution, coverage
from .rmfct import ROUND_TOL, FirefighterInfeasibleError, LayeredTree


@dataclass
class EmbedResult:
    tree: LayeredTree
    instance: NukcInstance
    y: dict
    lift: list  # lift[t]: the ball radius that opens a chosen level-t node


def _audit_barrier(tree: LayeredTree, instance: NukcInstance) -> None:
    """Hard postcondition: every ancestor at level t sits within 8*r_t of
    every descendant's mapped point."""
    dist = instance.space.dist
    radii = instance.radii
    psi = tree.psi
    h = instance.num_classes

    def walk(v, ancestors):
        for (lvl, pt) in ancestors:
            d = dist[pt, psi[v]]
            if not within(d, 8.0 * radii[lvl]):
                raise RuntimeError(
                    f"barrier audit failed: ancestor at level {lvl} (point {pt}) "
                    f"is {d:g} > 8*{radii[lvl]:g} from descendant point {psi[v]}"
                )
        lvl_v = tree.level_of[v]
        nxt = ancestors + [(lvl_v, psi[v])] if lvl_v < h else ancestors
        for c in tree.children[v]:
            walk(c, nxt)

    for v in tree.levels[0]:
        walk(v, [])


def embed(
    instance: NukcInstance,
    x: np.ndarray,
    points=None,
    barrier: bool = False,
) -> EmbedResult:
    """Embed a fractional solution x (feasible at dilation 1, covering at
    least the points in `points`) into a layered tree.  Winner selection
    minimizes the suffix coverage at the current level, ties to the lowest
    point id, where coverages within ROUND_TOL of each other tie."""
    n, h = instance.n, instance.num_classes
    radii = instance.radii
    dist = instance.space.dist
    pts = sorted(range(n)) if points is None else sorted(points)
    if not pts:
        raise ValueError("cannot embed an empty point set")
    cov = coverage(instance, x)
    levels = [[] for _ in range(h + 1)]
    parent = {}
    psi = {}
    yval = {}

    def add_node(lvl, p):
        v = len(psi)
        levels[lvl].append(v)
        psi[v] = p
        return v

    # Leaf level h: identity on the embedded points.
    node_of = {p: add_node(h, p) for p in pts}  # point -> its current top node
    cur = h  # current top level already built
    while cur >= 1:
        span_top = cur - 1
        if barrier:
            # Smallest class index whose radius is within twice the radius
            # one level up from here; the span [span_top, cur-1] is built
            # in one round with gathering radius 2 * r_{span_top}.
            for s in range(cur - 1):
                if within(radii[s], 2.0 * radii[cur - 1]):
                    span_top = s
                    break
        gather = 2.0 * radii[span_top]
        active = sorted(node_of)  # points owning a node at level `cur`
        new_node_of = {}
        while active:
            # Winner: minimal suffix coverage at the current level, within
            # ROUND_TOL, ties to the lowest point id (`active` is sorted).
            suffix = cov[active, cur:].sum(axis=1)
            p = active[int(np.argmax(suffix <= suffix.min() + ROUND_TOL))]
            near = within(dist[p], gather)
            group = [q for q in active if near[q]]
            chain_child = [node_of[q] for q in group]
            for lvl in range(cur - 1, span_top - 1, -1):
                w = add_node(lvl, p)
                yval[w] = cov[p, lvl]
                for cnode in chain_child:
                    parent[cnode] = w
                chain_child = [w]
            new_node_of[p] = chain_child[0]
            active = [q for q in active if q not in group]
        node_of = new_node_of
        cur = span_top
    for v in levels[0]:
        parent[v] = None

    budgets = [float(c.multiplicity) for c in instance.classes] + [0.0]
    tree = LayeredTree(levels, parent, budgets, psi=psi)
    if barrier:
        _audit_barrier(tree, instance)
        lift = [8.0 * radii[t] for t in range(h)]
    else:
        lift = [2.0 * sum(radii[t:]) for t in range(h)]
    return EmbedResult(tree, instance, {v: float(val) for v, val in yval.items()}, lift)


def lift_tree_solution(result: EmbedResult, chosen) -> NukcSolution:
    """Open, for every chosen node at level t, a ball of radius
    `result.lift[t]` at the node's mapped point, charged to class t.
    Raises with the uncovered leaves when the chosen nodes miss some
    embedded point."""
    h = result.instance.num_classes
    tree = result.tree
    balls = []
    for v in sorted(chosen):
        lvl = tree.level_of[v]
        if lvl >= h:
            raise ValueError(
                f"chosen node {v} lies on the leaf level, which carries no class"
            )
        balls.append(Ball(tree.psi[v], lvl, result.lift[lvl]))
    hit = covered(result.instance.space.dist, [b.center for b in balls],
                  [b.radius_used for b in balls])
    uncovered = [v for v in tree.leaves if not hit[tree.psi[v]]]
    if uncovered:
        raise FirefighterInfeasibleError(
            f"chosen nodes leave {len(uncovered)} embedded points uncovered",
            uncovered_leaves=uncovered,
        )
    return NukcSolution(balls)
