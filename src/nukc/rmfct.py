"""Layered trees and the fractional firefighter relaxation on them.

A layered tree has non-root levels 0..h-1 (every node's parent sits one
level up; level-0 nodes hang off an implicit root) and all leaves on the
last level.  A firefighter solution picks non-root nodes hitting every
root-to-leaf path, subject to per-level budgets.
"""

from __future__ import annotations

import math

import numpy as np

from . import lp

# Slack on LP-derived mass: the thresholds here and the half-mass tests of
# bottom-heavy rounding, whose callers must pick points with the same slack.
ROUND_TOL = 1e-7


class FirefighterInfeasibleError(ValueError):
    def __init__(self, message, uncovered_leaves=None):
        super().__init__(message)
        self.uncovered_leaves = uncovered_leaves or []


class LayeredTree:
    """levels[i] lists the node ids on level i (levels[-1] are the leaves,
    and every node above the last level has a child); parent[v] is the
    node one level up, or None on level 0.  budgets[i] is the per-level
    budget; psi optionally maps nodes to metric points."""

    def __init__(self, levels, parent, budgets, psi=None):
        self.levels = [list(lv) for lv in levels]
        self.parent = dict(parent)
        self.budgets = [float(b) for b in budgets]
        self.psi = dict(psi) if psi is not None else None
        if len(self.budgets) != len(self.levels):
            raise ValueError("budgets must have one entry per level")
        self.level_of = {}
        for i, lv in enumerate(self.levels):
            for v in lv:
                if v in self.level_of:
                    raise ValueError(f"node {v} appears on two levels")
                self.level_of[v] = i
        self.children = {v: [] for v in self.level_of}
        for v, p in self.parent.items():
            if v not in self.level_of:
                raise ValueError(f"node {v} in the parent map lies on no level")
            if p is None:
                if self.level_of[v] != 0:
                    raise ValueError(f"non-top node {v} has no parent")
                continue
            if p not in self.level_of:
                raise ValueError(f"parent {p} of node {v} lies on no level")
            if self.level_of[p] != self.level_of[v] - 1:
                raise ValueError(f"parent of {v} is not one level up")
            self.children[p].append(v)
        if not self.levels or not self.levels[-1]:
            raise ValueError("the last level must hold a leaf")
        for v, i in self.level_of.items():
            if v not in self.parent:
                raise ValueError(f"node {v} missing from parent map")
            if i < len(self.levels) - 1 and not self.children[v]:
                raise ValueError(f"node {v} on level {i} has no child")
            self.children[v].sort()

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_nodes(self) -> int:
        return len(self.level_of)

    @property
    def leaves(self) -> list:
        return self.levels[-1]

    def path_to_root(self, v: int) -> list:
        """Nodes on the path from v (inclusive) up to level 0."""
        out = []
        while v is not None:
            out.append(v)
            v = self.parent[v]
        return out


def uncovered_leaves(tree: LayeredTree, chosen) -> list:
    """Leaves whose root path misses `chosen` (empty list == feasible)."""
    chosen = set(chosen)
    return [v for v in tree.leaves if not chosen.intersection(tree.path_to_root(v))]


def build_rmfct_lp(tree: LayeredTree) -> lp.CoveringLp:
    """Fractional relaxation: y_v in [0,1] per node, path sums >= 1 per
    leaf, level sums <= the level's budget."""
    nodes = sorted(tree.level_of)
    idx = {v: i for i, v in enumerate(nodes)}
    leaves, h = len(tree.leaves), tree.num_levels
    # Every leaf sits on the last level, so each root path holds h nodes.
    paths = [idx[v] for leaf in tree.leaves for v in tree.path_to_root(leaf)]
    supp = np.zeros((leaves, len(nodes)), dtype=bool)
    supp[np.repeat(np.arange(leaves), h), paths] = True
    return lp.CoveringLp(
        supp=supp,
        cls=np.array([tree.level_of[v] for v in nodes], dtype=int),
        budgets=np.array(tree.budgets),
        bounds=np.full((len(nodes), 2), (0.0, 1.0)),
    )


def solve_rmfct_lp(tree: LayeredTree):
    """Returns a basic feasible y (dict node -> value) or None."""
    y = lp.solve(build_rmfct_lp(tree))
    if y is None:
        return None
    return {v: float(y[i]) for i, v in enumerate(sorted(tree.level_of))}


# ---------------------------------------------------------------------------
# Height-two integral rounding (exact greedy).
# ---------------------------------------------------------------------------


def round_depth2(tree: LayeredTree) -> set:
    """The node set of a height-two tree that fits its budgets, if any does:
    the floor(budgets[0]) top nodes with the most children (ties to the lower
    id), plus every second-level node under a top node left out.  A third
    level is allowed only with budget 0.

    This is the integral optimum, and it fits whenever the tree LP is
    feasible: a feasible y has sum(y on level 1) >= |level 1| - sum_w c_w y_w
    >= |level 1| - (the k1 largest child counts c_w), as sum(y on level 0)
    <= k1, y <= 1 and k1 is an integer.  Raises FirefighterInfeasibleError
    when the second level exceeds floor(budgets[1])."""
    if not (tree.num_levels == 2 or (tree.num_levels == 3 and tree.budgets[2] == 0)):
        raise ValueError(
            "round_depth2 needs exactly two budgeted levels "
            f"(got {tree.num_levels} levels, budgets {tree.budgets})"
        )
    k1, k2 = (math.floor(b) for b in tree.budgets[:2])
    ranked = sorted(tree.levels[0], key=lambda w: (-len(tree.children[w]), w))
    top = set(ranked[:k1])
    second = {v for w in ranked[k1:] for v in tree.children[w]}
    if len(second) > k2:
        raise FirefighterInfeasibleError(
            f"the {len(top)} top nodes with the most children leave {len(second)} "
            f"second-level nodes, over the budget {k2}"
        )
    return top | second


# ---------------------------------------------------------------------------
# Loose-vertex rounding for basic solutions.
# ---------------------------------------------------------------------------


def round_loose(tree: LayeredTree, y: dict) -> set:
    """Select every integral vertex plus every loose vertex: y_v > 0 and
    the inclusive root-prefix sum above v is below 1.  The topmost positive
    vertex of any root-leaf path is integral or loose, so the selection is
    feasible for every feasible y.  At a basic solution the loose vertices
    number at most the tree height, so each level exceeds its budget by at
    most that height."""
    integral = set()
    loose = set()

    def walk(v, acc):
        val = y.get(v, 0.0)
        acc = acc + val
        if val >= 1.0 - ROUND_TOL:
            integral.add(v)
        elif val > ROUND_TOL and acc < 1.0 - ROUND_TOL:
            loose.add(v)
        for c in tree.children[v]:
            walk(c, acc)

    for v in tree.levels[0]:
        walk(v, 0.0)

    height = tree.num_levels
    if len(loose) > height:
        raise RuntimeError(
            f"{len(loose)} loose vertices exceed the tree height {height}: "
            "y is not a basic solution"
        )
    chosen = integral | loose
    missed = uncovered_leaves(tree, chosen)
    if missed:
        raise FirefighterInfeasibleError(
            "input y does not fractionally cover all leaves", uncovered_leaves=missed
        )
    return chosen
