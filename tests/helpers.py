"""Per-ball and per-point views that only tests read (the package works
from masks, `metric.within` and `metric.covered`, and from the classes'
(radius, count) runs), a guess's window LP, a relaxation search replayed
with its proof store in the test's hands, and the exhaustive tree and
kCwO searches that the tests hold the solvers against."""

import math
from itertools import combinations

import numpy as np

from nukc.metric import covered, within
from nukc.model import build_nukc_lp, candidate_dilations, proving_point, smallest_feasible
from nukc.oracle import SizeBudgetError
from nukc.rmfct import FirefighterInfeasibleError, LayeredTree
from nukc.solvers import _window_lp

TIE_TOL = 1e-15  # distances this close are a tie in exact_kcwo


def ball(space, center: int, radius: float) -> list:
    """Points within the closed ball of `radius` around `center`."""
    return [int(q) for q in np.nonzero(within(space.dist[center], radius))[0]]


def expand_radii(instance) -> list:
    """All radii as individual (sorted, non-increasing) entries, paired
    with their class index: [(radius, class_index), ...].  One entry per
    ball, so only for small k."""
    out = []
    for t, c in enumerate(instance.classes):
        out.extend([(c.radius, t)] * c.multiplicity)
    return out


def guess_window(instance, alpha, tau, fixed_balls):
    """(problem, uncovered): the points the (center, class) `fixed_balls`
    miss at dilation alpha, and `solvers._window_lp` over them (None when
    they miss none), as guess-q's probe builds it."""
    hit = covered(instance.space.dist, [c for c, _ in fixed_balls],
                  [alpha * instance.radii[t] for _, t in fixed_balls])
    uncovered = np.flatnonzero(~hit).tolist()
    return (_window_lp(instance, alpha, tau, uncovered) if uncovered else None), uncovered


def replayed_search(instance):
    """(alpha, proofs): a relaxation search on `instance` as
    `smallest_feasible` over its candidate dilations, each probe
    `proving_point` with the one store `proofs` that they share.  alpha is
    None when no candidate holds."""
    proofs = []
    found = smallest_feasible(candidate_dilations(instance),
                              lambda d: proving_point(build_nukc_lp(instance, d), proofs))
    return (None if found is None else found[0]), proofs


def exact_rmfct(tree: LayeredTree, max_nodes: int = 24):
    """Exhaustive minimal-hitting-set search over root-leaf paths.

    Returns (value, chosen) where value = min over feasible N of
    max_t |N on level t| / budget_t (0/0 counts as 0, x/0 as inf).
    Branches on the nodes of the first uncovered leaf's path, which
    enumerates exactly the minimal feasible sets; removing nodes never
    raises the objective, so the optimum is attained at one of them.
    """
    if tree.num_nodes > max_nodes:
        raise ValueError(
            f"exact_rmfct limited to {max_nodes} nodes, tree has {tree.num_nodes}"
        )
    leaves = sorted(tree.leaves)
    paths = {leaf: tree.path_to_root(leaf) for leaf in leaves}
    best = [math.inf, None]

    def value_of(counts):
        worst = 0.0
        for t, cnt in enumerate(counts):
            if cnt == 0:
                continue
            if tree.budgets[t] <= 0:
                return math.inf
            worst = max(worst, cnt / tree.budgets[t])
        return worst

    def search(chosen, counts):
        val = value_of(counts)
        if val >= best[0]:
            return
        for leaf in leaves:
            if not chosen.intersection(paths[leaf]):
                for v in paths[leaf]:
                    t = tree.level_of[v]
                    counts[t] += 1
                    chosen.add(v)
                    search(chosen, counts)
                    chosen.discard(v)
                    counts[t] -= 1
                return
        best[0] = val
        best[1] = set(chosen)

    search(set(), [0] * tree.num_levels)
    if best[1] is None:
        raise FirefighterInfeasibleError("no feasible node set exists")
    return best[0], best[1]


def exact_kcwo(space, k: int, l: int, max_n: int = 12, max_k: int = 4):
    """Exact k-center with l excused points: minimize r such that some k
    centers leave at most l points farther than r.  Enumerates center
    subsets; for each, the needed radius is the (l+1)-th largest
    point-to-centers distance.

    Returns (radius, centers, outliers)."""
    n = space.n
    if n > max_n or k > max_k:
        raise SizeBudgetError(
            f"exact_kcwo budget is n <= {max_n}, k <= {max_k}; got n = {n}, k = {k}"
        )
    if l >= n or k == 0:
        if l >= n:
            return 0.0, [], list(range(n))
        raise ValueError("k = 0 with fewer than n excused points is uncoverable")
    kk = min(k, n)
    best = (math.inf, None, None)
    for subset in combinations(range(n), kk):
        d = space.dist[list(subset)].min(axis=0)
        order = np.argsort(-d, kind="stable")
        radius = float(d[order[l]])
        if radius < best[0] - TIE_TOL:
            outliers = sorted(int(i) for i in order[:l] if d[order[l]] < d[i] - TIE_TOL)
            best = (radius, list(subset), outliers)
    return best
