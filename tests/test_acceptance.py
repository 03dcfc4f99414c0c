"""End-to-end acceptance checks, one test per documented guarantee.

Each test prints a single PASS/FAIL line (visible with -s, and in the
captured output on failure) and asserts the property with its stated
tolerance over the stated corpus size.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from helpers import exact_kcwo, exact_rmfct, expand_radii, min_feasible_dilation
from nukc import bicriteria
from nukc.bicriteria import enum_solve
from nukc.embed import embed
from nukc.gadgets import (
    hardness_gadget,
    random_instance,
    random_layered_tree,
)
from nukc.metric import MetricSpace
from nukc.model import (
    NukcInstance,
    achieved_dilation,
    compress_radii,
    lift_compressed_solution,
    validate_solution,
)
from nukc.oracle import exact_nukc
from nukc.rmfct import (
    LayeredTree,
    round_depth2,
    round_loose,
    solve_rmfct_lp,
    uncovered_leaves,
)
from nukc.solvers import TWO_RADII_FACTOR, solve_kcwo

# Frozen regression thresholds for the end-to-end bi-criteria run
# (criterion 9): measured worst case over this exact corpus was 2.18.
ENUM_RATIO_BOUND = 3.0
ENUM_RADIUS_FACTOR = 22.0
# The same corpus through the recursion itself (criterion 11): measured
# worst ratio 8.681.  The digest is the SHA-256 of the JSON list of the 100
# solutions' [center, class, radius] lists, so any output change shows.
FORCED_RATIO_BOUND = 8.7
FORCED_DIGEST = "c821737da884173f1e8015c850b6a5a38ee2bd6caf36706e821874027b2a7193"


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def corpus(count, make, *, start=0):
    """First `count` accepted outputs of make(seed)."""
    out = []
    seed = start
    while len(out) < count:
        item = make(seed)
        seed += 1
        if item is not None:
            out.append(item)
        if seed - start > 50 * count:
            raise RuntimeError("corpus generation stalled")
    return out


def test_criterion_01_kcwo_factor_two():
    started = time.time()
    failures = []
    rng = np.random.RandomState(0)
    for seed in range(200):
        inst = random_instance(int(rng.randint(4, 11)), seed=seed)
        space = inst.space
        k, l = int(rng.randint(1, 4)), int(rng.randint(0, 4))
        opt, _, _ = exact_kcwo(space, k, l)
        res = solve_kcwo(space, k, l)
        if res.radius > 2 * opt + 1e-9:
            failures.append((seed, res.radius, opt))
    elapsed = time.time() - started
    report(
        1,
        "outlier k-center within factor 2 of exact on 200 seeds",
        not failures and elapsed <= 60,
        f"{elapsed:.1f}s, {len(failures)} failures",
    )


def test_criterion_02_two_radii_golden_factor():
    def make(seed):
        inst = random_instance(9, seed=seed, max_k=2)
        if inst.num_classes != 2 or inst.total_k > 4:
            return None
        return inst

    failures = []
    for inst in corpus(200, make):
        opt, _ = exact_nukc(inst)
        from nukc.solvers import solve_two_radii

        sol = solve_two_radii(
            inst.space,
            (inst.budgets[0], inst.radii[0]),
            (inst.budgets[1], inst.radii[1]),
        )
        if achieved_dilation(inst, sol) > TWO_RADII_FACTOR * opt + 1e-9:
            failures.append(opt)
    report(
        2,
        "two-radius solver within 1+sqrt(5) of exact on 200 seeds",
        not failures,
        f"{len(failures)} failures",
    )


def _embeddable(seed, **kwargs):
    inst = random_instance(10, seed=seed, **kwargs)
    alpha, x = min_feasible_dilation(inst)
    if alpha <= 0:
        return None
    return inst.scaled(alpha), x


def test_criterion_03_embedding_feasibility_residuals():
    failures = []
    for inst, x in corpus(60, _embeddable):
        for barrier in (False, True):
            res = embed(inst, x, barrier=barrier)
            tree, y = res.tree, res.y
            for leaf in tree.leaves:
                if sum(y.get(v, 0.0) for v in tree.path_to_root(leaf)) < 1 - 1e-7:
                    failures.append(("path", leaf))
            for lvl in range(tree.num_levels - 1):
                total = sum(y.get(v, 0.0) for v in tree.levels[lvl])
                if total > tree.budgets[lvl] + 1e-7:
                    failures.append(("budget", lvl))
    report(
        3,
        "tree embeddings keep path sums >= 1 and level sums <= budgets",
        not failures,
        f"{len(failures)} residual violations",
    )


def test_criterion_04_barrier_distance_audit():
    failures = []
    trials = corpus(100, lambda s: _embeddable(s, max_classes=4))
    for inst, x in trials:
        res = embed(inst, x, barrier=True)  # construction-time audit also applies
        tree = res.tree
        dist, radii = inst.space.dist, inst.radii
        for leaf in tree.leaves:
            for v in tree.path_to_root(leaf)[1:]:
                lvl = tree.level_of[v]
                d = dist[tree.psi[v], tree.psi[leaf]]
                if d > 8 * radii[lvl] + 1e-9:
                    failures.append((d, radii[lvl]))
    report(
        4,
        "barrier-mode ancestors within 8 x class radius on 100 seeds",
        not failures,
        f"{len(failures)} audit violations",
    )


def test_criterion_05_depth2_rounding():
    def make(seed):
        rng = np.random.RandomState(seed)
        tree = random_layered_tree(2, max_branching=4, seed=seed)
        tree = LayeredTree(tree.levels, tree.parent,
                           [float(rng.randint(1, 4)), float(rng.randint(1, 4))])
        if solve_rmfct_lp(tree) is None:
            return None
        return tree

    failures = []
    for tree in corpus(500, make):
        chosen = round_depth2(tree)
        if uncovered_leaves(tree, chosen):
            failures.append("uncovered leaf")
        counts = [sum(tree.level_of[v] == t for v in chosen) for t in range(tree.num_levels)]
        for lvl in range(tree.num_levels - 1):
            if counts[lvl] > tree.budgets[lvl] + 1e-9:
                failures.append(("budget", lvl))
    report(
        5,
        "depth-2 rounding integral, budget- and path-feasible on 500 inputs",
        not failures,
        f"{len(failures)} failures",
    )


def test_criterion_06_loose_vertex_rounding():
    def make(seed):
        rng = np.random.RandomState(5000 + seed)
        tree = random_layered_tree(int(rng.randint(2, 5)), max_branching=3, seed=seed)
        y = solve_rmfct_lp(tree)
        if y is None:
            return None
        return tree, y

    failures = []
    for tree, y in corpus(200, make):
        chosen = round_loose(tree, y)
        if uncovered_leaves(tree, chosen):
            failures.append("uncovered leaf")
        height = tree.num_levels
        counts = [sum(tree.level_of[v] == t for v in chosen) for t in range(tree.num_levels)]
        for lvl in range(tree.num_levels):
            if counts[lvl] > tree.budgets[lvl] + height:
                failures.append(("excess", lvl))
    report(
        6,
        "loose-vertex rounding feasible with per-level excess <= height",
        not failures,
        f"{len(failures)} failures",
    )


def test_criterion_07_compression():
    def make(seed):
        inst = random_instance(9, seed=seed, max_classes=4, max_k=2)
        comp = compress_radii(inst)
        if comp.instance.total_k > 4:
            return None
        return inst, comp

    failures = []
    for inst, comp in corpus(100, make):
        cinst = comp.instance
        expanded = expand_radii(inst)
        k = len(expanded)
        levels = int(math.floor(math.log2(k)))
        # (i): bucket i holds radius r_{2^i} with multiplicity 2^i
        # (last bucket trimmed), merged on equal radii.
        want = {}
        for i in range(levels + 1):
            start = 2**i
            if start > k:
                break
            r = expanded[start - 1][0]
            want[r] = want.get(r, 0) + min(2 ** (i + 1) - 1, k) - start + 1
        got = {c.radius: c.multiplicity for c in cinst.classes}
        if got != want:
            failures.append(("structure", got, want))
            continue
        # (ii)/(iii): feasibility transfers, so the fractional optimum
        # cannot increase.
        a_orig, _ = min_feasible_dilation(inst)
        a_comp, _ = min_feasible_dilation(cinst)
        if a_comp > a_orig + 1e-9:
            failures.append(("optimum", a_comp, a_orig))
            continue
        # Lifting a (1, beta) compressed solution validates at (3, beta).
        opt, csol = exact_nukc(cinst)
        lifted = lift_compressed_solution(csol, comp, inst)
        rep = validate_solution(inst, lifted, 3.0, max(opt, 1e-12) + 1e-9)
        if not rep.ok:
            failures.append(("lift", str(rep)))
    report(
        7,
        "radius compression structure, optimum and (3a, b) lifting on 100 seeds",
        not failures,
        f"{len(failures)} failures",
    )


def _yes_tree(seed):
    """Depth-2 tree whose firefighter optimum is 1: one branching child
    plus one single-leaf child under the root."""
    rng = np.random.RandomState(seed)
    m = int(rng.randint(2, 9))
    # Children 1 (branching) and 2 (path) below the root; leaves 3..m+3.
    parent = {1: None, 2: None, **{v: 1 for v in range(3, m + 3)}, m + 3: 2}
    return LayeredTree([[1, 2], list(range(3, m + 4))], parent, [1, 1])


def test_criterion_08_hardness_gadget():
    failures = []
    # YES direction: firefighter value 1 must translate to dilation exactly
    # 1: each pick's ball covers its subtree at dilation 1, while below 1
    # each of the two balls reaches a single one of the m + 1 >= 3 leaves.
    for seed in range(20):
        rt = _yes_tree(seed)
        value, _ = exact_rmfct(rt)
        assert value == 1.0, "constructed tree is not a YES instance"
        inst = hardness_gadget(rt, c=1)
        opt, _ = exact_nukc(inst)
        if opt != 1.0:
            failures.append(("yes", seed, opt))
    # NO direction: firefighter value >= 2 forces dilation >= 2c = 4
    # (the gadget proves > 2c+1; at depth 2 the optimum is 2c+2 = 6).
    no_count = 0
    seed = 0
    while no_count < 10:
        rt = random_layered_tree(2, max_branching=3, seed=seed)
        seed += 1
        if len(rt.leaves) > 10 or exact_rmfct(rt)[0] < 2.0:
            continue
        no_count += 1
        inst = hardness_gadget(rt, c=2)
        opt, _ = exact_nukc(inst)
        if opt < 4.0:
            failures.append(("no", seed - 1, opt))
    report(
        8,
        "gadget: YES trees at dilation exactly 1, NO trees (c=2) at >= 4",
        not failures,
        f"{len(failures)} failures ({failures[:3]}...)" if failures else "",
    )


def _bicriteria_corpus():
    def make(seed):
        inst = random_instance(12, seed=seed, max_classes=3)
        if compress_radii(inst).instance.num_classes > 3:
            return None
        return inst

    return corpus(100, make)


def _bicriteria_run(ratio_bound):
    """enum_solve over criterion 9's corpus: (failures, worst ratio,
    solutions as [center, class, radius] lists)."""
    failures = []
    worst_ratio = 0.0
    solutions = []
    for inst in _bicriteria_corpus():
        res = enum_solve(inst)
        sol = res.solution
        solutions.append([[b.center, b.class_index, b.radius_used] for b in sol.balls])
        dist = inst.space.dist
        if any(
            not any(dist[p, b.center] <= b.radius_used + 1e-9 for b in sol.balls)
            for p in range(inst.n)
        ):
            failures.append("uncovered")
            continue
        counts = sol.class_counts(inst.num_classes)
        if any(counts[t] > res.count_bound[t] for t in range(inst.num_classes)):
            failures.append(("counts", counts, res.count_bound))
            continue
        if res.alpha > 0:
            worst_ratio = max(worst_ratio, res.dilation_ratio)
            if res.dilation_ratio > ratio_bound:
                failures.append(("ratio", res.dilation_ratio))
        if any(
            b.radius_used
            > ENUM_RADIUS_FACTOR
            * max(res.alpha, achieved_dilation(inst, sol))
            * max(inst.radii)
            + 1e-9
            for b in sol.balls
        ):
            failures.append("radius factor")
    return failures, worst_ratio, solutions


def test_criterion_09_end_to_end_bicriteria():
    failures, worst_ratio, _ = _bicriteria_run(ENUM_RATIO_BOUND)
    report(
        9,
        "bi-criteria enumeration covers with frozen constant bounds",
        not failures,
        f"worst ratio {worst_ratio:.3f} <= {ENUM_RATIO_BOUND}, "
        f"radius factor <= {ENUM_RADIUS_FACTOR}, {len(failures)} failures",
    )


def test_criterion_10_oracle_sanity():
    def make(seed):
        inst = random_instance(9, seed=seed, max_k=2)
        if inst.total_k > 4:
            return None
        return inst

    failures = []
    for inst in corpus(100, make):
        alpha, _ = min_feasible_dilation(inst)
        opt, sol = exact_nukc(inst)
        if alpha > opt + 1e-9:
            failures.append(("bound", alpha, opt))
            continue
        scaled = inst.scaled(max(opt, 1e-12))
        if not validate_solution(scaled, sol, 1.0, 1.0 + 1e-9).ok:
            failures.append(("validate", opt))
    report(
        10,
        "fractional bound <= exact optimum; oracle solutions validate at (1,1)",
        not failures,
        f"{len(failures)} failures",
    )


def test_criterion_11_forced_recursion(monkeypatch):
    """Criterion 9's corpus with no short circuit: the guess recursion runs
    in place of guess-q (total k <= 16 on this corpus)."""
    monkeypatch.setattr(bicriteria, "SHORT_CIRCUIT_K", -1)
    failures, worst_ratio, solutions = _bicriteria_run(FORCED_RATIO_BOUND)
    digest = hashlib.sha256(json.dumps(solutions).encode()).hexdigest()
    if digest != FORCED_DIGEST:
        failures.append(("digest", digest))
    report(
        11,
        "forced recursion covers with frozen constant bounds and fixed output",
        not failures,
        f"worst ratio {worst_ratio:.3f} <= {FORCED_RATIO_BOUND}, "
        f"radius factor <= {ENUM_RADIUS_FACTOR}, {len(failures)} failures",
    )
