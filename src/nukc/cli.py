"""Command-line interface.

Subcommands: generate, solve, validate, compare.  Exit codes: 0 success /
valid, 1 invalid solution, 2 usage, format or file error, 3 size-budget
refusal, 4 LP solver breakdown.
All timing lives under the solution "meta" key; everything else in the
output is deterministic for a fixed input, seed and BLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from pathlib import Path

from . import fileio, lp
from .bicriteria import enum_solve
from .gadgets import (
    hardness_gadget,
    random_euclidean,
    random_layered_tree,
    random_metric,
)
from .metric import gonzalez_kcenter
from .model import (
    InfeasibleInstanceError,
    NukcInstance,
    achieved_dilation,
    balls_in_budget_order,
    build_nukc_lp,
    compress_radii,
    lift_compressed_solution,
    relaxation_search,
    validate_solution,
)
from .oracle import SizeBudgetError, exact_nukc
from .solvers import charikar_kcwo_search, solve_guess_q, solve_kcwo, solve_two_radii

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4


class UsageError(Exception):
    pass


def _parse_classes(spec: str):
    out = []
    for part in spec.split(","):
        try:
            k, r = part.split(":")
            out.append((int(k), float(r)))
        except ValueError as exc:
            raise UsageError(f"bad class spec {part!r}; expected k:r") from exc
    return out


def cmd_generate(args) -> int:
    if args.kind in ("euclidean", "random-metric") and args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if args.kind == "euclidean" and args.dim < 1:
        raise UsageError(f"--dim must be at least 1, got {args.dim}")
    if args.kind == "euclidean":
        space, coords = random_euclidean(args.n, args.dim, args.seed)
        classes = _parse_classes(args.classes or "2:0.3,3:0.1")
        instance = NukcInstance(space, classes)
        fileio.dump(fileio.instance_to_obj(instance, coords=coords), args.out)
    elif args.kind == "random-metric":
        space = random_metric(args.n, args.seed)
        scale = space.diameter() or 1.0
        if args.classes:
            classes = _parse_classes(args.classes)
        else:
            classes = [(2, 0.3 * scale), (3, 0.1 * scale)]
        instance = NukcInstance(space, classes)
        fileio.dump(fileio.instance_to_obj(instance), args.out)
    elif args.kind == "layered-tree":
        tree = random_layered_tree(args.depth, args.branching, args.seed)
        fileio.dump(fileio.tree_to_obj(tree), args.out)
    elif args.kind == "hardness-gadget":
        tree = random_layered_tree(args.depth, args.branching, args.seed)
        instance = hardness_gadget(tree, args.c)
        fileio.dump(fileio.instance_to_obj(instance), args.out)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown kind {args.kind}")
    return EXIT_OK


def _exact(instance, q):
    dilation, sol = exact_nukc(instance)
    return sol, [], {"dilation": dilation}


def _kcenter(instance, q):
    centers, radius = gonzalez_kcenter(instance.space, instance.total_k)
    return balls_in_budget_order(instance, centers, radius), [], {}


def _kcwo(instance, search, algo):
    if instance.num_classes != 2 or instance.classes[1].radius != 0:
        raise UsageError(
            f"--algo {algo} needs exactly two classes with the second of radius 0"
        )
    res = search(instance.space, *instance.budgets)
    return res.to_solution(), res.outliers, {"radius": res.radius}


def _two_radii(instance, q):
    if instance.num_classes != 2:
        raise UsageError("--algo two-radii needs exactly two distinct radii")
    c1, c2 = instance.classes
    sol = solve_two_radii(
        instance.space, (c1.multiplicity, c1.radius), (c2.multiplicity, c2.radius)
    )
    return sol, [], {}


def _guess_q(instance, q):
    compressed = compress_radii(instance)
    floor, _ = relaxation_search(compressed.instance)
    gq = solve_guess_q(compressed.instance, q, floor=floor)
    sol = lift_compressed_solution(gq.solution, compressed, instance)
    return sol, [], {"tau": gq.tau, "compressed_dilation": gq.dilation}


def _bicriteria(instance, q):
    res = enum_solve(instance)
    return res.solution, [], {
        "lower_bound": res.alpha,
        "dilation_ratio": res.dilation_ratio,
        "fallback": res.used_fallback,
        "short_circuit": res.short_circuit,
    }


# Algorithm name -> runner(instance, q) returning (solution, outliers, meta
# extras).  The kcwo entries look their solver up when called, so a patched
# module attribute takes effect.
ALGOS = {
    "exact": _exact,
    "kcenter": _kcenter,
    "kcwo": lambda instance, q: _kcwo(instance, solve_kcwo, "kcwo"),
    "kcwo-greedy": lambda instance, q: _kcwo(instance, charikar_kcwo_search, "kcwo-greedy"),
    "two-radii": _two_radii,
    "guess-q": _guess_q,
    "bicriteria": _bicriteria,
}


def cmd_solve(args) -> int:
    if not (math.isfinite(args.dump_lp_dilation) and args.dump_lp_dilation >= 0):
        raise UsageError(f"--dump-lp-dilation must be a finite number >= 0, "
                         f"got {args.dump_lp_dilation}")
    instance = fileio.instance_from_obj(fileio.load(args.input))
    if args.dump_lp:
        cover = build_nukc_lp(instance, args.dump_lp_dilation)
        Path(args.dump_lp).write_text(lp.format_lp(cover) + "\n")
    started = time.perf_counter()
    solution, outliers, extras = ALGOS[args.algo](instance, args.q)
    elapsed = time.perf_counter() - started
    meta = {"algo": args.algo, "seconds": elapsed, **extras}
    dil = achieved_dilation(instance, solution)
    meta["achieved_dilation"] = dil if math.isfinite(dil) else None
    meta["class_counts"] = solution.class_counts(instance.num_classes)
    fileio.dump(fileio.solution_to_obj(solution, outliers=outliers, meta=meta), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = fileio.instance_from_obj(fileio.load(args.instance))
    solution, outliers = fileio.solution_from_obj(fileio.load(args.solution))
    # Without explicit factors only coverage is checked, so any solver's
    # output round-trips through validate cleanly.
    count_factor = args.count_factor if args.count_factor is not None else math.inf
    radius_factor = args.radius_factor if args.radius_factor is not None else math.inf
    report = validate_solution(
        instance,
        solution,
        count_factor=count_factor,
        radius_factor=radius_factor,
    )
    # Listed outliers are informational: every point must lie in a ball.
    for p in outliers:
        if not (0 <= p < instance.n):
            raise ValueError(f"outlier {p} is not a point id in [0, {instance.n})")
    print(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def _compare_rows(path: str, algos) -> list:
    """One CSV row per algorithm on the instance at `path`, each against
    the instance's fractional lower bound.  count_factor is max_t
    count_t / k_t: a ratio below 1 can come from opening more balls."""
    instance = fileio.instance_from_obj(fileio.load(path))
    try:
        lower, _ = relaxation_search(instance)
    except InfeasibleInstanceError:
        lower = None
    rows = []
    for algo in algos:
        started = time.perf_counter()
        row = {"instance": path, "algo": algo, "dilation": "", "lower_bound": "",
               "ratio": "", "count_factor": "", "note": ""}
        try:
            solution, _, _ = ALGOS[algo](instance, 1)
            dilation = achieved_dilation(instance, solution)
        except (SizeBudgetError, UsageError, ValueError) as exc:
            row["note"] = str(exc)
        else:
            row["dilation"] = f"{dilation:.6f}"
            row["lower_bound"] = "" if lower is None else f"{lower:.6f}"
            if lower:
                row["ratio"] = f"{dilation / lower:.6f}"
            elif lower == 0.0 and dilation == 0.0:
                row["ratio"] = "1.000000"
            counts = zip(solution.class_counts(instance.num_classes), instance.budgets)
            row["count_factor"] = f"{max(c / k for c, k in counts):.6f}"
        row["seconds"] = f"{time.perf_counter() - started:.6f}"
        rows.append(row)
    return rows


def cmd_compare(args) -> int:
    paths = sorted(str(p) for p in Path(args.instances).glob("*.json"))
    if not paths:
        raise UsageError(f"no .json instances under {args.instances}")
    algos = [a.strip() for a in args.algos.split(",")]
    for a in algos:
        if a not in ALGOS:
            raise UsageError(f"unknown algorithm {a}")
    fields = ["instance", "algo", "dilation", "lower_bound", "ratio", "count_factor",
              "seconds", "note"]
    # A path the locale decoded with surrogate escapes goes back out as its bytes.
    with open(args.out, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for path in paths:
            writer.writerows(_compare_rows(path, algos))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it
    unchanged, and `--algo`'s choices are the `ALGOS` dict itself."""
    parser = argparse.ArgumentParser(
        prog="nukc", description="Non-uniform ball cover solvers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance or tree")
    g.add_argument("--kind", required=True,
                   choices=("euclidean", "random-metric", "layered-tree", "hardness-gadget"))
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--depth", type=int, default=2)
    g.add_argument("--branching", type=int, default=3)
    g.add_argument("--c", type=float, default=1.0)
    g.add_argument("--classes", help="override radius classes, e.g. 2:0.3,3:0.1")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("--input", required=True)
    s.add_argument("--algo", required=True, choices=ALGOS)
    s.add_argument("--out", required=True)
    s.add_argument("--q", type=int, default=1, help="iteration depth for --algo guess-q")
    s.add_argument("--dump-lp", help="also write the relaxation in LP text format")
    s.add_argument("--dump-lp-dilation", type=float, default=1.0)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("validate", help="check a solution file against an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--solution", required=True)
    v.add_argument("--count-factor", type=float, default=None)
    v.add_argument("--radius-factor", type=float, default=None)
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("compare", help="run algorithms over a directory of instances")
    c.add_argument("--instances", required=True, help="directory of instance .json files")
    c.add_argument("--algos", required=True, help="comma-separated algorithm list")
    c.add_argument("--out", required=True, help="CSV report path")
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SizeBudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except lp.LpSolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (UsageError, fileio.FormatError, InfeasibleInstanceError, ValueError,
            OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
