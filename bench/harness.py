"""One benchmark run: set-up, closed loop over cases, checks, metrics.

On a shared host, identical work runs up to 1.8x slower while neighbours
keep the sibling hardware threads busy, in stretches from seconds to
minutes: raw run-to-run spreads reached 0.17-0.44 of the median over ten
30 s runs.  So a run times a fixed reference computation after every case
(and around set-up), and reports its time metrics in seconds at reference
speed: wall time x REF_NOMINAL_S / (median reference time of the phase).
Over five minutes of interleaved timing on the 2-core reference machine,
this cut the spread of log(time) of solve and validate calls by 3-4x
(0.20-0.24 to 0.05-0.08).  The raw wall-clock figures are in the details.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import argparse

import numpy as np

import nukc.cli as cli

from check import check_solution, count_factor, digest
from spans import Tracer
from workloads import WORKLOADS, build_corpus, load_cases

SETUP_PASSES = 3

# Seconds: about the median reference() time on the reference machine.
REF_NOMINAL_S = 3.0e-3

_rng = np.random.RandomState(0)
_SQ = _rng.rand(60, 60)
_TRI = _rng.rand(100, 100) + _rng.rand(100, 100).T
_LP = (_rng.rand(12, 24) < 0.3).astype(float)
_LP[:, 0] = 1.0
_LP_A = np.hstack([_LP, -np.eye(12)])
_LP_COST = np.concatenate([np.ones(24), np.zeros(12)])


def reference() -> float:
    """Seconds taken by fixed work shaped like nukc's, about 3 ms: building
    and running an argument parser, broadcast comparisons over a matrix,
    dense simplex pivots driven from a Python loop, and a triangle scan.
    Chosen as the mix whose time tracked nukc's solve and validate calls
    best across the host's slow and fast stretches."""
    start = time.perf_counter()
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for c in range(3):
        cmd = sub.add_parser(f"c{c}")
        for a in range(6):
            cmd.add_argument(f"--a{a}", type=int, default=0, help="an option")
    parser.parse_args(["c1", "--a2", "3"])
    for k in range(30):
        int((_SQ - (_SQ[:, k : k + 1] + _SQ[k : k + 1, :]) > 0.5).sum())
    m, cols = _LP_A.shape
    basis = list(range(m))
    for _ in range(15):
        b = _LP_A[:, basis] + 1e-3 * np.eye(m)
        reduced = _LP_COST - np.linalg.solve(b.T, _LP_COST[basis]) @ _LP_A
        entering = next((j for j in range(cols) if j not in basis and reduced[j] < -1e-10), -1)
        if entering < 0:
            break
        basis[int(np.argmax(np.linalg.solve(b, _LP_A[:, entering])))] = entering
    for k in range(9):
        np.argwhere(_TRI - (_TRI[:, k : k + 1] + _TRI[k : k + 1, :]) > 5.0)
    return time.perf_counter() - start


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class Runner:
    """Runs cases through a CLI entry point and records every operation."""

    def __init__(self, work: Path):
        self.work = work
        self.ops = []  # dicts: kind, case, rc, exc, wall, ok
        self.problems = []  # (case index, message)
        self.first = {}  # case index -> (digest, solution document)
        self.first_mismatch = None

    @staticmethod
    def _call(main, argv):
        out = io.StringIO()
        exc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        except Exception as e:  # a solver breakdown is recorded, never ends the run
            rc, exc = None, f"{type(e).__name__}: {e}"[:200]
        return rc, exc, time.perf_counter() - start, out.getvalue().strip()

    def _record(self, kind, index, rc, exc, wall, problems) -> bool:
        self.problems += [(index, p) for p in problems]
        ok = rc == 0 and exc is None and not problems
        self.ops.append({"kind": kind, "case": index, "rc": rc, "exc": exc, "wall": wall, "ok": ok})
        return ok

    def _check(self, index, case, path) -> list:
        try:
            with open(path) as fh:
                doc = json.load(fh)
            problems = check_solution(case, doc)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return [f"unreadable solution: {type(e).__name__}: {e}"]
        if problems:
            return problems
        d = digest(doc)
        first = self.first.setdefault(index, (d, doc))
        if first[0] != d:
            if self.first_mismatch is None:
                self.first_mismatch = index
            return ["solution differs from the first run of this case"]
        return []

    def run_case(self, main, index, case) -> float:
        """Solve, check, validate.  Returns the wall time spent inside main."""
        sol = self.work / f"sol-{index}.json"
        sol.unlink(missing_ok=True)
        argv = ["solve", "--input", case.instance, "--algo", case.algo, "--out", str(sol)]
        rc, exc, wall, _ = self._call(main, argv)
        problems = self._check(index, case, sol) if (rc, exc) == (0, None) else []
        if not self._record("solve", index, rc, exc, wall, problems):
            return wall
        argv = ["validate", "--instance", case.instance, "--solution", str(sol)]
        rc, exc, vwall, out = self._call(main, argv)
        problems = [f"validate printed {out!r}"] if rc in (0, 1) and out != "valid" else []
        self._record("validate", index, rc, exc, vwall, problems)
        return wall + vwall


def quality_metrics(cases, runner, count) -> dict:
    """Deterministic solution quality over the first `count` (golden) cases."""
    docs = [(cases[i], runner.first[i][1]) for i in range(count) if i in runner.first]
    dil = [d["meta"]["achieved_dilation"] for _, d in docs if d["meta"]["achieved_dilation"] is not None]
    ratios = [d["meta"]["dilation_ratio"] for c, d in docs if c.algo == "bicriteria"]
    return {
        "dilation_mean": statistics.fmean(dil) if dil else 0.0,
        # A workload without bicriteria solves reads 1.0, never 0.
        "ratio_max": max(ratios) if ratios else 1.0,
        "count_factor_max": max((count_factor(c, d) for c, d in docs), default=0.0),
    }


def combined_digest(runner, count) -> str:
    h = hashlib.sha256()
    for i in range(count):
        h.update((runner.first[i][0] if i in runner.first else "missing").encode())
    return h.hexdigest()


def run(workload, seed, seconds, trace, *, root: Path, import_s=0.0, sizes=None, extra=()):
    """One run of `workload`; returns (details, result).

    trace=0 cycles over the corpus until `seconds` have passed and every case
    ran at least once.  trace=1 runs each case once untraced and once with
    spans.  `sizes` = (golden, seeded) overrides the corpus size and `extra`
    appends (instance path, algo) cases; the self-test uses them.
    """
    wl = WORKLOADS[workload]
    golden = (sizes or (wl.golden, wl.seeded))[0]
    work = root / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_refs = [reference() for _ in range(10)]
        gen_s = []
        for p in range(SETUP_PASSES):
            t0 = time.perf_counter()
            pairs = build_corpus(wl, seed, work / f"setup-{p}", sizes)
            gen_s.append(time.perf_counter() - t0)
            setup_refs += [reference() for _ in range(10)]
        cases = load_cases([*pairs, *extra])
        runner = Runner(work)
        tracer = Tracer(cli.main) if trace else None
        walls = Counter()
        refs = [reference()]
        t0 = time.perf_counter()
        if tracer is not None:
            for idx, case in enumerate(cases):
                # Alternate which run goes first, so neither always finds warm caches.
                order = ("untraced", "traced") if idx % 2 == 0 else ("traced", "untraced")
                for mode in order:
                    if mode == "untraced":
                        walls[mode] += runner.run_case(cli.main, idx, case)
                        continue
                    tracer.op = idx
                    with tracer.installed():
                        walls[mode] += runner.run_case(tracer.root, idx, case)
        else:
            deadline = t0 + seconds
            i = 0
            while i < len(cases) or time.perf_counter() < deadline:
                walls["untraced"] += runner.run_case(cli.main, i % len(cases), cases[i % len(cases)])
                refs.append(reference())
                i += 1
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_run").rmdir()

    ops = runner.ops
    failed = sum(not o["ok"] for o in ops)
    completed = sum(o["rc"] == 0 and o["exc"] is None for o in ops)
    solves = [o["wall"] for o in ops if o["kind"] == "solve"]
    validates = [o["wall"] for o in ops if o["kind"] == "validate"]
    tail = percentile(solves, wl.tail_pct) if solves else 0.0
    details = {
        "workload": workload,
        "seed": seed,
        "elapsed_s": elapsed,
        "import_s": import_s,
        "generate_s": gen_s,
        "reference_setup_s": statistics.median(setup_refs),
        "reference_loop_s": statistics.median(refs),
        "raw_setup_s": import_s + statistics.median(gen_s),
        "raw_ops_per_s": completed / walls["untraced"] if walls["untraced"] else 0.0,
        "raw_solve_p50_s": statistics.median(solves) if solves else 0.0,
        "raw_solve_tail_s": tail,
        "raw_validate_p50_s": statistics.median(validates) if validates else 0.0,
        "cases": len(cases),
        "ops": len(ops),
        "failed_frac": failed / len(ops) if ops else 1.0,
        "exit_codes": dict(Counter(str(o["rc"]) for o in ops)),
        "exceptions": dict(Counter(o["exc"] for o in ops if o["exc"])),
        "problems": runner.problems[:20],
        "solves": len(solves),
        "validates": len(validates),
        "tail_pct": wl.tail_pct,
        "tail_beyond": sum(s > tail for s in solves),
        "outputs": len(runner.first),
        "digest": combined_digest(runner, len(cases)),
        "first_mismatch": runner.first_mismatch,
    }
    if tracer is not None:
        overhead = walls["traced"] / walls["untraced"] - 1.0 if walls["untraced"] else 0.0
        metrics = tracer.layer_metrics(overhead)
        self_sum = sum(tracer.self_times().values())
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload}-seed{seed}.tsv"
        tracer.write(span_file)
        details.update({
            "spans": len(tracer.spans),
            "span_file": str(span_file.relative_to(root)),
            "traced_wall_s": walls["traced"],
            "self_time_sum_s": self_sum,
            "residual_s": walls["traced"] - self_sum,
            "hook_errors": dict(tracer.hook_errors),
        })
    else:
        q = quality_metrics(cases, runner, min(golden, len(cases)))
        at_ref = REF_NOMINAL_S / statistics.median(refs)  # wall s -> s at reference speed
        values = {
            "setup_s": (details["raw_setup_s"] * REF_NOMINAL_S / statistics.median(setup_refs), "s"),
            "ops_per_s": (details["raw_ops_per_s"] / at_ref, "1/s"),
            "solve_p50_s": (details["raw_solve_p50_s"] * at_ref, "s"),
            "solve_tail_s": (tail * at_ref, "s"),
            "validate_p50_s": (details["raw_validate_p50_s"] * at_ref, "s"),
            "ok_frac": (1.0 - details["failed_frac"], "ratio"),
            "dilation_mean": (q["dilation_mean"], "ratio"),
            "ratio_max": (q["ratio_max"], "ratio"),
            "count_factor_max": (q["count_factor_max"], "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    result = {
        "correct": not runner.problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return details, result
