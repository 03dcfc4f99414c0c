"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with its
unit; that span self times account for the traced wall time; that failing
operations are counted without ending the run; and that counts, quality
metrics and the output digest repeat exactly for the same seed.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from spans import SELF_TIME  # noqa: E402
from workloads import load_cases  # noqa: E402

TINY = {"enum-small": (2, 2), "dense-mid": (3, 0), "matrix-io": (2, 0)}  # golden, seeded cases
DETERMINISTIC = ("dilation_mean", "ratio_max", "count_factor_max")
failures = []


def check(cond, message):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def tiny_run(workload, trace, seed=0, extra=()):
    return harness.run(workload, seed, 0.0, trace, root=ROOT, sizes=TINY[workload], extra=extra)


def expected(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_metrics_and_accounting():
    for workload in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            details, result = tiny_run(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected(section), f"{workload} trace={trace}: every {section} metric with its unit")
            check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: all outputs pass")
            if trace:
                m = result["metrics"]
                layer_sum = sum(m[k]["value"] for k in (*SELF_TIME, "cli.self_s", "other.self_s"))
                wall = details["traced_wall_s"]
                residual = wall - layer_sum
                print(f"     {workload}: traced wall {wall:.4f} s, layer self times {layer_sum:.4f} s, "
                      f"residual {residual:.5f} s ({residual / wall:.2%})")
                check(0 <= residual < 0.05 * wall, f"{workload}: layer self times account for the traced wall")


def test_failures_are_counted():
    bad = ROOT / ".bench_run" / "not-a-metric.json"
    bad.parent.mkdir(exist_ok=True)
    # Valid JSON, but the matrix breaks the triangle inequality: exit 2.
    bad.write_text(json.dumps({
        "points": {"matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
        "classes": [{"k": 1, "r": 1.0}],
    }))
    try:
        details, result = tiny_run("enum-small", 0, extra=[(bad, "kcenter")])
    finally:
        bad.unlink()
    check(result["failed"] == 1 and details["exit_codes"].get("2") == 1,
          "the malformed instance is one failed op with exit 2")
    check(result["metrics"]["ok_frac"]["value"] < 1.0, "ok_frac drops below 1")
    check(result["attempted"] == 2 * sum(TINY["enum-small"]) + 1, "the run went on after the failure")

    def breaks(argv):
        raise RuntimeError("row 100 violated after solve")

    tiny = ROOT / ".bench_run" / "two-points.json"
    tiny.write_text(json.dumps({
        "points": {"coords": [[0.0, 0.0], [1.0, 0.0]]},
        "classes": [{"k": 1, "r": 1.0}],
    }))
    try:
        runner = harness.Runner(tiny.parent)
        runner.run_case(breaks, 0, load_cases([(tiny, "kcenter")])[0])
    finally:
        tiny.unlink()
    check(runner.ops[0]["exc"].startswith("RuntimeError") and not runner.ops[0]["ok"],
          "an exception escaping cli.main is recorded, not raised")


def test_same_seed_repeats():
    runs = [tiny_run("enum-small", trace) for trace in (0, 0, 1, 1)]
    (d0, r0), (d1, r1), (_, t0), (_, t1) = runs
    check(d0["digest"] == d1["digest"], "output digest repeats")
    for k in DETERMINISTIC:
        check(r0["metrics"][k] == r1["metrics"][k], f"{k} repeats")
    for k in ("lp.solves", "bicriteria.nodes", "model.search_probes"):
        check(t0["metrics"][k] == t1["metrics"][k], f"{k} repeats")


if __name__ == "__main__":
    test_metrics_and_accounting()
    test_failures_are_counted()
    test_same_seed_repeats()
    with contextlib.suppress(OSError):
        (ROOT / ".bench_run").rmdir()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
