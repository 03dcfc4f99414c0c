"""nukc benchmark: one workload, one caller, closed loop, in-process CLI.

    python3 bench/run.py --workload enum-small --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; nukc is imported from the checkout's
`src/`.  Each case calls `nukc.cli.main(["solve", ...])` and then
`nukc.cli.main(["validate", ...])` on the solution, as a user's command line
would, without interpreter start-up.  Every solution is checked outside the
timed calls.

--trace 0 cycles over the workload's corpus for --seconds seconds (and at
least one pass) and prints the end-to-end metrics.  --trace 1 runs each case
once untraced and once with spans around the nukc functions, and prints the
per-layer metrics.

The last stdout line is the result JSON; the line before it holds details.
Exit 0 when every output check passed, 1 when one failed, 2 on a usage or
set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_REPEATS = 3


def fresh_import_s() -> float:
    """Wall time of `import nukc.cli` (numpy, scipy and every nukc module) in a
    new interpreter, start-up included: what each `nukc` command pays first."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nukc.cli"], check=True, env=os.environ)
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nukc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nukc" / "__init__.py").is_file():
        print(f"bench: no nukc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One caller, single-threaded: keep BLAS from starting worker threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    import_s = statistics.median(fresh_import_s() for _ in range(IMPORT_REPEATS))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    details, result = harness.run(
        args.workload, args.seed, args.seconds, args.trace, root=ROOT, import_s=import_s)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
