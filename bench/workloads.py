"""The benchmark's workloads: how each builds its corpus of cases.

A case is one instance file and one `nukc solve --algo` run on it; the
benchmark validates every solution it solves.  Instances come from
`nukc generate`.  A corpus starts with `golden` cases from consecutive
instance seeds starting at GOLDEN_SEED, the same in every run, so the
quality metrics compare across commits whatever the workload seed; the
`seeded` cases that follow come from consecutive seeds starting at the
workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nukc import cli
from nukc.gadgets import random_instance
from nukc.model import compress_radii


@dataclass
class Case:
    instance: str
    algo: str
    classes: list  # [(k, r)], radius-descending, as the instance file gives them
    dist: np.ndarray  # distance matrix the output check measures with


GOLDEN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, count, out_dir) -> list of (instance path, algo)
    golden: int  # cases from GOLDEN_SEED
    seeded: int  # cases from the workload seed
    tail_pct: float  # solve_tail_s percentile


def generate(argv) -> None:
    rc = cli.main(["generate", *map(str, argv)])
    if rc != 0:
        raise RuntimeError(f"nukc generate {argv} exited {rc}")


def _enum_small(seed, count, out):
    """Criterion-9-shaped instances (n = 12, up to three classes, at most
    three classes after compression), restricted to shapes whose guess-q
    enumeration tries at most n placements: the compressed top class holds
    one ball, or is the only class."""
    cases, s = [], seed
    while len(cases) < count:
        inst = random_instance(12, seed=s, max_classes=3)
        comp = compress_radii(inst).instance
        if comp.num_classes <= 3 and (comp.num_classes == 1 or comp.classes[0].multiplicity == 1):
            spec = ",".join(f"{c.multiplicity}:{c.radius!r}" for c in inst.classes)
            path = out / f"enum-{s}.json"
            generate(["--kind", "euclidean", "--n", 12, "--seed", s, "--classes", spec, "--out", path])
            cases.append((path, "bicriteria"))
        s += 1
    return cases


DENSE_OPS = (
    ("two-radii", "2:0.4,4:0.1"),  # r1/r2 = 4 >= golden ratio: the LP branch runs
    ("kcwo", "3:0.1,2:0"),
    ("bicriteria", "2:0.3,6:0.1,10:0.03"),  # total k = 18 > SHORT_CIRCUIT_K: full recursion
)


def _dense_mid(seed, count, out):
    cases, s = [], seed
    while len(cases) < count:
        for algo, spec in DENSE_OPS:
            path = out / f"dense-{s}-{algo}.json"
            generate(["--kind", "euclidean", "--n", 40, "--seed", s, "--classes", spec, "--out", path])
            cases.append((path, algo))
        s += 1
    return cases[:count]


def _matrix_io(seed, count, out):
    cases, s = [], seed
    while len(cases) < count:
        path = out / f"matrix-{s}.json"
        generate(["--kind", "random-metric", "--n", 400, "--seed", s, "--classes", "4:1.0,2:0", "--out", path])
        cases += [(path, "kcenter"), (path, "kcwo-greedy")]
        s += 1
    return cases[:count]


# Sizes: on the reference machine one pass over a corpus takes 20-25 s, so a
# 30 s run solves every case once and some twice.  tail_pct leaves at least
# ten of a run's solve calls beyond it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("enum-small", _enum_small, golden=80, seeded=320, tail_pct=97.0),
        Workload("dense-mid", _dense_mid, golden=15, seeded=45, tail_pct=85.0),
        Workload("matrix-io", _matrix_io, golden=2, seeded=4, tail_pct=55.0),
    )
}


def build_corpus(workload: Workload, seed: int, out: Path, sizes=None) -> list:
    """Generate the instance files; returns (path, algo) pairs, golden first."""
    golden, seeded = sizes or (workload.golden, workload.seeded)
    pairs = []
    for part, start, count in (("golden", GOLDEN_SEED, golden), ("seeded", seed, seeded)):
        (out / part).mkdir(parents=True, exist_ok=True)
        pairs += workload.build(start, count, out / part)
    return pairs


def load_cases(pairs) -> list:
    """Read back each instance for the output check (not timed)."""
    cache, cases = {}, []
    for path, algo in pairs:
        if path not in cache:
            with open(path) as fh:
                doc = json.load(fh)
            points = doc["points"]
            if "coords" in points:
                xy = np.asarray(points["coords"], dtype=float)
                dist = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
                dist = (dist + dist.T) / 2.0
                np.fill_diagonal(dist, 0.0)
            else:
                dist = np.asarray(points["matrix"], dtype=float)
            classes = [(int(c["k"]), float(c["r"])) for c in doc["classes"]]
            cache[path] = (classes, dist)
        classes, dist = cache[path]
        cases.append(Case(str(path), algo, classes, dist))
    return cases
