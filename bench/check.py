"""Output checks and digests, run outside the timed spans."""

from __future__ import annotations

import hashlib
import json

import numpy as np

COVER_SLACK = 1e-9
OUTLIER_ALGOS = ("kcwo", "kcwo-greedy")


def check_solution(case, doc) -> list:
    """Problems with one solution document; empty when it passes.

    Every point lies within radius_used + 1e-9 of a ball center or is a
    listed outlier; kcwo algorithms list at most l outliers; algorithms other
    than bicriteria open at most k_t balls of class t.
    """
    n = case.dist.shape[0]
    h = len(case.classes)
    problems = []
    covered = np.zeros(n, dtype=bool)
    counts = [0] * h
    for b in doc["balls"]:
        c, t = b["center"], b["class"]
        if not (isinstance(c, int) and 0 <= c < n and isinstance(t, int) and 0 <= t < h):
            problems.append(f"ball {b} names an unknown point or class")
            continue
        counts[t] += 1
        covered |= case.dist[c] <= b["radius"] + COVER_SLACK
    outliers = doc["outliers"]
    if any(not (isinstance(p, int) and 0 <= p < n) for p in outliers):
        problems.append(f"outliers {outliers} name unknown points")
    else:
        covered[outliers] = True
    if not covered.all():
        problems.append(f"uncovered points {np.nonzero(~covered)[0].tolist()[:10]}")
    if case.algo in OUTLIER_ALGOS and len(outliers) > case.classes[1][0]:
        problems.append(f"{len(outliers)} outliers > l = {case.classes[1][0]}")
    if case.algo != "bicriteria":
        over = [(t, counts[t], k) for t, (k, _) in enumerate(case.classes) if counts[t] > k]
        if over:
            problems.append(f"class counts over budget (class, count, k): {over}")
    return problems


def count_factor(case, doc) -> float:
    """max over classes of count_t / k_t."""
    counts = [0] * len(case.classes)
    for b in doc["balls"]:
        counts[b["class"]] += 1
    return max(c / k for c, (k, _) in zip(counts, case.classes))


def digest(doc) -> str:
    """sha256 of the solution document without its "meta" key."""
    body = {k: v for k, v in doc.items() if k != "meta"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
