"""Finite metric spaces given by explicit distance matrices.

The package has one coverage rule, and it lives here: a point q belongs to
the ball of radius r around c when d(c, q) <= r + COVER_TOL (`within`).
Every ball-membership test elsewhere goes through `within` or `covered`.

A distance matrix is certified by numpy alone, on at most two threads, so
loading an instance never imports scipy.
"""

from __future__ import annotations

import os
import threading

import numpy as np

COVER_TOL = 1e-9
METRIC_TOL = 1e-9


def within(dist, radius):
    """The coverage rule, inclusive and elementwise (numpy broadcasting):
    dist <= radius + COVER_TOL."""
    return dist <= radius + COVER_TOL


def covered(dist, centers, radii) -> np.ndarray:
    """(n,) mask of the points within radii[i] of centers[i] for some i,
    given the (n, n) distance matrix; `radii` may be one radius for all."""
    rows = dist[np.asarray(centers, dtype=int)]
    return within(rows, np.reshape(radii, (-1, 1))).any(axis=0)


class MetricError(ValueError):
    """Raised when a distance matrix fails the metric axioms."""

    def __init__(self, violations):
        self.violations = violations
        preview = "; ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"not a metric: {preview}{more}")


def _worst_slack(dist: np.ndarray, dist_t: np.ndarray, half: bool) -> np.ndarray:
    """Each row's worst one-step triangle slack, peaks[i] the max over j, k
    of fl(d[i,j] - fl(d[i,k] + d[k,j])), for finite d with n >= 1.  Row i
    takes one sum against the rows of `dist_t`, the contiguous transpose,
    and one min over k.  With `half` (d == d.T exactly) the slack is
    symmetric in i and j, so only j <= i is scanned, and row i's peak
    covers the pairs (i, j) and (j, i) for j <= i.  Rows are interleaved
    over min(2, cpu count) threads, the caller's and plain threads, which
    call only numpy (it releases the GIL) and write into buffers allocated
    here.  A row no worker reaches keeps NaN, which fails the certificate."""
    n = dist.shape[0]
    workers = min(2, os.cpu_count() or 1)
    sums = np.empty((workers, n, n))
    peaks = np.full(n, np.nan)

    def scan(w):
        # errstate is per thread.  Near-max entries can sum to inf, and an
        # infinite right-hand side satisfies the inequality.
        with np.errstate(over="ignore"):
            for i in range(w, n, workers):
                m = i + 1 if half else n
                row = np.add(dist[i], dist_t[:m], out=sums[w, :m])
                peaks[i] = (dist[i, :m] - row.min(axis=1)).max()

    helpers = [threading.Thread(target=scan, args=(w,)) for w in range(1, workers)]
    for helper in helpers:
        helper.start()
    scan(0)
    for helper in helpers:
        helper.join()
    return peaks


def validate_metric(dist: np.ndarray) -> list:
    """Check finiteness, symmetry, zero diagonal, non-negativity and the
    triangle inequality, each within METRIC_TOL.  Returns a list of
    violation tuples, empty when the matrix is a metric.  A matrix with NaN
    or inf entries gets only its ("nonfinite", i, j) violations.

    The triangle inequality is certified by the worst one-step slack, the
    max of `_worst_slack`'s row peaks.  Rounding is monotone, so
    fl(d[i,j] - min_k s_k) is max_k fl(d[i,j] - s_k): a row's peak exceeds
    METRIC_TOL exactly when a per-k scan finds a violation in that row.
    Only when the certificate fails does one full scan (every j) flag the
    rows whose peak is not within METRIC_TOL, and each flagged row lists
    its triangle violations; the list is in (k, i, j) order.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {dist.shape}")
    n = dist.shape[0]
    finite = np.isfinite(dist)
    if not finite.all():
        # NaN and inf make the other axioms meaningless (inf - inf is NaN).
        return [("nonfinite", int(i), int(j)) for i, j in np.argwhere(~finite)]
    diag = np.diagonal(dist)
    violations = [
        ("diagonal", int(i), float(diag[i])) for i in np.flatnonzero(np.abs(diag) > METRIC_TOL)
    ]
    dist_t = np.ascontiguousarray(dist.T)
    asym = np.abs(dist - dist_t) > METRIC_TOL
    if asym.any():
        violations += [("asymmetry", int(i), int(j)) for i, j in np.argwhere(asym) if i < j]
    neg = dist < -METRIC_TOL
    if neg.any():
        violations += [("negative", int(i), int(j)) for i, j in np.argwhere(neg)]
    half = bool((dist == dist_t).all())
    if not n or (peaks := _worst_slack(dist, dist_t, half)).max() <= METRIC_TOL:
        return violations
    if half:  # a half scan's row i holds only j <= i
        peaks = _worst_slack(dist, dist_t, False)
    # d[i, j] <= d[i, k] + d[k, j] for all i, j, k; row i's slack is (k, j).
    triples = []
    for i in np.flatnonzero(~(peaks <= METRIC_TOL)):
        with np.errstate(over="ignore"):
            slack = dist[i] - (dist[i][:, None] + dist)
        triples += [(int(k), int(i), int(j)) for k, j in np.argwhere(slack > METRIC_TOL)]
    return violations + [("triangle", i, j, k) for k, i, j in sorted(triples)]


class MetricSpace:
    """A finite metric space on points 0..n-1."""

    def __init__(self, dist, labels=None, check: bool = True):
        self.dist = np.array(dist, dtype=float)
        if self.dist.ndim != 2 or self.dist.shape[0] != self.dist.shape[1]:
            raise ValueError(
                f"distance matrix must be square, got shape {self.dist.shape}"
            )
        if check:
            violations = validate_metric(self.dist)
            if violations:
                raise MetricError(violations)
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.dist.shape[0]:
            raise ValueError("labels length must match matrix size")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    @classmethod
    def from_coords(cls, coords) -> "MetricSpace":
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError("coords must be a 2-d array")
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        # Euclidean matrices are metrics by construction; symmetrize away
        # floating noise instead of re-validating.
        dist = (dist + dist.T) / 2.0
        np.fill_diagonal(dist, 0.0)
        return cls(dist, check=False)


def gonzalez_kcenter(space: MetricSpace, k: int):
    """Farthest-first traversal.  Returns (centers, radius) with
    |centers| <= k and radius = max_p min_c d(p, c).  Ties in the farthest
    choice go to the lowest point id.  The radius is at most twice the
    optimal k-center radius.
    """
    n = space.n
    if k <= 0:
        raise ValueError(f"gonzalez_kcenter requires k >= 1, got k={k} with n={n}")
    centers = [0]
    mind = space.dist[0].copy()
    while len(centers) < k:
        far = int(np.argmax(mind))  # argmax returns the lowest index on ties
        if within(mind[far], 0.0):
            break
        centers.append(far)
        mind = np.minimum(mind, space.dist[far])
    return centers, float(mind.max())
