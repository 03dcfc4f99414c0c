import itertools
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ball
from nukc import metric
from nukc.gadgets import random_metric
from nukc.metric import (
    COVER_TOL,
    MetricError,
    MetricSpace,
    covered,
    gonzalez_kcenter,
    validate_metric,
    within,
)


def per_k_scan(dist, tol=1e-9):
    """The reference check: every axiom, and the triangle inequality by the
    full O(n^3) scan over k, listing violations in (k, i, j) order."""
    n = dist.shape[0]
    violations = []
    for i in range(n):
        if abs(dist[i, i]) > tol:
            violations.append(("diagonal", i, dist[i, i]))
    for i, j in np.argwhere(np.abs(dist - dist.T) > tol):
        if i < j:
            violations.append(("asymmetry", int(i), int(j)))
    for i, j in np.argwhere(dist < -tol):
        violations.append(("negative", int(i), int(j)))
    for k in range(n):
        slack = dist - (dist[:, k : k + 1] + dist[k : k + 1, :])
        for i, j in np.argwhere(slack > tol):
            violations.append(("triangle", int(i), int(j), int(k)))
    return violations


class TestValidateMetric:
    def test_valid_matrix_has_no_violations(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        assert validate_metric(d) == []

    def test_nonzero_diagonal(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        kinds = {v[0] for v in validate_metric(d)}
        assert "diagonal" in kinds

    def test_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        kinds = {v[0] for v in validate_metric(d)}
        assert "asymmetry" in kinds

    def test_negative_entry(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        kinds = {v[0] for v in validate_metric(d)}
        assert "negative" in kinds

    def test_triangle_violation(self):
        # d(0,2) = 10 > d(0,1) + d(1,2) = 2.
        d = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        assert ("triangle", 0, 2, 1) in validate_metric(d)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            validate_metric(np.zeros((2, 3)))

    def test_constructor_rejects_bad_metric(self):
        with pytest.raises(MetricError):
            MetricSpace([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_reported(self, bad):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        d[0, 2] = d[2, 0] = bad
        assert validate_metric(d) == [("nonfinite", 0, 2), ("nonfinite", 2, 0)]

    def test_near_max_entries_list_violations_without_warning(self):
        # d[0, 0] + d[0, j] overflows to inf, which satisfies the triangle
        # inequality; the scan must not warn (pytest fails on a warning).
        d = np.array([[1e308, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        violations = validate_metric(d)
        assert violations == [("diagonal", 0, 1e308), ("triangle", 0, 0, 1), ("triangle", 0, 0, 2)]
        assert type(violations[0][2]) is float
        assert "np.float64" not in str(MetricError(violations))

    def test_zero_distance_edges_are_kept(self):
        # Points 0 and 1 coincide, so d(1,2) = 5 > d(1,0) + d(0,2) = 1: a
        # zero entry is a distance like any other, and the triangles through
        # it are checked.
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
        assert validate_metric(d) == [("triangle", 1, 2, 0), ("triangle", 2, 1, 0)]

    def test_tiny_negative_entries_do_not_raise(self):
        # Entries in (-tol, 0) pass the negativity check, and the triangle
        # check takes them as they are: no error, and a violation elsewhere
        # is still listed.
        d = np.array([[0.0, -5e-10, 1.0], [-5e-10, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert validate_metric(d) == []
        d[0, 2] = d[2, 0] = 3.0
        assert validate_metric(d) == per_k_scan(d)
        assert ("triangle", 0, 2, 1) in validate_metric(d)

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8),
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.sampled_from([1e-10, -1e-10, 2e-9, -2e-9, -5e-10]),
                st.booleans(),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_k_scan(self, pts, nudges):
        # Grid points give duplicate points and exact ties; the nudges sit
        # just inside and just outside the tolerance.
        pts = np.array(pts, dtype=float)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        n = len(pts)
        for i, j, eps, symmetric in nudges:
            i, j = i % n, j % n
            d[i, j] += eps
            if symmetric or eps == -5e-10:
                d[j, i] = d[i, j]
        assert validate_metric(d) == per_k_scan(d)


def reference(dist):
    """per_k_scan with overflow to inf allowed, as validate_metric allows it."""
    with np.errstate(over="ignore"):
        return per_k_scan(dist)


def line_with_planted_slack(below: bool):
    """|i - j| on 30 points, off by 1.5e-9 at (20, 5) and 0.6e-9 at (5, 20):
    symmetric within tolerance, and the triangles at (20, 5) fail.  With
    `below` False the matrix is transposed, so they fail at (5, 20)."""
    pos = np.arange(30.0)
    d = np.abs(pos[:, None] - pos[None, :])
    d[20, 5] += 1.5e-9
    d[5, 20] += 0.6e-9
    return d if below else d.T.copy()


class TestTriangleCertificate:
    """validate_metric certifies the triangle inequality by the worst
    one-step slack, scanned on worker threads; its answer is per_k_scan's."""

    def test_near_max_entries_reach_the_scan_without_warning(self):
        # Points 3 and 4 are 1e308 from everyone: every other axiom holds,
        # sums through them overflow to inf, and the planted d(0, 2) = 10 >
        # d(0, 1) + d(1, 2) is still found.
        d = np.full((5, 5), 1e308)
        d[:3, :3] = [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
        np.fill_diagonal(d, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = validate_metric(d)
            d[0, 2] = d[2, 0] = 2.0
            assert validate_metric(d) == reference(d) == []
        d[0, 2] = d[2, 0] = 10.0
        assert got == reference(d) == [("triangle", 0, 2, 1), ("triangle", 2, 0, 1)]

    @pytest.mark.parametrize("below", [True, False], ids=["below", "above"])
    def test_asymmetry_within_tolerance_scans_every_pair(self, below):
        d = line_with_planted_slack(below)
        got = validate_metric(d)
        assert got == reference(d)
        assert got and {v[0] for v in got} == {"triangle"}
        assert all((v[1] > v[2]) == below for v in got)

    @pytest.mark.parametrize("d", [
        np.zeros((0, 0)), np.zeros((1, 1)), np.array([[5.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[-0.5, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 1.0], [1.0 + 5e-10, 0.0]]),
    ], ids=["n0", "n1", "n1-diagonal", "n2", "n2-negative-diagonal", "n2-asymmetric"])
    def test_tiny_matrices(self, d):
        assert validate_metric(d) == reference(d)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_random_metrics(self, seed):
        d = random_metric(400, seed).dist
        assert validate_metric(d) == reference(d) == []
        d[17, 301] = d[301, 17] = 2 * d.max()
        got = validate_metric(d)
        assert got == reference(d)
        assert {v[:3] for v in got} == {("triangle", 17, 301), ("triangle", 301, 17)}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worst_slack_is_the_per_k_maximum(self, cpus, monkeypatch):
        # Every row is scanned: a row no worker reaches would send a metric
        # to the listing scan, which gives the same list, only slower.
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for d in (random_metric(60, 3).dist, line_with_planted_slack(True),
                  line_with_planted_slack(False)):
            want = max((d - (d[:, k : k + 1] + d[k : k + 1, :])).max() for k in range(len(d)))
            half = bool((d == d.T).all())
            assert metric._worst_slack(d, np.ascontiguousarray(d.T), half) == want

    @pytest.mark.parametrize("cpus", [1, None])
    def test_one_worker_gives_the_same_answer(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        d = random_metric(60, 3).dist
        assert validate_metric(d) == []
        d[7, 40] = d[40, 7] = 2 * d.max()
        assert validate_metric(d) == reference(d)
        for below in (True, False):
            d = line_with_planted_slack(below)
            assert validate_metric(d) == reference(d)


class TestMetricSpace:
    def test_ball_is_inclusive_at_the_boundary(self, line_space):
        # Point 1 is at distance exactly 1.0 from point 0.
        assert 1 in ball(line_space, 0, 1.0)
        assert 1 in ball(line_space, 0, 1.0 - COVER_TOL / 2)
        assert 1 not in ball(line_space, 0, 0.5)

    def test_within_is_inclusive_and_broadcasts(self):
        assert within(1.0, 1.0) and within(1.0 + COVER_TOL / 2, 1.0)
        assert not within(1.0 + 2 * COVER_TOL, 1.0)
        mask = within(np.array([[0.0], [2.0]]), np.array([1.0, 3.0]))
        assert mask.tolist() == [[True, True], [False, True]]

    @pytest.mark.parametrize("seed", range(5))
    def test_covered_matches_ball_union(self, seed):
        rng = np.random.RandomState(seed)
        space = MetricSpace.from_coords(rng.rand(9, 2))
        centers = rng.randint(9, size=rng.randint(4)).tolist()
        radii = rng.rand(len(centers)).tolist()
        union = {q for c, r in zip(centers, radii) for q in ball(space, c, r)}
        assert np.flatnonzero(covered(space.dist, centers, radii)).tolist() == sorted(union)
        one = {q for c in centers for q in ball(space, c, 0.3)}
        assert np.flatnonzero(covered(space.dist, centers, 0.3)).tolist() == sorted(one)

    def test_covered_without_balls_is_empty(self, line_space):
        assert not covered(line_space.dist, [], []).any()
        assert covered(line_space.dist, [], 1.0).shape == (5,)

    def test_ball_zero_radius_contains_center(self, line_space):
        assert ball(line_space, 3, 0.0) == [3]

    def test_diameter(self, line_space):
        assert line_space.diameter() == 11.0

    def test_from_coords_matches_manual_distances(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        space = MetricSpace.from_coords(coords)
        assert space.dist[0, 1] == pytest.approx(5.0)

    def test_labels_length_checked(self):
        with pytest.raises(ValueError, match="labels"):
            MetricSpace(np.zeros((2, 2)), labels=["a"])

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_euclidean_coords_always_give_a_metric(self, pts):
        space = MetricSpace.from_coords(np.array(pts))
        assert validate_metric(space.dist) == []


class TestGonzalez:
    def test_invalid_k(self, line_space):
        with pytest.raises(ValueError):
            gonzalez_kcenter(line_space, 0)

    def test_k_ge_n_gives_zero_radius(self, line_space):
        centers, radius = gonzalez_kcenter(line_space, 5)
        assert radius <= COVER_TOL

    def test_known_two_center_split(self, line_space):
        # Clusters {0,1,2} and {10,11}: two centers cover at radius 1.
        centers, radius = gonzalez_kcenter(line_space, 2)
        assert radius <= 2.0  # within factor 2 of the optimum 1.0
        assert len(centers) == 2

    def test_within_factor_two_of_exact(self):
        # Exact k-center by brute force on random instances.
        rng = np.random.RandomState(11)
        for trial in range(20):
            n = rng.randint(4, 9)
            coords = rng.uniform(size=(n, 2))
            space = MetricSpace.from_coords(coords)
            k = rng.randint(1, 4)
            opt = min(
                max(min(space.dist[p, c] for c in centers) for p in range(n))
                for centers in itertools.combinations(range(n), min(k, n))
            )
            _, radius = gonzalez_kcenter(space, k)
            assert radius <= 2 * opt + 1e-9

    def test_radius_monotone_in_k(self, line_space):
        radii = [gonzalez_kcenter(line_space, k)[1] for k in range(1, 6)]
        assert all(a >= b for a, b in zip(radii, radii[1:]))
