"""A small dense feasibility engine for linear programs.

Every LP in this package only asks whether its rows and box bounds admit a
point, so the engine is the phase one of a bounded-variable primal simplex
with Bland's anti-cycling rule: it drives artificial columns to zero.
Solutions are always basic: at most one variable per constraint row sits
strictly between its bounds, which the rounding routines in this package
rely on.

`verdict` answers the yes/no question alone, for callers that would drop
the point: a faster phase one on the same set-up whose answer is checked
against the LP's arrays, so its pivots need not be Bland's.  Every point
the package outputs still comes from `solve`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-7


class LpSolverError(RuntimeError):
    """Pivot budget exhausted or numerical breakdown."""


@dataclass
class LpProblem:
    """Find x within box bounds satisfying row constraints.

    `constraints` is an (m, n) matrix: row i reads constraints[i] . x >=
    rhs[i] where ge[i], and <= rhs[i] elsewhere.  `bounds` is (n, 2), one
    (lo, hi) per variable; hi may be inf.
    """

    constraints: np.ndarray
    ge: np.ndarray
    rhs: np.ndarray
    bounds: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.constraints.shape[1]


@dataclass
class LpSolution:
    status: str  # "feasible" | "infeasible"
    values: np.ndarray | None = None
    is_basic: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "feasible"


def format_lp(problem: LpProblem) -> str:
    """Render a problem in LP text format for debugging."""

    def row(coeffs):
        terms = [
            f"{'+' if c >= 0 else '-'} {abs(c):g} x{j}"
            for j, c in enumerate(coeffs)
            if c != 0.0
        ]
        return " ".join(terms) if terms else "0"

    lines = ["Minimize", " obj: 0", "Subject To"]
    for i, (coeffs, ge, rhs) in enumerate(
        zip(problem.constraints, problem.ge, problem.rhs)
    ):
        lines.append(f" c{i}: " + row(coeffs) + f" {'>=' if ge else '<='} {rhs:g}")
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(problem.bounds):
        hi_s = "+inf" if np.isinf(hi) else f"{hi:g}"
        lines.append(f" {lo:g} <= x{j} <= {hi_s}")
    lines.append("End")
    return "\n".join(lines)


def _phase_one(A, cost, lo, hi, basis, x):
    """Run bounded-variable simplex on A x = const, x in [lo, hi],
    minimizing cost, the sum of the artificial columns.  Mutates basis and
    x in place."""
    m, ncols = A.shape
    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True
    movable = lo != hi
    max_iters = 200 * (m + ncols)
    for _ in range(max_iters):
        B = A[:, basis]
        try:
            lam = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate basis
            raise LpSolverError("singular basis matrix") from exc
        reduced = cost - lam @ A
        at_lower = x <= lo + FEAS_TOL
        improving = np.where(at_lower, reduced < -PIVOT_TOL, reduced > PIVOT_TOL)
        eligible = np.flatnonzero(improving & movable & ~in_basis)
        if not eligible.size:
            return
        entering = eligible[0]  # Bland: lowest eligible index enters
        direction = 1 if at_lower[entering] else -1
        w = np.linalg.solve(B, A[:, entering])
        t_max = hi[entering] - lo[entering]
        blocking = -1
        for i in range(m):
            delta = direction * w[i]
            v = basis[i]
            if delta > PIVOT_TOL:
                step = (x[v] - lo[v]) / delta
            elif delta < -PIVOT_TOL:
                step = (hi[v] - x[v]) / (-delta)
            else:
                continue
            if step < t_max - PIVOT_TOL:
                t_max = step
                blocking = i
            elif step <= t_max + PIVOT_TOL and blocking >= 0 and v < basis[blocking]:
                blocking = i  # Bland: lowest variable index leaves
        if not np.isfinite(t_max):  # pragma: no cover - the cost is bounded below
            raise LpSolverError("phase one reported unbounded")
        t_max = max(t_max, 0.0)
        x[entering] += direction * t_max
        x[basis] -= direction * w * t_max
        if blocking >= 0:
            leave = basis[blocking]
            # Snap the leaving variable onto whichever bound it hit.
            if abs(x[leave] - lo[leave]) <= abs(x[leave] - hi[leave]):
                x[leave] = lo[leave]
            else:
                x[leave] = hi[leave]
            in_basis[leave] = False
            basis[blocking] = entering
            in_basis[entering] = True
        else:
            # Bound flip: the entering variable hit its opposite bound.
            x[entering] = hi[entering] if direction > 0 else lo[entering]
    raise LpSolverError(f"pivot budget exhausted after {max_iters} iterations")


def _phase_one_setup(problem: LpProblem):
    """Check `problem`'s shapes and bounds and write it as the phase-one
    system A x = rhs over structural, slack and artificial columns.

    Returns (C, ge, rhs, A, lo, hi, x, basis, cost, tol): the problem's
    arrays as floats, the system with its column bounds, a basic starting
    point and its basis, the phase-one cost (1 on each artificial column)
    and the infeasibility threshold FEAS_TOL * max|rhs|.
    """
    C = np.asarray(problem.constraints, dtype=float)
    ge = np.asarray(problem.ge, dtype=bool)
    rhs = np.asarray(problem.rhs, dtype=float)
    bounds = np.asarray(problem.bounds, dtype=float)
    m, n = C.shape
    if ge.shape != (m,) or rhs.shape != (m,):
        raise ValueError(f"ge and rhs need one entry per row ({m}), got "
                         f"{ge.shape} and {rhs.shape}")
    if bounds.shape != (n, 2):
        raise ValueError(f"bounds must be ({n}, 2), got {bounds.shape}")
    empty = np.flatnonzero(bounds[:, 0] > bounds[:, 1])
    if empty.size:
        j = empty[0]
        raise ValueError(
            f"variable {j} has empty bound interval [{bounds[j, 0]}, {bounds[j, 1]}]"
        )

    # One slack per row makes it an equation (+1 on <= rows, -1 on >= rows);
    # a row whose slack would start negative also gets an artificial column.
    sign = np.where(ge, -1.0, 1.0)
    resid = rhs - C @ bounds[:, 0]
    slack = sign * resid
    fits = slack >= 0.0
    art = np.flatnonzero(~fits)
    ncols = n + m  # structural and slack columns; artificials follow
    extra = np.zeros((m, art.size))
    extra[art, np.arange(art.size)] = np.where(resid[art] >= 0, 1.0, -1.0)
    A = np.hstack([C, np.diag(sign), extra])
    lo = np.concatenate([bounds[:, 0], np.zeros(m + art.size)])
    hi = np.concatenate([bounds[:, 1], np.full(m + art.size, np.inf)])
    x = np.concatenate([bounds[:, 0], np.where(fits, slack, 0.0), np.abs(resid[art])])
    basis = np.arange(n, ncols)
    basis[art] = ncols + np.arange(art.size)
    cost = (np.arange(A.shape[1]) >= ncols).astype(float)
    tol = FEAS_TOL * np.abs(rhs).max(initial=1.0)
    return C, ge, rhs, A, lo, hi, x, basis, cost, tol


def solve(problem: LpProblem) -> LpSolution:
    """A basic feasible point of an LpProblem, or status "infeasible".
    Deterministic: identical input gives identical pivot sequences and
    output.
    """
    C, ge, rhs, A, lo, hi, x, basis, cost, tol = _phase_one_setup(problem)
    n = C.shape[1]
    if cost.any():
        _phase_one(A, cost, lo, hi, basis, x)
        if float(cost @ x) > tol:
            return LpSolution(status="infeasible")

    vals = x[:n].copy()
    # Safety recheck against the original rows.
    lhs = C @ vals
    bad = np.flatnonzero(np.where(ge, lhs < rhs - tol, lhs > rhs + tol))
    if bad.size:
        i = bad[0]
        op = "<" if ge[i] else ">"
        raise LpSolverError(f"row {i} violated after solve: {lhs[i]} {op} {rhs[i]}")
    np.clip(vals, lo[:n], hi[:n], out=vals)
    return LpSolution(status="feasible", values=vals, is_basic=True)


# verdict's pivoting: Dantzig pricing, switching to Bland's rule after this
# many degenerate pivots in a row (and back after a step that moves), with
# the basis inverse rebuilt from scratch every REFACTOR_EVERY iterations.
DEGENERATE_RUN = 20
REFACTOR_EVERY = 40


def _violation(C, ge, rhs, lo, hi, x) -> float:
    """Total row violation of x clipped to [lo, hi]."""
    lhs = C @ np.clip(x, lo, hi)
    return float(np.maximum(np.where(ge, rhs - lhs, lhs - rhs), 0.0).sum())


def _lagrangian_bound(A, cost, lo, hi, rhs, lam, n) -> float:
    """A lower bound on min cost.x over A x = rhs, lo <= x <= hi: lam.rhs
    plus, per column, the minimum of its reduced cost times x_j over
    [lo_j, hi_j].  The columns from n on are unit columns without an upper
    bound (slacks and artificials), so lam is first clipped just enough to
    keep their reduced costs >= 0; each such bound on lam_i admits 0."""
    unit = A[:, n:]
    rows = np.argmax(unit != 0, axis=0)
    coef = unit[rows, np.arange(unit.shape[1])]
    limit = cost[n:] / coef  # c_j - lam_i a_ij >= 0 bounds lam_i by c_j / a_ij
    upper, lower = np.full(len(lam), np.inf), np.full(len(lam), -np.inf)
    np.minimum.at(upper, rows[coef > 0], limit[coef > 0])
    np.maximum.at(lower, rows[coef < 0], limit[coef < 0])
    lam = np.clip(lam, lower, upper)
    reduced = cost - lam @ A
    up, down = reduced < 0, reduced > 0
    if np.isinf(hi[up]).any():
        return -np.inf
    return float(lam @ rhs + reduced[down] @ lo[down] + reduced[up] @ hi[up])


def verdict(problem: LpProblem):
    """Whether `problem` is feasible: True or False when a check against
    its own arrays proves it, None when neither check does.  Never a point:
    callers that need x run `solve`.

    The search is the phase one of `solve` priced by Dantzig's rule (Bland's
    after a run of degenerate pivots), on an explicit basis inverse with
    rank-one updates.  Its pivots are trusted for nothing.  True means the
    search's x, clipped to the bounds, leaves a total row violation of at
    most FEAS_TOL * max|rhs|, the threshold at which `solve` reports
    infeasible; False means a Lagrangian lower bound on the phase-one
    objective (`_lagrangian_bound`, from the search's final multipliers)
    exceeds it.
    """
    C, ge, rhs, A, lo, hi, x, basis, cost, tol = _phase_one_setup(problem)
    n = C.shape[1]
    m, ncols = A.shape
    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True
    movable = lo != hi
    free = movable & ~in_basis  # nonbasic columns that may enter
    near_lo = lo + FEAS_TOL
    degenerate = 0
    for it in range(200 * (m + ncols)):
        if cost @ x <= tol and _violation(C, ge, rhs, lo[:n], hi[:n], x[:n]) <= tol:
            return True
        if it % REFACTOR_EVERY == 0:
            try:
                B_inv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError:  # pragma: no cover - degenerate basis
                return None
            x[basis] = B_inv @ (rhs - A[:, ~in_basis] @ x[~in_basis])
        lam = cost[basis] @ B_inv
        reduced = cost - lam @ A
        at_lower = x <= near_lo
        gain = np.where(at_lower, -reduced, reduced)  # cost drop per unit of move
        gain *= free
        bland = degenerate >= DEGENERATE_RUN
        if bland:  # lowest eligible index enters
            eligible = np.flatnonzero(gain > PIVOT_TOL)
            if not eligible.size:
                break
            entering = int(eligible[0])
        else:  # the steepest reduced cost enters
            entering = int(np.argmax(gain))
            if gain[entering] <= PIVOT_TOL:
                break
        w = B_inv @ A[:, entering]
        delta = w if at_lower[entering] else -w  # basic variables fall by delta * t
        xb = x[basis]
        room = np.where(delta > 0, xb - lo[basis], hi[basis] - xb)
        size = np.abs(delta)
        step = np.divide(room, size, out=np.full(m, np.inf), where=size > PIVOT_TOL)
        t = max(float(step.min(initial=np.inf)), 0.0)
        flip = hi[entering] - lo[entering]
        if flip <= t:
            if not np.isfinite(flip):  # pragma: no cover - the cost is bounded below
                return None
            t = flip
        degenerate = degenerate + 1 if t <= PIVOT_TOL else 0
        x[entering] += t if at_lower[entering] else -t
        x[basis] -= delta * t
        if t == flip:  # the entering variable crossed its box: no basis change
            x[entering] = hi[entering] if at_lower[entering] else lo[entering]
            continue
        ties = np.flatnonzero(step <= t + PIVOT_TOL)
        if bland:  # lowest variable index leaves
            r = int(ties[np.argmin(basis[ties])])
        else:  # the largest pivot among the ties, for stability
            r = int(ties[np.argmax(size[ties])])
        leave = basis[r]
        x[leave] = lo[leave] if delta[r] > 0 else hi[leave]
        in_basis[leave], free[leave] = False, movable[leave]
        basis[r] = entering
        in_basis[entering], free[entering] = True, False
        row = B_inv[r] / w[r]
        B_inv -= w[:, None] * row
        B_inv[r] = row
    if _violation(C, ge, rhs, lo[:n], hi[:n], x[:n]) <= tol:
        return True
    if _lagrangian_bound(A, cost, lo, hi, rhs, lam, n) > tol:
        return False
    return None
