"""A small dense feasibility engine for covering linear programs.

Both relaxations in this package, the NUkC LP and the firefighter tree
LP, are covering LPs on a finite box: covering rows (a sum over a support
at least 1) and one budget row per class (a class sum at most its budget).
`CoveringLp` holds them as supports, and every function here takes it.
Each only asks whether its rows and box admit a point, so the engine is
the phase one of a bounded-variable primal simplex: one pivot loop drives
artificial columns toward zero until its point meets every row, each
within its threshold FEAS_TOL * max(1, |rhs_i|).

`solve` prices by Bland's anti-cycling rule, and its points are basic (at
most one variable per row strictly inside its bounds), which the
loose-vertex rounding relies on.  `verdict` is for callers that need no
basic point: it may start from any vertex of the box, prices by Dantzig's
rule, and proves its answer by `confirms` (a point, which it returns) or
`refutes` (multipliers), the checks the certificates use too; `solve`
proves its None by `refutes`.  Inside a
search its proofs serve later probes, and its final basis is where the
next verdict starts (a warm start: the same loop, pricing the basic
values that start out of their bounds, the composite phase one).  The
two-class path outputs a verdict's point, warm or cold; every other
output point comes from `solve`.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
# A row enters the ratio test only when its pivot also exceeds this share
# of the entering column's largest |w_i|, since a relatively tiny pivot
# leaves a nearly singular basis (Harris, "Pivot selection methods of the
# Devex LP code", 1973).  A stored basis column whose |R_jj| in a QR is
# below this share of the largest depends on the columns before it.
PIVOT_REL_TOL = 1e-9
FEAS_TOL = 1e-7


class LpSolverError(RuntimeError):
    """Pivot budget exhausted or numerical breakdown."""


@dataclass
class CoveringLp:
    """Find x in a finite box meeting covering rows and one budget row per
    class: row i of the (m, N) boolean `supp` reads sum of x[j] over
    supp[i] >= 1, and class t reads sum of x[j] over cls[j] == t <=
    budgets[t].  `bounds` is (N, 2), one finite (lo, hi) per variable."""

    supp: np.ndarray
    cls: np.ndarray
    budgets: np.ndarray
    bounds: np.ndarray


def _rows(cover: CoveringLp):
    """The dense rows (C, ge, rhs): covering rows first, then one budget
    row per class; row i reads C[i] . x >= rhs[i] where ge[i], else <=."""
    m, h = len(cover.supp), len(cover.budgets)
    rows = np.vstack([cover.supp, cover.cls == np.arange(h)[:, None]])
    return rows.astype(float), np.arange(m + h) < m, np.concatenate([np.ones(m), cover.budgets])


def format_lp(cover: CoveringLp) -> str:
    """Render a covering LP in LP text format for debugging."""
    lines = ["Minimize", " obj: 0", "Subject To"]
    for i, (coeffs, ge, rhs) in enumerate(zip(*_rows(cover))):
        terms = " ".join(f"+ 1 x{j}" for j in np.flatnonzero(coeffs)) or "0"
        lines.append(f" c{i}: {terms} {'>=' if ge else '<='} {rhs:g}")
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(cover.bounds):
        lines.append(f" {lo:g} <= x{j} <= {hi:g}")
    lines.append("End")
    return "\n".join(lines)


_System = namedtuple("_System", "cover rhs A lo hi x basis cost art_tol")


def _vertex(cover: CoveringLp, start=None) -> np.ndarray:
    """`start` as a float vertex of `cover`'s box (each entry one of its
    variable's bounds; default: the lower bounds), after checking that
    every bound is finite and every interval nonempty; else ValueError."""
    bounds = np.asarray(cover.bounds, dtype=float)
    n = cover.supp.shape[1]
    if bounds.shape != (n, 2):
        raise ValueError(f"bounds must be ({n}, 2), got {bounds.shape}")
    bad = np.flatnonzero(~np.isfinite(bounds).all(axis=1) | (bounds[:, 0] > bounds[:, 1]))
    if bad.size:
        raise ValueError(f"variable {bad[0]} has bounds {bounds[bad[0]].tolist()}, "
                         "not a finite nonempty interval")
    x0 = bounds[:, 0] if start is None else np.asarray(start, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"start must be ({n},), got {x0.shape}")
    off = np.flatnonzero((x0 != bounds[:, 0]) & (x0 != bounds[:, 1]))
    if off.size:
        raise ValueError(f"start of variable {off[0]} is {x0[off[0]]}, not a bound")
    return x0


def _phase_one_setup(cover: CoveringLp, x0) -> _System:
    """Write `cover` as the phase-one system A x = rhs over structural,
    slack and artificial columns: the `_System` holds the LP, the dense
    rhs (see `_rows`), A with its column bounds (lo, hi), a basic point
    and its basis (x, basis; the pivot loop updates them in place), the
    phase-one cost (1 on each artificial column) and the summed thresholds
    of the rows with artificials.  The structural columns start nonbasic at
    x0, a vertex from `_vertex`; only rows it leaves unmet get artificials.
    """
    C, ge, rhs = _rows(cover)
    m, n = C.shape

    # One slack per row makes it an equation (+1 on <= rows, -1 on >= rows);
    # a row whose slack would start negative also gets an artificial column.
    sign = np.where(ge, -1.0, 1.0)
    resid = rhs - C @ x0
    slack = sign * resid
    fits = slack >= 0.0
    art = np.flatnonzero(~fits)
    ncols = n + m  # structural and slack columns; artificials follow
    extra = np.zeros((m, art.size))
    extra[art, np.arange(art.size)] = np.where(resid[art] >= 0, 1.0, -1.0)
    A = np.hstack([C, np.diag(sign), extra])
    lo = np.concatenate([cover.bounds[:, 0], np.zeros(m + art.size)])
    hi = np.concatenate([cover.bounds[:, 1], np.full(m + art.size, np.inf)])
    x = np.concatenate([x0, np.where(fits, slack, 0.0), np.abs(resid[art])])
    basis = np.arange(n, ncols)
    basis[art] = ncols + np.arange(art.size)
    cost = (np.arange(A.shape[1]) >= ncols).astype(float)
    art_tol = FEAS_TOL * np.maximum(1.0, np.abs(rhs[art]))
    return _System(cover, rhs, A, lo, hi, x, basis, cost, float(art_tol.sum()))


def _budget_tol(cover: CoveringLp) -> np.ndarray:
    """Each budget row's threshold; a covering row's is FEAS_TOL."""
    return FEAS_TOL * np.maximum(1.0, np.abs(cover.budgets))


def confirms(cover: CoveringLp, x) -> bool:
    """Whether the point x, clipped to `cover`'s box, misses no row by
    more than the row's threshold: every covering row's sum reaches 1 and
    every class sum stays within its budget."""
    x = np.minimum(np.maximum(x, cover.bounds[:, 0]), cover.bounds[:, 1])  # np.clip, cheaper
    used = np.bincount(cover.cls, x, minlength=len(cover.budgets))
    return bool((1.0 - cover.supp @ x <= FEAS_TOL).all()
                and (used - cover.budgets <= _budget_tol(cover)).all())


def refutes(cover: CoveringLp, y, z):
    """(L, tol) for covering-row multipliers y >= 0 and class multipliers
    z >= 0: L = sum(y) - z.budgets + min over the box of (z[cls] - y.supp).x
    and tol = FEAS_TOL * sum(y) + z.(budget thresholds).  Each x in the box
    has L <= y.(1 - supp x) + z.(class sums - budgets), at most tol if x
    misses no row by more than its threshold: so L > tol proves that no
    point does.  (-inf, inf) when a multiplier is negative."""
    if y.min(initial=0.0) < 0.0 or z.min(initial=0.0) < 0.0:
        return -np.inf, np.inf
    reduced = z[cover.cls] - y @ cover.supp
    lo, hi = cover.bounds.T
    total = float(y.sum())
    bound = total - z @ cover.budgets + reduced @ np.where(reduced > 0.0, lo, hi)
    return float(bound), FEAS_TOL * total + float(z @ _budget_tol(cover))


# verdict's pricing: Dantzig's rule, switching to Bland's after this many
# degenerate pivots in a row (and back after a step that moves).  The loop
# rebuilds its basis inverse from scratch every REFACTOR_EVERY iterations.
DEGENERATE_RUN = 20
REFACTOR_EVERY = 40


def _phase_one(s: _System, run: int):
    """Pivot s.x and s.basis in place, on a basis inverse with rank-one
    updates, until x meets every row.  Pricing is Dantzig's rule, switching
    to Bland's after `run` degenerate pivots in a row; run=0 is Bland's rule
    throughout.  A basic value out of its bounds (a warm start's) is priced
    -1 below and +1 above them, on top of s.cost, and in the ratio test it
    stops at its nearest bound: the composite phase one, which a start with
    every basic value in bounds never enters.  Returns (outcome, lam,
    iterations): outcome is "feasible", "optimal" (no column prices in),
    "budget", "singular" or "unbounded" (nothing blocks the entering
    column); lam holds the last simplex multipliers (None if none were
    priced: x met every row at the start, or its basis was singular).
    """
    A, lo, hi, x, basis, cost = s.A, s.lo, s.hi, s.x, s.basis, s.cost
    m, ncols = A.shape
    n = s.cover.supp.shape[1]
    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True
    movable = lo != hi
    near_lo = lo + FEAS_TOL
    # Nonbasic x sits exactly at a bound, so a column's cost drop per unit
    # of move is reduced * sense: -1 at lower, +1 at upper, 0 basic or fixed.
    sense = np.where(x <= near_lo, -1.0, 1.0) * (movable & ~in_basis)
    # `outside` counts the basic values priced out of their bounds; x is
    # checked only when there are none and the artificials are spent.
    degenerate, lam, outside, limit = 0, None, 0, 200 * (m + ncols)
    unblocked = np.full(m, np.inf)  # the ratio test's start, copied each step
    for it in range(limit):
        if not outside and cost @ x <= s.art_tol and confirms(s.cover, x[:n]):
            return "feasible", lam, it
        if it % REFACTOR_EVERY == 0:
            try:
                B_inv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError:  # pragma: no cover - degenerate basis
                return "singular", lam, it
            x[basis] = B_inv @ (s.rhs - A[:, ~in_basis] @ x[~in_basis])
            # A basic value below its box may fall freely and stops at its
            # lower bound; one above it, the other way round.
            xb, lob, hib, costb = x[basis], lo[basis], hi[basis], cost[basis]
            below, above = xb < lob - FEAS_TOL, xb > hib + FEAS_TOL
            outside = int(np.count_nonzero(below | above))
            if outside:
                costb = costb + above - below
                lob, hib = (np.where(below, -np.inf, np.where(above, hib, lob)),
                            np.where(above, np.inf, np.where(below, lob, hib)))
        lam = costb @ B_inv
        gain = (cost - lam @ A) * sense
        bland = degenerate >= run
        if bland:  # lowest eligible index enters
            eligible = (gain > PIVOT_TOL).nonzero()[0]
            entering = int(eligible[0]) if eligible.size else -1
        else:  # the steepest reduced cost enters
            entering = int(gain.argmax())
            if gain[entering] <= PIVOT_TOL:
                entering = -1
        if entering < 0:
            return ("feasible" if confirms(s.cover, x[:n]) else "optimal"), lam, it + 1
        up = sense[entering] < 0
        w = B_inv @ A[:, entering]
        delta = w if up else -w  # basic variables fall by delta * t
        xb = x[basis]
        size = np.abs(delta)
        step = np.divide(xb - np.where(delta > 0, lob, hib), delta, out=unblocked.copy(),
                         where=size > max(PIVOT_TOL, PIVOT_REL_TOL * size.max()))
        flip = hi[entering] - lo[entering]
        t = min(max(float(step.min()), 0.0), flip)
        if t == np.inf:
            return "unbounded", lam, it + 1
        degenerate = degenerate + 1 if t <= PIVOT_TOL else 0
        x[entering] += t if up else -t
        x[basis] = xb - delta * t
        if t == flip:  # the entering variable crossed its box: no basis change
            x[entering] = hi[entering] if up else lo[entering]
            sense[entering] = -1.0 if x[entering] <= near_lo[entering] else 1.0
            continue
        ties = (step <= t + PIVOT_TOL).nonzero()[0]
        if bland:  # lowest variable index leaves
            r = int(ties[basis[ties].argmin()])
        else:  # the largest pivot among the ties, for stability
            r = int(ties[size[ties].argmax()])
        leave = basis[r]
        x[leave] = lob[r] if delta[r] > 0 else hib[r]  # the bound it stopped at
        outside -= bool(costb[r] != cost[leave])
        in_basis[leave] = False
        sense[leave] = (-1.0 if x[leave] <= near_lo[leave] else 1.0) * movable[leave]
        basis[r] = entering
        in_basis[entering], sense[entering] = True, 0.0
        lob[r], hib[r], costb[r] = lo[entering], hi[entering], cost[entering]
        row = B_inv[r] / w[r]
        B_inv -= w[:, None] * row
        B_inv[r] = row
    return ("feasible" if confirms(s.cover, x[:n]) else "budget"), lam, limit


def solve(cover: CoveringLp):
    """A basic feasible point of `cover`, or None when the phase-one
    optimum's multipliers prove that none exists (`refutes`, through
    `_lagrangian_bound`); LpSolverError when the pivot loop ends with
    neither.  Deterministic at a fixed BLAS thread count: identical input
    gives identical pivot sequences and output.
    """
    s = _phase_one_setup(cover, _vertex(cover))
    outcome, lam, _ = _phase_one(s, run=0)
    if outcome == "optimal" and operator.gt(*_lagrangian_bound(s, lam)):
        return None
    if outcome != "feasible":
        raise LpSolverError(f"phase one stopped ({outcome}) at a point that misses a row")
    return np.clip(s.x[:len(cover.cls)], *cover.bounds.T)


def _lagrangian_bound(s: _System, lam):
    """`refutes`'s (L, tol) for the simplex multipliers lam, first clipped
    in place just enough to keep the slack and artificial reduced costs
    >= 0 (unit columns without an upper bound; each clip admits 0).  So
    lam >= 0 on covering rows, y = lam there, and z = -lam >= 0 on budget
    rows, whatever the start."""
    m, n = len(s.cover.supp), s.cover.supp.shape[1]
    unit = s.A[:, n:]
    rows = np.argmax(unit != 0, axis=0)
    coef = unit[rows, np.arange(unit.shape[1])]
    limit = s.cost[n:] / coef  # c_j - lam_i a_ij >= 0 bounds lam_i by c_j / a_ij
    upper, lower = np.full(len(lam), np.inf), np.full(len(lam), -np.inf)
    np.minimum.at(upper, rows[coef > 0], limit[coef > 0])
    np.maximum.at(lower, rows[coef < 0], limit[coef < 0])
    np.clip(lam, lower, upper, out=lam)
    return refutes(s.cover, lam[:m], -lam[m:])


def _nonsingular(A, cols):
    """`cols` with each column of A[:, cols] that depends on the ones
    before it (a QR's |R_jj| below PIVOT_REL_TOL of the largest) swapped
    for a slack column (A's last len(A) columns, one per row): the slacks
    of the rows that partial pivoting picks on an orthonormal basis of what
    the kept columns leave unspanned."""
    m = len(A)
    r = np.abs(np.linalg.qr(A[:, cols], mode="r").diagonal())
    dep = r <= PIVOT_REL_TOL * r.max()
    cols = cols.copy()
    if dep.any():
        kept = A[:, cols[~dep]]
        gap = np.linalg.qr(kept, mode="complete")[0][:, kept.shape[1]:]
        for c, j in enumerate(np.flatnonzero(dep)):
            i = int(np.abs(gap[:, c]).argmax())
            cols[j] = A.shape[1] - m + i
            gap[:, c + 1:] -= np.outer(gap[:, c] / gap[i, c], gap[i, c + 1:])
    return cols


def _warm_setup(cover: CoveringLp, stored):
    """`cover`'s phase-one system started from `stored`, the (columns,
    at_upper) basis an earlier verdict ended at (`_final_basis`), or None
    when there is none or it has another shape: no artificial columns, the
    basis made nonsingular (`_nonsingular`), every structural column at its
    stored bound and every slack at 0.  The pivot loop's first refactor
    solves for the basic values, in their bounds or not, and prices them."""
    m, n = len(cover.supp) + len(cover.budgets), cover.supp.shape[1]
    if stored is None or stored[0].shape != (m,) or stored[1].shape != (n,):
        return None
    C, ge, rhs = _rows(cover)
    A = np.hstack([C, np.diag(np.where(ge, -1.0, 1.0))])
    lo, hi = cover.bounds.T
    return _System(cover, rhs, A, np.concatenate([lo, np.zeros(m)]),
                   np.concatenate([hi, np.full(m, np.inf)]),
                   np.concatenate([np.where(stored[1], hi, lo), np.zeros(m)]),
                   _nonsingular(A, stored[0]), np.zeros(n + m), 0.0)


def _final_basis(s: _System):
    """(columns, at_upper) where the pivot loop left s, for a later warm
    start: the basic columns, each artificial standing for its row's
    slack, and whether each structural column sits at its upper bound."""
    m, n = len(s.rhs), len(s.cover.bounds)
    rows = np.nonzero(s.A[:, n + m:].T)[1]  # each artificial column's row
    return np.concatenate([np.arange(n + m), n + rows])[s.basis], s.x[:n] >= s.hi[:n]


def _settle(s: _System):
    """verdict's (answer, proof) from the pivot loop on s: (True, the
    clipped x) when it stops feasible, (False, lam) when `refutes` proves
    its last multipliers lam, else (None, None)."""
    outcome, lam, _ = _phase_one(s, DEGENERATE_RUN)
    n = len(s.cover.bounds)
    if outcome == "feasible":
        return True, np.clip(s.x[:n], s.lo[:n], s.hi[:n])
    if lam is not None and operator.gt(*_lagrangian_bound(s, lam)):
        return False, lam
    return None, None


def verdict(cover: CoveringLp, start=None, proofs=None):
    """(answer, x) for whether `cover` is feasible: (True, x) when
    `confirms` accepts x, a point of the box; (False, None) when `refutes`
    proves multipliers; (None, None) when neither holds.

    `proofs` is a search's store, a list of (answer, proof, basis) entries
    from earlier verdicts on LPs of the same shape.  After the bounds and
    `start` are checked (`_vertex`) and before the dense rows are laid
    out, each proof is checked on this LP; the first that holds answers.
    Otherwise `solve`'s pivot loop runs, priced by Dantzig's rule (Bland's
    after DEGENERATE_RUN degenerate pivots in a row): warm from the basis
    of the store's latest entry (`_warm_setup`), and cold from `start`, a
    vertex of the box (default: the lower bounds), when there is none, it
    is singular or its pivots prove nothing.  The pivots are trusted for
    nothing: the clipped x, or the last multipliers (`_lagrangian_bound`),
    answer and are appended to `proofs` with the final basis.  False means
    `solve` cannot return x.
    """
    x0 = _vertex(cover, start)
    m, n = cover.supp.shape
    for answer, v, _ in proofs or ():
        if v.shape == (n if answer else m + len(cover.budgets),) and (
                confirms(cover, v) if answer else operator.gt(*refutes(cover, v[:m], -v[m:]))):
            return answer, (np.clip(v, *cover.bounds.T) if answer else None)
    answer, s = None, (_warm_setup(cover, proofs[-1][2]) if proofs else None)
    if s is not None:
        answer, proof = _settle(s)
    if answer is None:
        s = _phase_one_setup(cover, x0)
        answer, proof = _settle(s)
    if proofs is not None and answer is not None:
        proofs.append((answer, proof, _final_basis(s)))
    return answer, (proof if answer else None)
