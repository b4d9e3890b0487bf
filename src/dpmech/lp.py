"""Linear-program construction and a dense two-phase primal simplex solver.

``build_lp`` encodes the feasible region of alpha-private mechanisms --
column-sum equalities and the adjacent-column ratio inequalities over
nonnegative variables -- plus one linear row per requested structural
property, over variables rho[i, j] flattened row-major as i*(n+1)+j.

``solve_lp`` is deliberately self-contained (dense numpy tableau, Dantzig
pricing with a permanent switch to Bland's rule after a degenerate streak,
pivot magnitude threshold 1e-7).  The tableau keeps only the columns of the
nonbasic variables plus the rhs: a basic variable's column is a unit vector,
so it is never stored.  Two label arrays, ``basic`` and ``nonbasic``, name
the variable of each row and column, in the order of the full tableau:
structural, then one slack per <= or >= row, then one artificial per >= or
== row.  A pivot hands the entering column over to the leaving variable, and
every tie goes to the smallest label, so the pivots are those of the full
tableau.  It reports ``optimal`` only for the vertex the pivots reached, and
only when that point satisfies every row and bound within 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _EQUALITIES,
    PROPERTIES,
    TOL,
    Mechanism,
    Objective,
    _check_alpha,
    _check_n,
    _check_objective,
    _check_props,
    _distance_mask,
    _sides,
)
from .errors import LpInternalError, NumericalInstability

REL_LE = -1
REL_EQ = 0
REL_GE = 1

_REL_TEXT = {REL_LE: "<=", REL_EQ: "==", REL_GE: ">="}

_FEAS_TOL = 1e-7
_RC_TOL = 1e-10
#: tableau entries at or below this are roundoff, never pivots: pivoting on
#: one of 1e-12 blows the tableau up to 1e16 and ends at a wrong vertex
_PIVOT_TOL = 1e-7
#: degenerate pivots in a row before pricing switches to Bland's rule for good
_BLAND_AFTER = 100
_MAX_ITER = 200_000

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


@dataclass(eq=False)
class LinearProgram:
    """minimize c.x subject to a x {<=,==,>=} b and lo <= x <= hi."""

    c: np.ndarray
    a: np.ndarray
    rel: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64).reshape(-1, self.c.size)
        self.rel = np.asarray(self.rel, dtype=np.int8)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if not (self.a.shape[0] == self.rel.size == self.b.size):
            raise ValueError("constraint arrays disagree in length")
        if not (self.c.size == self.lo.size == self.hi.size):
            raise ValueError("bound arrays disagree with variable count")
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.b.size

    def dump(self, fh) -> None:
        """Plain-text dump whose size grows with the nonzeros, not the dense matrix.

        One record per line, fields separated by single spaces; variables and
        rows count from 0 and numbers are written with 17 significant digits::

            minimize <num_vars> <num_constraints>   first line
            c <var> <value>                          nonzero objective coefficient
            bound <var> <lo> <hi>                    one per variable
            row <row> <rel> <rhs>                    one per row, rel is <=, == or >=
            a <row> <var> <value>                    nonzero constraint coefficient
        """
        fh.write(f"minimize {self.num_vars} {self.num_constraints}\n")
        fh.writelines(f"c {k} {self.c[k]:.17g}\n" for k in np.flatnonzero(self.c))
        fh.writelines(f"bound {k} {lo:.17g} {hi:.17g}\n"
                      for k, (lo, hi) in enumerate(zip(self.lo, self.hi)))
        fh.writelines(f"row {r} {_REL_TEXT[int(rel)]} {rhs:.17g}\n"
                      for r, (rel, rhs) in enumerate(zip(self.rel, self.b)))
        fh.writelines(f"a {r} {k} {self.a[r, k]:.17g}\n" for r, k in zip(*np.nonzero(self.a)))


@dataclass(eq=False)
class LpSolution:
    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest amount by which x breaks any constraint row or bound."""
    worst = max(float(np.max(lp.lo - x, initial=0.0)),
                float(np.max(x - lp.hi, initial=0.0)))
    if lp.num_constraints:
        ax = lp.a @ x
        le = lp.rel == REL_LE
        ge = lp.rel == REL_GE
        eq = lp.rel == REL_EQ
        if le.any():
            worst = max(worst, float(np.max(ax[le] - lp.b[le])))
        if ge.any():
            worst = max(worst, float(np.max(lp.b[ge] - ax[ge])))
        if eq.any():
            worst = max(worst, float(np.max(np.abs(ax[eq] - lp.b[eq]))))
    return worst


# ---------------------------------------------------------------------------
# mechanism LP construction
# ---------------------------------------------------------------------------

def build_lp(n: int, alpha: float, props, obj: Objective) -> LinearProgram:
    """LP whose optimum is a minimal-cost private mechanism with the given properties."""
    alpha = _check_alpha(alpha)
    n = _check_n(n)
    size = n + 1
    nv = size * size
    _check_objective(obj, n)
    props = _check_props(props)

    # each block is the rows x[p] - k*x[q] {rel} rhs, one per (p, q) pair;
    # the two privacy directions of an adjacent pair stay next to each other
    cells = np.arange(nv).reshape(size, size)
    left, right = _sides(cells, "DP")
    blocks = [(np.stack([left, right], -1), np.stack([right, left], -1), alpha, REL_GE, 0.0)]
    for prop in PROPERTIES:
        if prop not in props:
            continue
        if prop == "WH":
            blocks.append((np.diagonal(cells), None, 0.0, REL_GE, 1.0 / size))
        else:
            p, q = _sides(cells, prop)
            blocks.append((p, q, 1.0, REL_EQ if prop in _EQUALITIES else REL_GE, 0.0))

    counts = [size] + [p.size for p, *_ in blocks]
    a = np.zeros((sum(counts), nv))
    a[np.arange(size)[:, None], cells.T] = 1.0  # column sums
    rel = np.repeat([REL_EQ] + [blk[3] for blk in blocks], counts)
    b = np.repeat([1.0] + [blk[4] for blk in blocks], counts)
    start = size
    for p, q, k, _, _ in blocks:
        rows = np.arange(start, start + p.size)
        a[rows, p.ravel()] = 1.0
        if q is not None:
            a[rows, q.ravel()] = -k
        start += p.size

    # objective: w_j * |i-j|^p on cells with |i-j| >= d (>= max(d,1) for p=0,
    # so the diagonal never contributes); rescale folds into the coefficients
    c = (_distance_mask(n, obj.p, obj.d) * obj.weights[None, :]).reshape(nv)
    if obj.rescale:
        c = c * (size / n)

    return LinearProgram(
        c=c,
        a=a,
        rel=rel,
        b=b,
        lo=np.zeros(nv),
        # no x <= 1 bound: x >= 0 and the column sums already cap every cell at 1
        hi=np.full(nv, np.inf),
    )


# ---------------------------------------------------------------------------
# two-phase simplex
# ---------------------------------------------------------------------------

def _lowest(labels, idx):
    """The entry of idx with the smallest label: the full tableau's first match."""
    return int(idx[np.argmin(labels[idx])])


def _pivot(T, basic, nonbasic, r, j):
    """Swap the variable of column j into the basis at row r.

    The leaving variable takes over column j with the entries a full tableau
    would give its unit column: 1/p in row r, -factor * (1/p) in every other row.
    """
    p = T[r, j]
    factors = T[:, j].copy()
    factors[r] = 0.0
    T[r, :] /= p
    T[:, j] = 0.0
    T[r, j] = 1.0 / p
    T -= np.outer(factors, T[r, :])
    basic[r], nonbasic[j] = nonbasic[j], basic[r]


def _simplex_iterate(T, basic, nonbasic, phase: str) -> bool:
    """Pivot in place until no column prices out; returns False when the
    objective is unbounded.

    Dantzig entering rule with a permanent switch to Bland's rule after a run
    of degenerate pivots; leaving row = min ratio.  Every tie goes to the
    smallest variable label, so the pivots are those of the full tableau.
    """
    m = T.shape[0] - 1
    bland = False
    streak = 0
    for _ in range(_MAX_ITER):
        seg = T[m, :-1]
        cand = np.flatnonzero(seg < -_RC_TOL)
        if cand.size == 0:
            return True
        if not bland:
            cand = cand[seg[cand] == seg[cand].min()]
        j = _lowest(nonbasic, cand)

        colv = T[:m, j]
        mask = colv > _PIVOT_TOL
        if not mask.any():
            if (colv > 0.0).any():
                raise NumericalInstability(f"{phase} pivots fell below {_PIVOT_TOL:g}")
            return False
        ratios = np.full(m, np.inf)
        ratios[mask] = T[:m, -1][mask] / colv[mask]
        best = ratios.min()
        r = _lowest(basic, np.flatnonzero(ratios == best))

        if best <= 1e-12:
            streak += 1
            if streak > _BLAND_AFTER:
                bland = True
        else:
            streak = 0
        _pivot(T, basic, nonbasic, r, j)
    raise NumericalInstability(f"{phase} iteration limit reached")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with two-phase primal simplex; never raises for infeasible/unbounded.

    Raises ``NumericalInstability`` when pivots stall, the iteration cap is
    hit, or the final point breaks a row or bound by more than 1e-9.
    """
    nv = lp.num_vars
    if not np.all(np.isfinite(lp.lo)):
        raise ValueError("solve_lp requires finite lower bounds")

    # shift to z = x - lo >= 0 and fold finite upper bounds in as rows
    finite_hi = np.flatnonzero(np.isfinite(lp.hi))
    A = np.vstack([lp.a, finite_hi[:, None] == np.arange(nv)])
    rel = np.concatenate([lp.rel, np.full(finite_hi.size, REL_LE, dtype=np.int8)])
    b = np.concatenate([lp.b - lp.a @ lp.lo, lp.hi[finite_hi] - lp.lo[finite_hi]])

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    rel[neg] *= -1
    # a >= row with zero rhs starts feasible as a <= row; avoids an artificial
    zero_ge = (b == 0.0) & (rel == REL_GE)
    A[zero_ge] *= -1.0
    rel[zero_ge] = REL_LE

    # variable labels: structural, one slack per <=/>= row, one artificial per
    # >=/== row; a <= row starts on its slack, the others on their artificial
    m = A.shape[0]
    is_ge = rel == REL_GE
    slack = nv + np.cumsum(rel != REL_EQ) - 1
    art_start = nv + int(np.count_nonzero(rel != REL_EQ))
    art = art_start + np.cumsum(rel != REL_LE) - 1
    basic = np.where(rel == REL_LE, slack, art)
    nonbasic = np.concatenate([np.arange(nv), slack[is_ge]])
    T = np.zeros((m + 1, nonbasic.size + 1))
    T[:m, :nv] = A
    T[np.flatnonzero(is_ge), np.arange(nv, nonbasic.size)] = -1.0
    T[:m, -1] = b

    art_rows = np.flatnonzero(basic >= art_start)
    if art_rows.size:
        for i in art_rows:
            T[m, :] -= T[i, :]
        # the phase-1 objective is bounded below by 0
        _simplex_iterate(T, basic, nonbasic, "phase-1")
        if -T[m, -1] > _FEAS_TOL:
            return LpSolution(status=STATUS_INFEASIBLE)
        # drive leftover artificials out of the basis; rows where no
        # structural/slack pivot exists are redundant and get dropped
        drop = []
        for i in np.flatnonzero(basic >= art_start):
            cand = np.flatnonzero(nonbasic < art_start)
            mag = np.abs(T[i, cand])
            best = mag.max(initial=0.0)
            if best > _PIVOT_TOL:
                _pivot(T, basic, nonbasic, i, _lowest(nonbasic, cand[mag == best]))
            else:
                drop.append(i)
        # no artificial is basic any more, so phase 2 never needs their columns
        cols = np.flatnonzero(nonbasic < art_start)
        T = T[np.ix_(np.delete(np.arange(m + 1), drop), np.r_[cols, -1])]
        basic = np.delete(basic, drop)
        nonbasic = nonbasic[cols]
        m = basic.size

    # phase 2
    cost = np.concatenate([lp.c, np.zeros(art_start - nv)])
    T[m, :-1] = cost[nonbasic]
    T[m, -1] = 0.0
    for i in np.flatnonzero(cost[basic]):
        T[m, :] -= cost[basic[i]] * T[i, :]
    if not _simplex_iterate(T, basic, nonbasic, "phase-2"):
        return LpSolution(status=STATUS_UNBOUNDED)

    x = np.zeros(nv)
    on = basic < nv
    x[basic[on]] = T[:m, -1][on]
    x += lp.lo
    violation = max_violation(lp, x)
    if not violation <= TOL:
        raise NumericalInstability(
            f"simplex point breaks a constraint by {violation:.3g} (limit {TOL:g})")
    return LpSolution(
        status=STATUS_OPTIMAL,
        values=x,
        objective_value=float(lp.c @ x),
    )


def design_mechanism(n: int, alpha: float, props, obj: Objective) -> Mechanism:
    """Solve the constrained-design LP and return the optimal mechanism.

    The feasible region always contains the uniform mechanism, so an
    infeasible/unbounded status can only mean a solver defect.
    """
    lp = build_lp(n, alpha, props, obj)
    sol = solve_lp(lp)
    if sol.status != STATUS_OPTIMAL:
        raise LpInternalError(
            f"design LP reported {sol.status}; the uniform mechanism is always feasible")
    matrix = sol.values.reshape(n + 1, n + 1)
    return Mechanism(matrix)
