"""Linear-program construction, and its solve by HiGHS with a two-sided certificate.

``build_lp`` encodes the feasible region of alpha-private mechanisms --
column-sum equalities and the adjacent-column ratio inequalities over
nonnegative variables -- plus one linear row per requested structural
property, over variables rho[i, j] flattened row-major as i*(n+1)+j.  Each
row touches at most n+1 cells, so the constraint matrix is held as
coordinate triplets (``CooMatrix``) and never as a dense array: the n=128
LP has 82,689 nonzeros in a 33,153 x 16,641 matrix.

``solve_lp`` hands the LP, as compressed columns, to the compiled HiGHS
binding that ships inside scipy (``scipy.optimize._highspy._core``).  The
binding is loaded once, on the first solve, straight from its file, so a
process that designs a mechanism never imports ``scipy.optimize`` or
``scipy.sparse``; it is registered under its own dotted name, which a later
``import scipy.optimize`` then reuses.  Without the file it falls back to the
ordinary import.  HiGHS runs its simplex on one thread with a fixed random
seed, primal and dual feasibility tolerances of 1e-10 and no output, so an
LP gives the same answer bit for bit in every process.

An ``optimal`` answer is a checked claim, by ``certify`` on the LP's own
data: the point breaks no row or bound by more than 1e-9 (primal side), and
its objective is within 1e-9 of the lower bound that HiGHS's row duals,
sign-corrected, prove for every feasible point (dual side).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
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
    _check_props,
    _sides,
    cell_costs,
)
from .errors import LpInternalError, NumericalInstability

REL_LE = -1
REL_EQ = 0
REL_GE = 1

_REL_TEXT = {REL_LE: "<=", REL_EQ: "==", REL_GE: ">="}

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


@dataclass(eq=False)
class CooMatrix:
    """A sparse matrix as coordinate triplets: entry k is a[row[k], col[k]] = data[k].

    No (row, col) pair may repeat, so every entry has one meaning.  Given in
    any order, the triplets are kept sorted by column, then row, as HiGHS takes them.
    """

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        self.row = np.asarray(self.row, dtype=np.intp)
        self.col = np.asarray(self.col, dtype=np.intp)
        self.data = np.asarray(self.data, dtype=np.float64)
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        if not (self.row.ndim == self.col.ndim == self.data.ndim == 1
                and self.row.size == self.col.size == self.data.size):
            raise ValueError("row, col and data must be 1-d and of one length")
        for idx, bound, name in ((self.row, self.shape[0], "row"),
                                 (self.col, self.shape[1], "col")):
            if idx.size and not (idx.min() >= 0 and idx.max() < bound):
                raise ValueError(f"{name} index out of range [0, {bound})")
        keys = self.col * self.shape[0] + self.row
        order = np.argsort(keys)
        if np.any(np.diff(keys[order]) == 0):
            raise ValueError("a (row, col) pair appears twice")
        self.row, self.col, self.data = self.row[order], self.col[order], self.data[order]

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.row, self.col] = self.data
        return dense

    def __getitem__(self, rows) -> np.ndarray:
        """The selected rows, dense; for reference code that slices ``a`` by row."""
        return self.toarray()[rows]

    def dot(self, x: np.ndarray) -> np.ndarray:
        """a @ x"""
        return np.bincount(self.row, weights=self.data * x[self.col], minlength=self.shape[0])

    def rdot(self, y: np.ndarray) -> np.ndarray:
        """a.T @ y"""
        return np.bincount(self.col, weights=self.data * y[self.row], minlength=self.shape[1])


@dataclass(eq=False)
class LinearProgram:
    """minimize c.x subject to a x {<=,==,>=} b and lo <= x <= hi.

    ``a`` is a ``CooMatrix`` of shape (b.size, c.size).  ``a[rows]`` densifies
    the selected rows, for reference code only; the solve, ``max_violation``,
    ``certify`` and ``dump`` read the triplets.
    """

    c: np.ndarray
    a: CooMatrix
    rel: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.rel = np.asarray(self.rel, dtype=np.int8)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if not isinstance(self.a, CooMatrix):
            raise TypeError(f"a must be a CooMatrix, got {type(self.a).__name__}")
        if self.a.shape != (self.b.size, self.c.size):
            raise ValueError(f"a has shape {self.a.shape}, but b and c give "
                             f"{(self.b.size, self.c.size)}")
        if self.rel.size != self.b.size:
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
            a <row> <var> <value>                    one per triplet of a, row-major
        """
        fh.write(f"minimize {self.num_vars} {self.num_constraints}\n")
        fh.writelines(f"c {k} {self.c[k]:.17g}\n" for k in np.flatnonzero(self.c))
        fh.writelines(f"bound {k} {lo:.17g} {hi:.17g}\n"
                      for k, (lo, hi) in enumerate(zip(self.lo, self.hi)))
        fh.writelines(f"row {r} {_REL_TEXT[int(rel)]} {rhs:.17g}\n"
                      for r, (rel, rhs) in enumerate(zip(self.rel, self.b)))
        a = self.a
        order = np.lexsort((a.col, a.row))
        fh.writelines(f"a {r} {k} {v:.17g}\n"
                      for r, k, v in zip(a.row[order], a.col[order], a.data[order]))


@dataclass(eq=False)
class LpSolution:
    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None


def _row_bounds(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """The rows as lower <= a x <= upper, with an infinite side where a row has none."""
    return (np.where(lp.rel == REL_LE, -np.inf, lp.b),
            np.where(lp.rel == REL_GE, np.inf, lp.b))


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest amount by which x breaks any constraint row or bound."""
    lower, upper = _row_bounds(lp)
    ax = lp.a.dot(x)
    return max(float(np.max(lp.lo - x, initial=0.0)),
               float(np.max(x - lp.hi, initial=0.0)),
               float(np.max(lower - ax, initial=0.0)),
               float(np.max(ax - upper, initial=0.0)))


# ---------------------------------------------------------------------------
# mechanism LP construction
# ---------------------------------------------------------------------------

def build_lp(n: int, alpha: float, props, obj: Objective) -> LinearProgram:
    """LP whose optimum is a minimal-cost private mechanism with the given properties."""
    alpha = _check_alpha(alpha)
    n = _check_n(n)
    size = n + 1
    nv = size * size
    c = cell_costs(obj, n).ravel()
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
    rel = np.repeat([REL_EQ] + [blk[3] for blk in blocks], counts)
    b = np.repeat([1.0] + [blk[4] for blk in blocks], counts)
    # row j of the column sums holds every cell of column j
    row = [np.repeat(np.arange(size), size)]
    col = [cells.T.ravel()]
    data = [np.ones(nv)]
    start = size
    for p, q, k, _, _ in blocks:
        rows = np.arange(start, start + p.size)
        row.append(rows)
        col.append(p.ravel())
        data.append(np.ones(p.size))
        if q is not None:
            row.append(rows)
            col.append(q.ravel())
            data.append(np.full(p.size, -k))
        start += p.size

    return LinearProgram(
        c=c,
        a=CooMatrix(np.concatenate(row), np.concatenate(col), np.concatenate(data), (start, nv)),
        rel=rel,
        b=b,
        lo=np.zeros(nv),
        # no x <= 1 bound: x >= 0 and the column sums already cap every cell at 1
        hi=np.full(nv, np.inf),
    )


# ---------------------------------------------------------------------------
# solving with HiGHS, and the certificate
# ---------------------------------------------------------------------------

_HIGHS_MODULE = "scipy.optimize._highspy._core"

#: fixed so that the same LP gives the same answer bit for bit in any process
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("solver", "simplex"),
    ("threads", 1),
    ("random_seed", 0),
    ("primal_feasibility_tolerance", 1e-10),
    ("dual_feasibility_tolerance", 1e-10),
)


@functools.cache
def _highs():
    """HiGHS's compiled binding, loaded from its file without ``scipy.optimize``.

    The module goes into ``sys.modules`` under its own dotted name, so a later
    ``import scipy.optimize`` reuses it instead of registering its types again.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    paths = [] if scipy is None else [
        os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy", "_core" + suffix)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.exists, paths), None)
    if path is None:
        return importlib.import_module(_HIGHS_MODULE)
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


def certify(lp: LinearProgram, x: np.ndarray, y: np.ndarray) -> None:
    """Raise ``NumericalInstability`` unless x is optimal within 1e-9.

    Primal side: x breaks no row or bound by more than 1e-9.  Dual side: any
    row multipliers y give a lower bound on every feasible objective, once
    each entry of the wrong sign for its row is set to 0; with z = c - a'y it
    is b.y + sum_j min(z_j lo_j, z_j hi_j), where a column with no upper
    bound adds z_j lo_j and needs z_j >= -1e-9.  x must come within 1e-9 of
    that bound.  The bound holds for any y, so duals from a faulty solve can
    make this refuse an optimal x, but not pass a costlier one beyond the
    tolerances.
    """
    violation = max_violation(lp, x)
    if not violation <= TOL:
        raise NumericalInstability(
            f"LP point breaks a constraint by {violation:.3g} (limit {TOL:g})")
    lower, upper = _row_bounds(lp)
    y = np.clip(y, np.where(upper < np.inf, -np.inf, 0.0), np.where(lower > -np.inf, np.inf, 0.0))
    z = lp.c - lp.a.rdot(y)
    open_top = ~np.isfinite(lp.hi)
    hi = np.where(open_top, lp.lo, lp.hi)
    bound = float(lp.b @ y + np.minimum(z * lp.lo, z * hi).sum())
    if np.any(z[open_top] < -TOL):
        bound = -np.inf
    gap = float(lp.c @ x) - bound
    if not gap <= TOL:
        raise NumericalInstability(
            f"LP point is {gap:.3g} above its dual bound (limit {TOL:g})")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS's simplex; never raises for infeasible/unbounded.

    An ``optimal`` answer has passed ``certify``.  Raises
    ``NumericalInstability`` when it does not, or when HiGHS ends in any
    other state.
    """
    if not np.all(np.isfinite(lp.lo)):
        raise ValueError("solve_lp requires finite lower bounds")
    h = _highs()
    nv, m = lp.num_vars, lp.num_constraints
    model = h.HighsLp()
    model.num_col_, model.num_row_ = nv, m
    model.col_cost_, model.col_lower_, model.col_upper_ = lp.c, lp.lo, lp.hi
    model.row_lower_, model.row_upper_ = _row_bounds(lp)
    # CooMatrix keeps its triplets in compressed-column order
    a = lp.a
    matrix = model.a_matrix_
    matrix.format_ = h.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = nv, m
    matrix.start_ = np.searchsorted(a.col, np.arange(nv + 1))
    matrix.index_ = a.row
    matrix.value_ = a.data

    highs = h._Highs()
    for name, value in _HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    highs.passModel(model)
    highs.run()
    status = highs.getModelStatus()
    if status == h.HighsModelStatus.kInfeasible:
        return LpSolution(status=STATUS_INFEASIBLE)
    if status == h.HighsModelStatus.kUnbounded:
        return LpSolution(status=STATUS_UNBOUNDED)
    if status != h.HighsModelStatus.kOptimal:
        raise NumericalInstability(f"HiGHS ended with {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    certify(lp, x, np.array(solution.row_dual))
    return LpSolution(
        status=STATUS_OPTIMAL,
        values=x,
        objective_value=float(lp.c @ x),
    )


def design_mechanism(n: int, alpha: float, props, obj: Objective) -> Mechanism:
    """Solve the constrained-design LP and return the optimal mechanism."""
    return solve_design(build_lp(n, alpha, props, obj))


def solve_design(problem: LinearProgram) -> Mechanism:
    """The optimal mechanism of a design LP that ``build_lp`` returned.

    The feasible region always contains the uniform mechanism, so an
    infeasible/unbounded status can only mean a solver defect.
    """
    sol = solve_lp(problem)
    if sol.status != STATUS_OPTIMAL:
        raise LpInternalError(
            f"design LP reported {sol.status}; the uniform mechanism is always feasible")
    size = math.isqrt(problem.num_vars)
    return Mechanism(sol.values.reshape(size, size))
