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
process that designs a mechanism imports neither ``scipy.optimize`` nor
``scipy.sparse``.  The binding is registered under its own dotted name,
which a later ``import scipy.optimize`` then reuses.  Without the file it
falls back to the ordinary import.  HiGHS runs its simplex on one thread
with a fixed random seed, Devex pricing, primal and dual feasibility
tolerances of 1e-10 and no output, on every run, so an LP gives the same
answer bit for bit in every process.

Rotating a mechanism by 180 degrees, x[i, j] -> x[n-i, n-j], reverses the
variables.  It maps the column sums, the privacy rows and the RH, RM, CH,
CM and WH rows each onto a row of the same block, in reverse order, and
keeps the l0, l1 and l2 costs under weights that read the same reversed;
so an optimum averaged with its rotation is an optimum.  It keeps F and S
too, though their rows fold rather than map: F's rows diag[i+1] == diag[0]
pair in reverse for i < n-1, and its last row and every S row fold to 0 == 0.
``build_lp``, and nothing else, records that row map on the LP it returns
(the private ``_mirror``) exactly when the costs read the same reversed.
``solve_lp`` then gives HiGHS the folded LP, one variable per pair of cells
{j, nv-1-j} and one row per mirror pair, about half the size, and expands
its answer to a centrosymmetric point and to duals of the full LP.  Other
LPs go to HiGHS as they are.  The map is not checked at run time: a wrong
one fails loudly (see ``solve_lp``), and the tests check it exactly.

Every optimal count-query mechanism is the truncated geometric mechanism
(GM) followed by a remap (Ghosh, Roughgarden and Sundararajan, STOC 2009),
so every design LP starts from GM's vertex.  Its basis follows from cell
positions alone: every cell is basic, the column sums are tight, and of the
two privacy rows of each adjacent pair the one GM meets with equality is
tight, x[i, j] >= alpha x[i, j+1] when j < i and its partner when j >= i;
every other logical, property rows included, is basic, and the dual
simplex repairs the property rows GM breaks.  ``build_lp`` records that
basis on every LP it returns (the private ``_start``), and ``certify``
alone judges the answer.  A start that HiGHS refuses, that does not end in
an optimum, or whose answer ``certify`` refuses (GM's far cells can fall
under HiGHS's tolerances at small alpha and large n) is followed by a fresh
cold run, which answers exactly as if there had been no start; Devex
pricing makes such a failed start cheap.  An answer from GM's basis is the
optimal vertex the simplex reaches from GM: it has the cold run's cost
within 1e-9, but may differ from the cold run's vertex, in its matrix and
in the properties it happens to meet beyond those asked for.

An ``optimal`` answer is a checked claim, by ``certify`` on the data of the
LP the caller passed, folded or not: the point breaks no row and no x >= 0
by more than 1e-9 (primal side), and its objective is within 1e-9 of the
lower bound that the row duals of HiGHS's final basis, sign-corrected,
prove for every feasible point (dual side).  ``_basis_duals`` solves for
those duals with HiGHS's own factor of the basis and refines them once on
the unscaled data; HiGHS's reported row duals are not read.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import _EQUALITIES, TOL, Mechanism, Objective, _sides, _whole_array, cell_costs
from .errors import NumericalInstability
from .strategy import PROPERTIES, _check_alpha, _check_n, _check_props

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
        for name in ("row", "col"):
            setattr(self, name, _whole_array(getattr(self, name), np.intp,
                                             f"{name} indices must be whole numbers"))
        self.data = np.asarray(self.data, dtype=np.float64)
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        if not (self.row.ndim == self.col.ndim == self.data.ndim == 1
                and self.row.size == self.col.size == self.data.size):
            raise ValueError("row, col and data must be 1-d and of one length")
        if not np.isfinite(self.data).all():
            raise ValueError("data must be finite")
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
    """minimize c.x subject to a x {<=,==,>=} b and x >= 0.

    x >= 0 is the only bound: in a design LP the column sums already cap
    every cell at 1.  ``a`` is a ``CooMatrix`` of shape (b.size, c.size).
    ``a[rows]`` densifies the selected rows, and ``lo`` and ``hi`` read as
    zeros and +inf, for reference code only; the solve, ``max_violation``,
    ``certify`` and ``dump`` read the triplets.

    ``build_lp`` sets the private fields: ``_mirror`` when the costs read
    the same reversed, to pair row k with row _mirror[k] under reversal of
    the variables (x[j] <-> x[nv-1-j]), for ``solve_lp`` to solve on half the
    variables, and ``_fair_row``, F's last row, for ``_fold``.  It sets
    ``_start`` on every design LP, one flag per row, True where the row's
    logical is basic in GM's basis, and ``solve_lp`` starts from that basis.
    ``dataclasses.replace(lp)`` gives the same LP without any of them.
    """

    c: np.ndarray
    a: CooMatrix
    rel: np.ndarray
    b: np.ndarray
    _mirror: np.ndarray | None = field(default=None, init=False, repr=False)
    _start: np.ndarray | None = field(default=None, init=False, repr=False)
    _fair_row: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        rel = np.asarray(self.rel)
        if not np.all((rel == REL_LE) | (rel == REL_EQ) | (rel == REL_GE)):
            raise ValueError("rel entries must be REL_LE, REL_EQ or REL_GE (-1, 0 or 1)")
        self.rel = np.asarray(rel, dtype=np.int8)
        self.b = np.asarray(self.b, dtype=np.float64)
        for name in ("c", "rel", "b"):
            if getattr(self, name).ndim != 1:
                raise ValueError(f"{name} must be a 1-D vector")
        for name in ("c", "b"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not isinstance(self.a, CooMatrix):
            raise TypeError(f"a must be a CooMatrix, got {type(self.a).__name__}")
        if self.a.shape != (self.b.size, self.c.size):
            raise ValueError(f"a has shape {self.a.shape}, but b and c give "
                             f"{(self.b.size, self.c.size)}")
        if self.rel.size != self.b.size:
            raise ValueError("constraint arrays disagree in length")

    @property
    def lo(self) -> np.ndarray:
        return np.zeros(self.num_vars)

    @property
    def hi(self) -> np.ndarray:
        return np.full(self.num_vars, np.inf)

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

            minimize <num_vars> <num_constraints> x >= 0   first line; x >= 0 is the only bound
            c <var> <value>                                 nonzero objective coefficient
            row <row> <rel> <rhs>                           one per row, rel is <=, == or >=
            a <row> <var> <value>                           one per triplet of a, row-major
        """
        fh.write(f"minimize {self.num_vars} {self.num_constraints} x >= 0\n")
        fh.writelines(f"c {k} {self.c[k]:.17g}\n" for k in np.flatnonzero(self.c))
        fh.writelines(f"row {r} {_REL_TEXT[int(rel)]} {rhs:.17g}\n"
                      for r, (rel, rhs) in enumerate(zip(self.rel, self.b)))
        a = self.a
        order = np.lexsort((a.col, a.row))
        fh.writelines(f"a {r} {k} {v:.17g}\n"
                      for r, k, v in zip(a.row[order], a.col[order], a.data[order]))


@dataclass(eq=False)
class LpSolution:
    """What ``solve_lp`` found, and which run found it."""

    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None
    #: which run answered: "gm" (from GM's basis), "cold-after-gm", or "cold" (not a build_lp LP)
    start: str = "cold"
    #: simplex iterations, summed over the runs
    iterations: int = 0


def _row_bounds(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """The rows as lower <= a x <= upper, with an infinite side where a row has none."""
    return (np.where(lp.rel == REL_LE, -np.inf, lp.b),
            np.where(lp.rel == REL_GE, np.inf, lp.b))


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest amount by which x breaks any constraint row or x >= 0."""
    lower, upper = _row_bounds(lp)
    ax = lp.a.dot(x)
    # 0.0 - x, not -x: at x == 0 the latter is -0.0
    return max(float(np.max(0.0 - x, initial=0.0)),
               float(np.max(lower - ax, initial=0.0)),
               float(np.max(ax - upper, initial=0.0)))


# ---------------------------------------------------------------------------
# mechanism LP construction
# ---------------------------------------------------------------------------

def _stack_last(arrays) -> np.ndarray:
    """np.stack(arrays, -1), at about half its per-call cost on small arrays."""
    return np.concatenate([a[..., None] for a in arrays], -1)


def build_lp(n: int, alpha: float, props, obj: Objective) -> LinearProgram:
    """LP whose optimum is a minimal-cost private mechanism with the given properties."""
    alpha = _check_alpha(alpha)
    n = _check_n(n)
    size = n + 1
    nv = size * size
    c = cell_costs(obj, n).ravel()
    props = _check_props(props)

    # each block is the rows x[p] - k*x[q] {rel} rhs, one per kept pair of _sides
    cells = np.arange(nv).reshape(size, size)
    blocks, fair = [], None
    for prop in ("DP", *PROPERTIES):
        if prop == "WH" and prop in props:
            blocks.append((np.diagonal(cells), None, 0.0, REL_GE, 1.0 / size))
        elif prop == "DP" or prop in props:
            lhs, rhs, keeps = zip(*_sides(cells, prop))
            keep = _stack_last([np.ones(lhs[0].shape, bool) if k is None else k for k in keeps])
            p, q = _stack_last(lhs)[keep], _stack_last(rhs)[keep]
            if prop == "F":  # its last row, diag[n] == diag[0], is its own mirror
                blocks.append((p[:-1], q[:-1], 1.0, REL_EQ, 0.0))
                p, q, fair = p[-1:], q[-1:], size + sum(blk[0].size for blk in blocks)
            blocks.append((p, q, alpha if prop == "DP" else 1.0,
                           REL_EQ if prop in _EQUALITIES else REL_GE, 0.0))

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

    lp = LinearProgram(
        c=c,
        a=CooMatrix(np.concatenate(row), np.concatenate(col), np.concatenate(data), (start, nv)),
        rel=rel,
        b=b,
    )
    # rotating the grid by 180 degrees (reversing the variables) maps each
    # block onto itself in reverse
    if np.array_equal(c, c[::-1]):
        starts = np.cumsum(counts) - counts
        lp._mirror = np.repeat(2 * starts + counts - 1, counts) - np.arange(start)
        lp._fair_row = fair
    # GM's basis: the column sums are tight, and at each privacy pair
    # (i, j), (i, j+1) the row x[i, j] >= alpha x[i, j+1] is tight when
    # j < i and its partner when j >= i; every other logical is basic
    below = np.tri(size, n, -1, dtype=bool)  # j < i
    lp._start = np.concatenate([np.zeros(size, bool), _stack_last([~below, below]).ravel(),
                                np.ones(start - size - 2 * n * size, bool)])
    return lp


# ---------------------------------------------------------------------------
# solving with HiGHS, and the certificate
# ---------------------------------------------------------------------------

_HIGHS_MODULE = "scipy.optimize._highspy._core"

#: fixed so that the same LP gives the same answer bit for bit in any process;
#: Devex pricing (1), as HiGHS's default computes exact dual steepest-edge
#: weights from a basis that is not all logicals, such as GM's, one solve per
#: row before iteration 0, and at n=128 that pass is most of the run
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("solver", "simplex"),
    ("simplex_dual_edge_weight_strategy", 1),
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

    Primal side: x breaks no row and no x >= 0 by more than 1e-9.  Dual side:
    any row multipliers y give a lower bound on every feasible objective, once
    each entry of the wrong sign for its row is set to 0; with z = c - a'y,
    over x >= 0 it is b.y when every z_j >= -1e-9, and -inf otherwise.  x
    must come within 1e-9 of that bound.  The bound holds for any y, so
    duals from a faulty solve can make this refuse an optimal x, but not
    pass a costlier one beyond the tolerances.
    """
    violation = max_violation(lp, x)
    if not violation <= TOL:
        raise NumericalInstability(
            f"LP point breaks a constraint by {violation:.3g} (limit {TOL:g})")
    lower, upper = _row_bounds(lp)
    y = np.clip(y, np.where(upper < np.inf, -np.inf, 0.0), np.where(lower > -np.inf, np.inf, 0.0))
    z = lp.c - lp.a.rdot(y)
    bound = float(lp.b @ y) if np.all(z >= -TOL) else -np.inf
    gap = float(lp.c @ x) - bound
    if not gap <= TOL:
        raise NumericalInstability(
            f"LP point is {gap:.3g} above its dual bound (limit {TOL:g})")


def _basis_duals(lp: LinearProgram, highs, basic: np.ndarray) -> np.ndarray:
    """Row duals y solving B'y = c_B for HiGHS's final basis, by HiGHS's own factor.

    ``basic`` lists, for each row, its basic variable as HiGHS numbers them:
    a column j >= 0, or -(1 + r) for the logical of row r, whose column in
    B is e_r and whose cost is 0.  The first solve is refined once on the
    LP's own triplets.  Each right-hand side is scaled to a largest entry of
    1, since HiGHS's solve can return all zeros for a small one.  HiGHS's row
    duals can miss the rounding of its scaled solve by enough that
    ``certify`` refuses an optimal point; these need not.
    """
    ok = _highs().HighsStatus.kOk

    def solve(rhs: np.ndarray) -> np.ndarray:
        scale = np.abs(rhs).max(initial=0.0) or 1.0
        status, sol = highs.getBasisTransposeSolve(rhs / scale)
        if status != ok:
            raise NumericalInstability(f"HiGHS's basis solve ended with {status.name}")
        return scale * sol

    structural = basic >= 0
    cols = basic[structural]
    c_b = np.where(structural, lp.c[np.maximum(basic, 0)], 0.0)
    y = solve(c_b)
    bt_y = np.empty(basic.size)
    bt_y[structural] = lp.a.rdot(y)[cols]
    bt_y[~structural] = y[-1 - basic[~structural]]
    return y + solve(c_b - bt_y)


def _fold(lp: LinearProgram):
    """The LP on one variable per orbit {j, nv-1-j} and one row per pair
    {r, lp._mirror[r]}, and the map of its (x, y) to the same point and
    duals of lp.

    Orbit o < nv - o - 1 holds columns o and nv-1-o, merged with their costs
    summed; the first row of each pair stands for both, and keeps its
    ``_start`` flag.  For symmetric x the two rows of a pair are one
    condition, and the optimum of lp may be taken symmetric: averaging a
    feasible point with its reverse keeps it feasible at the same cost.
    Rotation keeps each cell's distance from the diagonal, so GM is such a
    point, and the kept flags are GM's basis of the folded LP.  Each row
    dual is the folded one, halved on a row that is not its own mirror; then
    c - a'y is half the folded reduced cost on a paired column and equal to
    it on the centre column, and b.y = b_f.y_f.  Only F's last row differs:
    the other F rows hold diag[0] but not diag[n], so it takes -1/2 of their
    lifted duals' sum, moving half their weight to diag[n]; its b is 0.
    """
    mirror = lp._mirror
    m, nv = lp.a.shape
    nf = (nv + 1) // 2
    orbit = np.minimum(np.arange(nv), np.arange(nv - 1, -1, -1))
    rows = np.arange(m)
    keep = rows <= mirror
    index = np.cumsum(keep) - 1
    mf = int(np.count_nonzero(keep))
    a = lp.a
    taken = keep[a.row]
    # entries of a kept row on the two columns of an orbit add up, and may
    # cancel: x0 - x1 >= 0 folds to 0 >= 0
    keys, where = np.unique(orbit[a.col[taken]] * mf + index[a.row[taken]], return_inverse=True)
    data = np.bincount(where, a.data[taken])
    nonzero = data != 0.0
    folded = LinearProgram(
        c=np.bincount(orbit, lp.c),
        a=CooMatrix(keys[nonzero] % mf, keys[nonzero] // mf, data[nonzero], (mf, nf)),
        rel=lp.rel[keep],
        b=lp.b[keep],
    )
    if lp._start is not None:
        folded._start = lp._start[keep]
    share = np.where(mirror == rows, 1.0, 2.0)
    rep = index[np.minimum(rows, mirror)]
    def lift(z, y):
        y = y[rep] / share
        if (fair := lp._fair_row) is not None:  # after the n-1 other F rows
            y[fair] = -0.5 * y[fair - math.isqrt(nv) + 2:fair].sum()
        return z[orbit], y
    return folded, lift


def _model(problem: LinearProgram):
    """``problem`` as a HiGHS model, its matrix compressed by column."""
    h = _highs()
    nv, m = problem.num_vars, problem.num_constraints
    model = h.HighsLp()
    model.num_col_, model.num_row_ = nv, m
    model.col_cost_ = problem.c
    model.col_lower_, model.col_upper_ = np.zeros(nv), np.full(nv, np.inf)
    model.row_lower_, model.row_upper_ = _row_bounds(problem)
    # CooMatrix keeps its triplets in compressed-column order
    a = problem.a
    matrix = model.a_matrix_
    matrix.format_ = h.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = nv, m
    matrix.start_ = np.searchsorted(a.col, np.arange(nv + 1))
    matrix.index_ = a.row
    matrix.value_ = a.data
    return model


def _run(model, start: np.ndarray | None = None):
    """A HiGHS run of ``model``: cold, or from the basis in which every column
    is basic and row r's logical is basic where ``start[r]``, else at its lower
    bound.  None when that is not one basic variable per row, or HiGHS refuses it.
    """
    h = _highs()
    highs = h._Highs()
    for name, value in _HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    if highs.passModel(model) == h.HighsStatus.kError:
        # such as an entry of 1e15 or more; entries under 1e-9 only warn, and are dropped
        raise NumericalInstability("HiGHS refused the model")
    if start is not None:
        if model.num_col_ + np.count_nonzero(start) != model.num_row_:
            return None
        basic, lower = h.HighsBasisStatus.kBasic, h.HighsBasisStatus.kLower
        basis = h.HighsBasis()
        basis.col_status = [basic] * model.num_col_
        basis.row_status = [basic if s else lower for s in start.tolist()]
        if highs.setBasis(basis) != h.HighsStatus.kOk:
            return None
    highs.run()
    return highs


def _certified(lp: LinearProgram, problem: LinearProgram, lift, highs, start: str,
               iterations: int) -> LpSolution:
    """The optimal answer of a run on ``problem``, mapped by ``lift`` to ``lp``
    and passed by ``certify`` there; raises ``NumericalInstability`` when it is not."""
    x = np.array(highs.getSolution().col_value)
    if problem.a.nnz:
        status, basic = highs.getBasicVariables()
        if status != _highs().HighsStatus.kOk:
            raise NumericalInstability(f"HiGHS's basis read ended with {status.name}")
        y = _basis_duals(problem, highs, basic)
    else:
        # HiGHS builds no factor here, and its basis read crashes; y = 0
        # proves the bound, since an optimum means c >= 0
        y = np.zeros(problem.num_constraints)
    if lift is not None:
        x, y = lift(x, y)
    certify(lp, x, y)
    return LpSolution(status=STATUS_OPTIMAL, values=x, objective_value=float(lp.c @ x),
                      start=start, iterations=iterations)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS's simplex; never raises for infeasible/unbounded.

    An LP on which ``build_lp`` recorded a ``_mirror`` is solved folded
    (``_fold``): HiGHS gets one variable per pair {j, nv-1-j} and one row per
    mirror pair, and the answer is expanded to a point with x[j] == x[nv-1-j]
    and to duals of ``lp``'s own rows.  The optimal cost is the same; which
    optimum is returned is not.  Any other LP goes to HiGHS as it is.  A
    model HiGHS refuses, such as one with an entry of 1e15 or more, raises
    ``NumericalInstability``.

    A design LP (``build_lp`` records a ``_start`` on every one) is first run
    from GM's basis (see the module docstring), and the answer is returned
    with ``start == "gm"`` when HiGHS ends optimal and ``certify`` passes it.  In
    every other case -- a start without one basic variable per row or that
    ``setBasis`` refuses, any other end state (infeasible and unbounded
    too), a refused basis call or certificate -- a fresh cold run of the
    same model answers, with ``start == "cold-after-gm"``, bit for bit as
    the LP without ``_start`` is answered (``start == "cold"``), statuses
    and errors included.  ``iterations`` sums the simplex iterations of the
    runs.  Every run, from GM's basis or cold, prices with Devex.

    Either way an ``optimal`` answer has passed ``certify`` on ``lp`` itself,
    with the duals of ``_basis_duals``.  Raises ``NumericalInstability`` when
    the cold run's does not, or when it ends in any other state or a basis
    call is refused.

    So a wrong ``_mirror`` fails loudly.  A design LP admits the uniform
    mechanism, which is centrosymmetric, so its fold under any row map is
    feasible, and it is bounded because no cell cost is negative.  The
    expanded point then either breaks a row of ``lp``, or lies above the
    bound that the expanded duals prove, and ``certify`` refuses it; or it
    is optimal for ``lp`` within 1e-9.  It is never ``infeasible``,
    ``unbounded`` or costlier.
    """
    problem, lift = (lp, None) if lp._mirror is None else _fold(lp)
    h = _highs()
    model = _model(problem)
    iterations = 0
    if problem._start is not None:
        highs = _run(model, problem._start)
        if highs is not None:
            # HiGHS reports -1 after a solve error, which GM's basis can meet
            iterations = max(highs.getInfo().simplex_iteration_count, 0)
            if highs.getModelStatus() == h.HighsModelStatus.kOptimal:
                try:
                    return _certified(lp, problem, lift, highs, "gm", iterations)
                except NumericalInstability:
                    pass
    start = "cold" if problem._start is None else "cold-after-gm"
    highs = _run(model)
    iterations += highs.getInfo().simplex_iteration_count
    status = highs.getModelStatus()
    if status == h.HighsModelStatus.kInfeasible:
        return LpSolution(status=STATUS_INFEASIBLE, start=start, iterations=iterations)
    if status == h.HighsModelStatus.kUnbounded:
        return LpSolution(status=STATUS_UNBOUNDED, start=start, iterations=iterations)
    if status != h.HighsModelStatus.kOptimal:
        raise NumericalInstability(f"HiGHS ended with {highs.modelStatusToString(status)}")
    return _certified(lp, problem, lift, highs, start, iterations)


def design_mechanism(n: int, alpha: float, props, obj: Objective) -> Mechanism:
    """Solve the constrained-design LP and return the optimal mechanism."""
    return solve_design(build_lp(n, alpha, props, obj))


def solve_design(problem: LinearProgram) -> Mechanism:
    """The optimal mechanism of a design LP that ``build_lp`` returned.

    The feasible region always contains the uniform mechanism, so an
    infeasible or unbounded status can only mean a solver defect, and
    raises ``NumericalInstability``.
    """
    sol = solve_lp(problem)
    if sol.status != STATUS_OPTIMAL:
        raise NumericalInstability(
            f"design LP reported {sol.status}; the uniform mechanism is always feasible")
    size = math.isqrt(problem.num_vars)
    # + 0.0 clears -0.0 cells, so the CSV text does not depend on the run
    return Mechanism(sol.values.reshape(size, size) + 0.0)
