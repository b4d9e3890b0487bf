"""Reference LP machinery for tests: exhaustive vertex enumeration, the
optimum from ``scipy.optimize.linprog`` with tight tolerances, and a
generator of random feasible, bounded instances.

The enumerator is deliberately independent of the LP solver:
a vertex is any feasible point where some set of num_vars constraint rows
(equalities, inequalities or bounds) holds with equality; the optimum of a
bounded feasible LP is the best vertex.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from dpmech.lp import REL_EQ, REL_GE, REL_LE, CooMatrix, LinearProgram

_FEAS = 1e-9


def coo(dense) -> CooMatrix:
    """The triplets of a dense constraint matrix: one per nonzero."""
    dense = np.asarray(dense, dtype=np.float64)
    row, col = np.nonzero(dense)
    return CooMatrix(row, col, dense[row, col], dense.shape)


def enumerate_optimum(lp: LinearProgram) -> float:
    nv = lp.num_vars
    a = lp.a.toarray()
    rows = [(a[k], int(lp.rel[k]), lp.b[k]) for k in range(lp.num_constraints)]
    for k in range(nv):
        e = np.zeros(nv)
        e[k] = 1.0
        rows.append((e.copy(), REL_GE, lp.lo[k]))
        if np.isfinite(lp.hi[k]):
            rows.append((e, REL_LE, lp.hi[k]))

    eq_idx = [k for k, r in enumerate(rows) if r[1] == REL_EQ]
    in_idx = [k for k, r in enumerate(rows) if r[1] != REL_EQ]
    need = nv - len(eq_idx)
    if need < 0:
        need = 0

    best = np.inf
    for extra in combinations(in_idx, need):
        active = eq_idx + list(extra)
        A = np.array([rows[k][0] for k in active])
        b = np.array([rows[k][2] for k in active])
        if A.shape[0] != nv:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        ok = True
        for a, rel, rhs in rows:
            v = a @ x
            if rel == REL_LE and v > rhs + _FEAS:
                ok = False
            elif rel == REL_GE and v < rhs - _FEAS:
                ok = False
            elif rel == REL_EQ and abs(v - rhs) > _FEAS:
                ok = False
            if not ok:
                break
        if ok:
            best = min(best, float(lp.c @ x))
    return best


def linprog_optimum(lp: LinearProgram) -> float:
    """The optimum scipy's own HiGHS route reports, with 1e-10 tolerances."""
    from scipy.optimize import linprog

    le, ge, eq = (lp.rel == REL_LE), (lp.rel == REL_GE), (lp.rel == REL_EQ)
    a = lp.a.toarray()
    ref = linprog(lp.c, A_ub=np.vstack([a[le], -a[ge]]),
                  b_ub=np.concatenate([lp.b[le], -lp.b[ge]]),
                  A_eq=a[eq], b_eq=lp.b[eq],
                  bounds=np.column_stack([lp.lo, lp.hi]), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0, ref.message
    return float(ref.fun)


def random_lp(rng: np.random.Generator) -> LinearProgram:
    """Random feasible bounded LP small enough for exhaustive enumeration.

    Up to 12 variables; the larger instances carry enough equality rows that
    choosing the remaining active set stays cheap.  Feasibility is guaranteed
    by anchoring every row at an interior point.
    """
    if rng.random() < 0.7:
        nv = int(rng.integers(2, 6))
        n_eq = int(rng.integers(0, 2))
    else:
        nv = int(rng.integers(8, 13))
        n_eq = nv - int(rng.integers(2, 4))
    n_in = int(rng.integers(1, 5))

    hi = rng.uniform(0.5, 2.0, size=nv)
    x0 = rng.uniform(0.2, 0.8) * hi
    rows, rels, rhs = [], [], []
    for _ in range(n_eq):
        a = rng.normal(size=nv)
        rows.append(a)
        rels.append(REL_EQ)
        rhs.append(a @ x0)
    for _ in range(n_in):
        a = rng.normal(size=nv)
        slack = rng.uniform(0.05, 0.5)
        if rng.random() < 0.5:
            rows.append(a)
            rels.append(REL_LE)
            rhs.append(a @ x0 + slack)
        else:
            rows.append(a)
            rels.append(REL_GE)
            rhs.append(a @ x0 - slack)
    return LinearProgram(
        c=rng.uniform(-1.0, 1.0, size=nv),
        a=coo(np.array(rows)),
        rel=np.array(rels, dtype=np.int8),
        b=np.array(rhs),
        lo=np.zeros(nv),
        hi=hi,
    )
