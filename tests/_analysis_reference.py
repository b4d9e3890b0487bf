"""The property checks and `dp_alpha_max` that the view-based ones replaced,
and a matrix-inverse oracle for `gm_derivable`.

Each flag gathers its comparisons into new arrays with boolean masks and
float `np.where`, privacy is checked on the gathered pairs, `dp_alpha_max`
bisects the k/1000 grid with `is_dp`, and the tail costs read the |i-j| grid
from `np.subtract.outer`.  `core.check_property`, `core.is_dp` and
`analysis.dp_alpha_max` now compare views, row and column maxima, and guess
the end of the grid in one pass; the equivalence tests hold
`property_report` to this module's, bit for bit.  `gm_derivable` here
solves for the post-processing T = P G^-1 outright.
"""

from __future__ import annotations

import numpy as np

from dpmech.analysis import DP_ALPHA_GRID_STEPS, PropertyReport
from dpmech.core import TOL, Mechanism
from dpmech.explicit import geometric
from dpmech.strategy import PROPERTIES


def _sides(g: np.ndarray, prop: str):
    if prop == "DP":
        return g[:, :-1], g[:, 1:]
    if prop in ("CH", "CM"):
        return _sides(g.T, "R" + prop[1])
    diag = np.diagonal(g)
    if prop == "RH":
        off = ~np.eye(len(g), dtype=bool)
        return np.broadcast_to(diag[:, None], g.shape)[off], g[off]
    if prop == "RM":
        left, right = g[:, :-1], g[:, 1:]
        toward = np.arange(len(g) - 1)[None, :] < np.arange(len(g))[:, None]
        return np.where(toward, right, left), np.where(toward, left, right)
    if prop == "F":
        return diag[1:], np.broadcast_to(diag[0], len(g) - 1)
    flat = g.ravel()
    half = flat.size // 2
    return flat[:half], flat[::-1][:half]


def is_dp(mech: Mechanism, alpha: float) -> bool:
    left, right = _sides(mech.matrix, "DP")
    return bool(np.all(alpha * right - left <= TOL)
                and np.all(alpha * left - right <= TOL))


def check_property(mech: Mechanism, prop: str) -> bool:
    if prop == "WH":
        return bool(np.all(np.diagonal(mech.matrix) >= 1.0 / (mech.n + 1) - TOL))
    lhs, rhs = _sides(mech.matrix, prop)
    if prop in ("F", "S"):
        return bool(np.all(np.abs(lhs - rhs) <= TOL))
    return bool(np.all(rhs <= lhs + TOL))


def dp_alpha_max(mech: Mechanism) -> float:
    steps = DP_ALPHA_GRID_STEPS
    if not is_dp(mech, 1.0 / steps):
        return 0.0
    lo, hi = 1, steps  # grid indices; lo passes
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if is_dp(mech, mid / steps):
            lo = mid
        else:
            hi = mid - 1
    return lo / steps


def gm_derivable(mech: Mechanism, alpha: float):
    """Whether P = T G for G = geometric(n, alpha) and some T >= 0, or None
    when the answer sits within 1e-6 of the boundary, where TOL decides it.

    For alpha < 1, T = P G^-1.  At alpha = 1, G's interior rows are 0 and its
    two extreme rows are constant, so P = T G exactly when every row of P is
    constant; the row spread stands in for min T.
    """
    m = mech.matrix
    if alpha == 1.0:
        spread = float((m.max(axis=1) - m.min(axis=1)).max())
        return None if 0.0 < spread < 1e-6 else spread == 0.0
    g = geometric(mech.n, alpha).matrix
    low = float(np.linalg.solve(g.T, m.T).min())
    return None if abs(low) < 1e-6 else low > 0.0


def property_report(mech: Mechanism) -> PropertyReport:
    n = mech.n
    dist = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
    bands = np.bincount(dist.ravel(), weights=mech.matrix.ravel(), minlength=n + 1)
    tail = (np.cumsum(bands[::-1])[::-1] / n).tolist()
    return PropertyReport(
        flags={p: check_property(mech, p) for p in PROPERTIES},
        dp_alpha_max=dp_alpha_max(mech),
        l0=tail[1],
        l0d={d: tail[d] for d in range(1, n + 1)},
    )
