"""The derivability check, ``dp_alpha_max`` and whole-mechanism property
reports.

The closed-form threshold tests and the strategy choice are defined in
``strategy``, which needs no numpy; ``select_strategy`` is exposed here too."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TOL, Mechanism, _flags, _sides, _tail_costs, is_dp
from .strategy import PROPERTIES, _check_alpha, select_strategy

#: Fixed grid used for dp_alpha_max: 0.001, 0.002, ..., 1.000.
DP_ALPHA_GRID_STEPS = 1000


def gm_derivable(mech: Mechanism, alpha: float) -> bool:
    """Whether the mechanism is geometric noise at alpha followed by some
    post-processing: P = T G for a column-stochastic T, where G is
    ``geometric(n, alpha)``.

    Ghosh, Roughgarden and Sundararajan (STOC 2009) show that every optimal
    alpha-private count mechanism for a user's prior and loss arises this
    way.  For alpha < 1, G is invertible and 1'T = 1' follows from P and G
    being column stochastic, so the test is T = P G^-1 >= 0.  G^-1 is
    tridiagonal up to a positive diagonal scaling, so column k of T is >= 0
    when every row i of P satisfies
    P[i,0] >= a*P[i,1] (k = 0),
    (P[i,k] - a*P[i,k-1]) >= a*(P[i,k+1] - a*P[i,k]) (0 < k < n) and
    P[i,n] >= a*P[i,n-1] (k = n),
    each with slack TOL.  At alpha = 1 the same conditions hold exactly for
    constant rows, which is what post-processing the input-blind G gives.
    """
    alpha = _check_alpha(alpha)
    m = mech.matrix
    mid = m[:, 1:-1]
    # two buffers, each updated in place: mid - a*left, and a*(right - a*mid) - TOL;
    # their difference is >= 0 exactly when the first is >= the second
    lhs = np.multiply(alpha, m[:, :-2])
    np.subtract(mid, lhs, out=lhs)
    rhs = np.multiply(alpha, mid)
    np.subtract(m[:, 2:], rhs, out=rhs)
    rhs *= alpha
    rhs -= TOL
    lhs -= rhs
    # initial: the middle slice is empty at n = 1
    return bool(lhs.min(initial=0.0) >= 0.0
                and np.all(m[:, :1] >= alpha * m[:, 1:2] - TOL)
                and np.all(m[:, -1:] >= alpha * m[:, -2:-1] - TOL))


@dataclass(frozen=True)
class PropertyReport:
    """One mechanism's property column: the seven flags, the largest grid
    alpha at which the privacy check passes, and its rescaled tail costs."""

    flags: dict
    dp_alpha_max: float
    l0: float
    l0d: dict

    def to_json_dict(self) -> dict:
        out = {name: bool(v) for name, v in self.flags.items()}
        out["dp_alpha_max"] = float(self.dp_alpha_max)
        out["l0"] = float(self.l0)
        for d, v in sorted(self.l0d.items()):
            out[f"l0d.{d}"] = float(v)
        return out


def dp_alpha_max(mech: Mechanism) -> float:
    """Largest alpha on the fixed grid k/1000 for which the privacy check holds.

    A pair (lo, hi) of row-adjacent entries, taken both ways round, passes
    when fl(alpha*hi) - lo <= TOL.  For hi > 0 that difference never
    decreases as alpha grows, and for hi <= 0 the pair passes at every alpha,
    since lo >= -TOL.  So the check holds on a prefix of the grid, and one
    pass over the pairs guesses its end: floor(1000 * min (lo + TOL)/hi over
    pairs with hi > 0), read as 1000 over the largest hi/(lo + TOL).
    ``is_dp`` then confirms the guess k: it passes at k and fails at k+1.
    When rounding puts the guess one step off, the confirmation takes k-1
    and k, or k, k+1 and k+2: at most 3 calls.  A guess further off, which
    needs a pair whose hi and lo + TOL are both below about 1e-22, falls back
    to bisecting the grid that is left.
    """
    return _dp_alpha_max(mech, mech.matrix + TOL)


def _dp_alpha_max(mech: Mechanism, shifted: np.ndarray) -> float:
    """``dp_alpha_max`` with shifted = mech.matrix + TOL given."""
    steps = DP_ALPHA_GRID_STEPS
    pairs = zip(_sides(mech.matrix, "DP"), _sides(shifted, "DP"))
    ratio = np.empty((len(shifted), len(shifted) - 1))
    inv = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for (_, hi, _), (low, _, _) in pairs:
            inv = max(inv, np.fmax.reduce(np.divide(hi, low, out=ratio), None, initial=0.0))
    del ratio  # before the privacy checks, which allocate their own buffer
    probe = steps if inv <= 1.0 else max(int(steps / inv), 1)
    good, bad, calls = 0, steps + 1, 0  # grid indices known to pass and to fail
    while bad - good > 1:
        probe = probe if calls < 3 else (good + bad) // 2  # past 3, the guess was far off
        passes = is_dp(mech, probe / steps)
        good, bad, probe = (probe, bad, probe + 1) if passes else (good, probe, probe - 1)
        calls += 1
    return good / steps


def property_report(mech: Mechanism) -> PropertyReport:
    """The seven flags, ``dp_alpha_max`` and the tail costs of a mechanism.

    One copy of the entries plus TOL serves the order flags and the guess of
    ``dp_alpha_max``.
    """
    shifted = mech.matrix + TOL
    flags = _flags(mech.matrix, shifted, PROPERTIES)
    alpha_max = _dp_alpha_max(mech, shifted)
    del shifted  # before the tail costs allocate their distance grid
    tail = _tail_costs(mech).tolist()
    return PropertyReport(
        flags=flags,
        dp_alpha_max=alpha_max,
        l0=tail[1],
        l0d={d: tail[d] for d in range(1, mech.n + 1)},
    )
