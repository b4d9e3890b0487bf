"""Closed-form threshold tests, the derivability check, strategy selection
and whole-mechanism property reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PROPERTIES,
    TOL,
    Mechanism,
    _check_alpha,
    _check_n,
    _check_props,
    _tail_costs,
    check_property,
    is_dp,
)

#: Fixed grid used for dp_alpha_max: 0.001, 0.002, ..., 1.000.
DP_ALPHA_GRID_STEPS = 1000

USE_EM = "UseEM"
USE_GM = "UseGM"
SOLVE_LP_WH = "SolveLP_WH"
SOLVE_LP_WH_CM = "SolveLP_WH_CM"


def gm_weak_honesty_threshold(alpha: float) -> float:
    """Group size above which the geometric mechanism's interior diagonal
    reaches the uniform-guessing level 1/(n+1): returns 2a/(1-a)."""
    alpha = _check_alpha(alpha, open_top=True)
    return 2.0 * alpha / (1.0 - alpha)


def gm_is_column_monotone(alpha: float) -> bool:
    """The geometric mechanism is column monotone exactly when alpha <= 1/2."""
    alpha = _check_alpha(alpha, open_top=True)
    return alpha <= 0.5


def gm_derivable(mech: Mechanism, alpha: float) -> bool:
    """Whether the mechanism can be obtained by post-processing geometric noise.

    Tests, for every three row-adjacent entries,
    (P[i,j] - a*P[i,j-1]) >= a*(P[i,j+1] - a*P[i,j]).
    """
    alpha = _check_alpha(alpha)
    m = mech.matrix
    mid = m[:, 1:-1]
    left = m[:, :-2]
    right = m[:, 2:]
    lhs = mid - alpha * left
    rhs = alpha * (right - alpha * mid)
    return bool(np.all(lhs >= rhs - TOL))


@dataclass(frozen=True)
class SelectionResult:
    strategy: str
    rationale: str


def select_strategy(n: int, alpha: float, props) -> SelectionResult:
    """Pick one of the four distinct ways to realise a property set at minimal
    wrong-answer cost: the fair mechanism, the geometric mechanism, or an LP
    solve with weak honesty (alone, or with the column constraints).  Requires
    0 < alpha < 1, as the two mechanisms do."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, open_top=True)
    props = _check_props(props)
    if "F" in props:
        return SelectionResult(
            USE_EM, "fairness requested; the explicit fair mechanism is the "
                    "optimal fair mechanism and carries every other property")
    if "CH" in props or "CM" in props:
        if gm_is_column_monotone(alpha):
            return SelectionResult(
                USE_GM, f"column properties requested but alpha={alpha} <= 1/2, "
                        "where the geometric mechanism is already column monotone")
        return SelectionResult(
            SOLVE_LP_WH_CM, "column properties requested at alpha > 1/2; solve "
                            "the LP with weak honesty and column monotonicity")
    threshold = gm_weak_honesty_threshold(alpha)
    if "WH" in props and n < threshold:
        return SelectionResult(
            SOLVE_LP_WH, f"weak honesty requested and n={n} is below the "
                         f"geometric mechanism's threshold {threshold:.4g}")
    return SelectionResult(
        USE_GM, "requested properties come free with the geometric mechanism, "
                "which is optimal among all private mechanisms")


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

    The check only loosens as alpha decreases, so bisection on the grid is exact.
    """
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


def property_report(mech: Mechanism) -> PropertyReport:
    flags = {p: check_property(mech, p) for p in PROPERTIES}
    tail = _tail_costs(mech).tolist()
    return PropertyReport(
        flags=flags,
        dp_alpha_max=dp_alpha_max(mech),
        l0=tail[1],
        l0d={d: tail[d] for d in range(1, mech.n + 1)},
    )
