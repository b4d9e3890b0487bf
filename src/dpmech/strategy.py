"""Property names, argument validators and the closed-form strategy choice.

Nothing here needs an array, so this module imports no numpy: ``dpmech
select`` runs on it alone.  It imports no dataclasses either, which pulls in
inspect, ast, dis and tokenize and takes several times as long to import as
the rest of the module.  The other modules import these names from here,
and ``analysis`` exposes ``select_strategy`` as its own.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import AlphaOutOfRange, DimensionMismatch

#: Canonical names of the seven structural properties.
PROPERTIES = ("RH", "RM", "CH", "CM", "F", "WH", "S")

USE_EM = "UseEM"
USE_GM = "UseGM"
SOLVE_LP_WH = "SolveLP_WH"
SOLVE_LP_WH_CM = "SolveLP_WH_CM"


def _check_alpha(alpha: float, *, open_top: bool = False) -> float:
    """Validate a privacy level; (0, 1] by default, (0, 1) with open_top."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0 or (open_top and alpha == 1.0):
        top = "1)" if open_top else "1]"
        raise AlphaOutOfRange(f"alpha must lie in (0, {top}, got {alpha}")
    return alpha


def _check_whole(value, least: int, rule: str) -> int:
    """Return value as an int; raise ValueError(f"{rule}, got {value}") unless
    it is a whole number >= least, which inf and NaN are not."""
    if not (least <= value < math.inf and int(value) == value):
        raise ValueError(f"{rule}, got {value}")
    return int(value)


def _check_n(n: int) -> int:
    """Validate a group size: an integer >= 1."""
    return _check_whole(n, 1, "group size must be an integer >= 1")


def _check_d(d, n: int | None = None) -> int:
    """Validate a tail offset: an integer >= 0, and at most n when n is given."""
    whole = _check_whole(d, 0, "d must be a non-negative integer")
    if n is not None and d > n:
        raise DimensionMismatch(f"tail offset d={d} exceeds group size n={n}")
    return whole


def _check_reps(reps) -> int:
    """Validate a repetition count: an integer >= 1."""
    return _check_whole(reps, 1, "reps must be an integer >= 1")


def _check_props(props) -> frozenset:
    """Validate property names; returns them as a frozenset."""
    if isinstance(props, str):
        raise ValueError(f"properties must be a collection of names, not the string {props!r}")
    props = frozenset(props)
    for p in props:
        if p not in PROPERTIES:
            raise ValueError(f"unknown property {p!r}")
    return props


def gm_weak_honesty_threshold(alpha: float) -> float:
    """Group size above which the geometric mechanism's interior diagonal
    reaches the uniform-guessing level 1/(n+1): returns 2a/(1-a)."""
    alpha = _check_alpha(alpha, open_top=True)
    return 2.0 * alpha / (1.0 - alpha)


def gm_is_column_monotone(alpha: float) -> bool:
    """The geometric mechanism is column monotone exactly when alpha <= 1/2."""
    alpha = _check_alpha(alpha, open_top=True)
    return alpha <= 0.5


#: The strategy `select_strategy` picks, and why.
SelectionResult = namedtuple("SelectionResult", ("strategy", "rationale"))


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
