"""Mechanism data model, validity/privacy predicates, structural properties,
objective functions and the symmetrization transform.

A mechanism over a group of ``n`` individuals is an ``(n+1) x (n+1)`` column
stochastic matrix ``P`` with ``P[i, j] = Pr[output i | true count j]``.
Everything here is pure and mechanisms are immutable, so values can be shared
freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    ColumnSumError,
    DimensionMismatch,
    EntryOutOfRange,
    ParseError,
    UndefinedForN0,
)

#: Canonical names of the seven structural properties.
PROPERTIES = ("RH", "RM", "CH", "CM", "F", "WH", "S")

#: Additive slack of every validation and predicate check.
TOL = 1e-9

#: Properties whose comparisons are equalities; the others are lhs >= rhs.
_EQUALITIES = ("F", "S")


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
    props = frozenset(props)
    for p in props:
        if p not in PROPERTIES:
            raise ValueError(f"unknown property {p!r}")
    return props


class Mechanism:
    """Validated, immutable column-stochastic mechanism matrix."""

    # __weakref__ lets the sampler remember its last draw without keeping
    # the mechanism alive; that memo relies on no attribute being rebound
    __slots__ = ("matrix", "n", "__weakref__")

    def __init__(self, entries):
        matrix = np.array(entries, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {matrix.shape}")
        # negated so that NaN, for which every comparison is false, fails too
        if not (matrix.min() >= -TOL and matrix.max() <= 1.0 + TOL):
            bad = np.unravel_index(
                np.argmax(np.maximum(-matrix, matrix - 1.0)), matrix.shape)
            raise EntryOutOfRange(
                f"entry {matrix[bad]} at {bad} outside [0, 1] (tol {TOL})")
        sums = matrix.sum(axis=0)
        off = np.abs(sums - 1.0)
        if off.max() > TOL:
            j = int(np.argmax(off))
            raise ColumnSumError(f"column {j} sums to {sums[j]}, not 1 (tol {TOL})")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "n", matrix.shape[0] - 1)

    def __setattr__(self, name, value):
        raise AttributeError(f"Mechanism is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Mechanism, (self.matrix,)

    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def __repr__(self) -> str:
        return f"Mechanism(n={self.n}, trace={self.trace():.6f})"


def new_mechanism(n: int, entries) -> Mechanism:
    """Build a Mechanism after checking the entries match the stated group size."""
    entries = np.asarray(entries, dtype=np.float64)
    if entries.shape != (n + 1, n + 1):
        raise DimensionMismatch(
            f"expected shape {(n + 1, n + 1)} for n={n}, got {entries.shape}")
    return Mechanism(entries)


def _sides(g: np.ndarray, prop: str):
    """The two sides of the comparisons that define ``prop`` on a square array.

    ``g`` holds mechanism entries or LP cell indices; the pairs come in
    ``build_lp``'s row order.  RH, RM, CH and CM hold when lhs >= rhs, F and S
    when lhs == rhs, and "DP" (row-adjacent entries) when lhs >= alpha*rhs and
    rhs >= alpha*lhs.  WH bounds the diagonal and has no sides.
    """
    if prop == "DP":
        return g[:, :-1], g[:, 1:]
    if prop in ("CH", "CM"):
        return _sides(g.T, "R" + prop[1])
    diag = np.diagonal(g)
    if prop == "RH":
        off = ~np.eye(len(g), dtype=bool)
        return np.broadcast_to(diag[:, None], g.shape)[off], g[off]
    if prop == "RM":
        # entries fall away from the diagonal: left of it the right neighbour
        # of each adjacent pair is the larger one, from it on the left one
        left, right = g[:, :-1], g[:, 1:]
        toward = np.arange(len(g) - 1)[None, :] < np.arange(len(g))[:, None]
        return np.where(toward, right, left), np.where(toward, left, right)
    if prop == "F":
        return diag[1:], np.broadcast_to(diag[0], len(g) - 1)
    if prop == "S":
        flat = g.ravel()
        half = flat.size // 2
        return flat[:half], flat[::-1][:half]
    raise ValueError(f"no comparison defines {prop!r}")


def is_dp(mech: Mechanism, alpha: float) -> bool:
    """True when every pair of row-adjacent entries satisfies the ratio bound.

    Checked multiplicatively (``alpha*x - y <= TOL`` in both directions) so
    zero entries are legal inputs; a zero next to a nonzero entry in a row
    fails for any alpha materially above TOL.
    """
    alpha = _check_alpha(alpha)
    left, right = _sides(mech.matrix, "DP")
    return bool(np.all(alpha * right - left <= TOL)
                and np.all(alpha * left - right <= TOL))


def check_property(mech: Mechanism, prop: str) -> bool:
    """Evaluate one of the seven structural properties with additive slack."""
    _check_props((prop,))
    if prop == "WH":
        return bool(np.all(np.diagonal(mech.matrix) >= 1.0 / (mech.n + 1) - TOL))
    lhs, rhs = _sides(mech.matrix, prop)
    if prop in _EQUALITIES:
        return bool(np.all(np.abs(lhs - rhs) <= TOL))
    return bool(np.all(rhs <= lhs + TOL))


def implied_properties(props) -> frozenset:
    """Close a property set under RM=>RH, CM=>CH and CH=>WH."""
    out = set(_check_props(props))
    if "RM" in out:
        out.add("RH")
    if "CM" in out:
        out.add("CH")
    if "CH" in out:
        out.add("WH")
    return frozenset(out)


def uniform_weights(n: int) -> np.ndarray:
    w = np.full(n + 1, 1.0 / (n + 1))
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class Objective:
    """Parameters of the expected-distance loss.

    ``p`` is the distance exponent, ``weights`` a prior over true counts and
    ``d`` the tail offset: only cells with |i-j| >= d count, or >= max(d, 1)
    when p == 0.  A p == 0 loss is multiplied by (n+1)/n, so the input-blind
    uniform mechanism costs 1.  ``cell_costs`` gives the loss cell by cell.
    """

    p: int
    weights: np.ndarray
    d: int = 0

    def __post_init__(self):
        _check_whole(self.p, 0, "p must be a non-negative integer")
        _check_d(self.d)
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise DimensionMismatch("weights must be a 1-D vector")
        if not w.min() >= 0.0:
            raise ValueError(f"weights must be non-negative numbers, got {w.min()}")
        if abs(w.sum() - 1.0) > TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def l0_objective(n: int) -> Objective:
    return Objective(p=0, weights=uniform_weights(n), d=0)


def l0d_objective(n: int, d: int) -> Objective:
    return Objective(p=0, weights=uniform_weights(n), d=d)


def l1_objective(n: int) -> Objective:
    return Objective(p=1, weights=uniform_weights(n))


def l2_objective(n: int) -> Objective:
    return Objective(p=2, weights=uniform_weights(n))


def _distances(n: int) -> np.ndarray:
    """The |i-j| grid: distance of output i from true count j."""
    return np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))


def _check_objective(obj: Objective, n: int) -> None:
    """Check that obj fits group size n: n+1 weights, d <= n, n >= 1 if p == 0."""
    if obj.weights.size != n + 1:
        raise DimensionMismatch(
            f"objective weights have length {obj.weights.size}, mechanism needs {n + 1}")
    _check_d(obj.d, n)
    if obj.p == 0 and n == 0:
        raise UndefinedForN0("p=0 objectives are undefined for n=0")


def cell_costs(obj: Objective, n: int) -> np.ndarray:
    """The (n+1) x (n+1) grid whose cell [i, j] is the cost, as ``Objective``
    defines it, of answering i when the true count is j; a mechanism's loss is
    the sum of these costs times its entries."""
    _check_objective(obj, n)
    dist = _distances(n)
    if obj.p == 0:
        return (dist >= max(obj.d, 1)) * (obj.weights * ((n + 1) / n))
    return np.where(dist >= obj.d, dist.astype(np.float64) ** obj.p, 0.0) * obj.weights


def objective_value(mech: Mechanism, obj: Objective) -> float:
    """Evaluate the loss of a mechanism under the given objective."""
    return float(cell_costs(obj, mech.n).ravel() @ mech.matrix.ravel())


def _tail_costs(mech: Mechanism) -> np.ndarray:
    """Rescaled mass at distance >= d from the truth under the uniform prior,
    indexed by d = 0..n.

    With weights 1/(n+1) and the (n+1)/n rescale this is the entry sum of the
    bands |i-j| >= d divided by n, so entry 0 is (n+1)/n and entry 1 is the
    l0 cost.  One pass sums each band, then suffix sums accumulate the tails.
    """
    n = mech.n
    if n == 0:
        raise UndefinedForN0("tail costs are undefined for n=0")
    bands = np.bincount(_distances(n).ravel(), weights=mech.matrix.ravel(),
                        minlength=n + 1)
    return np.cumsum(bands[::-1])[::-1] / n


def l0_score(mech: Mechanism) -> float:
    """Rescaled wrong-answer probability: the off-diagonal mass divided by n."""
    return float(_tail_costs(mech)[1])


def l0d_score(mech: Mechanism, d: int) -> float:
    """Rescaled probability mass at distance >= max(d, 1) from the truth
    (uniform prior); d = 0 gives the l0 score."""
    d = _check_d(d, mech.n)
    return float(_tail_costs(mech)[max(d, 1)])


def symmetrize(mech: Mechanism) -> Mechanism:
    """Average a mechanism with its 180-degree rotation.

    The result is centrosymmetric, the trace (and thus the rescaled
    wrong-answer cost) is preserved, and any of DP/RM/RH/CM/CH/F/WH that
    held before still holds.
    """
    m = mech.matrix
    return Mechanism((m + m[::-1, ::-1]) / 2.0)


# ---------------------------------------------------------------------------
# mechanism CSV format
# ---------------------------------------------------------------------------
# line 1: "n,alpha" with alpha in (0, 1], or NA when unknown; then n+1 rows of n+1
# comma-separated probabilities, 17 significant digits (exact round trip).
# It is read as UTF-8 with or without a byte-order mark.
# Row index = output i, column index = input j.

def _fmt(x: float) -> str:
    return f"{x:.16e}"


def write_mechanism_csv(mech: Mechanism, path, alpha: float | None = None) -> None:
    if alpha is not None:
        alpha = _check_alpha(alpha)
    lines = [f"{mech.n},{'NA' if alpha is None else _fmt(alpha)}"]
    for row in mech.matrix:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mechanism_csv(path) -> tuple[Mechanism, float | None]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8") from None
    if not lines:
        raise ParseError(f"{path}: empty mechanism file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ParseError(f"{path}: line 1 must be 'n,alpha', got {lines[0]!r}")
    try:
        n = int(head[0])
    except ValueError:
        raise ParseError(f"{path}: line 1: bad group size {head[0]!r}") from None
    alpha: float | None
    if head[1] == "NA":
        alpha = None
    else:
        try:
            alpha = _check_alpha(float(head[1]))
        except (ValueError, AlphaOutOfRange):
            raise ParseError(f"{path}: line 1: bad alpha {head[1]!r}; "
                             "expected NA or a value in (0, 1]") from None
    if len(lines) != n + 2:
        raise ParseError(f"{path}: expected {n + 1} matrix rows, found {len(lines) - 1}")
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != n + 1:
            raise ParseError(f"{path}: line {k}: expected {n + 1} values, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(f"{path}: line {k}: non-numeric entry") from None
    return new_mechanism(n, np.array(rows)), alpha
