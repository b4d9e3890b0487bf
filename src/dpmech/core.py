"""Mechanism data model, validity/privacy predicates, structural properties,
objective functions and the symmetrization transform.

A mechanism over a group of ``n`` individuals is an ``(n+1) x (n+1)`` column
stochastic matrix ``P`` with ``P[i, j] = Pr[output i | true count j]``.
Everything here is pure and mechanisms are immutable, so values can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    ColumnSumError,
    DimensionMismatch,
    EntryOutOfRange,
    ParseError,
)
from .strategy import _check_alpha, _check_d, _check_n, _check_props, _check_whole

#: Additive slack of every validation and predicate check.
TOL = 1e-9

#: Properties whose comparisons are equalities; the others are lhs >= rhs.
_EQUALITIES = ("F", "S")


def _whole_array(values, dtype, rule: str) -> np.ndarray:
    """values as a dtype array; raise ValueError(rule) unless every entry is a
    whole number, which inf and NaN are not."""
    arr = np.asarray(values)
    if not (arr.dtype.kind in "iu" or np.all(np.isfinite(arr) & (arr == np.trunc(arr)))):
        raise ValueError(rule)
    return arr.astype(dtype, copy=False)


class Mechanism:
    """Validated, immutable column-stochastic (n+1) x (n+1) matrix, n >= 1."""

    # __weakref__ lets a population remember its last draw without keeping
    # the mechanism alive; that memo relies on no attribute being rebound
    __slots__ = ("matrix", "n", "__weakref__")

    def __init__(self, entries, *, _adopt: bool = False):
        # _adopt: entries is a fresh float64 array that this package's
        # constructors built and no one else holds, so it is kept as it is;
        # a caller's entries are copied
        matrix = entries if _adopt else np.array(entries, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 2:
            raise DimensionMismatch(f"expected a square matrix of size >= 2, got {matrix.shape}")
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


def new_mechanism(n: int, entries, *, _adopt: bool = False) -> Mechanism:
    """Build a Mechanism after checking the entries match the stated group size."""
    entries = np.asarray(entries, dtype=np.float64)
    if entries.shape != (n + 1, n + 1):
        raise DimensionMismatch(
            f"expected shape {(n + 1, n + 1)} for n={n}, got {entries.shape}")
    return Mechanism(entries, _adopt=_adopt)


def _sides(g: np.ndarray, prop: str):
    """The comparisons that define ``prop`` on a square array, as views of it.

    ``g`` holds mechanism entries or LP cell indices.  Returns a tuple of
    pieces ``(lhs, rhs, keep)``: ``lhs`` and ``rhs`` are equal-shape strided
    or broadcast views of ``g``, never copies, and ``keep`` marks which of
    their pairs are comparisons (None: all of them).  ``is_dp`` and the F
    and S flags compare the views whole; ``_flags`` reads RH, RM, CH and CM
    through maxima and masks instead.  ``build_lp`` gathers the kept pairs
    from the views, position by position in row-major order and piece by
    piece at one position; that is its row order, which keeps the two
    privacy directions of an adjacent pair next to each other.  RH compares
    the diagonal with its whole row, and drops the pair on the diagonal.
    RH, RM, CH and CM hold when lhs >= rhs, F and S when lhs == rhs, and
    "DP" (row-adjacent entries, both ways round) when lhs >= alpha*rhs.  WH
    bounds the diagonal and has no sides.
    """
    if prop == "DP":
        return (g[:, :-1], g[:, 1:], None), (g[:, 1:], g[:, :-1], None)
    if prop in ("CH", "CM"):
        return _sides(g.T, "R" + prop[1])
    diag = np.diagonal(g)
    if prop == "RH":
        off = _by_distance(np.arange(len(g)) > 0)
        return ((np.broadcast_to(diag[:, None], g.shape), g, off),)
    if prop == "RM":
        # entries fall away from the diagonal: left of it the right neighbour
        # of each adjacent pair is the larger one, from it on the left one
        toward = np.tri(len(g), len(g) - 1, -1, dtype=bool)  # j < i
        return (g[:, 1:], g[:, :-1], toward), (g[:, :-1], g[:, 1:], ~toward)
    if prop == "F":
        return ((diag[1:], np.broadcast_to(diag[:1], len(g) - 1), None),)
    if prop == "S":
        half = g.size // 2
        return ((g.ravel()[:half], g.ravel()[::-1][:half], None),)
    raise ValueError(f"no comparison defines {prop!r}")


def is_dp(mech: Mechanism, alpha: float) -> bool:
    """True when every pair of row-adjacent entries satisfies the ratio bound.

    Checked multiplicatively (``alpha*x - y <= TOL`` in both directions) so
    zero entries are legal inputs; a zero next to a nonzero entry in a row
    fails for any alpha materially above TOL.  Both directions go through
    one buffer, and its maximum stands for the comparison of every entry,
    as no entry is NaN.
    """
    alpha = _check_alpha(alpha)
    pieces = _sides(mech.matrix, "DP")
    buf = np.empty(pieces[0][0].shape)
    for lhs, rhs, _ in pieces:
        np.multiply(alpha, rhs, out=buf)
        buf -= lhs
        if not buf.max() <= TOL:
            return False
    return True


#: Properties that compare entries with other entries plus TOL.
_ORDERS = ("RH", "RM", "CH", "CM")


def _flags(g: np.ndarray, shifted, props) -> dict:
    """The flags of props on the entries g, by name, where shifted is g + TOL
    (None when no property of ``_ORDERS`` is asked for).

    An order property holds when each of its comparisons rhs <= lhs + TOL
    holds, read as rhs <= the same view of shifted.  RH compares each row's
    maximum, and CH each column's, with the shifted diagonal: that is the
    same as comparing every off-diagonal entry, because g[i, i] <=
    fl(g[i, i] + TOL).  RM and CM share the two masks of RM's ``_sides``:
    the adjacent pairs left of (RM) or above (CM) the diagonal, where the
    neighbour toward the diagonal is the larger one, and the rest.  F and S
    compare their ``_sides`` within TOL; WH bounds the diagonal.
    """
    size = len(g)
    if {"RM", "CM"} & set(props):
        (_, _, toward), (_, _, away) = _sides(g, "RM")
    out = {}
    for prop in props:
        if prop == "WH":
            ok = np.all(np.diagonal(g) >= 1.0 / size - TOL)
        elif prop in _EQUALITIES:
            # one piece each; no entry is NaN, so the largest gap decides
            (lhs, rhs, _), = _sides(g, prop)
            gap = np.subtract(lhs, rhs)
            ok = np.abs(gap, out=gap).max() <= TOL
        elif prop in ("RH", "CH"):
            ok = np.all(g.max(axis=1 if prop == "RH" else 0) <= np.diagonal(shifted))
        else:
            a, s = (g, shifted) if prop == "RM" else (g.T, shifted.T)
            ok = (np.all((a[:, :-1] <= s[:, 1:]) | away)
                  and np.all((a[:, 1:] <= s[:, :-1]) | toward))
        out[prop] = bool(ok)
    return out


def check_property(mech: Mechanism, prop: str) -> bool:
    """Evaluate one of the seven structural properties with additive slack.

    ``analysis.property_report`` evaluates all seven with the same code
    (``_flags``), sharing one copy of the entries plus TOL between them.
    """
    _check_props((prop,))
    g = mech.matrix
    return _flags(g, g + TOL if prop in _ORDERS else None, (prop,))[prop]


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


def _by_distance(values: np.ndarray) -> np.ndarray:
    """The square grid whose cell [i, j] is values[|i-j|]: a read-only
    (Toeplitz) view of values mirrored about its first entry, in which row i
    starts i entries before the mirror's centre and runs forward."""
    mirrored = np.concatenate([values[:0:-1], values])
    mirrored.flags.writeable = False
    size, step = len(values), mirrored.itemsize
    return np.ndarray((size, size), mirrored.dtype, mirrored, (size - 1) * step, (-step, step))


def _check_objective(obj: Objective, n: int) -> None:
    """Check that obj fits group size n: n+1 weights and d <= n."""
    if obj.weights.size != n + 1:
        raise DimensionMismatch(
            f"objective weights have length {obj.weights.size}, mechanism needs {n + 1}")
    _check_d(obj.d, n)


def cell_costs(obj: Objective, n: int) -> np.ndarray:
    """The (n+1) x (n+1) grid whose cell [i, j] is the cost, as ``Objective``
    defines it, of answering i when the true count is j; a mechanism's loss is
    the sum of these costs times its entries."""
    _check_objective(obj, n)
    dist = _by_distance(np.arange(n + 1))
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
    bands = np.bincount(_by_distance(np.arange(n + 1)).ravel(), mech.matrix.ravel(), n + 1)
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
    return Mechanism((m + m[::-1, ::-1]) / 2.0, _adopt=True)


# ---------------------------------------------------------------------------
# mechanism CSV format
# ---------------------------------------------------------------------------
# line 1: "n,alpha" with n >= 1 and alpha in (0, 1], or NA when unknown; then n+1 rows of n+1
# comma-separated probabilities, 17 significant digits (exact round trip).
# It is read as UTF-8 with or without a byte-order mark.
# Row index = output i, column index = input j.

def _fmt(x: float) -> str:
    return f"{x:.16e}"


def write_mechanism_csv(mech: Mechanism, path, alpha: float | None = None) -> None:
    if alpha is not None:
        alpha = _check_alpha(alpha)
    lines = [f"{mech.n},{'NA' if alpha is None else _fmt(alpha)}"]
    # one %-format per row of Python floats: the text of _fmt on each entry,
    # in about half the time of formatting numpy scalars one by one
    row_format = ",".join(["%.16e"] * (mech.n + 1))
    lines.extend(row_format % tuple(row) for row in mech.matrix.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _plain(field: str) -> str:
    """field, unless it holds a digit-group underscore: int() and float() read "1_0" as 10."""
    if "_" in field:
        raise ValueError(f"{field!r} holds an underscore")
    return field


def read_mechanism_csv(path) -> tuple[Mechanism, float | None]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [(k, ln.strip()) for k, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8") from None
    if not lines:
        raise ParseError(f"{path}: empty mechanism file")
    first, text = lines[0]
    head = text.split(",")
    if len(head) != 2:
        raise ParseError(f"{path}: line {first} must be 'n,alpha', got {text!r}")
    try:
        n = _check_n(int(_plain(head[0])))
    except ValueError:
        raise ParseError(f"{path}: line {first}: bad group size {head[0]!r}") from None
    alpha: float | None
    if head[1] == "NA":
        alpha = None
    else:
        try:
            alpha = _check_alpha(float(_plain(head[1])))
        except (ValueError, AlphaOutOfRange):
            raise ParseError(f"{path}: line {first}: bad alpha {head[1]!r}; "
                             "expected NA or a value in (0, 1]") from None
    if len(lines) != n + 2:
        raise ParseError(f"{path}: expected {n + 1} matrix rows, found {len(lines) - 1}")
    rows = []
    for k, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != n + 1:
            raise ParseError(f"{path}: line {k}: expected {n + 1} values, found {len(parts)}")
        try:
            _plain(ln)
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(f"{path}: line {k}: non-numeric entry") from None
    return new_mechanism(n, np.array(rows)), alpha
