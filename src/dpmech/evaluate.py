"""Sampling from mechanisms and the seeded empirical evaluation harness.

Randomness is built on numpy's PCG64.  Repetition ``r`` of an experiment
draws from a generator seeded with ``mix64(seed, r)`` -- a splitmix64
finalizer applied to ``seed + (r+1) * golden-gamma`` -- so results are
independent of execution order and bit-reproducible across platforms.

Draw rule: a group with true count c and uniform draw u in [0, 1) outputs
the number of entries of column c's CDF (the cumulative sum over outputs,
with negative entries clipped to 0) that are <= u, capped at n.  Each draw
finds that number by bisection over the column, O(log n) per group.  On the
committed benchmark digests (GM and EM, n in {10, 100, 400}, 8 seeds) the
outputs are bit-identical to the earlier sampler, which compared all n+1
CDF entries of every group.

One draw serves every statistic: `empirical_l0d` (at any d) and
`empirical_rmse` read each rep's histogram of signed errors (output minus
true count), and the last draw's histograms are remembered.  So there is one
draw per (mechanism, population, seed, reps), where the mechanism and the
population are the same objects, not merely equal ones; any other call draws
again and replaces the remembered one.  The memo holds reps x (2n+1) counts
and only weak references to its inputs, so it keeps no caller's object alive.

CSV ingest (`ingest_groups`) evaluates each distinct non-blank cell text
once and reuses its bit on every later row holding the same text, up to
65,536 distinct cells.  So a predicate must be a pure function of the
cell's text.
"""

from __future__ import annotations

import csv
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .core import Mechanism, _check_d, _check_n, _check_reps
from .errors import (
    BadProbability,
    DimensionMismatch,
    ParseError,
    UnknownColumn,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: substream index reserved for synthetic data generation (rep indices stay
#: far below it)
DATA_STREAM = 1 << 32


def mix64(seed: int, k: int) -> int:
    """Derive substream k from a 64-bit seed (splitmix64 finalizer)."""
    z = (int(seed) + (int(k) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(mix64(seed, k)))


@dataclass(frozen=True, eq=False)
class GroupCounts:
    """True counts, one per group, each in [0, n]."""

    n: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise DimensionMismatch("counts must be a 1-D vector")
        if counts.size and (counts.min() < 0 or counts.max() > self.n):
            raise ValueError(f"counts must lie in [0, {self.n}]")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def num_groups(self) -> int:
        return self.counts.size


def _check_metric_d(metric: str, d: int) -> None:
    if d and metric != "l0d":
        raise ValueError(f"d applies only to the l0d metric, not {metric}")


@dataclass(frozen=True)
class EvalConfig:
    reps: int = 30
    seed: int = 0
    d: int = 0
    metric: str = "l0d"

    def __post_init__(self):
        object.__setattr__(self, "reps", _check_reps(self.reps))
        _check_d(self.d)
        if self.metric not in ("l0d", "rmse"):
            raise ValueError(f"metric must be 'l0d' or 'rmse', got {self.metric!r}")
        _check_metric_d(self.metric, self.d)


@dataclass(frozen=True)
class EvalResult:
    mean: float
    std_error: float
    per_rep: list = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "mean": float(self.mean),
            "std_error": float(self.std_error),
            "per_rep": [float(v) for v in self.per_rep],
        }


def binomial_population(total: int, n: int, p: float,
                        rng: np.random.Generator) -> GroupCounts:
    """Split `total` individuals into groups of n with i.i.d. Bernoulli(p) bits.

    n must be an integer in [1, total]; leftover individuals are dropped.
    """
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"p must lie in [0, 1], got {p}")
    n = _check_n(n)
    if total < n:
        raise ValueError(f"need total >= n, got total={total}, n={n}")
    groups = total // n
    return GroupCounts(n=n, counts=rng.binomial(n, p, size=groups))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_PREDICATE_OPS = ("<=", ">=", "==", "<", ">")
#: distinct cells whose bit ingest_groups remembers; past this, new cells are
#: evaluated on every row, which bounds the memo's memory on unique-valued columns
_MEMO_CELLS = 1 << 16


def parse_predicate(spec: str):
    """Parse '<column><op><value>' into (column, value-predicate), or a spec
    with no operator into (column, None): a column that holds 0/1 bits.

    Ordering ops compare numerically; '==' compares numerically when both
    sides parse as numbers, else as strings.
    """
    best = None
    for op in _PREDICATE_OPS:
        pos = spec.find(op)
        if pos > 0 and (best is None or pos < best[0]
                        or (pos == best[0] and len(op) > len(best[1]))):
            best = (pos, op)
    if best is None:
        if not spec.strip() or any(op in spec for op in _PREDICATE_OPS):
            raise ValueError(f"predicate {spec!r} must look like '<column><op><value>'")
        return spec.strip(), None
    pos, op = best
    column = spec[:pos].strip()
    raw = spec[pos + len(op):].strip()
    if not column or not raw:
        raise ValueError(f"predicate {spec!r} is missing a column or value")

    if op == "==":
        try:
            target = float(raw)

            def pred(cell: str) -> bool:
                try:
                    return float(cell) == target
                except ValueError:
                    return cell.strip() == raw
        except ValueError:
            def pred(cell: str) -> bool:
                return cell.strip() == raw
        return column, pred

    try:
        target = float(raw)
    except ValueError:
        raise ValueError(f"predicate {spec!r}: value {raw!r} is not a number") from None
    compare = {
        "<": lambda v: v < target,
        "<=": lambda v: v <= target,
        ">": lambda v: v > target,
        ">=": lambda v: v >= target,
    }[op]

    def pred(cell: str) -> bool:
        return compare(float(cell))

    return column, pred


def ingest_groups(csv_path, column: str, group_size: int,
                  predicate=None) -> GroupCounts:
    """Read per-row bits from a headed CSV and sum consecutive rows into groups.

    Without a predicate the column must hold literal 0/1 values; with one,
    the bit is predicate(cell).  group_size must be an integer >= 1.  Rows keep
    file order; a trailing incomplete group is dropped.  Rows whose cells are
    all blank are skipped.  The file is UTF-8, with or without a byte-order
    mark.  Errors raise ParseError naming the record's line number (the
    header is line 1), or that the file is not valid UTF-8.

    The predicate must be a pure function of the cell's text: it is called
    once per distinct non-blank cell, and every later row holding the same
    text reuses that bit.  Only the first 65,536 distinct cells are
    remembered: a cell first seen after them is evaluated on every row that
    holds it, and so is a blank target cell in a non-blank row.
    """
    group_size = _check_n(group_size)
    with open(csv_path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"{csv_path}: line 1: {exc}") from None
        except UnicodeDecodeError:
            raise ParseError(f"{csv_path}: not valid UTF-8") from None
        if header is None:
            raise ParseError(f"{csv_path}: empty file")
        names = [h.strip() for h in header]
        if column not in names:
            raise UnknownColumn(f"{csv_path}: no column {column!r} in header {names}")
        col = names.index(column)
        bit_of: dict = {}
        lookup = bit_of.get
        bits = bytearray()
        append = bits.append
        skipped = 0
        # every row so far appended a bit or was skipped, so the row at hand
        # sits on line len(bits) + skipped + 2
        try:
            for row in reader:
                try:
                    bit = lookup(row[col])
                except IndexError:
                    bit = None
                if bit is None:
                    # a cell not seen before, or a short row: the per-row checks
                    line_no = len(bits) + skipped + 2
                    if not any(map(str.strip, row)):
                        skipped += 1
                        continue
                    if col >= len(row):
                        raise ParseError(f"{csv_path}: line {line_no}: too few fields")
                    cell = row[col]
                    if predicate is None:
                        value = cell.strip()
                        if value not in ("0", "1"):
                            raise ParseError(f"{csv_path}: line {line_no}: "
                                             f"expected a 0/1 bit, got {cell!r}")
                        bit = int(value)
                    else:
                        try:
                            bit = 1 if predicate(cell) else 0
                        except ValueError:
                            raise ParseError(
                                f"{csv_path}: line {line_no}: cannot evaluate predicate "
                                f"on {cell!r}") from None
                    # a blank cell is never remembered, so its row keeps the
                    # blank-row check
                    if len(bit_of) < _MEMO_CELLS and cell.strip():
                        bit_of[cell] = bit
                append(bit)
        except csv.Error as exc:
            raise ParseError(f"{csv_path}: line {len(bits) + skipped + 2}: {exc}") from None
        except UnicodeDecodeError:
            raise ParseError(f"{csv_path}: not valid UTF-8") from None
    groups = len(bits) // group_size
    arr = np.frombuffer(bits, np.uint8)[:groups * group_size]
    return GroupCounts(n=group_size,
                       counts=arr.reshape(groups, group_size).sum(axis=1, dtype=np.int64))


# ---------------------------------------------------------------------------
# empirical metrics
# ---------------------------------------------------------------------------

def _draws(mech: Mechanism, groups: GroupCounts, seed: int, reps: int):
    """Yield the outputs of repetition r = 0, 1, ..., reps-1, one array each."""
    if mech.n != groups.n:
        raise DimensionMismatch(
            f"mechanism size {mech.n} does not match group size {groups.n}")
    if groups.num_groups == 0:
        raise ValueError(f"no complete group of {groups.n} to evaluate")
    n = mech.n
    # row c of the table is the CDF of column c, padded with +inf to a power
    # of two so the bisection below needs no bounds check; entries down to
    # -TOL pass validation, so they are clipped to keep every row sorted
    width = 1 << (n + 1).bit_length()
    table = np.full((n + 1, width), np.inf)
    table[:, :n + 1] = np.cumsum(np.maximum(mech.matrix, 0.0), axis=0).T
    flat = table.ravel()
    start = groups.counts * width
    for r in range(reps):
        rng = substream(seed, r)
        u = rng.random(groups.num_groups)
        # branchless bisection: pos - start ends as the number of CDF entries
        # <= u; the cap at n lets the last bucket absorb rounding slack
        pos = start.copy()
        step = width >> 1
        while step:
            pos += step * (flat[pos + (step - 1)] <= u)
            step >>= 1
        yield np.minimum(pos - start, n)


#: the last draw's (weakref to mech, weakref to groups, seed, reps, histogram)
_last_draw = None


def _error_counts(mech: Mechanism, groups: GroupCounts, seed: int, reps: int) -> np.ndarray:
    """Read-only (reps, 2n+1) int64 array whose row r counts the groups of
    rep r by signed error: column e + n holds the groups with output - count == e.

    The last call's array is remembered and returned again for the same
    mechanism and population objects (by identity), seed and reps.  Both
    inputs are immutable, and the memo holds them only by weak reference.
    """
    global _last_draw
    # read once: another thread may replace the memo, and each entry is whole
    last = _last_draw
    if (last is not None and last[0]() is mech and last[1]() is groups
            and last[2] == seed and last[3] == reps):
        return last[4]
    n = mech.n
    hist = np.empty((reps, 2 * n + 1), np.int64)
    for r, outputs in enumerate(_draws(mech, groups, seed, reps)):
        # each rep's outputs are a fresh array: shift them in place into
        # error + n, which indexes the histogram from 0
        outputs -= groups.counts
        outputs += n
        hist[r] = np.bincount(outputs, minlength=2 * n + 1)
    hist.setflags(write=False)
    _last_draw = (weakref.ref(mech), weakref.ref(groups), seed, reps, hist)
    return hist


def _result(per_rep: list) -> EvalResult:
    arr = np.asarray(per_rep)
    std_error = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return EvalResult(mean=float(arr.mean()), std_error=std_error, per_rep=per_rep)


def empirical_l0d(mech: Mechanism, groups: GroupCounts, cfg: EvalConfig) -> EvalResult:
    """Per repetition: fraction of groups whose output differs from the true
    count by strictly more than cfg.d (d=0 is the plain wrong-answer rate)."""
    hist = _error_counts(mech, groups, cfg.seed, cfg.reps)
    far = np.abs(np.arange(-mech.n, mech.n + 1)) > cfg.d
    total = groups.num_groups
    return _result([c / total for c in hist[:, far].sum(axis=1).tolist()])


def empirical_rmse(mech: Mechanism, groups: GroupCounts, cfg: EvalConfig) -> EvalResult:
    """Per repetition: sqrt of the mean squared output error over groups.
    cfg.d must be 0."""
    _check_metric_d("rmse", cfg.d)
    hist = _error_counts(mech, groups, cfg.seed, cfg.reps)
    squares = np.arange(-mech.n, mech.n + 1) ** 2
    total = groups.num_groups
    # integer sums of squares are exact, and stay below 2**53 for any
    # population that fits in memory, so dividing and rooting each once gives
    # what a float mean over the groups' squared errors gives
    return _result([math.sqrt(s / total) for s in (hist @ squares).tolist()])
