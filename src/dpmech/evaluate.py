"""Sampling from mechanisms and the seeded empirical evaluation harness.

Randomness is built on numpy's PCG64.  Repetition ``r`` of an experiment
draws from a generator seeded with ``mix64(seed, r)`` -- a splitmix64
finalizer applied to ``seed + (r+1) * golden-gamma`` -- so results are
independent of execution order and bit-reproducible across platforms.

Draw rule: a group with true count c and uniform draw u in [0, 1) outputs
the number of entries of column c's CDF (the cumulative sum over outputs,
with negative entries clipped to 0) that are <= u, capped at n.  Each draw
finds that number by bisection over the column, O(log n) per group.

One draw serves every statistic: `empirical_l0d` (at any d) and
`empirical_rmse` read each rep's histogram of signed errors (output minus
true count), and each population remembers its last draw's histograms.  So
there is one draw per (mechanism, population, seed, reps), where the
mechanism and the population are the same objects, not merely equal ones;
any other call draws again and replaces that population's remembered draw.
A population holds reps x (2n+1) counts and only a weak reference to the
mechanism, so its memo keeps no other caller's object alive.

CSV ingest is `ingest_groups`, a numpy block scan and then a csv.reader
row loop over one read of a file or a pipe.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
import weakref
from dataclasses import InitVar, dataclass, field

import numpy as np

from .core import Mechanism, _whole_array
from .errors import (
    BadProbability,
    DimensionMismatch,
    ParseError,
    UnknownColumn,
)
from .strategy import _check_d, _check_n, _check_reps, _check_whole

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
    """True counts, one per group, each in [0, n]; n is an integer >= 1.

    ``counts`` is a read-only copy of the caller's values, so no later write
    or flag change can reach it.  Only this module's producers, whose arrays
    are fresh and held by no one else, pass ``_adopt=True`` to skip the copy.
    """

    n: int
    counts: np.ndarray
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        object.__setattr__(self, "n", _check_n(self.n))
        counts = self.counts if _adopt else np.array(self.counts)
        counts = _whole_array(counts, np.int64, "counts must be whole numbers")
        if counts.ndim != 1:
            raise DimensionMismatch("counts must be a 1-D vector")
        if counts.size and (counts.min() < 0 or counts.max() > self.n):
            raise ValueError(f"counts must lie in [0, {self.n}]")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def __reduce__(self):
        # pickles and copies are validated afresh and leave out the remembered draw
        return GroupCounts, (self.n, self.counts)

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
        # mix64 reads a seed modulo 2**64, so a wider one would repeat another's draws
        rule = "seed must be an integer in [0, 2**64)"
        seed = _check_whole(self.seed, 0, rule)
        if seed > _MASK64:
            raise ValueError(f"{rule}, got {seed}")
        object.__setattr__(self, "seed", seed)
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

    total must be a whole number and n an integer in [1, total]; leftover
    individuals are dropped.
    """
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"p must lie in [0, 1], got {p}")
    n = _check_n(n)
    if total < n:
        raise ValueError(f"need total >= n, got total={total}, n={n}")
    groups = _check_whole(total, n, "total must be a whole number") // n
    return GroupCounts(n=n, counts=rng.binomial(n, p, size=groups), _adopt=True)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

#: predicate operators, two-character ones first so they win at one position
_PREDICATE_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
                  "<": operator.lt, ">": operator.gt}
_PREDICATE = re.compile(f"(.+?)({'|'.join(map(re.escape, _PREDICATE_OPS))})(.*)", re.DOTALL)
#: distinct cells whose bit ingest_groups remembers; past this, new cells are
#: evaluated in every block or row, which bounds the memo on unique-valued columns
_MEMO_CELLS = 1 << 16
#: bytes ingest_groups reads at a time
_BLOCK = 1 << 18
#: longest target cell, in bytes, the block scan keys as one uint64; _MASKS[k]
#: keeps a key's low k bytes
_KEY = 8
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(_KEY + 1)], np.uint64)


def parse_predicate(spec: str):
    """Parse '<column><op><value>' into (column, value-predicate), or a spec
    with no operator into (column, None): a column that holds 0/1 bits.

    The spec splits at the first operator after the column's first character,
    where '<=' and '>=' win over '<' and '>': '<a<5' and '<a>=5' both name
    column '<a'.  Ordering ops compare numerically; '==' compares numerically
    when both sides parse as numbers, else as stripped strings.
    """
    match = _PREDICATE.fullmatch(spec)
    if match is None:
        if not spec.strip() or any(op in spec for op in _PREDICATE_OPS):
            raise ValueError(f"predicate {spec!r} must look like '<column><op><value>'")
        return spec.strip(), None
    column, op, raw = (part.strip() for part in match.groups())
    if not column or not raw:
        raise ValueError(f"predicate {spec!r} is missing a column or value")
    compare = _PREDICATE_OPS[op]
    try:
        target = float(raw)
    except ValueError:
        if op != "==":
            raise ValueError(f"predicate {spec!r}: value {raw!r} is not a number") from None
        return column, lambda cell: cell.strip() == raw

    def pred(cell: str) -> bool:
        try:
            return compare(float(cell), target)
        except ValueError:
            if op != "==":
                raise
            return cell.strip() == raw

    return column, pred


def _plain(buf: bytes) -> bool:
    """Whether csv.reader splits buf at ',' and line ends alone: buf is valid
    UTF-8 and holds no quote, NUL or lone '\\r'."""
    try:
        buf.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return not (b'"' in buf or b"\0" in buf) and (
        b"\r" not in buf or buf.count(b"\r") == buf.count(b"\r\n"))


def _block_cells(buf: bytes, col: int):
    """(cells, inverse) for a block of whole lines: the distinct texts of
    column col's cells, and each line's index into them.  None declines the
    block: it is not `_plain`, a line is not shorter than the csv field size
    limit, or a line's target cell is missing or longer than _KEY bytes.  An
    empty line gives a blank cell, which the caller declines."""
    if not (buf and _plain(buf)):
        return None
    a = np.frombuffer(buf + bytes(_KEY), np.uint8)
    # field j of the block ends at sep[j]; line i ends at sep[ends[i]]
    sep = np.flatnonzero((a == 44) | (a == 10))
    ends = np.flatnonzero(a[sep] == 10)
    if np.diff(sep[ends], prepend=-1).max() > csv.field_size_limit():
        return None
    target = np.r_[0, ends[:-1] + 1] + col
    if (target > ends).any():
        return None
    start = np.r_[-1, sep][target] + 1
    end = sep[target]
    end -= a[end - 1] == 13  # a '\r' only ever precedes a line's '\n'
    size = end - start
    if (size > _KEY).any():
        return None
    # no cell holds a NUL, so its bytes, little-endian and zero-filled, key it
    window = np.ndarray((a.size - _KEY + 1,), "<u8", a, 0, (1,))
    keys, inverse = np.unique(window[start] & _MASKS[size], return_inverse=True)
    return [c.decode() for c in keys.astype("<u8").view("S8").tolist()], inverse


def _utf8_lines(text):
    """The lines of text decoded with "surrogateescape", which keeps each
    byte that is not UTF-8 as a lone surrogate; raises UnicodeEncodeError at
    the first line that holds one."""
    for line in text:
        if not line.isascii():
            line.encode("utf-8")
        yield line


class _Resumed(io.BufferedIOBase):
    """Held bytes, then the rest of fh, as one stream: so one text wrapper
    decodes both and alone decides where each line ends."""

    closed = False  # read before each line: cheaper than IOBase's property

    def __init__(self, held: bytes, fh):
        self._held, self._fh = held, fh

    def readable(self) -> bool:
        return True

    def read1(self, size: int = -1) -> bytes:
        held, self._held = self._held, b""
        return held or self._fh.read1(size)


def _column_of(header, csv_path, column: str) -> int:
    """Index of column in the header row (None when the file is empty)."""
    if header is None:
        raise ParseError(f"{csv_path}: empty file")
    names = [h.strip() for h in header]
    if column not in names:
        raise UnknownColumn(f"{csv_path}: no column {column!r} in header {names}")
    return names.index(column)


def ingest_groups(csv_path, column: str, group_size: int,
                  predicate=None) -> GroupCounts:
    """Read per-row bits from a headed CSV and sum consecutive rows into groups.

    The bit is predicate(cell); a cell it raises ValueError on is an error.
    Without a predicate the column must hold 0/1 values, read through the
    predicate ("0", "1").index(cell.strip()).  group_size must be an integer
    >= 1.  Rows keep file order; a trailing incomplete group is dropped.  Rows
    whose cells are all blank are skipped.  The file is UTF-8, with or without
    a byte-order mark.  Errors raise ParseError naming the line a record ends
    on, as csv.reader counts lines (the header is line 1), or that the file is
    not valid UTF-8, whichever comes first in the file: every record before the
    first line with a non-UTF-8 byte is checked first.

    A file and a pipe are read alike, once and in order.  After a header
    that is plain but for its quotes and ends on its first line, numpy scans
    256 KiB blocks of whole lines while every line is plain (valid UTF-8, no
    quote, NUL or lone '\\r', shorter than the csv field size limit) and has a
    non-blank target cell of at most 8 bytes that passes its check.  From
    the first block the scan declines, the csv.reader row loop reads the
    rest with the bits, memo and line count so far, and raises any error.
    Memory is one block, about twice the longest line plus that row's
    fields, and one byte per row.

    The predicate must be a pure function of the cell's text: it is called
    once per distinct non-blank cell, and every later row holding the same
    text reuses that bit.  Only the first 65,536 distinct cells are
    remembered: a cell first seen after them is evaluated again in every
    block or row that holds it, and so is a blank target cell in a
    non-blank row.
    """
    group_size = _check_n(group_size)
    what = "cannot evaluate predicate on"
    if predicate is None:
        what = "expected a 0/1 bit, got"
        predicate = lambda cell: ("0", "1").index(cell.strip())
    bit_of: dict = {}
    lookup = bit_of.get
    bits = bytearray()
    append = bits.append
    col = None

    def learn(cell: str):
        # cell's bit, or None when the predicate raises ValueError on it;
        # remembered while the memo has room, but a blank cell never is, so a
        # whitespace-only row still reaches the blank-row check
        try:
            bit = 1 if predicate(cell) else 0
        except ValueError:
            return None
        if len(bit_of) < _MEMO_CELLS and cell.strip():
            bit_of[cell] = bit
        return bit

    with open(csv_path, "rb") as fh:
        # bytes read but not yet scanned: the unparsed header, then a block's partial last line
        rest = fh.readline(_BLOCK)
        # a header plain but for its quotes is parsed here, unless a quoted
        # field runs on past this line, which leaves '\n' in its last field
        if (rest.endswith(b"\n") and len(rest) < csv.field_size_limit()
                and _plain(rest.replace(b'"', b"_"))):
            header = next(csv.reader([rest.decode("utf-8-sig")]))
            if not (header and header[-1].endswith("\n")):
                col = _column_of(header, csv_path, column)
                rest = b""
        while col is not None:
            rest += fh.read(_BLOCK)
            cut = rest.rfind(b"\n") + 1
            found = _block_cells(rest[:cut], col)
            if found is None:
                break
            cells, inverse = found
            # a blank cell, or one that fails its check, goes to the row loop
            known = [bit_of[c] if c in bit_of else learn(c) if c.strip() else None
                     for c in cells]
            if None in known:
                break
            bits += memoryview(np.array(known, np.uint8)[inverse])
            rest = rest[cut:]
        text = io.TextIOWrapper(_Resumed(rest, fh), "utf-8-sig" if col is None else "utf-8",
                                "surrogateescape", newline="")
        del rest  # the stream holds the only reference and drops it once read
        reader = csv.reader(_utf8_lines(text))
        # lines before the reader's first: the header, if parsed above, and
        # one per row the block scan took, which never takes a blank line
        lines = (col is not None) + len(bits)

        def fault(message) -> ParseError:
            return ParseError(f"{csv_path}: line {lines + reader.line_num}: {message}")

        try:
            if col is None:
                col = _column_of(next(reader, None), csv_path, column)
            for row in reader:
                try:
                    bit = lookup(row[col])
                except IndexError:
                    bit = None
                if bit is None:
                    # a cell not seen before, or a short row: the per-row checks
                    if not any(map(str.strip, row)):
                        continue
                    if col >= len(row):
                        raise fault("too few fields")
                    bit = learn(row[col])
                    if bit is None:
                        raise fault(f"{what} {row[col]!r}")
                append(bit)
        except csv.Error as exc:
            raise fault(exc) from None
        except UnicodeError:
            raise ParseError(f"{csv_path}: not valid UTF-8") from None
    groups = len(bits) // group_size
    arr = np.frombuffer(bits, np.uint8)[:groups * group_size]
    counts = arr.reshape(groups, group_size).sum(axis=1, dtype=np.int64)
    return GroupCounts(n=group_size, counts=counts, _adopt=True)


# ---------------------------------------------------------------------------
# empirical metrics
# ---------------------------------------------------------------------------

def _error_counts(mech: Mechanism, groups: GroupCounts, seed: int, reps: int) -> np.ndarray:
    """Read-only (reps, 2n+1) int64 array whose row r counts the groups of
    rep r by signed error: column e + n holds the groups with output - count == e.

    Row c of a table holds the first n entries of column c's CDF, then +inf
    up to a power of two, at least n+1 entries: so a group whose true count
    is c outputs the number of that row's entries <= u, which is at most n,
    as the draw rule's cap at n asks.  A branchless bisection over the row
    finds it in log2(width) gathers.

    groups remembers its last array as ``groups._draw``, (weak reference to
    mech, seed, reps, array), and it is returned again for the same
    mechanism object (by identity), seed and reps.  Both inputs are immutable.
    """
    # read once: another thread may replace the memo, and each entry is whole
    last = getattr(groups, "_draw", None)
    if last is not None and last[0]() is mech and last[1:3] == (seed, reps):
        return last[3]
    if mech.n != groups.n:
        raise DimensionMismatch(
            f"mechanism size {mech.n} does not match group size {groups.n}")
    if groups.num_groups == 0:
        raise ValueError(f"no complete group of {groups.n} to evaluate")
    n = mech.n
    hist = np.empty((reps, 2 * n + 1), np.int64)
    # output - count + n indexes the histogram from 0
    offset = n - groups.counts
    width = 1 << n.bit_length()
    table = np.empty((n + 1, width))
    cdf = table[:, :n]
    # entries down to -TOL pass validation, so they are clipped to keep every
    # row sorted; the running sums add the entries in output order
    np.maximum(mech.matrix[:n].T, 0.0, out=cdf)
    np.cumsum(cdf, axis=1, out=cdf)
    table[:, n:] = np.inf
    flat = table.ravel()
    start = groups.counts * width
    shift = offset - start
    # one buffer per intermediate of a bisection step, reused by every step
    vals, hit, inc = (np.empty(groups.num_groups, t) for t in (np.float64, bool, np.int64))
    for r in range(reps):
        u = substream(seed, r).random(groups.num_groups)
        # pos - start ends as the number of row entries <= u; the view
        # flat[step - 1:] gathers flat[pos + step - 1] without adding to pos.
        # mode="clip" lets take write straight into vals ("raise" buffers
        # first), and never acts, as every index is in range
        pos = start.copy()
        step = width >> 1
        while step:
            np.take(flat[step - 1:], pos, out=vals, mode="clip")
            np.less_equal(vals, u, out=hit)
            pos += np.multiply(hit, step, out=inc)
            step >>= 1
        pos += shift
        hist[r] = np.bincount(pos, minlength=2 * n + 1)
    hist.setflags(write=False)
    object.__setattr__(groups, "_draw", (weakref.ref(mech), seed, reps, hist))
    return hist


def _result(per_rep: list) -> EvalResult:
    arr = np.asarray(per_rep)
    std_error = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return EvalResult(mean=float(arr.mean()), std_error=std_error, per_rep=per_rep)


def empirical_l0d(mech: Mechanism, groups: GroupCounts, cfg: EvalConfig) -> EvalResult:
    """Per repetition: fraction of groups whose output differs from the true
    count by strictly more than cfg.d (d=0 is the plain wrong-answer rate)."""
    _check_d(cfg.d, mech.n)
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
