"""The per-row CSV ingest loop: the oracle for both paths of
`evaluate.ingest_groups`.

It checks and evaluates every row on its own: blank row, too few fields,
then the 0/1 bit or the predicate.  `ingest_groups` reads blocks of plain
lines with a numpy block scan and the rest of the file, from the first block
the scan declines, with its csv.reader row loop; both evaluate each distinct
non-blank cell once.  The equivalence tests hold both paths, and the hand-offs
between them, to this loop's counts, skips, exceptions and messages.
"""

from __future__ import annotations

import csv

import numpy as np

from dpmech.errors import ParseError, UnknownColumn
from dpmech.evaluate import GroupCounts
from dpmech.strategy import _check_n


def ingest_groups(csv_path, column: str, group_size: int,
                  predicate=None) -> GroupCounts:
    group_size = _check_n(group_size)
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{csv_path}: empty file") from None
        names = [h.strip() for h in header]
        if column not in names:
            raise UnknownColumn(f"{csv_path}: no column {column!r} in header {names}")
        col = names.index(column)
        bits = []
        for row in reader:
            # the physical line the record ends on; a quoted field may span lines
            line_no = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if col >= len(row):
                raise ParseError(f"{csv_path}: line {line_no}: too few fields")
            cell = row[col]
            if predicate is None:
                value = cell.strip()
                if value not in ("0", "1"):
                    raise ParseError(
                        f"{csv_path}: line {line_no}: expected a 0/1 bit, got {cell!r}")
                bits.append(int(value))
            else:
                try:
                    bits.append(1 if predicate(cell) else 0)
                except ValueError:
                    raise ParseError(
                        f"{csv_path}: line {line_no}: cannot evaluate predicate "
                        f"on {cell!r}") from None
    groups = len(bits) // group_size
    arr = np.asarray(bits[:groups * group_size], dtype=np.int64)
    counts = arr.reshape(groups, group_size).sum(axis=1) if groups else np.zeros(0, np.int64)
    return GroupCounts(n=group_size, counts=counts)
