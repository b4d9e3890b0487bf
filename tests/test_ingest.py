"""CSV ingest: equivalence with the per-row reference loop across block-scan
hand-offs, the one-call-per-distinct-cell contract, line numbers, byte-order
marks, pipes, long lines and csv errors."""

import contextlib
import os
import re
import threading
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import _ingest_reference
from dpmech import evaluate, ingest_groups, parse_predicate
from dpmech.errors import ParseError

NEWLINES = ("\n", "\r\n", "\r")
PREDICATES = (None, "val<30", "val>=65", "val==1e1", "val==Oslo")
# "2024-01-01" and "123456789" are longer than the block scan's 8-byte key;
# "\u00a0" is blank to str.strip but not ASCII whitespace; csv passes a NUL through
CELLS = ("", " ", "0", "1", " 1 ", "1 ", "2", "29", "30", " 64", "65", "70.5", "1e1",
         "10", "abc", "Oslo", " Oslo ", "a,b", 'say "hi"', "x\ny", "2024-01-01",
         "123456789", "\u00a0", "1\x00")
# cells that need no quotes: the block scan takes most of them under some
# predicate; "12345678" fills its 8-byte key, and it declines the last two
PLAIN = ("0", "1", " 1", "1 ", "29", "65", "1e1", "12345678", "\u00d8slo", "123456789",
         "1\x00")


def _outcome(ingest, path, column, group_size, predicate):
    try:
        return "counts", ingest(path, column, group_size, predicate=predicate).counts.tolist()
    except Exception as exc:  # the reference's exception is the expected outcome
        return type(exc), str(exc)


def _render(cell, quote):
    if quote or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


_row = st.one_of(
    st.just([]),
    st.lists(st.sampled_from(("", " ", "  ")), min_size=1, max_size=3),
    st.lists(st.sampled_from(CELLS), min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lead=st.lists(st.lists(st.sampled_from(PLAIN), min_size=2, max_size=3), max_size=10),
       rows=st.lists(st.tuples(_row, st.booleans(), st.sampled_from(NEWLINES)),
                     max_size=30),
       newline=st.sampled_from(NEWLINES),
       spec=st.sampled_from(PREDICATES),
       group_size=st.integers(1, 3),
       block=st.integers(8, 64))
# a blank target cell in a non-blank row, then a whitespace-only row holding
# the same blank text: the second row is skipped, not given the first's bit
@example(lead=[], rows=[(["a", " "], False, "\n"), ([" ", " "], False, "\n")], newline="\n",
         spec="val==Oslo", group_size=1, block=evaluate._BLOCK)
# the '\r' of a '\r\n' is not part of a line's last cell
@example(lead=[["x", "29"]], rows=[], newline="\r\n", spec="val<30", group_size=1, block=64)
# a lone '\r' ends a record, so the block that holds it goes to the row loop
@example(lead=[["x", "29"]], rows=[(["x", "65"], False, "\r"), (["x", "1"], False, "\n")],
         newline="\n", spec="val==Oslo", group_size=1, block=64)
# a cell longer than the 8-byte key, and one whose NUL would key it like "1",
# go to the row loop
@example(lead=[["x", "123456789"]], rows=[], newline="\n", spec="val>=65", group_size=1,
         block=64)
@example(lead=[["x", "1\x00"]], rows=[], newline="\n", spec=None, group_size=1, block=64)
def test_matches_the_per_row_reference(tmp_path, monkeypatch, lead, rows, newline, spec,
                                       group_size, block):
    # the lead rows are plain, so the block scan takes some blocks before it
    # hands off; blocks of a few dozen bytes put block ends and hand-offs to
    # the row loop inside the examples.  The header and lead rows end with
    # newline, each later row with its own.
    monkeypatch.setattr(evaluate, "_BLOCK", block)
    text = "".join(line + newline for line in ["id,val,extra"] + [",".join(r) for r in lead])
    text += "".join(",".join(_render(c, quote) for c in row) + end for row, quote, end in rows)
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    seen = {}

    def spy(ingest):
        if not spec:
            return None
        seen[ingest] = set()
        predicate = parse_predicate(spec)[1]
        return lambda cell: seen[ingest].add(cell) or predicate(cell)

    outcome = _outcome(ingest_groups, path, "val", group_size, spy(ingest_groups))
    reference = _ingest_reference.ingest_groups
    assert outcome == _outcome(reference, path, "val", group_size, spy(reference))
    # the predicate sees only cell texts that csv.reader yields
    if spec and outcome[0] == "counts":
        assert seen[ingest_groups] <= seen[reference]


def test_predicate_runs_once_per_distinct_non_blank_cell(tmp_path, monkeypatch):
    # the first 16-byte block after the header holds rows a to c; the next
    # holds e's blank cell, so the row loop takes over at row d
    monkeypatch.setattr(evaluate, "_BLOCK", 16)
    path = tmp_path / "data.csv"
    path.write_text("id,age\na,30\nb,40\nc, 30\nd,30\ne,\n\nf,40\ng,\nh,30\n")
    calls = Counter()
    _, pred = parse_predicate("age==40")

    def counting(cell):
        calls[cell] += 1
        return pred(cell)

    assert ingest_groups(path, "age", 1, predicate=counting).counts.tolist() == [
        0, 1, 0, 0, 0, 1, 0, 0]
    # a blank cell in a non-blank row is never remembered, so it runs per row
    assert calls == {"30": 1, "40": 1, " 30": 1, "": 2}


@pytest.mark.parametrize("spec, cell, bad, message", [
    ("val>=5", str, "old", "line 70001: cannot evaluate predicate on 'old'"),
    (None, lambda k: "01"[k % 2], "2", "line 70001: expected a 0/1 bit, got '2'"),
], ids=["distinct-cells", "repeated-bits"])
def test_late_bad_cell_keeps_its_line_number(tmp_path, monkeypatch, spec, cell, bad,
                                            message):
    # the first case fills the memo to its limit with distinct cells; the second makes
    # nearly every row a hit; blank and whitespace-only rows are skipped
    # but still counted as lines.  With 32-byte blocks the block scan reads the
    # first rows and the row loop takes over at the whitespace-only row on line 991
    monkeypatch.setattr(evaluate, "_BLOCK", 32)
    lines = ["id,val"]
    for line_no in range(2, 70_001):
        if line_no % 997 == 0:
            lines.append("")
        elif line_no % 991 == 0:
            lines.append(" , ")
        else:
            lines.append(f"x,{cell(line_no)}")
    lines += [f"x,{bad}", "x,1"]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    predicate = parse_predicate(spec)[1] if spec else None
    with pytest.raises(ParseError, match=message):
        ingest_groups(path, "val", 1, predicate=predicate)
    assert (_outcome(ingest_groups, path, "val", 1, predicate)
            == _outcome(_ingest_reference.ingest_groups, path, "val", 1, predicate))


@pytest.mark.parametrize("lead", [0, 40])
@pytest.mark.parametrize("body, line", [
    ('"x\ny",1\nz,bad\n', 4),
    ('"x\n\ny",1\n,\nz,bad\n', 6),
    ('"x\ry",1\rz,bad\r', 4),
], ids=["quoted-newline", "quoted-blank-line", "lone-cr"])
def test_a_record_that_spans_lines_counts_each_line(tmp_path, monkeypatch, lead, body, line):
    # an error names the line its record ends on, as csv.reader counts
    # lines.  With 16-byte blocks the block scan takes the lead rows that end
    # in '\n' before the row loop takes over at the quoted record; a file
    # with no '\n' goes to the row loop from its header
    monkeypatch.setattr(evaluate, "_BLOCK", 16)
    path = tmp_path / "data.csv"
    newline = "\r" if "\r" in body else "\n"
    path.write_bytes(("a,b" + newline + ("x,1" + newline) * lead + body).encode())
    with pytest.raises(ParseError, match=f"line {line + lead}: expected a 0/1 bit, got 'bad'"):
        ingest_groups(path, "b", 1)
    assert (_outcome(ingest_groups, path, "b", 1, None)
            == _outcome(_ingest_reference.ingest_groups, path, "b", 1, None))


def test_utf8_bom_is_skipped(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xef\xbb\xbfage,flag\n70,1\n20,0\n")
    _, pred = parse_predicate("age>=65")
    assert ingest_groups(path, "age", 1, predicate=pred).counts.tolist() == [1, 0]
    assert ingest_groups(path, "flag", 2).counts.tolist() == [1]
    # and so does a quoted header
    path.write_bytes(b'\xef\xbb\xbf"age",flag\n70,1\n20,0\n')
    assert ingest_groups(path, "age", 1, predicate=pred).counts.tolist() == [1, 0]


@pytest.mark.parametrize("tail", ["", "x,2\n"], ids=["counts", "bad-bit"])
@pytest.mark.parametrize("header, column, scanned", [
    ('"age","flag"\n', "flag", True),
    ('"age","flag"\r\n', "flag", True),
    ('\ufeff"age",flag\n', "flag", True),
    ('"a""ge","fl,ag"\n', "fl,ag", True),
    ('ag"e,"flag"\n', "flag", True),
    ('"age","fl\nag"\n', "fl\nag", False),
    ('"age","flag""\n"\n', 'flag"', False),
    ('"age","flag\n', "flag", False),
    ('"a\rge","flag"\n', "flag", False),
    ('"a\x00ge","flag"\n', "flag", False),
], ids=["quoted", "crlf", "bom", "escape-and-comma", "inner-quote", "spans-lines",
        "escape-then-newline", "unclosed", "lone-cr", "nul"])
def test_a_quoted_header_ending_on_its_line_is_parsed_before_the_scan(
        tmp_path, monkeypatch, header, column, scanned, tail):
    # a header plain but for its quotes hands the rows to the block scan; one
    # whose record runs on past its first line is read by the row loop
    block_cells, seen = evaluate._block_cells, []
    monkeypatch.setattr(evaluate, "_block_cells",
                        lambda buf, col: seen.append(buf) or block_cells(buf, col))
    path = tmp_path / "data.csv"
    path.write_bytes((header + "70,1\n20,0\n" * 3 + tail).encode())
    assert (_outcome(ingest_groups, path, column, 2, None)
            == _outcome(_ingest_reference.ingest_groups, path, column, 2, None))
    assert bool(seen) == scanned


def test_lone_cr_line_ends_are_read_in_bounded_memory(tmp_path):
    # no line of a 4 MB file ends in '\n', so no block holds a whole line:
    # the row loop takes the file from its header, a line at a time
    path = tmp_path / "data.csv"
    path.write_bytes(b"pad,flag\r" + (b"x" * 98 + b",1\r") * 40_000)
    tracemalloc.start()
    try:
        assert ingest_groups(path, "flag", 1000).counts.tolist() == [1000] * 40
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * evaluate._BLOCK


@pytest.mark.parametrize("head, tail, line", [
    (b"b\n" + b"1\n" * 10, b"", 12),
    (b"", b"\n1\n", 1),
], ids=["last-line", "first-line"])
def test_a_long_line_is_finished_in_linear_time(tmp_path, monkeypatch, head, tail, line):
    # the file is opened with a 64-byte buffer, and the 4 MB line the block
    # scan declines must still be read in linear time
    path = tmp_path / "data.csv"
    path.write_bytes(head + b"x" * (4 << 20) + tail)
    monkeypatch.setattr(evaluate, "open", lambda file, mode: open(file, mode, buffering=64),
                        raising=False)
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"line {line}: field larger than field limit"):
        ingest_groups(path, "b", 1)
    assert time.perf_counter() - start < 2


def test_a_long_line_is_held_about_twice(tmp_path):
    # the docstring's memory bound: the row loop holds a line the block scan
    # declines about twice, as the text wrapper joins its chunks
    path = tmp_path / "data.csv"
    path.write_bytes(b"b\n" + b"1\n" * 10 + b"x" * (4 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="line 12: field larger than field limit"):
            ingest_groups(path, "b", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (4 << 20)


@pytest.mark.parametrize("block", range(4, 41))
@pytest.mark.parametrize("text, spec", [
    ("id,val\r\n" + "x,1\r\n" * 3 + '"q",0\r\n' + "x,1\r\n" * 3 + "x,2\r\n", None),
    ("id,val\n" + "x,Øslo\n" * 3 + '"Ø",Øslo\nx,Ø\n' + "x,Øslo\n" * 3 + "x,Oslo\n",
     "val==Øslo"),
    ("\ufeffa_long_first_column,a_long_second_column,val\n" + "x,y,1\nx,y,0\n" * 4, None),
], ids=["crlf", "two-byte-char", "long-header"])
def test_every_block_size_hands_off_like_the_reference(tmp_path, monkeypatch, block, text,
                                                      spec):
    # the sweep of block sizes puts a hand-off to the row loop at each seam:
    # between the '\r' and '\n' of a line end, inside the two bytes of 'Ø',
    # and inside a header longer than a block, behind a byte-order mark
    monkeypatch.setattr(evaluate, "_BLOCK", block)
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    predicate = parse_predicate(spec)[1] if spec else None
    assert (_outcome(ingest_groups, path, "val", 1, predicate)
            == _outcome(_ingest_reference.ingest_groups, path, "val", 1, predicate))


@contextlib.contextmanager
def _fifo(tmp_path, data):
    """A named pipe that a thread fills with data while the caller reads it."""
    path = tmp_path / "data.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, daemon=True, args=(data,))
    writer.start()
    try:
        yield path
    finally:
        writer.join(timeout=10)
        path.unlink()
    assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("block", [16, 64])
def test_a_pipe_is_scanned_in_the_blocks_of_a_file(tmp_path, monkeypatch, block):
    # the block scan takes the plain rows, and the quoted one near the end
    # goes to the row loop; the byte-order mark is not part of a column name
    text = b"\xef\xbb\xbfage,flag\n" + b"70,1\n20,0\n" * 20 + b'"81",1\n' + b"20,0\n" * 3
    monkeypatch.setattr(evaluate, "_BLOCK", block)
    block_cells, scanned = evaluate._block_cells, []
    monkeypatch.setattr(evaluate, "_block_cells",
                        lambda buf, col: scanned.append(buf) or block_cells(buf, col))
    _, pred = parse_predicate("age>=65")
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    assert ingest_groups(path, "age", 2, predicate=pred).counts.tolist() == [1] * 21 + [0]
    from_file = scanned.copy()
    scanned.clear()
    with _fifo(tmp_path, text) as fifo:
        assert ingest_groups(fifo, "age", 2, predicate=pred).counts.tolist() == [1] * 21 + [0]
    assert scanned == from_file and len(scanned) > 2


@pytest.mark.parametrize("text", [
    b"age,flag\n70,1\nS\xe9te,0\n",
    b"age,flag\n" + b"70,1\n" * 10_000 + b"S\xe9te,0\n",
    # the header's bytes would be UTF-8 with its quote taken out
    b'"S\xc3"\xa9te",flag\n70,1\n',
], ids=["first-chunk", "later-chunk", "split-by-quote"])
def test_non_utf8_file_is_a_parse_error(tmp_path, monkeypatch, text):
    # with 64-byte blocks the later chunk's bad byte is 833 blocks in
    monkeypatch.setattr(evaluate, "_BLOCK", 64)
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid UTF-8$"):
        ingest_groups(path, "flag", 1)


# a bad row at the end of the text decoder's first 8 KiB chunk, and a bad
# byte 20 rows later: the row's "\n" is byte 8194, or the row spans byte
# 8196, 8 KiB past the header
_NEAR_8K = b"c,b\n" + b"x,1\n" * 2046 + b"x,2222\n" + b"x,1\n" * 20 + b"x\xe9,1\n"
_ACROSS_8K = b"c,b\n" + b"x,1\n" * 2047 + b"x,2222\n" + b"x,1\n" * 20 + b"\xe9,1\n"

_FIRST_FAULTS = pytest.mark.parametrize("text, message", [
    (b"c,b\nx,1\nx,2222\nx,1\n\xe9,1\n", "line 3: expected a 0/1 bit, got '2222'"),
    (b"c,b\nx,1\n\xe9,1\nx,2222\n", "not valid UTF-8"),
    (b"c,b\nx,1\nx\xe9,2\n", "not valid UTF-8"),
    (b'"c\xe9",b\nx,1\n', "not valid UTF-8"),
    (_NEAR_8K, "line 2048: expected a 0/1 bit, got '2222'"),
    (_ACROSS_8K, "line 2049: expected a 0/1 bit, got '2222'"),
], ids=["bad-row-first", "bad-byte-first", "both-in-one-row", "header", "near-8KiB",
        "across-8KiB"])


@pytest.mark.parametrize("block", [16, 64, 1 << 18])
@_FIRST_FAULTS
def test_the_first_fault_in_file_order_is_reported(tmp_path, monkeypatch, block, text,
                                                   message):
    # the text decoder reads 8 KiB chunks ahead of the rows, and the block
    # size moves the byte where the row loop starts
    monkeypatch.setattr(evaluate, "_BLOCK", block)
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        ingest_groups(path, "b", 1)


def test_a_bad_byte_is_reported_before_a_later_csv_error_in_its_record(tmp_path):
    # the quoted field passes the csv field size limit only after the line
    # that holds the bad byte
    path = tmp_path / "data.csv"
    path.write_bytes(b'c,b\nx,"\n\xe9\n' + b"1" * 200_000 + b'"\n')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid UTF-8$"):
        ingest_groups(path, "b", 1)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@_FIRST_FAULTS
def test_a_pipe_reports_the_first_fault_in_file_order(tmp_path, monkeypatch, text, message):
    # the file test's block sizes, in a loop so that the ids name the faults alone
    for block in (16, 64, 1 << 18):
        monkeypatch.setattr(evaluate, "_BLOCK", block)
        with _fifo(tmp_path, text) as path, pytest.raises(
                ParseError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            ingest_groups(path, "b", 1)


@pytest.mark.parametrize("head, tail, line", [
    ("bit\n1\n", "\n", 3),
    ("bit\n\n1\n", "\n", 4),
    ("bit,", "\n1\n", 1),
    ("bit,x\n1,", "\n", 2),
], ids=["row", "after-blank-row", "header", "other-column"])
def test_csv_errors_are_parse_errors_with_a_line_number(tmp_path, head, tail, line):
    path = tmp_path / "data.csv"
    path.write_text(head + "1" * 200_000 + tail)
    with pytest.raises(ParseError, match=f"line {line}: field larger than field limit"):
        ingest_groups(path, "bit", 1)
