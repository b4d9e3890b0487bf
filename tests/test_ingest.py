"""CSV ingest: equivalence with the per-row reference loop, the one-call-per-
distinct-cell contract, line numbers, byte-order marks and csv errors."""

import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import _ingest_reference
from dpmech import ingest_groups, parse_predicate
from dpmech.errors import ParseError

PREDICATES = (None, "val<30", "val>=65", "val==1e1", "val==Oslo")
CELLS = ("", " ", "0", "1", " 1 ", "1 ", "2", "29", "30", " 64", "65", "70.5", "1e1",
         "10", "abc", "Oslo", " Oslo ", "a,b", 'say "hi"', "x\ny")


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
@given(rows=st.lists(st.tuples(_row, st.booleans()), max_size=30),
       newline=st.sampled_from(("\n", "\r\n")),
       spec=st.sampled_from(PREDICATES),
       group_size=st.integers(1, 3))
# a blank target cell in a non-blank row, then a whitespace-only row holding
# the same blank text: the second row is skipped, not given the first's bit
@example(rows=[(["a", " "], False), ([" ", " "], False)], newline="\n",
         spec="val==Oslo", group_size=1)
def test_matches_the_per_row_reference(tmp_path, rows, newline, spec, group_size):
    lines = ["id,val,extra"] + [",".join(_render(c, quote) for c in row)
                                for row, quote in rows]
    path = tmp_path / "data.csv"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    predicate = parse_predicate(spec)[1] if spec else None
    assert (_outcome(ingest_groups, path, "val", group_size, predicate)
            == _outcome(_ingest_reference.ingest_groups, path, "val", group_size, predicate))


def test_predicate_runs_once_per_distinct_non_blank_cell(tmp_path):
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
def test_late_bad_cell_keeps_its_line_number(tmp_path, spec, cell, bad, message):
    # the first case fills the memo to its limit with distinct cells; the second makes
    # nearly every row a hit; blank and whitespace-only rows are skipped
    # but still counted as lines
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


def test_utf8_bom_is_skipped(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xef\xbb\xbfage,flag\n70,1\n20,0\n")
    _, pred = parse_predicate("age>=65")
    assert ingest_groups(path, "age", 1, predicate=pred).counts.tolist() == [1, 0]
    assert ingest_groups(path, "flag", 2).counts.tolist() == [1]


@pytest.mark.parametrize("text", [
    b"age,flag\n70,1\nS\xe9te,0\n",
    b"age,flag\n" + b"70,1\n" * 10_000 + b"S\xe9te,0\n",
], ids=["first-chunk", "later-chunk"])
def test_non_utf8_file_is_a_parse_error(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid UTF-8$"):
        ingest_groups(path, "flag", 1)


@pytest.mark.parametrize("head, tail, line", [
    ("bit\n1\n", "\n", 3),
    ("bit\n\n1\n", "\n", 4),
    ("bit,", "\n1\n", 1),
], ids=["row", "after-blank-row", "header"])
def test_csv_errors_are_parse_errors_with_a_line_number(tmp_path, head, tail, line):
    path = tmp_path / "data.csv"
    path.write_text(head + "1" * 200_000 + tail)
    with pytest.raises(ParseError, match=f"line {line}: field larger than field limit"):
        ingest_groups(path, "bit", 1)
