"""The command-line front door, called in-process through cli.main."""

import json

import numpy as np
import pytest

from dpmech import (
    cli,
    explicit_fair,
    lp,
    read_mechanism_csv,
    select_strategy,
    uniform,
    write_mechanism_csv,
)
from dpmech.errors import NumericalInstability


def _error_only(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dpmech: error: ")
    assert len(captured.err.splitlines()) == 1
    return captured.err


def test_design_solver_failure_exits_1(tmp_path, capsys, monkeypatch):
    def unstable(problem):
        raise NumericalInstability("simplex point breaks a constraint by 1 (limit 1e-09)")

    monkeypatch.setattr(lp, "solve_lp", unstable)
    out = tmp_path / "m.csv"
    code = cli.main(["design", "--n", "6", "--alpha", "0.3", "--props", "WH,CM",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_SOLVER
    assert captured.out == ""
    assert captured.err.startswith("dpmech: error: ")
    assert not out.exists()


def test_design_rejects_retired_property_alias(tmp_path, capsys):
    out = tmp_path / "m.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", "--n", "3", "--alpha", "0.6", "--props", "wm-column",
                  "--out", str(out)])
    assert exc.value.code == cli.EXIT_FLAGS
    assert "unknown property 'wm-column'" in capsys.readouterr().err
    assert not out.exists()


def test_design_ignores_retired_backend_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DPMECH_BACKEND", "numba")
    out = tmp_path / "m.csv"
    code = cli.main(["design", "--n", "3", "--alpha", "0.6", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    lines = captured.out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["n"] == 3 and doc["mechanism"] == "lp"
    mech, alpha = read_mechanism_csv(out)
    assert mech.n == 3 and alpha == 0.6


@pytest.mark.parametrize("mechanism", ["gm", "em", "um"])
def test_design_objective_too_long_for_n_exits_2(tmp_path, capsys, mechanism):
    out = tmp_path / "m.csv"
    code = cli.main(["design", "--mechanism", mechanism, "--n", "10", "--alpha", "0.5",
                     "--objective", "l0d", "--d", "50", "--out", str(out)])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)
    assert not out.exists()


def test_design_weights_of_wrong_length_exits_2(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("0.5 0.5\n")
    out = tmp_path / "m.csv"
    code = cli.main(["design", "--mechanism", "gm", "--n", "3", "--alpha", "0.5",
                     "--weights", str(weights), "--out", str(out)])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)
    assert not out.exists()


def test_evaluate_without_a_complete_group_exits_3(tmp_path, capsys):
    mech = tmp_path / "m.csv"
    write_mechanism_csv(uniform(3), mech, alpha=1.0)
    data = tmp_path / "d.csv"
    data.write_text("bit\n1\n0\n")
    code = cli.main(["evaluate", "--mech", str(mech), "--data", "csv", "--csv", str(data),
                     "--predicate", "bit", "--group-size", "3"])
    assert code == cli.EXIT_DATA
    _error_only(capsys)


def test_design_dump_lp_writes_rows_and_designs(tmp_path, capsys):
    out = tmp_path / "m.csv"
    dump = tmp_path / "lp.txt"
    code = cli.main(["design", "--n", "2", "--alpha", "0.5", "--props", "WH",
                     "--out", str(out), "--dump-lp", str(dump)])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["WH"]
    lines = dump.read_text().splitlines()
    assert lines[0] == "minimize 9 18"
    # 9 bounds, 3 column sums, 12 privacy rows, 3 weak-honesty rows
    assert sum(1 for ln in lines if ln.startswith("bound ")) == 9
    rows = [ln.split()[2] for ln in lines if ln.startswith("row ")]
    assert rows == ["=="] * 3 + [">="] * (12 + 3)
    assert read_mechanism_csv(out)[0].n == 2


def test_design_dump_lp_solves_the_lp_it_dumped(tmp_path, capsys, monkeypatch):
    built, solved = [], []
    build, solve = lp.build_lp, lp.solve_lp
    monkeypatch.setattr(lp, "build_lp", lambda *args: built.append(build(*args)) or built[-1])
    monkeypatch.setattr(lp, "solve_lp", lambda problem: solved.append(problem) or solve(problem))
    code = cli.main(["design", "--n", "3", "--alpha", "0.6", "--props", "CM",
                     "--out", str(tmp_path / "m.csv"), "--dump-lp", str(tmp_path / "lp.txt")])
    assert code == cli.EXIT_OK
    assert len(built) == 1 and solved == built


def test_design_unwritable_dump_lp_exits_1(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli.main(["design", "--n", "2", "--alpha", "0.5", "--out", str(out),
                     "--dump-lp", str(tmp_path / "missing" / "lp.txt")])
    assert code == cli.EXIT_SOLVER
    _error_only(capsys)
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "2,0.5\n" + "nan,0.5,0.5\n" * 3,
    "0,NA\n1\n",
])
def test_analyze_bad_mechanism_exits_2(tmp_path, capsys, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    code = cli.main(["analyze", "--in", str(path)])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)


def test_design_nan_weights_exits_2(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("nan nan nan nan\n")
    out = tmp_path / "m.csv"
    code = cli.main(["design", "--mechanism", "gm", "--n", "3", "--alpha", "0.5",
                     "--weights", str(weights), "--out", str(out)])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)
    assert not out.exists()


@pytest.mark.parametrize("header, flag", [
    ("2,0.5", ["--alpha", "1.5"]),
    ("2,0.5", ["--alpha", "0"]),
    ("2,7", []),
    ("2,nan", []),
])
def test_analyze_alpha_out_of_range_exits_2(tmp_path, capsys, header, flag):
    path = tmp_path / "m.csv"
    path.write_text(header + "\n" + "0.25,0.25,0.25\n0.5,0.5,0.5\n0.25,0.25,0.25\n")
    code = cli.main(["analyze", "--in", str(path), *flag])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)


def test_analyze_prints_one_json_document(tmp_path, capsys):
    path = tmp_path / "m.csv"
    write_mechanism_csv(uniform(3), path, alpha=1.0)
    code = cli.main(["analyze", "--in", str(path)])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3 and doc["alpha"] == 1.0 and doc["gm_derivable"] is True
    assert doc["l0"] == doc["l0d.1"] == pytest.approx(1.0, abs=1e-12)


def test_design_uniform_rejects_bad_alpha(tmp_path, capsys):
    out = tmp_path / "um.csv"
    code = cli.main(["design", "--mechanism", "um", "--n", "3", "--alpha", "1.5",
                     "--out", str(out)])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)
    assert not out.exists()


@pytest.mark.parametrize("predicate", ["age<=abc", "age>abc"])
def test_evaluate_non_numeric_predicate_value_exits_2(tmp_path, capsys, predicate):
    mech = tmp_path / "m.csv"
    write_mechanism_csv(uniform(1), mech, alpha=1.0)
    data = tmp_path / "people.csv"
    data.write_text("age\n30\n40\n")
    code = cli.main(["evaluate", "--mech", str(mech), "--data", "csv", "--csv", str(data),
                     "--predicate", predicate, "--group-size", "1"])
    assert code == cli.EXIT_FLAGS
    assert "'abc'" in _error_only(capsys)


@pytest.mark.parametrize("objective", ["l0", "l1", "l2"])
def test_design_tail_offset_without_l0d_exits_2(tmp_path, capsys, objective):
    out = tmp_path / "m.csv"
    code = cli.main(["design", "--mechanism", "gm", "--n", "4", "--alpha", "0.5",
                     "--objective", objective, "--d", "2", "--out", str(out)])
    assert code == cli.EXIT_FLAGS
    assert "--d" in _error_only(capsys)
    assert not out.exists()


@pytest.mark.parametrize("data, flags", [
    ("binomial", ["--group-size", "0"]),
    ("binomial", ["--group-size", "-3"]),
    ("binomial", ["--group-size", "2", "--p", "1.5"]),
    ("binomial", ["--group-size", "2", "--p", "-0.1"]),
    ("binomial", ["--group-size", "2", "--reps", "0"]),
    ("csv", ["--group-size", "0"]),
])
def test_evaluate_bad_flag_exits_2(tmp_path, capsys, data, flags):
    mech = tmp_path / "m.csv"
    write_mechanism_csv(uniform(2), mech, alpha=1.0)
    people = tmp_path / "people.csv"
    people.write_text("bit\n1\n0\n1\n0\n")
    code = cli.main(["evaluate", "--mech", str(mech), "--data", data,
                     "--csv", str(people), "--predicate", "bit", *flags])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)


@pytest.mark.parametrize("flags", [
    [],
    ["--csv", "people.csv"],
    ["--predicate", "bit"],
    ["--csv", "people.csv", "--predicate", "age<=abc"],
])
def test_evaluate_csv_flag_errors_exit_2_before_the_mechanism_is_read(tmp_path, capsys,
                                                                      monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["evaluate", "--mech", "missing.csv", "--data", "csv",
                     "--group-size", "4", *flags])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)


@pytest.mark.parametrize("flags", [
    ["--objective", "l0d", "--d", "5"],
    ["--weights", "w.txt"],
])
def test_design_objective_error_writes_no_file(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.txt").write_text("0.5 0.5\n")
    code = cli.main(["design", "--n", "2", "--alpha", "0.5", *flags,
                     "--dump-lp", "lp.txt", "--out", "m.csv"])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)
    assert not (tmp_path / "lp.txt").exists()
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("mechanism", ["lp", "gm", "em"])
def test_design_without_alpha_exits_2(tmp_path, capsys, mechanism):
    out = tmp_path / "m.csv"
    dump = tmp_path / "lp.txt"
    code = cli.main(["design", "--mechanism", mechanism, "--n", "3", "--out", str(out),
                     "--dump-lp", str(dump)])
    assert code == cli.EXIT_FLAGS
    assert "--alpha is required" in _error_only(capsys)
    assert not out.exists() and not dump.exists()


@pytest.mark.parametrize("mechanism", ["gm", "em", "um"])
@pytest.mark.parametrize("flags", [["--props", "F"], ["--dump-lp", "lp.txt"]],
                         ids=["props", "dump-lp"])
def test_design_lp_flags_exit_2_for_a_closed_form(tmp_path, capsys, monkeypatch,
                                                   mechanism, flags):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["design", "--mechanism", mechanism, "--n", "4", "--alpha", "0.9",
                     *flags, "--out", "m.csv"])
    assert code == cli.EXIT_FLAGS
    assert (f"--props and --dump-lp apply only to --mechanism lp, not {mechanism}"
            in _error_only(capsys))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: certify refuses an optimal answer")
def test_design_n24_alpha_0_3_exits_0(tmp_path, capsys):
    code = cli.main(["design", "--n", "24", "--alpha", "0.3", "--out", str(tmp_path / "m.csv")])
    assert code == cli.EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["select", "--alpha", "0.5"],
    ["design", "--mechanism", "gm", "--alpha", "0.5", "--out", "m.csv"],
])
def test_group_size_below_1_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = cli.main([*argv, "--n", "0"])
    assert code == cli.EXIT_FLAGS
    assert "group size must be an integer >= 1, got 0" in _error_only(capsys)
    assert not (tmp_path / "m.csv").exists()


def test_select_prints_the_strategy_and_rationale(capsys):
    code = cli.main(["select", "--n", "6", "--alpha", "0.62", "--props", "wh,cm"])
    assert code == cli.EXIT_OK
    expected = select_strategy(6, 0.62, {"WH", "CM"})
    assert json.loads(capsys.readouterr().out) == {
        "strategy": expected.strategy, "rationale": expected.rationale}


def test_export_heatmap_reads_back_the_matrix_bit_for_bit(tmp_path, capsys):
    path = tmp_path / "m.csv"
    write_mechanism_csv(explicit_fair(4, 0.62), path, alpha=0.62)
    out = tmp_path / "heat.csv"
    code = cli.main(["export-heatmap", "--in", str(path), "--out", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"out": str(out), "rows": 25}
    lines = out.read_text().splitlines()
    assert lines[0] == "input,output,probability" and len(lines) == 1 + 25
    back = np.full((5, 5), np.nan)
    for line in lines[1:]:
        j, i, value = line.split(",")
        back[int(i), int(j)] = float(value)
    assert back.tobytes() == read_mechanism_csv(path)[0].matrix.tobytes()


def test_export_heatmap_missing_input_exits_2(tmp_path, capsys):
    out = tmp_path / "heat.csv"
    code = cli.main(["export-heatmap", "--in", str(tmp_path / "missing.csv"),
                     "--out", str(out)])
    assert code == cli.EXIT_FLAGS
    _error_only(capsys)
    assert not out.exists()


def test_evaluate_oversized_csv_field_exits_3(tmp_path, capsys):
    mech = tmp_path / "m.csv"
    write_mechanism_csv(uniform(1), mech, alpha=1.0)
    data = tmp_path / "people.csv"
    data.write_text("bit\n1\n" + "1" * 200_000 + "\n")
    code = cli.main(["evaluate", "--mech", str(mech), "--data", "csv", "--csv", str(data),
                     "--predicate", "bit", "--group-size", "1"])
    assert code == cli.EXIT_DATA
    assert "line 3: field larger than field limit" in _error_only(capsys)


@pytest.mark.parametrize("argv", [
    ["select", "--n", "5", "--props", "wh"],
    ["design", "--mechanism", "gm", "--n", "5", "--out", "m.csv"],
    ["design", "--mechanism", "em", "--n", "5", "--out", "m.csv"],
])
def test_alpha_1_exits_2_where_neither_mechanism_exists(tmp_path, capsys, monkeypatch,
                                                         argv):
    monkeypatch.chdir(tmp_path)
    code = cli.main([*argv, "--alpha", "1"])
    assert code == cli.EXIT_FLAGS
    assert "alpha must lie in (0, 1)" in _error_only(capsys)
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--in", "m.csv"], cli.EXIT_FLAGS),
    (["export-heatmap", "--in", "m.csv", "--out", "heat.csv"], cli.EXIT_FLAGS),
    (["evaluate", "--mech", "m.csv", "--data", "binomial", "--group-size", "1"],
     cli.EXIT_DATA),
    (["evaluate", "--mech", "ok.csv", "--data", "csv", "--csv", "m.csv",
      "--predicate", "bit", "--group-size", "1"], cli.EXIT_DATA),
])
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    write_mechanism_csv(uniform(1), tmp_path / "ok.csv", alpha=1.0)
    (tmp_path / "m.csv").write_bytes(b"bit\n1,NA\nS\xe9te\n")
    assert cli.main(argv) == code
    assert "m.csv: not valid UTF-8" in _error_only(capsys)
    assert not (tmp_path / "heat.csv").exists()


@pytest.mark.parametrize("content, message", [
    (b"0.25 0.25\n0.25 x\n", "w.txt: weight 'x' is not a number"),
    (b"0.25 0.25\n0.25 S\xe9\n", "w.txt: not valid UTF-8 (byte 0xe9 at offset 16)"),
])
def test_design_bad_weights_file_names_the_file_and_token(tmp_path, capsys, monkeypatch,
                                                           content, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.txt").write_bytes(content)
    code = cli.main(["design", "--mechanism", "gm", "--n", "3", "--alpha", "0.5",
                     "--weights", "w.txt", "--out", "m.csv"])
    assert code == cli.EXIT_FLAGS
    assert message in _error_only(capsys)
    assert not (tmp_path / "m.csv").exists()


def test_design_weights_file_may_start_with_a_byte_order_mark(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.txt").write_bytes(b"\xef\xbb\xbf0.25 0.75\n")
    argv = ["design", "--mechanism", "gm", "--n", "1", "--alpha", "0.5",
            "--objective", "l1", "--out", "m.csv"]
    assert cli.main([*argv, "--weights", "w.txt"]) == cli.EXIT_OK
    value = json.loads(capsys.readouterr().out)["objective_value"]
    # the geometric mechanism at n=1 answers wrong with probability 1/3 in each column
    assert value == pytest.approx((0.25 + 0.75) / 3, abs=1e-15)


def test_evaluate_tail_offset_with_rmse_exits_2_before_reading(tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["evaluate", "--mech", "missing.csv", "--data", "binomial",
                     "--group-size", "2", "--metric", "rmse", "--d", "2"])
    assert code == cli.EXIT_FLAGS
    assert "d applies only to the l0d metric" in _error_only(capsys)
