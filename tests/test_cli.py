"""The command-line front door, called in-process through cli.main."""

import json

import pytest

from dpmech import cli, read_mechanism_csv, uniform, write_mechanism_csv


def _error_only(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dpmech: error: ")
    assert len(captured.err.splitlines()) == 1
    return captured.err


def test_design_solver_failure_exits_1(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli.main(["design", "--n", "6", "--alpha", "0.3", "--props", "WH,CM",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_SOLVER
    assert captured.out == ""
    assert captured.err.startswith("dpmech: error: ")
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
