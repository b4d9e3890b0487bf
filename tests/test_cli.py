"""The command-line front door, called in-process through cli.main."""

import json

from dpmech import cli, read_mechanism_csv


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
