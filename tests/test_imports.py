"""What the package and each CLI subcommand import, seen from a fresh
interpreter, and the package's public names."""

import json

import pytest

import dpmech
from conftest import run_fresh
from dpmech import explicit, write_mechanism_csv

#: each public name of the package, by the submodule that defines it;
#: lazily loaded, it must give the same object
_PUBLIC = {
    "analysis": "PropertyReport dp_alpha_max gm_derivable property_report",
    "core": "Mechanism Objective check_property implied_properties is_dp "
            "l0_objective l0_score l0d_objective l0d_score l1_objective l2_objective "
            "new_mechanism objective_value read_mechanism_csv symmetrize uniform_weights "
            "write_mechanism_csv",
    "evaluate": "EvalConfig EvalResult GroupCounts binomial_population empirical_l0d "
                "empirical_rmse ingest_groups mix64 parse_predicate substream",
    "explicit": "em_l0_cost explicit_fair fair_diagonal geometric gm_l0_cost uniform",
    "lp": "CooMatrix LinearProgram LpSolution build_lp design_mechanism max_violation "
          "solve_lp",
    "strategy": "PROPERTIES SelectionResult gm_is_column_monotone "
                "gm_weak_honesty_threshold select_strategy",
}
_SUBMODULES = ("analysis", "core", "errors", "evaluate", "explicit", "lp")


def _loaded_after(argv) -> tuple:
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, and the
    modules loaded when it returned."""
    out = run_fresh(
        "import json, sys\n"
        "from dpmech import cli\n"
        "try:\n"
        f"    code = cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n")
    code, loaded = json.loads(out.splitlines()[-1])
    return code, set(loaded)


@pytest.fixture
def mech_file(tmp_path):
    path = tmp_path / "m.csv"
    write_mechanism_csv(explicit.geometric(4, 0.62), path, alpha=0.62)
    return path


def test_public_names_are_pinned():
    assert dpmech.__all__ == sorted(
        [*_SUBMODULES, *(name for names in _PUBLIC.values() for name in names.split())])
    assert len(dpmech.__all__) == 55


def test_dir_lists_every_public_name():
    assert set(dpmech.__all__) <= set(dir(dpmech))


@pytest.mark.parametrize("module", _PUBLIC)
def test_each_name_is_the_object_its_submodule_gives(module):
    home = getattr(dpmech, module)
    for name in _PUBLIC[module].split():
        assert getattr(dpmech, name) is getattr(home, name), name


def test_submodules_resolve():
    for module in (*_SUBMODULES, "cli", "strategy"):
        assert getattr(dpmech, module).__name__ == f"dpmech.{module}"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(dpmech, "nope")


def test_names_are_looked_up_on_every_access(monkeypatch):
    # a tracer patches module bindings for one op; the package must not keep
    # a patched function after the binding is restored
    real = explicit.geometric
    monkeypatch.setattr(explicit, "geometric", "patched")
    assert dpmech.geometric == "patched"
    monkeypatch.setattr(explicit, "geometric", real)
    assert dpmech.geometric is real
    assert "geometric" not in vars(dpmech)


def test_import_loads_no_numpy():
    out = run_fresh("import sys\nimport dpmech\n"
                    "dpmech.select_strategy(4, 0.5, dpmech.PROPERTIES)\n"
                    "print('numpy' in sys.modules)\n")
    assert out.split() == ["False"]


@pytest.mark.parametrize("argv, code", [
    (["select", "--n", "4", "--alpha", "0.5", "--props", "WH,CM"], 0),
    (["--help"], 0),
    (["select", "--n", "4", "--alpha", "1.5"], 2),
    (["select", "--alpha", "1.5"], 2),
], ids=["select", "help", "alpha-out-of-range", "missing-flag"])
def test_select_help_and_flag_errors_load_no_numpy(argv, code):
    got, loaded = _loaded_after(argv)
    assert got == code
    assert "numpy" not in loaded


def test_select_loads_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: most of what
    # importing strategy would cost
    code, loaded = _loaded_after(["select", "--n", "4", "--alpha", "0.5"])
    assert code == 0
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "{mech}"],
    ["export-heatmap", "--in", "{mech}", "--out", "{tmp}/heat.csv"],
    ["design", "--mechanism", "gm", "--n", "4", "--alpha", "0.5", "--out", "{tmp}/o.csv"],
    ["design", "--mechanism", "em", "--n", "4", "--alpha", "0.5", "--out", "{tmp}/o.csv"],
    ["design", "--mechanism", "um", "--n", "4", "--out", "{tmp}/o.csv"],
], ids=["analyze", "export-heatmap", "design-gm", "design-em", "design-um"])
def test_array_commands_load_neither_lp_nor_evaluate(argv, mech_file):
    argv = [a.format(mech=mech_file, tmp=mech_file.parent) for a in argv]
    code, loaded = _loaded_after(argv)
    assert code == 0
    assert "numpy" in loaded
    assert not {"dpmech.lp", "dpmech.evaluate"} & loaded


def test_evaluate_loads_no_lp(mech_file):
    code, loaded = _loaded_after(["evaluate", "--mech", str(mech_file), "--data", "binomial",
                                  "--total", "100", "--group-size", "4", "--reps", "2"])
    assert code == 0
    assert "dpmech.evaluate" in loaded and "dpmech.lp" not in loaded
