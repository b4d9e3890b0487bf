"""Tests of the benchmark's own machinery: output checks, deadlines, seeded
inputs and the statistics it reports.  Run with the checkout's ``src`` on
PYTHONPATH, as the repository's test command does."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
from dpmech import lp  # noqa: E402

ORACLE = spec.load_json("oracle.json")
CASES = {c["id"]: c for c in spec.design_cases()}


def _design_with_planted(monkeypatch, case_id, values):
    case = CASES[case_id]
    n = case["n"]
    planted = np.asarray(values, dtype=float).reshape((n + 1) ** 2)

    def fake_solve(problem):
        return lp.LpSolution(status="optimal", values=planted,
                             objective_value=float(problem.c @ planted))

    monkeypatch.setattr(worker.lp, "solve_lp", fake_solve)
    res = worker.run_design(case)
    return spec.check_design(res, ORACLE[case_id], n, case["objective"])


def test_true_optimum_passes():
    case = CASES["n4-a0.62-WH-l0"]
    res = worker.run_design(case)
    assert spec.check_design(res, ORACLE[case["id"]], 4, "l0") == []


def test_planted_feasible_but_suboptimal_vector_is_flagged(monkeypatch):
    # the uniform mechanism satisfies every constraint but costs 1, above the optimum
    why = _design_with_planted(monkeypatch, "n4-a0.62-WH-l0", np.full((5, 5), 0.2))
    assert any("oracle" in w for w in why)


def test_planted_infeasible_vector_is_flagged(monkeypatch):
    # columns sum to 2.5: validation raises before the objective is computed
    why = _design_with_planted(monkeypatch, "n4-a0.62-WH-l0", np.full((5, 5), 0.5))
    assert why and "ColumnSumError" in why[0]


def test_violation_and_cost_checks():
    good = {"error": None, "status": "optimal", "objective": 0.5, "violation": 0.0}
    assert spec.check_design(good, 0.5, 4, "l0") == []
    assert spec.check_design({**good, "violation": 2e-9}, 0.5, 4, "l0")
    assert spec.check_design({**good, "objective": 1.5}, 1.5, 4, "l0") == [
        "cost 1.5 above the uniform mechanism"]
    assert spec.check_design({**good, "status": "infeasible"}, 0.5, 4, "l0") == [
        "status infeasible"]


def test_digest_mismatch_is_flagged():
    op = {"mech": "gm", "n": 10, "groups": spec.SAMPLING_GROUPS[10], "seed": 3}
    res = worker.run_sample(op)
    committed = spec.load_json("digests.json")[spec.digest_key("gm", 10, 3)]
    assert spec.check_sample(res, committed) == []
    res["per_rep"][0][1] = np.nextafter(res["per_rep"][0][1], 1.0)
    why = spec.check_sample(res, committed)
    assert len(why) == 1 and "digest" in why[0]


def test_mean_far_from_expectation_is_flagged():
    res = worker.run_sample({"mech": "em", "n": 10, "groups": spec.SAMPLING_GROUPS[10],
                             "seed": 0})
    res["mean"][2] += 10 * res["expected"][2][1] * spec.MEAN_SE
    committed = spec.digest(res["per_rep"])
    assert [w.split()[0] for w in spec.check_sample(res, committed)] == ["rmse"]


def test_cli_check():
    expected = {"strategy": "UseGM", "rationale": "r"}
    doc = '{"strategy": "UseGM", "rationale": "r", "diagnostics": {}}'
    assert spec.check_cli(0, doc, expected, "select") == []
    assert spec.check_cli(2, doc, expected, "select") == ["exit 2"]
    assert spec.check_cli(None, "", expected, "select") == ["deadline missed"]
    assert "not one JSON" in spec.check_cli(0, doc + "\n{}", expected, "select")[0]
    assert spec.check_cli(0, doc.replace("UseGM", "UseEM"), expected, "select")


def test_deadline_miss_counts_as_failed(monkeypatch):
    slow = CASES["n32-a0.9-WH+RM+CM-l0"]
    monkeypatch.setattr(spec, "design_pass", lambda seed, k: [slow, CASES["n4-a0.3-none-l0"]])
    monkeypatch.setattr(spec, "DESIGN_DEADLINE_S", 0.3)
    monkeypatch.setattr(spec, "MIN_OPS", 2)
    bench = run.Run("design_grid", 0, 0.0, False)
    try:
        run.design_grid(bench)
    finally:
        run.shutil.rmtree(bench.workdir, ignore_errors=True)
    missed, after = bench.ops
    assert not missed["ok"] and missed["why"] == ["deadline missed"]
    assert missed["ms"] >= 300.0
    assert after["ok"], after["why"]  # the restarted worker serves the next case
    metrics = spec.end_to_end(bench.ops * 50, 0.1, 1.0)
    assert metrics["failed_ratio"][0] == 0.5


def test_same_seed_same_inputs():
    for make in (spec.design_pass, spec.sampling_pass, spec.cli_pass):
        assert make(7, 2) == make(7, 2)
        assert make(7, 2) != make(8, 2)
    assert [spec.cli_argv(op, 0) for op in spec.cli_pass(7, 0)] == [
        spec.cli_argv(op, 0) for op in spec.cli_pass(7, 0)]
    age, flag = spec.people_columns(7)
    age2, flag2 = spec.people_columns(7)
    assert np.array_equal(age, age2) and np.array_equal(flag, flag2)
    assert not np.array_equal(age, spec.people_columns(8)[0])
    assert abs(flag.mean() - 0.2) < 0.01


def test_people_counts_match_the_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(spec, "PEOPLE_ROWS", 20_000)
    path = tmp_path / "people.csv"
    spec.write_people_csv(path, 5)
    from dpmech import evaluate

    for predicate in ("age>=65", "flag"):
        try:
            column, pred = evaluate.parse_predicate(predicate)
        except ValueError:
            column, pred = predicate, None
        got = evaluate.ingest_groups(path, column, 10, predicate=pred)
        assert np.array_equal(got.counts, spec.people_counts(5, predicate, 10))


def test_percentiles():
    xs = list(range(1, 101))
    assert spec.percentile(xs, 0.5) == pytest.approx(50.5)
    assert spec.percentile(xs, 0.9) == pytest.approx(90.5, abs=1e-6)
    assert spec.percentile([3.0], 0.9) == 3.0
    # a swap of two neighbours moves nothing; a gap next to the rank moves the
    # estimate smoothly instead of by the whole gap
    assert spec.percentile(xs[::-1], 0.5) == spec.percentile(xs, 0.5)
    gapped = [1.0] * 50 + [100.0] * 50
    assert 1.0 < spec.percentile(gapped, 0.5) < 100.0
    assert spec.percentile(gapped, 0.9) == pytest.approx(100.0)
    assert spec.beyond(100, 0.9) == 10
    assert spec.beyond(99, 0.9) == 9
    assert spec.tail_percentile(xs) == pytest.approx(90.5, abs=1e-6)
    with pytest.raises(ValueError):
        spec.tail_percentile(xs[:99])


def test_ratios_and_end_to_end():
    assert spec.ratio(1, 4) == 0.25
    assert spec.ratio(0, 10) == spec.FLOOR
    assert spec.ratio(3, 0) == spec.FLOOR
    ops = [{"ok": i % 4 != 0, "ms": 10.0, "groups": 0, "rows": 0} for i in range(100)]
    ops[1].update(groups=5000, ms=50.0)
    m = spec.end_to_end(ops, 0.25, 80.0)
    assert m["failed_ratio"][0] == 0.25
    assert m["ops_per_s"][0] == pytest.approx(75 / 1.04)
    assert m["op_ms_p50"][0] == pytest.approx(10.0) and m["op_ms_p90"][0] == pytest.approx(10.0)
    assert m["groups_per_s"][0] == pytest.approx(1e5)
    assert m["rows_per_s"][0] == spec.FLOOR
    assert m["setup_s"] == (0.25, "s") and m["peak_rss_mb"] == (80.0, "MB")


def test_self_times_and_layer_metrics():
    spans = [
        ("analysis", "property_report", 0.0, 1.0, -1, 0, None),
        ("core.validate", "Mechanism", 0.1, 0.3, 0, 0, None),
        ("explicit", "geometric", 2.0, 2.5, -1, 1, None),
        ("core.validate", "new_mechanism", 2.1, 2.4, 2, 1, None),
        ("core.validate", "__init__", 2.2, 2.3, 3, 1, None),
        ("lp.build", "build_lp", 3.0, 3.1, -1, 2, {"rows": 7, "nnz": 9, "dense_bytes": 80}),
    ]
    assert spec.self_times(spans) == pytest.approx([0.8, 0.2, 0.2, 0.2, 0.1, 0.1])
    m = spec.layer_metrics(spans)
    assert m["core.validate_ms"][0] == pytest.approx(250.0)  # 0.5 s over two ops
    assert m["analysis.report_ms"][0] == pytest.approx(800.0)
    assert m["lp.rows"][0] == 7 and m["lp.dense_bytes"][0] == 80
    assert m["evaluate.sample_ms"][0] == 0.0


def test_tracer_restores_the_library():
    from dpmech import core, explicit

    tracer = worker.Tracer()
    plain_geometric, plain_init = explicit.geometric, core.Mechanism.__init__
    with tracer.installed(0):
        explicit.geometric(4, 0.5)
    spans = tracer.take()
    assert [s[0] for s in spans] == ["explicit", "core.validate", "core.validate"]
    assert spans[1][4] == 0 and spans[2][4] == 1
    assert explicit.geometric is plain_geometric and core.Mechanism.__init__ is plain_init
