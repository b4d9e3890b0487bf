"""LP construction, the HiGHS solve and its certificate, and mechanism design."""

import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from _lp_reference import coo, enumerate_optimum, linprog_optimum, random_lp
from conftest import (
    ALPHA_GRID5,
    random_dp_mechanism,
    random_fair_mechanism,
    random_mechanism,
)
from dpmech import (
    PROPERTIES,
    Objective,
    build_lp,
    check_property,
    design_mechanism,
    em_l0_cost,
    explicit_fair,
    geometric,
    gm_l0_cost,
    is_dp,
    l0_objective,
    l0_score,
    l0d_objective,
    l1_objective,
    l2_objective,
    max_violation,
    objective_value,
    solve_lp,
    uniform,
    uniform_weights,
)
from dpmech.lp import (
    REL_EQ,
    REL_GE,
    REL_LE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    CooMatrix,
    LinearProgram,
    certify,
)
from dpmech.errors import DimensionMismatch, NumericalInstability


def _mk(c, rows, rels, rhs, lo=None, hi=None):
    c = np.asarray(c, dtype=float)
    nv = c.size
    return LinearProgram(
        c=c,
        a=coo(np.asarray(rows, dtype=float).reshape(-1, nv)),
        rel=np.asarray(rels, dtype=np.int8),
        b=np.asarray(rhs, dtype=float),
        lo=np.zeros(nv) if lo is None else np.asarray(lo, dtype=float),
        hi=np.full(nv, np.inf) if hi is None else np.asarray(hi, dtype=float),
    )


class TestBuildLp:
    def test_basic_shape_n1(self):
        lp = build_lp(1, 0.5, frozenset(), Objective(p=1, weights=uniform_weights(1)))
        assert lp.num_vars == 4
        assert int((lp.rel == REL_EQ).sum()) == 2
        assert int((lp.rel == REL_GE).sum()) == 4
        assert np.all(lp.lo == 0.0) and np.all(lp.hi == np.inf)
        # x <= 1 is implied: every variable sits with coefficient 1 in exactly
        # one column-sum row, whose other coefficients are 0 or 1 and rhs is 1
        sums = lp.a.toarray()[:2]
        assert np.all(lp.rel[:2] == REL_EQ) and np.all(lp.b[:2] == 1.0)
        assert np.all((sums == 0.0) | (sums == 1.0))
        assert np.all(sums.sum(axis=0) == 1.0)

    @pytest.mark.parametrize("obj", [l0_objective(4), l0d_objective(3, 5)],
                             ids=["weights", "d"])
    def test_objective_must_fit_n_as_in_objective_value(self, obj):
        with pytest.raises(DimensionMismatch) as from_lp:
            build_lp(3, 0.5, (), obj)
        with pytest.raises(DimensionMismatch) as from_value:
            objective_value(uniform(3), obj)
        assert str(from_lp.value) == str(from_value.value)

    def test_weak_honesty_rows(self):
        base = build_lp(2, 0.5, frozenset(), l0_objective(2))
        with_wh = build_lp(2, 0.5, {"WH"}, l0_objective(2))
        extra = with_wh.num_constraints - base.num_constraints
        assert extra == 3
        assert np.allclose(with_wh.b[-3:], 1 / 3)
        assert np.all(with_wh.rel[-3:] == REL_GE)

    def test_symmetry_rows(self):
        base = build_lp(2, 0.5, frozenset(), l0_objective(2))
        with_s = build_lp(2, 0.5, {"S"}, l0_objective(2))
        assert with_s.num_constraints - base.num_constraints == 4
        assert np.all(with_s.rel[-4:] == REL_EQ)

    def test_fairness_rows(self):
        base = build_lp(2, 0.5, frozenset(), l0_objective(2))
        with_f = build_lp(2, 0.5, {"F"}, l0_objective(2))
        assert with_f.num_constraints - base.num_constraints == 2

    def test_dump_format(self, tmp_path):
        lp = build_lp(1, 0.5, {"WH"}, l0_objective(1))
        path = tmp_path / "lp.txt"
        with open(path, "w") as fh:
            lp.dump(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "minimize 4 8"
        assert sum(1 for ln in lines if ln.startswith("bound ")) == 4
        assert sum(1 for ln in lines if ln.startswith("row ") and " >= " in ln) == 6
        assert sum(1 for ln in lines if ln.startswith("row ") and " == " in ln) == 2
        # one line per nonzero, and the lines rebuild the LP exactly
        dense = lp.a.toarray()
        c = np.zeros(lp.num_vars)
        a = np.zeros_like(dense)
        for ln in lines:
            kind, *fields = ln.split()
            if kind == "c":
                c[int(fields[0])] = float(fields[1])
            elif kind == "a":
                a[int(fields[0]), int(fields[1])] = float(fields[2])
        assert sum(1 for ln in lines if ln.startswith("a ")) == np.count_nonzero(dense)
        assert np.array_equal(c, lp.c) and np.array_equal(a, dense)

    def test_dump_is_pinned(self):
        # the text that --dump-lp writes; the digest dates from the dense-matrix build
        lp = build_lp(4, 0.62, frozenset(PROPERTIES), l1_objective(4))
        buf = io.StringIO()
        lp.dump(buf)
        text = buf.getvalue()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "37bd6fc0bc884b521c4834f7f3d72eabc339f819c6f420bf6864741ffe7cf332")
        cells = [tuple(map(int, ln.split()[1:3])) for ln in text.splitlines()
                 if ln.startswith("a ")]
        assert len(cells) == lp.a.nnz and cells == sorted(set(cells))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_triplets_are_unique_and_nonzero(self, n):
        # with both, the triplets sorted by column are the nonzeros of the dense matrix
        for size in range(len(PROPERTIES) + 1):
            for props in combinations(PROPERTIES, size):
                for objective in (l0_objective, l1_objective):
                    a = build_lp(n, 0.62, frozenset(props), objective(n)).a
                    keys = a.row * a.shape[1] + a.col
                    assert np.unique(keys).size == a.nnz, props
                    assert np.all(a.data != 0.0), props

    def test_products_match_the_dense_matrix(self, rng):
        # the triplets sum in another order than a dense product: allow a few ulps
        for n, props in ((3, PROPERTIES), (6, ("WH", "RM", "CM")), (8, ())):
            lp = build_lp(n, 0.62, frozenset(props), l1_objective(n))
            dense = lp.a.toarray()
            x = rng.uniform(0.0, 1.0, lp.num_vars)
            y = rng.normal(size=lp.num_constraints)
            assert np.allclose(lp.a.dot(x), dense @ x, rtol=0.0, atol=1e-13)
            assert np.allclose(lp.a.rdot(y), dense.T @ y, rtol=0.0, atol=1e-13)

    def test_n128_builds_under_a_3gib_address_space_cap(self):
        # dpbench's worker runs under this cap; a dense a would take 4.11 GiB
        out = _run_fresh(
            "import json, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from dpmech import build_lp, l0_objective, max_violation, uniform\n"
            "lp = build_lp(128, 0.9, (), l0_objective(128))\n"
            "a = lp.a\n"
            "print(json.dumps([a.shape, a.nnz, a.row.nbytes + a.col.nbytes + a.data.nbytes,\n"
            "                  max_violation(lp, uniform(128).matrix.ravel())]))\n")
        shape, nnz, nbytes, violation = json.loads(out.splitlines()[-1])
        assert shape == [33153, 16641] and nnz == 82_689
        assert nbytes < 4 << 20
        assert violation <= 1e-9


def _lp_with(row, col, data, shape, num_rows=None, num_vars=None):
    num_rows, num_vars = shape if num_rows is None else (num_rows, num_vars)
    return LinearProgram(c=np.ones(num_vars), a=CooMatrix(row, col, data, shape),
                         rel=np.full(num_rows, REL_GE), b=np.zeros(num_rows),
                         lo=np.zeros(num_vars), hi=np.full(num_vars, np.inf))


class TestLinearProgramInput:
    def test_well_formed_triplets_are_accepted(self):
        lp = _lp_with([1, 0], [0, 1], [2.0, -1.0], (2, 2))
        assert np.array_equal(lp.a.toarray(), [[0.0, -1.0], [2.0, 0.0]])

    def test_triplet_lengths_must_agree(self):
        with pytest.raises(ValueError, match="one length"):
            _lp_with([0, 1], [0, 1], [1.0], (2, 2))

    @pytest.mark.parametrize("row, col", [([0, 2], [0, 1]), ([0, 1], [-1, 1])],
                             ids=["row-past-end", "negative-col"])
    def test_index_must_be_in_range(self, row, col):
        with pytest.raises(ValueError, match="out of range"):
            _lp_with(row, col, [1.0, 1.0], (2, 2))

    def test_pair_must_not_repeat(self):
        # HiGHS would add the two entries; a dense matrix would keep the last
        with pytest.raises(ValueError, match="twice"):
            _lp_with([0, 1, 0], [1, 0, 1], [1.0, 1.0, -1.0], (2, 2))

    @pytest.mark.parametrize("num_rows, num_vars", [(3, 2), (2, 3)], ids=["b", "c"])
    def test_shape_must_match_b_and_c(self, num_rows, num_vars):
        with pytest.raises(ValueError, match="shape"):
            _lp_with([0, 1], [0, 1], [1.0, 1.0], (2, 2), num_rows, num_vars)

    def test_dense_a_is_refused(self):
        with pytest.raises(TypeError, match="a must be a CooMatrix, got ndarray"):
            LinearProgram(c=np.ones(2), a=np.eye(2), rel=[REL_GE, REL_GE], b=np.zeros(2),
                          lo=np.zeros(2), hi=np.ones(2))

    @pytest.mark.parametrize("field, value, message", [
        ("rel", [REL_GE], "constraint arrays disagree in length"),
        ("lo", np.zeros(3), "bound arrays disagree with variable count"),
        ("hi", np.ones(1), "bound arrays disagree with variable count"),
        ("lo", [0.0, 2.0], "lower bound exceeds upper bound"),
    ], ids=["rel", "lo", "hi", "lo-above-hi"])
    def test_rows_and_bounds_must_fit(self, field, value, message):
        fields = dict(c=np.ones(2), a=coo(np.eye(2)), rel=[REL_GE, REL_GE], b=np.zeros(2),
                      lo=np.zeros(2), hi=np.ones(2))
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            LinearProgram(**fields)

    def test_triplets_are_kept_in_compressed_column_order(self):
        a = CooMatrix([0, 1, 1, 0], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0], (2, 2))
        assert (a.col.tolist(), a.row.tolist(), a.data.tolist()) == (
            [0, 0, 1, 1], [0, 1, 0, 1], [4.0, 2.0, 1.0, 3.0])


class TestSharedDefinitions:
    """check_property and is_dp agree with the LP rows of the same definition."""

    @staticmethod
    def _pool(rng):
        for n in (1, 2, 3, 5):
            for alpha in (0.3, 0.62, 0.9):
                yield alpha, geometric(n, alpha)
                yield alpha, explicit_fair(n, alpha)
                yield alpha, random_dp_mechanism(rng, n, alpha)
            yield 0.5, uniform(n)
            yield 0.5, random_mechanism(rng, n)
            yield 0.5, random_fair_mechanism(rng, n)

    @staticmethod
    def _rows_hold(lp, first, x):
        r = lp.a.toarray()[first:] @ x - lp.b[first:]
        eq = lp.rel[first:] == REL_EQ
        return bool(np.all(np.where(eq, np.abs(r) <= 1e-9, r >= -1e-9)))

    def test_check_property_matches_lp_rows(self, rng):
        for alpha, m in self._pool(rng):
            n = m.n
            base = build_lp(n, alpha, frozenset(), l0_objective(n))
            x = m.matrix.ravel()
            for p in PROPERTIES:
                lp = build_lp(n, alpha, {p}, l0_objective(n))
                assert check_property(m, p) == self._rows_hold(lp, base.num_constraints, x), p

    def test_is_dp_matches_privacy_rows(self, rng):
        for alpha, m in self._pool(rng):
            n = m.n
            for a in (alpha, 0.5 * alpha, min(1.0, 1.2 * alpha)):
                lp = build_lp(n, a, frozenset(), l0_objective(n))
                assert is_dp(m, a) == self._rows_hold(lp, n + 1, m.matrix.ravel())

    def test_privacy_is_not_a_property(self):
        with pytest.raises(ValueError):
            check_property(uniform(2), "DP")

    @pytest.mark.parametrize("n, alpha, props, objective, digest", [
        (4, 0.62, PROPERTIES, l0_objective,
         "976ab070f4fcf1aff7682d4091b8490f2b58f4bae35002919d8c7a6fd294f4af"),
        (1, 0.5, (), l1_objective,
         "5906783ef0cd743c7fb33056a3da4a9e0491d9c3c81b8ce3a02af22413bd3169"),
        (3, 0.9, ("RM", "CH", "S"), l0_objective,
         "f820584dcc21b64e1a46b61ca7c1e04fb76241fd4519dfca1bfd9f045d708808"),
        (5, 0.3, ("RH", "CM", "F", "WH"), l1_objective,
         "11604217f46944d46b59bf7c432ee204775f220b4c9087d4314a1a021d8415fe"),
    ])
    def test_row_layout_is_pinned(self, n, alpha, props, objective, digest):
        # the solver's path depends on row order, so the layout must not drift
        lp = build_lp(n, alpha, frozenset(props), objective(n))
        h = hashlib.sha256()
        for arr in (lp.a.toarray(), lp.rel, lp.b):
            h.update(arr.tobytes())
        assert h.hexdigest() == digest


class TestSolveLp:
    def test_maximize_single_variable(self):
        sol = solve_lp(_mk([-1.0], [[1.0]], [REL_GE], [0.0], hi=[1.0]))
        assert sol.status == STATUS_OPTIMAL
        assert sol.values[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-12)

    def test_covering_pair(self):
        sol = solve_lp(_mk([1.0, 1.0], [[1.0, 1.0]], [REL_GE], [2.0]))
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-12)

    def test_infeasible(self):
        lp = _mk([1.0], [[1.0], [1.0]], [REL_GE, -1], [2.0, 1.0])
        assert solve_lp(lp).status == STATUS_INFEASIBLE

    def test_unbounded(self):
        sol = solve_lp(_mk([-1.0], np.zeros((0, 1)), [], []))
        assert sol.status == STATUS_UNBOUNDED

    def test_basicdp_n2_recovers_geometric(self):
        lp = build_lp(2, 0.5, frozenset(), l0_objective(2))
        sol = solve_lp(lp)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(2 / 3, abs=1e-9)
        assert np.allclose(sol.values.reshape(3, 3), geometric(2, 0.5).matrix,
                           atol=1e-7)

    def test_solutions_satisfy_all_rows(self, rng):
        for _ in range(10):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == STATUS_OPTIMAL
            assert max_violation(lp, sol.values) <= 1e-9

    def test_against_vertex_enumeration(self, rng):
        for _ in range(12):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == STATUS_OPTIMAL
            assert sol.objective_value == pytest.approx(
                enumerate_optimum(lp), abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_property_subset_matches_highs(self, n):
        for size in range(len(PROPERTIES) + 1):
            for props in combinations(PROPERTIES, size):
                lp = build_lp(n, 0.62, frozenset(props), l0_objective(n))
                sol = solve_lp(lp)
                assert sol.status == STATUS_OPTIMAL, props
                assert max_violation(lp, sol.values) <= 1e-9, props
                assert sol.objective_value == pytest.approx(linprog_optimum(lp), abs=1e-9), props

    @pytest.mark.parametrize("n, props, objective", [
        (7, ("RH", "RM", "S"), l0_objective),
        (7, ("RH", "RM", "S"), l1_objective),
        (7, ("RH", "RM", "S"), l2_objective),
        (16, (), l0_objective),
        (16, ("F",), l0_objective),
        (6, ("RH", "RM", "CM"), l0_objective),
    ])
    def test_hard_design_lps_are_solved(self, n, props, objective):
        # hard for a dense tableau simplex: it stalls on the first three, loses
        # feasibility on the next two (alpha^16 is about 4e-9), and one version
        # of it stopped at a feasible but costlier vertex on the last
        lp = build_lp(n, 0.3, frozenset(props), objective(n))
        sol = solve_lp(lp)
        assert sol.status == STATUS_OPTIMAL
        assert max_violation(lp, sol.values) <= 1e-9
        assert sol.objective_value == pytest.approx(linprog_optimum(lp), abs=1e-9)

    # ROADMAP item 1: certify refuses these optimal answers, which HiGHS and
    # linprog agree on; each must pass once the dual side proves them
    @pytest.mark.xfail(strict=True, raises=NumericalInstability,
                       reason="certify refuses an optimal answer")
    @pytest.mark.parametrize("n", [24, 32])
    @pytest.mark.parametrize("props, objective", [
        ((), l0_objective), ((), l1_objective),
        (("CH", "S"), l0_objective), (("CH", "S"), l1_objective),
        (("WH",), l1_objective), (("WH", "CM"), l1_objective),
        (("WH", "RM", "CM"), l1_objective),
    ], ids=["none-l0", "none-l1", "CH+S-l0", "CH+S-l1", "WH-l1", "WH+CM-l1",
            "WH+RM+CM-l1"])
    def test_refused_designs_match_linprog(self, n, props, objective):
        obj = objective(n)
        expected = linprog_optimum(build_lp(n, 0.3, props, obj))
        m = design_mechanism(n, 0.3, props, obj)
        assert objective_value(m, obj) == pytest.approx(expected, abs=1e-9)

    def test_same_lp_same_answer_bit_for_bit(self):
        first = solve_lp(build_lp(8, 0.62, {"WH", "CM"}, l1_objective(8)))
        again = solve_lp(build_lp(8, 0.62, {"WH", "CM"}, l1_objective(8)))
        assert first.values.tobytes() == again.values.tobytes()


class TestCertify:
    @pytest.mark.parametrize("c, rows, rels, rhs, x, y", [
        # x = (2, 0) is optimal for min x1 + x2, x1 + x2 >= 2; y = 1 proves it
        ([1.0, 1.0], [[1.0, 1.0]], [REL_GE], [2.0], [2.0, 0.0], [1.0]),
        # the same with a <= row: the proof needs y <= 0
        ([-1.0, -1.0], [[1.0, 1.0]], [REL_LE], [2.0], [0.0, 2.0], [-1.0]),
    ])
    def test_optimal_point_with_proving_duals_passes(self, c, rows, rels, rhs, x, y):
        certify(_mk(c, rows, rels, rhs), np.array(x), np.array(y))

    @pytest.mark.parametrize("y", [[0.0], [-1.0], [0.5]], ids=["zero", "wrong-sign", "weak"])
    def test_duals_that_prove_too_little_are_refused(self, y):
        lp = _mk([1.0, 1.0], [[1.0, 1.0]], [REL_GE], [2.0])
        with pytest.raises(NumericalInstability, match="dual bound"):
            certify(lp, np.array([2.0, 0.0]), np.array(y))

    @pytest.mark.parametrize("row, rel, rhs, y", [([-1.0], REL_GE, -10.0, -1.0),
                                                  ([1.0], REL_LE, 10.0, 1.0)],
                             ids=["ge", "le"])
    def test_wrong_sign_dual_is_set_to_0(self, row, rel, rhs, y):
        # min x subject to x >= 1 and x <= 10: taken as it is, y proves a bound
        # of 10, which would pass the costlier x = 3
        lp = _mk([1.0], [[1.0], row], [REL_GE, rel], [1.0, rhs])
        with pytest.raises(NumericalInstability, match="3 above its dual bound"):
            certify(lp, np.array([3.0]), np.array([0.0, y]))

    def test_uniform_mechanism_with_zero_duals_is_refused(self):
        # feasible, but it costs 1 and the geometric mechanism costs less
        lp = build_lp(4, 0.62, frozenset(), l0_objective(4))
        x = uniform(4).matrix.ravel()
        assert max_violation(lp, x) <= 1e-9
        with pytest.raises(NumericalInstability, match="above its dual bound"):
            certify(lp, x, np.zeros(lp.num_constraints))

    def test_negative_reduced_cost_on_an_open_column_is_refused(self):
        # min -x over x >= 0 has no lower bound, whatever x is offered
        with pytest.raises(NumericalInstability, match="dual bound"):
            certify(_mk([-1.0], np.zeros((0, 1)), [], []), np.array([5.0]), np.zeros(0))

    def test_infeasible_point_is_refused(self):
        lp = build_lp(3, 0.62, frozenset(), l0_objective(3))
        with pytest.raises(NumericalInstability, match="breaks a constraint"):
            certify(lp, np.zeros(lp.num_vars), np.zeros(lp.num_constraints))


def _run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's dpmech."""
    import dpmech

    src = str(Path(dpmech.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestHighsLoader:
    _SOLVE = ("from dpmech import build_lp, l0_objective, lp, solve_lp\n"
              "assert solve_lp(build_lp(3, 0.62, {'WH'}, l0_objective(3))).status == 'optimal'\n")
    _SCIPY = ("import scipy.optimize\n"
              "from scipy.optimize import linprog\n"
              "assert linprog([1.0], A_ub=[[-1.0]], b_ub=[-2.0]).status == 0\n")
    _SAME = ("import scipy.optimize._highspy._core as core\n"
             "assert lp._highs() is core\n")

    def test_design_command_loads_neither_optimize_nor_sparse(self, tmp_path):
        out = _run_fresh(
            "import json, sys\n"
            "from dpmech import cli\n"
            "code = cli.main(['design', '--mechanism', 'lp', '--n', '5', '--alpha', '0.62',\n"
            f"                 '--props', 'WH,CM', '--out', {str(tmp_path / 'm.csv')!r}])\n"
            "assert code == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
        loaded = json.loads(out.splitlines()[-1])
        assert "scipy.optimize._highspy._core" in loaded
        assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded

    @pytest.mark.parametrize("first", ["scipy", "solve"])
    def test_scipy_optimize_imports_before_or_after_a_solve(self, first):
        steps = [self._SCIPY, self._SOLVE] if first == "scipy" else [self._SOLVE, self._SCIPY]
        _run_fresh("".join(steps) + self._SAME)


class TestDesignMechanism:
    def test_n1_gives_randomized_response(self):
        for a in (0.3, 0.62, 0.9):
            for props in (frozenset(), {"F"}, {"WH", "S"}):
                m = design_mechanism(1, a, props, l0_objective(1))
                assert np.allclose(m.matrix, geometric(1, a).matrix, atol=1e-9)

    def test_fully_constrained_matches_fair_cost(self):
        unconstrained = design_mechanism(7, 0.62, frozenset(), l0_objective(7))
        lp_all = design_mechanism(7, 0.62,
                                  {"RH", "RM", "CH", "CM", "F", "WH", "S"},
                                  l0_objective(7))
        assert l0_score(lp_all) == pytest.approx(em_l0_cost(7, 0.62), abs=1e-8)
        assert l0_score(unconstrained) == pytest.approx(gm_l0_cost(0.62), abs=1e-8)

    def test_wh_collapses_to_gm_above_threshold(self):
        # n=10 over the threshold 2a/(1-a) = 6.33 at a=0.76
        m = design_mechanism(10, 0.76, {"WH"}, l0_objective(10))
        assert l0_score(m) == pytest.approx(gm_l0_cost(0.76), abs=1e-8)
        assert l0_score(m) == pytest.approx(0.8636363636363636, abs=1e-8)

    def test_result_carries_requested_properties(self):
        for props in ({"WH"}, {"CM", "S"}, {"F", "RM"}):
            m = design_mechanism(4, 0.7, props, l0_objective(4))
            assert is_dp(m, 0.7)
            for p in props:
                assert check_property(m, p), p

    def test_optimum_monotone_in_constraints(self, rng):
        subsets = [frozenset(), {"WH"}, {"WH", "RM"}, {"WH", "RM", "CM"},
                   {"S"}, {"CH"}, {"F"}, {"F", "S", "RM"}]
        for _ in range(6):
            small = frozenset(rng.choice(sorted(p for s in subsets for p in s), 1))
            a_props = set(subsets[rng.integers(0, len(subsets))])
            b_props = a_props | set(small)
            n = int(rng.integers(2, 5))
            alpha = float(rng.uniform(0.4, 0.9))
            cost_a = l0_score(design_mechanism(n, alpha, a_props, l0_objective(n)))
            cost_b = l0_score(design_mechanism(n, alpha, b_props, l0_objective(n)))
            assert cost_a <= cost_b + 1e-8

    def test_sandwich_between_gm_and_em(self):
        # at n=2 the column properties are free: both optima are the same
        # fraction, so each is pinned to it rather than compared bit for bit
        exact = {(2, 0.62): 74 / 93, (2, 0.9): 26 / 27}
        for n in (2, 4, 6):
            for a in (0.62, 0.9):
                wh = l0_score(design_mechanism(n, a, {"WH"}, l0_objective(n)))
                wm = l0_score(design_mechanism(n, a, {"WH", "RM", "CM"},
                                               l0_objective(n)))
                assert gm_l0_cost(a) - 1e-8 <= wh and wm <= em_l0_cost(n, a) + 1e-8
                if n == 2:
                    assert wh == pytest.approx(exact[n, a], abs=1e-12)
                    assert wm == pytest.approx(exact[n, a], abs=1e-12)
                else:
                    assert wm - wh > 1e-4

    @pytest.mark.parametrize("n, alpha, props", [
        (5, 0.62, {"RH", "RM", "S"}),
        (5, 0.62, {"F", "RH", "RM", "S"}),
        (6, 0.3, {"WH", "CM"}),
        (4, 0.3, {"CM", "S"}),
        (3, 0.62, {"RM", "F", "S"}),
        (2, 0.62, {"CM", "F", "S"}),
        (4, 0.7, {"WH"}),
        (4, 0.3, {"CH", "CM", "F"}),
        (6, 0.3, {"CH", "S"}),
        (8, 0.3, {"WH", "CM"}),
    ])
    def test_optimal_answer_is_certified(self, n, alpha, props):
        # LPs on which a dense tableau simplex grew roundoff near 1e-12: each must
        # solve, privately and with every requested property
        m = design_mechanism(n, alpha, props, l0_objective(n))
        assert is_dp(m, alpha)
        for p in props:
            assert check_property(m, p), p

    def test_symmetry_is_cost_free(self):
        for props in (frozenset(), {"WH"}, {"F"}, {"WH", "CM"}):
            base = l0_score(design_mechanism(4, 0.8, props, l0_objective(4)))
            sym = l0_score(design_mechanism(4, 0.8, props | {"S"}, l0_objective(4)))
            assert sym == pytest.approx(base, abs=1e-8)

    def test_unconstrained_matches_gm_entrywise(self):
        for n in (2, 5):
            for a in (0.3, 0.62, 0.9):
                m = design_mechanism(n, a, frozenset(), l0_objective(n))
                assert np.abs(m.matrix - geometric(n, a).matrix).max() <= 1e-7

    def test_fair_optimum_weight_independent(self, rng):
        n = 4
        costs = []
        for _ in range(3):
            w = rng.uniform(0.05, 1.0, n + 1)
            w /= w.sum()
            obj = Objective(p=0, weights=w)
            m = design_mechanism(n, 0.7, {"F"}, obj)
            # the p=0 objective of a fair mechanism is weight independent
            costs.append(l0_score(m))
        assert np.ptp(costs) <= 1e-8
        assert costs[0] == pytest.approx(em_l0_cost(4, 0.7), abs=1e-8)

    def test_degenerate_l2_request_is_returned_as_solved(self):
        # the unconstrained squared-error optimum may concentrate columns on a
        # single output; the library reports it rather than repairing it
        obj = Objective(p=2, weights=uniform_weights(4))
        m = design_mechanism(4, 0.62, frozenset(), obj)
        assert is_dp(m, 0.62)
        lp = build_lp(4, 0.62, frozenset(), obj)
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(
            float(np.sum(m.matrix * obj.weights[None, :]
                         * np.square(np.subtract.outer(np.arange(5), np.arange(5))))),
            abs=1e-9)
