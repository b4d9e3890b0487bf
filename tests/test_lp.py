"""LP construction, the HiGHS solve and its certificate, and mechanism design."""

import dataclasses
import hashlib
import io
import json
import math
from itertools import combinations

import numpy as np
import pytest

from _lp_reference import coo, enumerate_optimum, linprog_optimum, random_lp
from conftest import (
    ALPHA_GRID5,
    random_dp_mechanism,
    random_fair_mechanism,
    random_mechanism,
    run_fresh,
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
    implied_properties,
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
    write_mechanism_csv,
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
    _basis_duals,
    certify,
)
from dpmech import lp as lp_module
from dpmech.errors import DimensionMismatch, NumericalInstability


def _mk(c, rows, rels, rhs, mirror=None):
    """An LP from dense rows; ``mirror`` is recorded as ``build_lp`` records its row map."""
    c = np.asarray(c, dtype=float)
    nv = c.size
    lp = LinearProgram(
        c=c,
        a=coo(np.asarray(rows, dtype=float).reshape(-1, nv)),
        rel=np.asarray(rels, dtype=np.int8),
        b=np.asarray(rhs, dtype=float),
    )
    if mirror is not None:
        lp._mirror = np.asarray(mirror, dtype=np.intp)
    return lp


class TestBuildLp:
    def test_basic_shape_n1(self):
        lp = build_lp(1, 0.5, frozenset(), Objective(p=1, weights=uniform_weights(1)))
        assert lp.num_vars == 4
        assert int((lp.rel == REL_EQ).sum()) == 2
        assert int((lp.rel == REL_GE).sum()) == 4
        # x <= 1 is implied: every variable sits with coefficient 1 in exactly
        # one column-sum row, whose other coefficients are 0 or 1 and rhs is 1
        sums = lp.a.toarray()[:2]
        assert np.all(lp.rel[:2] == REL_EQ) and np.all(lp.b[:2] == 1.0)
        assert np.all((sums == 0.0) | (sums == 1.0))
        assert np.all(sums.sum(axis=0) == 1.0)

    def test_bounds_read_as_zeros_and_inf(self):
        # the views that reference code passes to linprog as bounds
        lp = build_lp(3, 0.62, {"WH"}, l1_objective(3))
        assert lp.lo.tolist() == [0.0] * 16 and lp.hi.tolist() == [np.inf] * 16

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
        # x >= 0 is the only bound, stated once on the first line
        assert lines[0] == "minimize 4 8 x >= 0"
        assert not any(ln.startswith("bound ") for ln in lines)
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
        # the text that --dump-lp writes; the digest dates from dropping the bound lines
        lp = build_lp(4, 0.62, frozenset(PROPERTIES), l1_objective(4))
        buf = io.StringIO()
        lp.dump(buf)
        text = buf.getvalue()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a92db2c3aef63347876de0d9d222d5e82e8f17bd5040a784f1400f5861c275aa")
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
        out = run_fresh(
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
                         rel=np.full(num_rows, REL_GE), b=np.zeros(num_rows))


class TestLinearProgramInput:
    def test_well_formed_triplets_are_accepted(self):
        lp = _lp_with([1, 0], [0, 1], [2.0, -1.0], (2, 2))
        assert np.array_equal(lp.a.toarray(), [[0.0, -1.0], [2.0, 0.0]])

    def test_triplet_lengths_must_agree(self):
        with pytest.raises(ValueError, match="one length"):
            _lp_with([0, 1], [0, 1], [1.0], (2, 2))

    @pytest.mark.parametrize("row, col, message", [
        ([0, 2], [0, 1], "out of range"),
        ([0, 1], [-1, 1], "out of range"),
        ([0.7, 1], [0, 1], "row indices must be whole numbers"),
    ], ids=["row-past-end", "negative-col", "fractional-row"])
    def test_index_must_be_in_range(self, row, col, message):
        with pytest.raises(ValueError, match=message):
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
            LinearProgram(c=np.ones(2), a=np.eye(2), rel=[REL_GE, REL_GE], b=np.zeros(2))

    def test_bounds_are_not_arguments(self):
        # x >= 0 is the only bound; an upper limit is a <= row
        with pytest.raises(TypeError, match="unexpected keyword argument 'lo'"):
            LinearProgram(c=np.ones(2), a=coo(np.eye(2)), rel=[REL_GE, REL_GE], b=np.zeros(2),
                          lo=np.zeros(2), hi=np.ones(2))

    @pytest.mark.parametrize("field, value, message", [
        ("rel", [REL_GE], "constraint arrays disagree in length"),
        ("rel", [5, REL_GE], "rel entries must be REL_LE, REL_EQ or REL_GE"),
        # the rest once constructed, though solve_lp cannot take them
        ("c", np.ones((1, 2)), "c must be a 1-D vector"),
        ("rel", [[REL_GE], [REL_GE]], "rel must be a 1-D vector"),
        ("b", np.zeros((2, 1)), "b must be a 1-D vector"),
        ("c", [1.0, np.nan], "c must be finite"),
        ("c", [1.0, -np.inf], "c must be finite"),
        ("b", [0.0, np.nan], "b must be finite"),
        ("b", [0.0, np.inf], "b must be finite"),
    ], ids=["rel", "unknown-rel", "2d-c", "2d-rel", "2d-b", "nan-c", "inf-c", "nan-b",
            "inf-b"])
    def test_rows_and_bounds_must_fit(self, field, value, message):
        fields = dict(c=np.ones(2), a=coo(np.eye(2)), rel=[REL_GE, REL_GE], b=np.zeros(2))
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            LinearProgram(**fields)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_data_must_be_finite(self, value):
        with pytest.raises(ValueError, match="data must be finite"):
            CooMatrix([0, 1], [0, 1], [1.0, value], (2, 2))

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
        sol = solve_lp(_mk([-1.0], [[1.0]], [REL_LE], [1.0]))
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

    @pytest.mark.parametrize("value", [1e16, -1e300])
    def test_a_model_highs_refuses_is_numerical_instability(self, value):
        with pytest.raises(NumericalInstability, match="HiGHS refused the model"):
            solve_lp(_mk([1.0], [[value]], [REL_GE], [1.0]))

    def test_entries_highs_drops_with_a_warning_are_solved(self):
        # HiGHS drops the 1e-10 privacy coefficients and warns; the answer still certifies
        sol = solve_lp(build_lp(4, 1e-10, frozenset({"F"}), l1_objective(4)))
        assert sol.status == STATUS_OPTIMAL and sol.start == "gm"

    def test_a_matrix_without_nonzeros_is_solved(self):
        # HiGHS builds no factor for such an LP, and reading its basis crashed
        # the process; a fresh interpreter keeps a crash out of this one
        run_fresh("from dpmech.lp import REL_GE, CooMatrix, LinearProgram, solve_lp\n"
                  "for c, b, status, values in (([1.0], 0.0, 'optimal', [0.0]),\n"
                  "                             ([1.0], 1.0, 'infeasible', None),\n"
                  "                             ([-1.0], 0.0, 'unbounded', None)):\n"
                  "    a = CooMatrix([], [], [], (1, 1))\n"
                  "    sol = solve_lp(LinearProgram(c=c, a=a, rel=[REL_GE], b=[b]))\n"
                  "    assert sol.status == status, (c, b, sol.status)\n"
                  "    assert values is None or sol.values.tolist() == values\n")

    @staticmethod
    def _limit_iterations(monkeypatch):
        monkeypatch.setattr(lp_module, "_HIGHS_OPTIONS",
                            lp_module._HIGHS_OPTIONS + (("simplex_iteration_limit", 1),))

    def test_any_other_highs_state_is_numerical_instability(self, monkeypatch):
        # run cold: from GM's basis this LP is solved in 0 iterations
        lp = dataclasses.replace(build_lp(4, 0.62, frozenset(), l0_objective(4)))
        self._limit_iterations(monkeypatch)
        with pytest.raises(NumericalInstability,
                           match="HiGHS ended with Iteration limit reached"):
            solve_lp(lp)

    def test_cold_run_after_a_failed_crash_raises_its_own_error(self, monkeypatch):
        # from GM's basis this LP takes 2 iterations, folded, so both runs hit the limit
        lp = build_lp(4, 0.62, frozenset({"F"}), l0_objective(4))
        self._limit_iterations(monkeypatch)
        with pytest.raises(NumericalInstability,
                           match="HiGHS ended with Iteration limit reached"):
            solve_lp(lp)

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

    # HiGHS's reported row duals would fail certify on each of these (reduced
    # costs of basic columns up to 4e-6); the refined duals of its basis prove them
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
        assert first.start == again.start == "gm"
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

    def test_negative_cell_is_refused(self):
        # x = (1 + 1e-6, -1e-6) meets the row exactly and costs the bound y = 1
        # proves; only x >= 0 is broken
        lp = _mk([1.0, 1.0], [[1.0, 1.0]], [REL_GE], [1.0])
        with pytest.raises(NumericalInstability, match="breaks a constraint by 1e-06"):
            certify(lp, np.array([1.0 + 1e-6, -1e-6]), np.array([1.0]))


class TestBasisDuals:
    @staticmethod
    def _spy(monkeypatch):
        """Record each (lp, basic, y) that ``solve_lp`` takes from ``_basis_duals``;
        lp is the LP that HiGHS solved, folded when ``solve_lp`` folds."""
        calls = []

        def spy(lp, highs, basic):
            y = _basis_duals(lp, highs, basic)
            calls.append((lp, basic.copy(), y))
            return y

        monkeypatch.setattr(lp_module, "_basis_duals", spy)
        return calls

    def test_structural_and_logical_basics(self, monkeypatch):
        # min x1 + 2 x2 s.t. x1 + x2 >= 1, x1 <= 5: at x = (1, 0) the basis is
        # x1 (row 0) and row 1's logical, so y1 = 0 and y0 = c1 = 1
        calls = self._spy(monkeypatch)
        lp = _mk([1.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], [REL_GE, REL_LE], [1.0, 5.0])
        sol = solve_lp(lp)
        [(solved, basic, y)] = calls
        assert solved is lp
        assert sorted(basic.tolist()) == [-2, 0]
        assert y.tolist() == [1.0, 0.0]
        certify(lp, sol.values, y)

    def test_refined_duals_solve_the_basis_to_rounding(self, monkeypatch):
        # on the unfolded LP, HiGHS's row duals, and its basis solve unrefined
        # or refined on an unscaled right-hand side, all leave about 2.8e-7;
        # solve_lp folds this LP, so the residual is taken on the LP HiGHS solved.
        # The cold basis is the one pinned: the run from GM's basis leaves 0.076
        # here, certify refuses it and the cold run follows
        calls = self._spy(monkeypatch)
        _cold(build_lp(32, 0.3, frozenset(), l1_objective(32)))
        [(lp, basic, y)] = calls
        assert lp.num_vars == (33 * 33 + 1) // 2
        structural = basic >= 0
        bt_y = np.where(structural, (lp.a.toarray().T @ y)[np.maximum(basic, 0)],
                        y[-1 - np.minimum(basic, -1)])
        c_b = np.where(structural, lp.c[np.maximum(basic, 0)], 0.0)
        assert np.abs(c_b - bt_y).max() <= 1e-12

    @pytest.mark.parametrize("call", ["getBasicVariables", "getBasisTransposeSolve"])
    def test_refused_basis_call_is_numerical_instability(self, monkeypatch, call):
        h = lp_module._highs()
        real = h._Highs

        class Refusing:
            """A HiGHS run whose ``call`` ends in an error."""

            def __init__(self):
                self._real = real()

            def __getattr__(self, name):
                if name == call:
                    return lambda *args: (h.HighsStatus.kError, np.zeros(0))
                return getattr(self._real, name)

        monkeypatch.setattr(h, "_Highs", Refusing)
        lp = _mk([1.0, 1.0], [[1.0, 1.0]], [REL_GE], [2.0])
        with pytest.raises(NumericalInstability, match="ended with kError"):
            solve_lp(lp)


def _assert_exact_mirror(lp, props):
    """``lp._mirror`` pairs the rows exactly under reversal of the variables,
    except that each F and S row folds to the same row as its mirror."""
    mirror = lp._mirror
    m, nv = lp.a.shape
    assert mirror.shape == (m,)
    assert np.array_equal(mirror[mirror], np.arange(m))
    assert np.array_equal(lp.b[mirror], lp.b) and np.array_equal(lp.rel[mirror], lp.rel)
    assert np.array_equal(lp.c[::-1], lp.c)
    # in a design LP the F and S rows, and only they, are == 0 rows
    fs = (lp.rel == REL_EQ) & (lp.b == 0.0)
    assert np.count_nonzero(fs) == (("F" in props) * (math.isqrt(nv) - 1)
                                    + ("S" in props) * (nv // 2))
    # each other triplet, moved to its mirror row and reversed column, is a
    # triplet of the same value: as keys sorted like CooMatrix's, the same keys and data
    a = lp.a
    exact = ~fs[a.row]
    keys = (nv - 1 - a.col[exact]) * m + mirror[a.row[exact]]
    order = np.argsort(keys)
    assert np.array_equal(keys[order], (a.col * m + a.row)[exact])
    assert np.array_equal(a.data[exact][order], a.data[exact])
    # an F or S row and its mirror add up to the same row on each orbit {j, nv-1-j}
    index = np.cumsum(fs) - 1
    folded = np.zeros((np.count_nonzero(fs), (nv + 1) // 2))
    orbit = np.minimum(a.col, nv - 1 - a.col)
    np.add.at(folded, (index[a.row[~exact]], orbit[~exact]), a.data[~exact])
    assert np.array_equal(folded[index[mirror[fs]]], folded)
    # F's last row, diag[n] == diag[0], and every S row fold to 0 == 0
    assert (lp._fair_row is not None) == ("F" in props)
    empty = ~folded.any(axis=1)
    assert np.count_nonzero(empty) == ("F" in props) + ("S" in props) * (nv // 2)
    if "F" in props:
        assert mirror[lp._fair_row] == lp._fair_row and empty[index[lp._fair_row]]


def _two_pairs_swapped(mirror, rng):
    """An involution that pairs r with s and mirror[r] with mirror[s] instead."""
    r, s = rng.choice(np.flatnonzero(np.arange(mirror.size) < mirror), 2, replace=False)
    wrong = mirror.copy()
    wrong[[r, s, mirror[r], mirror[s]]] = [s, r, mirror[s], mirror[r]]
    return wrong


class TestFold:
    """LPs that ``build_lp`` gives a mirror are solved on half the variables."""

    @staticmethod
    def _solved(monkeypatch, lp):
        """solve_lp(lp), and the LP that HiGHS solved."""
        calls = TestBasisDuals._spy(monkeypatch)
        sol = solve_lp(lp)
        [(problem, _, _)] = calls
        return sol, problem

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_mirror_validates_for_every_property_subset(self, n):
        skewed = Objective(p=1, weights=np.arange(1.0, n + 2) / ((n + 1) * (n + 2) / 2))
        for size in range(len(PROPERTIES) + 1):
            for props in combinations(PROPERTIES, size):
                for obj in (l0_objective(n), l1_objective(n), skewed):
                    lp = build_lp(n, 0.62, frozenset(props), obj)
                    symmetric = np.array_equal(lp.c, lp.c[::-1])
                    assert (lp._mirror is not None) == symmetric, props
                    if symmetric:
                        _assert_exact_mirror(lp, props)

    @pytest.mark.parametrize("n", [12, 16, 24, 32])
    @pytest.mark.parametrize("props", [(), ("WH", "RM", "CM"), ("F",), ("CH", "S")],
                             ids=["none", "WH+RM+CM", "F", "CH+S"])
    def test_mirror_validates_at_benchmark_scale(self, n, props):
        # design_grid's n 12-32 slice, and its F and S property sets
        _assert_exact_mirror(build_lp(n, 0.9, frozenset(props), l0_objective(n)), props)

    @pytest.mark.parametrize("props, weights", [
        (("WH", "CM"), [0.1, 0.2, 0.3, 0.4]), ((), [0.4, 0.3, 0.2, 0.1]),
    ], ids=["WH+CM-skewed", "none-skewed"])
    def test_unfoldable_lps_go_to_highs_as_they_are(self, monkeypatch, props, weights):
        lp = build_lp(3, 0.62, frozenset(props), Objective(p=1, weights=weights))
        assert lp._mirror is None
        sol, problem = self._solved(monkeypatch, lp)
        assert problem is lp
        assert sol.status == STATUS_OPTIMAL

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_folded_cost_matches_unfolded(self, monkeypatch, n):
        for alpha in (0.3, 0.9):
            for props in ((), ("WH",), ("WH", "CM"), ("WH", "RM", "CM"), ("F",), ("S",),
                          PROPERTIES):
                for objective in (l0_objective, l1_objective, l2_objective):
                    lp = build_lp(n, alpha, frozenset(props), objective(n))
                    full = solve_lp(dataclasses.replace(lp))
                    with monkeypatch.context() as patch:
                        sol, problem = self._solved(patch, lp)
                    assert problem.num_vars == ((n + 1) ** 2 + 1) // 2
                    assert abs(sol.objective_value - full.objective_value) <= 1e-12, props
                    assert np.array_equal(sol.values, sol.values[::-1]), props

    @pytest.mark.parametrize("n", [32, 48])
    @pytest.mark.parametrize("props, objective", [(("F",), l1_objective),
                                                  (("WH", "CM", "S"), l0_objective)],
                             ids=["F-l1", "WH+CM+S-l0"])
    def test_fair_and_symmetric_lps_fold_at_scale(self, monkeypatch, n, props, objective):
        lp = build_lp(n, 0.9, frozenset(props), objective(n))
        full = solve_lp(dataclasses.replace(lp))
        sol, problem = self._solved(monkeypatch, lp)
        assert problem.num_vars == ((n + 1) ** 2 + 1) // 2
        assert abs(sol.objective_value - full.objective_value) <= 1e-9
        assert max_violation(lp, sol.values) <= 1e-9

    def test_rows_that_are_their_own_mirror_or_cancel(self):
        # min x0 + x1 s.t. x0 + x1 >= 2 and 2 x0 + 2 x1 <= 9: both rows map onto
        # themselves, so their duals are taken whole and b.y is 2 either way;
        # x0 - x1 >= 0 and its mirror x1 - x0 >= 0 fold to an empty row
        lp = _mk([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0], [1.0, -1.0], [-1.0, 1.0]],
                 [REL_GE, REL_LE, REL_GE, REL_GE], [2.0, 9.0, 0.0, 0.0], mirror=[0, 1, 3, 2])
        sol = solve_lp(lp)
        assert sol.status == STATUS_OPTIMAL
        assert sol.values.tolist() == [1.0, 1.0] and sol.objective_value == 2.0

    @pytest.mark.parametrize("rows, rels, rhs, status", [
        ([[1.0, 1.0], [1.0, 1.0]], [REL_GE, REL_LE], [2.0, 1.0], STATUS_INFEASIBLE),
        (np.zeros((0, 2)), [], [], STATUS_UNBOUNDED),
    ], ids=["infeasible", "unbounded"])
    def test_folded_status_is_the_lps(self, rows, rels, rhs, status):
        lp = _mk([-1.0, -1.0], rows, rels, rhs, mirror=np.arange(len(rhs)))
        assert solve_lp(lp).status == status

    @pytest.mark.parametrize("corrupt", [
        lambda mirror, rng: np.arange(mirror.size),
        lambda mirror, rng: np.roll(mirror, 1),
        lambda mirror, rng: rng.permutation(mirror.size),
        _two_pairs_swapped,
    ], ids=["identity", "rolled", "permutation", "swapped"])
    def test_wrong_mirror_fails_loudly(self, corrupt):
        # the fold of a design LP under any row map admits the uniform mechanism
        # and is bounded, and certify reads the full LP: so a wrong map ends in
        # NumericalInstability or in the true optimum, never in another status
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 6):
            for props in ((), ("WH",), ("WH", "CM"), ("WH", "RM", "CM"), ("RH", "CH")):
                for alpha in (0.3, 0.62, 0.9):
                    for objective in (l0_objective, l1_objective):
                        lp = build_lp(n, alpha, frozenset(props), objective(n))
                        full = solve_lp(dataclasses.replace(lp))
                        lp._mirror = corrupt(lp._mirror, rng)
                        try:
                            sol = solve_lp(lp)
                        except NumericalInstability:
                            continue
                        assert sol.status == STATUS_OPTIMAL, (n, props, alpha)
                        assert abs(sol.objective_value - full.objective_value) <= 1e-9
                        assert max_violation(lp, sol.values) <= 1e-9

    def test_corrupted_folded_duals_are_refused(self, monkeypatch):
        # certify reads the full LP, so duals that prove too little still fail it
        def weak(lp, highs, basic):
            return 0.5 * _basis_duals(lp, highs, basic)

        monkeypatch.setattr(lp_module, "_basis_duals", weak)
        with pytest.raises(NumericalInstability, match="dual bound"):
            solve_lp(build_lp(6, 0.62, {"WH", "CM"}, l1_objective(6)))


_CLOSED_PROPS = sorted({implied_properties(props) for size in range(len(PROPERTIES) + 1)
                        for props in combinations(PROPERTIES, size)}, key=sorted)


def _cold(lp):
    """The answer to ``lp`` solved without its ``_start``."""
    lp._start = None
    return solve_lp(lp)


class TestCrashStart:
    """Design LPs start from the geometric mechanism's basis, and fall back to a cold run."""

    @staticmethod
    def _lp():
        # folded, and 2 iterations from GM's basis
        return build_lp(6, 0.62, frozenset({"WH", "CM"}), l1_objective(6))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_crash_cost_matches_a_cold_whole_solve(self, n):
        assert len(_CLOSED_PROPS) == 48
        for alpha in (0.3, 0.9, 1.0):
            for props in _CLOSED_PROPS:
                for objective in (l0_objective, l1_objective):
                    lp = build_lp(n, alpha, props, objective(n))
                    sol, cold = solve_lp(lp), solve_lp(dataclasses.replace(lp))
                    assert (sol.start, cold.start) == ("gm", "cold"), (alpha, props)
                    assert abs(sol.objective_value - cold.objective_value) <= 1e-12, (alpha, props)

    def test_gm_is_its_own_optimum(self):
        sol = solve_lp(build_lp(32, 0.9, frozenset(), l0_objective(32)))
        assert (sol.start, sol.iterations) == ("gm", 0)
        assert np.allclose(sol.values.reshape(33, 33), geometric(32, 0.9).matrix, atol=1e-12)

    def test_every_design_lp_starts_from_gm(self):
        # however small alpha ** n is (1.9e-17 at n=32, alpha=0.3), certify
        # alone decides whether the start's answer stands
        for props in _CLOSED_PROPS:
            for objective in (l0_objective, l1_objective):
                assert build_lp(32, 0.3, props, objective(32))._start is not None, props
        # alpha ** n is 2.8e-13: GM is the optimum
        sol = solve_lp(build_lp(24, 0.3, frozenset(), l0_objective(24)))
        assert (sol.start, sol.iterations) == ("gm", 0)
        # alpha ** n is 3.4e-34: the start ends in a solve error, which HiGHS
        # counts as -1 iterations, and the cold run answers
        sol = solve_lp(build_lp(64, 0.3, frozenset(), l0_objective(64)))
        cold = _cold(build_lp(64, 0.3, frozenset(), l0_objective(64)))
        assert (sol.start, sol.iterations) == ("cold-after-gm", cold.iterations)
        assert sol.values.tobytes() == cold.values.tobytes()

    def test_start_from_gm_is_exactly_private_where_it_certifies(self):
        # alpha ** n is 2.8e-13; the cold answer falls 8.9e-11 short of the
        # exact ratio, with 42 zero cells
        p = design_mechanism(24, 0.3, frozenset(), l0_objective(24)).matrix
        assert np.count_nonzero(p == 0.0) == 0
        lo, hi = p[:, :-1], p[:, 1:]
        assert max((0.3 * hi - lo).max(), (0.3 * lo - hi).max()) <= 1e-15

    def test_every_run_is_simplex_priced_with_devex(self, monkeypatch):
        # an ipm run once ended in a segfault in getBasicVariables; Devex is a
        # simplex option, so every run must be simplex
        h = lp_module._highs()
        real = h._Highs
        made = []

        def spy():
            made.append(real())
            return made[-1]

        monkeypatch.setattr(h, "_Highs", spy)
        runs = [solve_lp(self._lp()).start, _cold(self._lp()).start,
                solve_lp(build_lp(32, 0.3, frozenset(), l0_objective(32))).start]
        assert runs == ["gm", "cold", "cold-after-gm"] and len(made) == 4
        ok = h.HighsStatus.kOk
        for highs in made:
            assert highs.getOptionValue("solver") == (ok, "simplex")
            assert highs.getOptionValue("simplex_dual_edge_weight_strategy") == (ok, 1)

    def test_design_csv_holds_no_negative_zero(self, tmp_path):
        # 50 of this design's cells are zero, and HiGHS returns 48 of them as -0.0
        mech = design_mechanism(24, 0.62, frozenset(), l1_objective(24))
        assert np.count_nonzero(mech.matrix == 0.0) == 50
        write_mechanism_csv(mech, tmp_path / "m.csv")
        assert "-0." not in (tmp_path / "m.csv").read_text()

    def test_start_is_one_basic_variable_per_row(self):
        for props in _CLOSED_PROPS:
            lp = build_lp(3, 0.62, props, l0_objective(3))
            assert lp.num_vars + np.count_nonzero(lp._start) == lp.num_constraints, props
        assert dataclasses.replace(lp)._start is None

    @pytest.mark.parametrize("corrupt", [
        lambda start: np.where(np.arange(start.size) == 9, ~start, start),
        lambda start: np.where(np.arange(start.size) == 0, True, start),
        lambda start: np.ones_like(start),
    ], ids=["one-pair-flag-flipped", "one-extra-basic-row", "all-logicals-basic"])
    def test_wrong_basic_count_is_run_cold(self, corrupt):
        lp = self._lp()
        lp._start = corrupt(lp._start)
        sol, cold = solve_lp(lp), _cold(self._lp())
        assert (sol.start, sol.iterations) == ("cold-after-gm", cold.iterations)
        assert sol.values.tobytes() == cold.values.tobytes()
        assert sol.objective_value == cold.objective_value

    @pytest.mark.parametrize("call, answer", [
        ("setBasis", lambda h: h.HighsStatus.kError),
        ("getModelStatus", lambda h: h.HighsModelStatus.kInfeasible),
        ("getModelStatus", lambda h: h.HighsModelStatus.kUnbounded),
        ("getModelStatus", lambda h: h.HighsModelStatus.kIterationLimit),
        ("getBasicVariables", lambda h: (h.HighsStatus.kError, np.zeros(0))),
        ("getBasisTransposeSolve", lambda h: (h.HighsStatus.kError, np.zeros(0))),
    ], ids=["setBasis-refused", "infeasible", "unbounded", "iteration-limit",
            "basis-read-refused", "basis-solve-refused"])
    def test_failed_crash_is_run_cold(self, monkeypatch, call, answer):
        h = lp_module._highs()
        real = h._Highs
        made = []

        class FirstRunFails:
            """A HiGHS run whose ``call`` gives ``answer`` on the first run only."""

            def __init__(self):
                self._real = real()
                made.append(self)

            def __getattr__(self, name):
                if name == call and self is made[0]:
                    return lambda *args: answer(h)
                return getattr(self._real, name)

        cold = _cold(self._lp())
        monkeypatch.setattr(h, "_Highs", FirstRunFails)
        sol = solve_lp(self._lp())
        assert len(made) == 2 and sol.start == "cold-after-gm"
        assert sol.iterations >= cold.iterations
        assert sol.values.tobytes() == cold.values.tobytes()

    def test_refused_certificate_is_run_cold(self, monkeypatch):
        calls = []

        def refuse_first(lp, x, y):
            calls.append(lp)
            if len(calls) == 1:
                raise NumericalInstability("refused")
            certify(lp, x, y)

        crash, cold = solve_lp(self._lp()), _cold(self._lp())
        monkeypatch.setattr(lp_module, "certify", refuse_first)
        lp = self._lp()
        sol = solve_lp(lp)
        assert calls == [lp, lp]
        assert sol.start == "cold-after-gm"
        assert sol.iterations == crash.iterations + cold.iterations
        assert sol.values.tobytes() == cold.values.tobytes()


class TestHighsLoader:
    _SOLVE = ("from dpmech import build_lp, l0_objective, lp, solve_lp\n"
              "assert solve_lp(build_lp(3, 0.62, {'WH'}, l0_objective(3))).status == 'optimal'\n")
    _SCIPY = ("import scipy.optimize\n"
              "from scipy.optimize import linprog\n"
              "assert linprog([1.0], A_ub=[[-1.0]], b_ub=[-2.0]).status == 0\n")
    _SAME = ("import scipy.optimize._highspy._core as core\n"
             "assert lp._highs() is core\n")

    def test_design_command_loads_neither_optimize_nor_sparse(self, tmp_path):
        out = run_fresh(
            "import json, sys\n"
            "from dpmech import cli\n"
            "code = cli.main(['design', '--mechanism', 'lp', '--n', '5', '--alpha', '0.62',\n"
            f"                 '--props', 'WH,CM', '--out', {str(tmp_path / 'm.csv')!r}])\n"
            "assert code == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
        loaded = json.loads(out.splitlines()[-1])
        assert "scipy.optimize._highspy._core" in loaded
        assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded

    def test_n24_design_loads_neither_optimize_nor_sparse(self, tmp_path):
        # HiGHS's own row duals fail certify at n=24, alpha=0.3 (ROADMAP item 1)
        out = run_fresh(
            "import json, sys\n"
            "from dpmech import cli\n"
            "code = cli.main(['design', '--n', '24', '--alpha', '0.3',\n"
            f"                 '--out', {str(tmp_path / 'm.csv')!r}])\n"
            "assert code == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
        loaded = json.loads(out.splitlines()[-1])
        assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded

    @pytest.mark.parametrize("first", ["scipy", "solve"])
    def test_scipy_optimize_imports_before_or_after_a_solve(self, first):
        steps = [self._SCIPY, self._SOLVE] if first == "scipy" else [self._SOLVE, self._SCIPY]
        run_fresh("".join(steps) + self._SAME)

    def test_a_binding_file_not_found_is_imported_by_name(self):
        # with scipy hidden from the loader's file lookup, _highs imports the
        # binding, and so scipy.optimize, through the import system
        run_fresh("import importlib.util, sys\n"
                  "find_spec = importlib.util.find_spec\n"
                  "importlib.util.find_spec = lambda name, *args: (\n"
                  "    None if name == 'scipy' else find_spec(name, *args))\n"
                  + self._SOLVE +
                  "assert 'scipy.optimize' in sys.modules\n"
                  "assert lp._highs() is sys.modules['scipy.optimize._highspy._core']\n")


class TestDesignMechanism:
    @pytest.mark.parametrize("status", [STATUS_INFEASIBLE, STATUS_UNBOUNDED])
    def test_a_design_lp_that_is_not_solved_is_numerical_instability(self, monkeypatch, status):
        # the uniform mechanism is always feasible, so only a solver defect says otherwise
        monkeypatch.setattr(lp_module, "solve_lp", lambda problem: lp_module.LpSolution(status))
        with pytest.raises(NumericalInstability, match=f"design LP reported {status}; "
                           "the uniform mechanism is always feasible"):
            design_mechanism(3, 0.62, {"WH"}, l0_objective(3))

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
