"""Mechanism model, predicates, objectives and symmetrization."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALPHA_GRID7,
    edge_mechanism,
    random_dp_mechanism,
    random_fair_mechanism,
    random_mechanism,
)
from dpmech import (
    Mechanism,
    Objective,
    PROPERTIES,
    build_lp,
    check_property,
    design_mechanism,
    explicit_fair,
    geometric,
    implied_properties,
    is_dp,
    l0_objective,
    l0_score,
    l0d_score,
    new_mechanism,
    objective_value,
    read_mechanism_csv,
    select_strategy,
    symmetrize,
    uniform,
    uniform_weights,
    write_mechanism_csv,
)
from dpmech.core import _sides
from dpmech.errors import (
    AlphaOutOfRange,
    ColumnSumError,
    DimensionMismatch,
    EntryOutOfRange,
    ParseError,
)
from dpmech.lp import build_lp, solve_lp
from dpmech.strategy import _check_d, _check_n, _check_reps


def brute_cell_costs(n, p, weights, d=0, rescale=False):
    """Independent loop-based oracle for the objective semantics: the cost of
    answering i when the true count is j, as rows i of columns j."""
    d_eff = max(d, 1) if p == 0 else d
    scale = (n + 1) / n if rescale else 1.0
    return [[weights[j] * (abs(i - j) ** p if p else 1.0) * scale if abs(i - j) >= d_eff
             else 0.0 for j in range(n + 1)] for i in range(n + 1)]


def brute_objective(matrix, p, weights, d=0, rescale=False):
    n = len(matrix) - 1
    costs = brute_cell_costs(n, p, weights, d, rescale)
    return sum(matrix[i][j] * costs[i][j] for i in range(n + 1) for j in range(n + 1))


class TestNewMechanism:
    def test_identity_is_valid(self):
        m = new_mechanism(2, np.eye(3))
        assert m.n == 2
        assert m.trace() == 3.0

    def test_uniform_entries_are_valid(self):
        m = new_mechanism(2, np.full((3, 3), 1 / 3))
        assert np.allclose(m.matrix, 1 / 3)

    def test_bad_column_sum(self):
        with pytest.raises(ColumnSumError, match="column 0"):
            new_mechanism(1, [[0.7, 0.5], [0.4, 0.5]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            new_mechanism(2, np.eye(4))
        with pytest.raises(DimensionMismatch):
            Mechanism(np.ones((2, 3)) / 2)
        # group sizes are n >= 1, so the smallest mechanism is 2 x 2
        for entries in ([[1.0]], np.zeros((0, 0))):
            with pytest.raises(DimensionMismatch, match="size >= 2"):
                Mechanism(entries)
        with pytest.raises(DimensionMismatch, match="size >= 2"):
            new_mechanism(0, [[1.0]])

    def test_entry_out_of_range(self):
        with pytest.raises(EntryOutOfRange):
            new_mechanism(1, [[1.5, 0.5], [-0.5, 0.5]])

    def test_non_finite_entries_rejected(self):
        with pytest.raises(EntryOutOfRange, match="nan"):
            new_mechanism(2, [[np.nan, 0.5, 0.5]] * 3)
        with pytest.raises(EntryOutOfRange, match="nan"):
            Mechanism([[0.5, np.nan], [0.5, np.nan]])
        with pytest.raises(EntryOutOfRange):
            Mechanism([[np.inf, 0.5], [-np.inf, 0.5]])

    def test_tolerance_slack_accepted(self):
        m = new_mechanism(1, [[0.5 + 4e-10, 0.5], [0.5 - 4e-10, 0.5]])
        assert m.n == 1

    def test_matrix_is_immutable(self):
        m = uniform(2)
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 0.5

    def test_caller_arrays_are_copied(self):
        entries = np.full((3, 3), 1 / 3)
        mechs = (Mechanism(entries), new_mechanism(2, entries))
        entries[0, 0] = 0.0
        for mech in mechs:
            assert not np.shares_memory(mech.matrix, entries)
            assert mech.matrix[0, 0] == 1 / 3
        assert entries.flags.writeable

    def test_attributes_cannot_be_rebound(self):
        m = uniform(2)
        for name, value in (("matrix", np.eye(3)), ("n", 5)):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(m, name, value)
        assert m.n == 2 and m.matrix[0, 0] == 1 / 3

    def test_pickles_and_copies_by_value(self):
        m = geometric(3, 0.5)
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert twin is not m and twin.n == 3
            assert np.array_equal(twin.matrix, m.matrix)
            assert not twin.matrix.flags.writeable


class TestIsDp:
    def test_gm_is_dp_at_own_alpha(self):
        assert is_dp(geometric(2, 0.9), 0.9)

    def test_uniform_is_dp_at_alpha_one(self):
        assert is_dp(uniform(5), 1.0)

    def test_identity_fails(self):
        assert not is_dp(new_mechanism(2, np.eye(3)), 0.5)

    def test_monotone_in_alpha(self, rng):
        for n in (1, 3, 5):
            mech = random_dp_mechanism(rng, n, 0.8)
            assert is_dp(mech, 0.8)
            for weaker in (0.5, 0.3, 0.1, 0.01):
                assert is_dp(mech, weaker)

    def test_alpha_validation(self):
        with pytest.raises(AlphaOutOfRange):
            is_dp(uniform(2), 0.0)
        with pytest.raises(AlphaOutOfRange):
            is_dp(uniform(2), 1.2)


class TestCheckProperty:
    def test_gm_is_not_fair(self):
        assert not check_property(geometric(2, 0.9), "F")

    def test_uniform_has_everything(self):
        m = uniform(4)
        assert all(check_property(m, p) for p in PROPERTIES)

    def test_em_has_everything(self):
        m = explicit_fair(7, 0.62)
        assert all(check_property(m, p) for p in PROPERTIES)

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            check_property(uniform(2), "XX")

    def test_implied_closure(self):
        assert implied_properties({"RM"}) == {"RM", "RH"}
        assert implied_properties({"CM"}) == {"CM", "CH", "WH"}
        assert implied_properties({"CH", "F"}) == {"CH", "WH", "F"}

    @pytest.mark.parametrize("props", ["FS", "WH"])
    @pytest.mark.parametrize("call", [
        lambda props: build_lp(3, 0.5, props, l0_objective(3)),
        lambda props: select_strategy(3, 0.5, props),
        implied_properties,
    ], ids=["build_lp", "select_strategy", "implied_properties"])
    def test_a_bare_string_is_refused(self, call, props):
        # read as a set of letters, "FS" would mean {F, S}, and "WH" {W, H}
        with pytest.raises(ValueError, match=f"not the string '{props}'"):
            call(props)

    def test_implication_chains_hold_on_pool(self, rng):
        pool = [uniform(4), geometric(4, 0.62), geometric(6, 0.3),
                explicit_fair(5, 0.7), explicit_fair(6, 0.4),
                design_mechanism(3, 0.7, {"RM"}, l0_objective(3)),
                design_mechanism(3, 0.7, {"CM"}, l0_objective(3))]
        pool += [random_mechanism(rng, rng.integers(1, 6)) for _ in range(40)]
        pool += [random_fair_mechanism(rng, rng.integers(1, 6)) for _ in range(40)]
        saw = {"RM": 0, "CM": 0, "CH": 0, "F_RH": 0, "F_CH": 0}
        for m in pool:
            has = {p: check_property(m, p) for p in PROPERTIES}
            if has["RM"]:
                saw["RM"] += 1
                assert has["RH"]
            if has["CM"]:
                saw["CM"] += 1
                assert has["CH"]
            if has["CH"]:
                saw["CH"] += 1
                assert has["WH"]
            if has["F"] and has["RH"]:
                saw["F_RH"] += 1
                assert has["CH"]
            if has["F"] and has["CH"]:
                saw["F_CH"] += 1
                assert has["RH"]
        assert all(count > 0 for count in saw.values()), saw


class TestObjectiveValue:
    def test_uniform_l0_is_one(self):
        for n in (1, 2, 5, 9):
            assert objective_value(uniform(n), l0_objective(n)) == pytest.approx(1.0, abs=1e-12)

    def test_gm_l0_closed_form(self):
        val = objective_value(geometric(4, 2 / 3), l0_objective(4))
        assert val == pytest.approx(0.8, abs=1e-12)

    def test_um_l1_unweighted(self):
        # brute enumeration over all 9 entries gives 8/9
        m = uniform(2)
        obj = Objective(p=1, weights=uniform_weights(2))
        assert objective_value(m, obj) == pytest.approx(8 / 9, abs=1e-14)
        assert brute_objective(m.matrix, 1, uniform_weights(2)) == pytest.approx(8 / 9)

    def test_matches_brute_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = random_mechanism(rng, n)
            w = rng.uniform(0.1, 1.0, n + 1)
            w /= w.sum()
            p = int(rng.integers(0, 3))
            d = int(rng.integers(0, n + 1))
            obj = Objective(p=p, weights=w, d=d)
            expected = brute_objective(m.matrix, p, w, d, rescale=(p == 0))
            assert objective_value(m, obj) == pytest.approx(expected, abs=1e-12)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            Objective(p=0, weights=[np.nan] * 4)
        with pytest.raises(ValueError):
            Objective(p=1, weights=[np.nan, 0.5, 0.5])
        with pytest.raises(ValueError):
            Objective(p=1, weights=[np.inf, 0.5, 0.5])

    def test_dimension_errors(self):
        with pytest.raises(DimensionMismatch):
            objective_value(uniform(3), l0_objective(2))
        with pytest.raises(DimensionMismatch):
            objective_value(uniform(2), Objective(p=1, weights=uniform_weights(2), d=5))
        with pytest.raises(DimensionMismatch, match="weights must be a 1-D vector"):
            Objective(p=1, weights=np.full((2, 2), 0.25))

    def test_fair_cost_is_weight_independent(self, rng):
        # with a constant diagonal y, the p=0 objective is (n+1)/n * (1-y) for
        # every prior
        for _ in range(5):
            n = int(rng.integers(1, 7))
            mech = random_fair_mechanism(rng, n)
            y = mech.matrix[0, 0]
            for _ in range(3):
                w = rng.uniform(0.05, 1.0, n + 1)
                w /= w.sum()
                obj = Objective(p=0, weights=w)
                assert objective_value(mech, obj) == pytest.approx(
                    (n + 1) / n * (1.0 - y), abs=1e-12)

    def test_lp_costs_and_objective_match_brute_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 1.0, n + 1)
            w /= w.sum()
            p = int(rng.integers(0, 3))
            d = int(rng.integers(0, n + 1))
            obj = Objective(p=p, weights=w, d=d)
            problem = build_lp(n, 0.62, {"WH"}, obj)
            np.testing.assert_array_equal(
                problem.c, np.ravel(brute_cell_costs(n, p, w, d, rescale=(p == 0))))
            sol = solve_lp(problem)
            mech = Mechanism(sol.values.reshape(n + 1, n + 1))
            assert sol.objective_value == pytest.approx(objective_value(mech, obj), abs=1e-12)


class TestL0Score:
    def test_identity_scores_zero(self):
        for n in (1, 3, 8):
            assert l0_score(new_mechanism(n, np.eye(n + 1))) == pytest.approx(0.0, abs=1e-15)

    def test_gm_matches_closed_form(self):
        # evaluating the trace formula on the constructed matrix must agree
        # with 2a/(1+a)
        a = 0.62
        assert l0_score(geometric(7, a)) == pytest.approx(2 * a / (1 + a), abs=1e-10)
        assert l0_score(geometric(7, a)) == pytest.approx(0.7654320987654321, abs=1e-12)

    def test_uniform_scores_one(self):
        assert l0_score(uniform(3)) == pytest.approx(1.0, abs=1e-12)

    def test_equals_rescaled_objective(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = random_mechanism(rng, n)
            assert l0_score(m) == pytest.approx(
                objective_value(m, l0_objective(n)), abs=1e-12)

    def test_l0d_score_agrees_with_brute(self, rng):
        for n in (1, 2, 5, 9):
            pool = [random_mechanism(rng, n), geometric(n, 0.62), explicit_fair(n, 0.3),
                    uniform(n), new_mechanism(n, np.eye(n + 1))]
            for m in pool:
                for d in range(0, n + 1):
                    expected = brute_objective(m.matrix, 0, uniform_weights(n), d=d,
                                               rescale=True)
                    assert l0d_score(m, d) == pytest.approx(expected, abs=1e-12)

    def test_l0d_score_errors(self):
        with pytest.raises(ValueError):
            l0d_score(uniform(3), -1)
        with pytest.raises(DimensionMismatch):
            l0d_score(uniform(3), 4)


class TestSymmetrize:
    def test_gm_is_fixed_point(self):
        m = geometric(3, 0.5)
        assert np.array_equal(symmetrize(m).matrix, m.matrix)

    def test_uniform_is_fixed_point(self):
        m = uniform(2)
        assert np.array_equal(symmetrize(m).matrix, m.matrix)

    def test_hand_case(self):
        m = Mechanism([[0.6, 0.2], [0.4, 0.8]])
        out = symmetrize(m)
        assert np.allclose(out.matrix, [[0.7, 0.3], [0.3, 0.7]], atol=1e-15)
        assert out.trace() == pytest.approx(1.4, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    def test_trace_preserved_and_idempotent(self, seed, n):
        m = random_mechanism(np.random.default_rng(seed), n)
        sym = symmetrize(m)
        assert sym.trace() == pytest.approx(m.trace(), abs=1e-12)
        assert np.all(np.abs(sym.matrix - sym.matrix[::-1, ::-1]) == 0.0)
        again = symmetrize(sym)
        assert np.array_equal(again.matrix, sym.matrix)

    def test_preserves_held_properties(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            mech = random_dp_mechanism(rng, n, 0.7)
            before = {p: check_property(mech, p) for p in PROPERTIES if p != "S"}
            sym = symmetrize(mech)
            assert is_dp(sym, 0.7)
            for p, held in before.items():
                if held:
                    assert check_property(sym, p), p


class TestWholeNumberInputs:
    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    @pytest.mark.parametrize("check, rule", [
        (_check_n, "group size must be an integer >= 1"),
        (_check_d, "d must be a non-negative integer"),
        (_check_reps, "reps must be an integer >= 1"),
        (lambda p: Objective(p=p, weights=[0.5, 0.5]), "p must be a non-negative integer"),
    ], ids=["n", "d", "reps", "p"])
    def test_non_finite_value_gets_the_named_message(self, check, rule, value):
        with pytest.raises(ValueError, match=f"^{rule}, got {value}$"):
            check(value)


class TestSides:
    @pytest.mark.parametrize("prop", ["DP", "RH", "RM", "CH", "CM", "F", "S"])
    def test_sides_are_views_of_the_array(self, prop):
        g = np.arange(25.0).reshape(5, 5)
        for lhs, rhs, keep in _sides(g, prop):
            assert np.shares_memory(lhs, g) and np.shares_memory(rhs, g)
            assert lhs.shape == rhs.shape
            assert keep is None or keep.shape == lhs.shape

    def test_no_comparison_defines_weak_honesty(self):
        with pytest.raises(ValueError, match="no comparison defines 'WH'"):
            _sides(np.eye(3), "WH")


class TestMechanismCsv:
    def test_round_trip_is_exact(self, rng, tmp_path):
        mech = random_mechanism(rng, 6)
        path = tmp_path / "m.csv"
        write_mechanism_csv(mech, path, alpha=0.62)
        back, alpha = read_mechanism_csv(path)
        assert alpha == 0.62
        assert np.array_equal(back.matrix, mech.matrix)

    @pytest.mark.parametrize("alpha", [None, 0.62])
    def test_bytes_match_numpy_scalar_formatting(self, tmp_path, alpha):
        mech = edge_mechanism()
        path = tmp_path / "m.csv"
        write_mechanism_csv(mech, path, alpha=alpha)
        # the writer formats Python floats; numpy scalars must give the same text
        head = "NA" if alpha is None else f"{np.float64(alpha):.16e}"
        lines = [f"2,{head}", *(",".join(f"{v:.16e}" for v in row) for row in mech.matrix)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert read_mechanism_csv(path)[0].matrix.tobytes() == mech.matrix.tobytes()

    def test_na_alpha(self, tmp_path):
        path = tmp_path / "m.csv"
        write_mechanism_csv(uniform(2), path)
        _, alpha = read_mechanism_csv(path)
        assert alpha is None

    @pytest.mark.parametrize("alpha", [1.5, 0.0, float("nan")])
    def test_alpha_out_of_range_neither_written_nor_read(self, tmp_path, alpha):
        path = tmp_path / "m.csv"
        with pytest.raises(AlphaOutOfRange):
            write_mechanism_csv(uniform(2), path, alpha=alpha)
        assert not path.exists()
        path.write_text(f"2,{alpha}\n" + "0.25,0.25,0.25\n0.5,0.5,0.5\n0.25,0.25,0.25\n")
        with pytest.raises(ParseError, match="line 1: bad alpha"):
            read_mechanism_csv(path)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,NA\n0.5,0.5,0.5\n0.25,0.25,0.25\nnope,0.25,0.25\n")
        with pytest.raises(ParseError, match="line 4"):
            read_mechanism_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty mechanism file"),
        ("1\n1,0\n0,1\n", "line 1 must be 'n,alpha'"),
        ("1,NA,2\n1,0\n0,1\n", "line 1 must be 'n,alpha'"),
        ("1.5,NA\n1,0\n0,1\n", "line 1: bad group size '1.5'"),
        ("-1,NA\n", "line 1: bad group size '-1'"),
        ("0,NA\n1\n", "line 1: bad group size '0'"),
        ("-2,0.5\n1,0\n0,1\n", "line 1: bad group size '-2'"),
        ("1,NA\n1,0\n0\n", "line 3: expected 2 values, found 1"),
        ("1,0.5\n\n0.5,0.5\n0.5,x\n", "line 4: non-numeric entry"),
        # int() and float() read digit-group underscores, so each of these
        # files would otherwise be read as a valid one ("1_0" as n = 10)
        ("1_0,NA\n" + (",".join([repr(1 / 11)] * 11) + "\n") * 11,
         "line 1: bad group size '1_0'"),
        ("1,0.5_0\n0.5,0.5\n0.5,0.5\n", "line 1: bad alpha '0.5_0'"),
        ("1,NA\n1,0\n0_0,1\n", "line 3: non-numeric entry"),
    ], ids=["empty", "no-alpha", "extra-field", "non-integer-n", "negative-n", "zero-n",
            "negative-n-with-rows", "short-row", "after-blank-line", "underscore-n",
            "underscore-alpha", "underscore-entry"])
    def test_malformed_file_is_a_parse_error(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            read_mechanism_csv(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,NA\n0.5,0.5,0.5\n")
        with pytest.raises(ParseError):
            read_mechanism_csv(path)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,NA\n1,0\n0,1\n# caf\xe9\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid UTF-8$"):
            read_mechanism_csv(path)

    def test_utf8_bom_is_skipped(self, rng, tmp_path):
        mech = random_mechanism(rng, 3)
        path = tmp_path / "m.csv"
        write_mechanism_csv(mech, path, alpha=0.5)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back, alpha = read_mechanism_csv(path)
        assert alpha == 0.5
        assert np.array_equal(back.matrix, mech.matrix)
