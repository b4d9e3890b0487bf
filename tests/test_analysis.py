"""Threshold predicates, derivability, strategy selection and reports."""

import numpy as np
import pytest

from conftest import ALPHA_GRID7
from dpmech import (
    PROPERTIES,
    check_property,
    design_mechanism,
    dp_alpha_max,
    explicit_fair,
    fair_diagonal,
    geometric,
    gm_derivable,
    gm_is_column_monotone,
    gm_weak_honesty_threshold,
    l0_objective,
    new_mechanism,
    property_report,
    select_strategy,
    uniform,
)
from dpmech.analysis import SOLVE_LP_WH, SOLVE_LP_WH_CM, USE_EM, USE_GM
from dpmech.errors import AlphaOutOfRange


class TestThresholds:
    def test_weak_honesty_threshold_values(self):
        assert gm_weak_honesty_threshold(2 / 3) == pytest.approx(4.0, abs=1e-12)
        assert gm_weak_honesty_threshold(10 / 11) == pytest.approx(20.0, abs=1e-12)
        assert gm_weak_honesty_threshold(99 / 100) == pytest.approx(198.0, abs=1e-12)
        with pytest.raises(AlphaOutOfRange):
            gm_weak_honesty_threshold(1.0)

    def test_threshold_matches_predicate_on_grid(self):
        for a in ALPHA_GRID7:
            t = gm_weak_honesty_threshold(a)
            for n in range(2, 31):
                assert check_property(geometric(n, a), "WH") == (n >= t - 1e-9), (n, a)

    def test_column_monotonicity_flag(self):
        assert gm_is_column_monotone(0.4)
        assert gm_is_column_monotone(0.5)
        assert not gm_is_column_monotone(0.62)
        assert check_property(geometric(5, 0.4), "CM")
        assert not check_property(geometric(5, 0.62), "CM")

    def test_column_monotonicity_matches_predicate_on_grid(self):
        for a in ALPHA_GRID7:
            for n in range(2, 31):
                assert check_property(geometric(n, a), "CM") == gm_is_column_monotone(a)


class TestFairDiagonalBound:
    def test_examples(self):
        assert fair_diagonal(2, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert fair_diagonal(4, 10 / 11) == pytest.approx(0.22365988909426987,
                                                          abs=1e-10)

    def test_large_n_limit(self):
        assert fair_diagonal(400, 0.5) == pytest.approx(1 / 3, abs=1e-9)

    def test_at_least_uniform_guessing(self):
        # guarantees the fair mechanism keeps weak honesty
        for a in ALPHA_GRID7:
            for n in range(1, 31):
                assert fair_diagonal(n, a) >= 1 / (n + 1) - 1e-12


class TestGmDerivable:
    def test_gm_derivable_from_itself(self):
        for a in ALPHA_GRID7:
            for n in range(1, 21):
                assert gm_derivable(geometric(n, a), a)

    def test_fair_mechanism_never_derivable(self):
        for a in (0.3, 0.62, 0.9):
            for n in range(2, 21):
                assert not gm_derivable(explicit_fair(n, a), a), (n, a)

    def test_constrained_lp_solution_not_derivable(self):
        m = design_mechanism(3, 0.9, {"WH", "RM", "CM"}, l0_objective(3))
        assert not gm_derivable(m, 0.9)

    def test_size_one_fair_is_derivable(self):
        # randomized response is the geometric mechanism at n=1
        assert gm_derivable(explicit_fair(1, 0.62), 0.62)


class TestSelectStrategy:
    def test_fairness_wins(self):
        for props in ({"F"}, {"F", "S"}, {"F", "CM", "WH"}):
            assert select_strategy(5, 0.9, props).strategy == USE_EM

    def test_row_only_uses_gm(self):
        assert select_strategy(10, 0.62, {"S", "RM"}).strategy == USE_GM
        for props in (frozenset(), {"S"}, {"RH"}, {"RM", "RH", "S"}):
            for n in (1, 5, 20):
                for a in (0.3, 0.62, 0.95):
                    assert select_strategy(n, a, props).strategy == USE_GM

    def test_weak_honesty_below_threshold(self):
        # threshold 2a/(1-a) = 6.33 at a=0.76
        assert select_strategy(4, 0.76, {"WH"}).strategy == SOLVE_LP_WH
        assert select_strategy(7, 0.76, {"WH"}).strategy == USE_GM

    def test_column_branch(self):
        assert select_strategy(5, 0.9, {"CH"}).strategy == SOLVE_LP_WH_CM
        assert select_strategy(5, 0.9, {"CM", "RM"}).strategy == SOLVE_LP_WH_CM

    def test_column_branch_collapses_at_low_alpha(self):
        assert select_strategy(5, 0.4, {"CM"}).strategy == USE_GM
        assert select_strategy(5, 0.5, {"CH", "WH"}).strategy == USE_GM

    def test_rationale_is_text(self):
        r = select_strategy(5, 0.9, {"F"})
        assert isinstance(r.rationale, str) and r.rationale

    @pytest.mark.parametrize("props", [frozenset(), {"WH"}, {"CM"}, {"F"}])
    def test_rejects_alpha_1_where_neither_mechanism_exists(self, props):
        with pytest.raises(AlphaOutOfRange):
            select_strategy(5, 1.0, props)

    @pytest.mark.parametrize("n", [0, -2, 2.5])
    def test_rejects_bad_group_size(self, n):
        with pytest.raises(ValueError, match="group size"):
            select_strategy(n, 0.5, {"WH"})


class TestPropertyReport:
    def test_uniform_report(self):
        rep = property_report(uniform(4))
        assert all(rep.flags[p] for p in PROPERTIES)
        assert rep.l0 == pytest.approx(1.0, abs=1e-12)
        assert rep.dp_alpha_max == pytest.approx(1.0)

    def test_gm_report(self):
        rep = property_report(geometric(4, 0.62))
        assert rep.flags["S"] and rep.flags["RM"] and rep.flags["RH"]
        assert not rep.flags["F"]
        assert rep.l0 == pytest.approx(0.7654320987654321, abs=1e-10)
        assert rep.dp_alpha_max == pytest.approx(0.62, abs=1e-12)

    def test_em_report(self):
        rep = property_report(explicit_fair(7, 0.62))
        assert all(rep.flags[p] for p in PROPERTIES)

    def test_tail_costs_non_increasing(self):
        rep = property_report(geometric(6, 0.8))
        values = [rep.l0d[d] for d in range(1, 7)]
        assert values == sorted(values, reverse=True)
        assert rep.l0d[1] == rep.l0

    def test_json_dict_is_flat(self):
        doc = property_report(uniform(3)).to_json_dict()
        assert set(doc) == set(PROPERTIES) | {"dp_alpha_max", "l0", "l0d.1",
                                              "l0d.2", "l0d.3"}

    def test_dp_alpha_max_is_0_below_the_grid(self):
        # a zero next to a one in a row fails the privacy check at any alpha > 0
        mech = new_mechanism(2, np.eye(3))
        assert dp_alpha_max(mech) == 0.0
        assert property_report(mech).dp_alpha_max == 0.0

    def test_dp_alpha_max_monotone_grid(self, rng):
        # bisection result must agree with a linear scan
        from dpmech import is_dp
        from conftest import random_dp_mechanism

        mech = random_dp_mechanism(rng, 3, 0.62)
        reported = dp_alpha_max(mech)
        assert is_dp(mech, reported)
        step_up = min(reported + 0.001, 1.0)
        if step_up > reported:
            assert not is_dp(mech, step_up)
