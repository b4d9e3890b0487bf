"""Threshold predicates, derivability, strategy selection and reports."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _analysis_reference as reference
from conftest import ALPHA_GRID7, peak_arrays
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
    is_dp,
    l0_objective,
    new_mechanism,
    property_report,
    select_strategy,
    uniform,
)
from dpmech import analysis
from dpmech.core import TOL, Mechanism
from dpmech.errors import AlphaOutOfRange
from dpmech.strategy import SOLVE_LP_WH, SOLVE_LP_WH_CM, USE_EM, USE_GM


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

    @pytest.mark.parametrize("a", [0.62, 0.9, 1.0])
    def test_boundary_columns_count(self, a):
        # no interior triple fails in either; the identity at n=1 has none,
        # and in the n=2 mechanism row 0 rises too fast from column 0 and
        # row 1 falls too fast into column 2
        for m in (np.eye(2), [[0.2, 0.5, 0.8], [0.8, 0.5, 0.2], [0.0, 0.0, 0.0]]):
            mech = Mechanism(m)
            assert reference.gm_derivable(mech, a) is False
            assert not gm_derivable(mech, a)


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
        # the result passes and the next grid point fails
        from dpmech import is_dp
        from conftest import random_dp_mechanism

        mech = random_dp_mechanism(rng, 3, 0.62)
        reported = dp_alpha_max(mech)
        assert is_dp(mech, reported)
        step_up = min(reported + 0.001, 1.0)
        if step_up > reported:
            assert not is_dp(mech, step_up)


@st.composite
def _mechanisms(draw, max_n=12):
    """Valid mechanisms at the comparisons' edges.

    A near-uniform, random or sparse base gets up to four edits: an exact
    zero, an entry down to -TOL, or a row-adjacent pair whose ratio
    (lo + TOL)/hi sits on a grid point k/1000 or an ulp either side.  The
    rest of the edited column absorbs the change, so it still sums to 1.
    """
    n = draw(st.integers(1, max_n))
    size = n + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from(("flat", "random", "sparse")))
    if base == "flat":
        m = 1.0 + rng.uniform(-0.01, 0.01, (size, size))
    elif base == "random":
        m = rng.uniform(0.05, 1.0, (size, size))
    else:
        m = rng.uniform(0.0, 1.0, (size, size)) * (rng.random((size, size)) < 0.5) + np.eye(size)
    m /= m.sum(axis=0)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
        kind = draw(st.sampled_from(("zero", "negative", "grid")))
        if kind == "zero":
            value = 0.0
        elif kind == "negative":
            value = -TOL * draw(st.sampled_from((1.0, 0.5, 1e-3)))
        else:
            hi = m[i, j + 1 if j < n else j - 1]
            value = draw(st.integers(1, 999)) / 1000 * hi - TOL
            for _ in range(draw(st.integers(0, 1))):
                value = np.nextafter(value, draw(st.sampled_from((-np.inf, np.inf))))
        column = m[:, j] - (value - m[i, j]) / n
        column[i] = value
        if column.min() >= -TOL and column.max() <= 1.0:
            m[:, j] = column
    return Mechanism(m)


def _bits(report) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_json_dict().items()}


def _scan(mech) -> float:
    """The largest passing grid point, by checking all 1,000 of them."""
    return max((k for k in range(1, 1001) if is_dp(mech, k / 1000)), default=0) / 1000


# a pair (lo, hi) = (-TOL, 1e-26) passes at every alpha, though its ratio
# (lo + TOL)/hi rounds to 0: the one-pass guess is 1 and the answer 0.999
_SUB_ULP_PAIR = Mechanism([[-TOL, 1e-26], [1.0 + TOL, 1.0]])


class TestReportMatchesReference:
    """property_report is bit for bit the gather-and-bisect reference's."""

    @settings(max_examples=400, deadline=None)
    @given(mech=_mechanisms())
    @example(mech=new_mechanism(2, np.eye(3)))
    @example(mech=_SUB_ULP_PAIR)
    def test_random_mechanisms(self, mech):
        assert _bits(property_report(mech)) == _bits(reference.property_report(mech))
        for a in (0.3, 0.62, 0.9, 1.0):
            want = reference.gm_derivable(mech, a)
            assert want is None or gm_derivable(mech, a) == want, a

    @pytest.mark.parametrize("make", [geometric, explicit_fair])
    def test_n400(self, make):
        mech = make(400, 0.9)
        assert _bits(property_report(mech)) == _bits(reference.property_report(mech))


class TestFlagSlackEdges:
    """Each order flag at the edge of its slack: on the uniform mechanism of
    size 4, one entry is raised to exactly fl(lhs + TOL), or one ulp above,
    and the rest of its column gives up the excess, each entry by less than
    TOL, so no other comparison of the flag moves to its edge."""

    # (property, the entry raised, the entry it is compared with)
    @pytest.mark.parametrize("prop, raised, lhs", [
        ("RH", (1, 3), (1, 1)),
        ("CH", (3, 1), (1, 1)),
        ("RM", (3, 1), (3, 2)),
        ("CM", (3, 1), (2, 1)),
    ])
    @pytest.mark.parametrize("ulps", [0, 1])
    def test_at_and_above_the_slack(self, prop, raised, lhs, ulps):
        m = uniform(4).matrix.copy()
        value = m[lhs] + TOL
        for _ in range(ulps):
            value = np.nextafter(value, np.inf)
        column = raised[1]
        others = [i for i in range(5) if (i, column) not in (raised, lhs)]
        m[others, column] -= (value - m[raised]) / len(others)
        m[raised] = value
        mech = Mechanism(m)
        assert check_property(mech, prop) is (ulps == 0)
        assert _bits(property_report(mech)) == _bits(reference.property_report(mech))


class TestAllocations:
    """Peak memory of the analysis at n=400, in (n+1)^2 float64 arrays: a
    deterministic guard against full-size temporaries coming back."""

    def test_property_report(self):
        mech = geometric(400, 0.9)
        # the entries plus TOL, and one ratio or privacy-check buffer
        assert peak_arrays(lambda: property_report(mech), 400) <= 2.5

    def test_gm_derivable(self):
        mech = geometric(400, 0.9)
        # the two sides of the interior test
        assert peak_arrays(lambda: gm_derivable(mech, 0.9), 400) <= 2.1


class TestDpAlphaMax:
    @settings(max_examples=60, deadline=None)
    @given(mech=_mechanisms(max_n=3))
    @example(mech=_SUB_ULP_PAIR)
    def test_matches_a_linear_scan(self, mech):
        assert dp_alpha_max(mech) == _scan(mech)

    def test_sub_ulp_pair_falls_back_to_bisection(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "is_dp", lambda m, a: calls.append(a) or is_dp(m, a))
        assert dp_alpha_max(_SUB_ULP_PAIR) == _scan(_SUB_ULP_PAIR) == 0.999
        # three steps up from the guess, then at most ten halvings of the grid
        assert calls[:3] == [0.001, 0.002, 0.003] and len(calls) <= 13

    @staticmethod
    def _tiny_negative_pair():
        # row 0 of a geometric mechanism shrunk to +-1e-12, its mass moved to
        # row 1: the pairs of row 0 pass at every alpha and rows 1-3 bind
        m = geometric(3, 0.62).matrix.copy()
        shift = m[0] - np.array([-1e-12, -1e-12, 1e-12, 1e-12])
        m[0] -= shift
        m[1] += shift
        return Mechanism(m)

    @pytest.mark.parametrize("make, answer", [
        (lambda: uniform(4), 1.0),
        (lambda: new_mechanism(3, np.eye(4)), 0.0),
        (lambda: geometric(50, 0.9), 0.9),
        (lambda: geometric(400, 0.9), 0.9),
        (_tiny_negative_pair, 0.62),
    ], ids=["uniform", "eye", "gm-n50", "gm-n400", "tiny-negative-pair"])
    def test_at_most_three_privacy_checks(self, monkeypatch, make, answer):
        mech = make()
        calls = []
        monkeypatch.setattr(analysis, "is_dp", lambda m, a: calls.append(a) or is_dp(m, a))
        found = dp_alpha_max(mech)
        assert len(calls) <= 3, calls
        assert found == reference.dp_alpha_max(mech) == answer
