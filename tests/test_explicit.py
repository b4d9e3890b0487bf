"""Closed-form constructors and their exact costs."""

import numpy as np
import pytest

from conftest import ALPHA_GRID7
from dpmech import (
    PROPERTIES,
    check_property,
    em_l0_cost,
    explicit_fair,
    fair_diagonal,
    geometric,
    gm_l0_cost,
    gm_weak_honesty_threshold,
    is_dp,
    l0_score,
    uniform,
)
from dpmech.errors import AlphaOutOfRange


class TestGeometric:
    def test_toeplitz_grid_matches_the_gather(self):
        # the alpha**|i-j| grid as a sliding-window view of the powers equals
        # the powers gathered at the |i-j| grid, bit for bit
        for n in range(1, 401):
            dist = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
            for a in ALPHA_GRID7:
                scale = np.full(n + 1, (1 - a) / (1 + a))
                scale[[0, n]] = 1 / (1 + a)
                gathered = scale[:, None] * np.cumprod(np.r_[1.0, np.full(n, a)])[dist]
                assert geometric(n, a).matrix.tobytes() == gathered.tobytes(), (n, a)

    def test_n2_alpha_09_entries(self):
        # x = 10/19 on the corner diagonal, y = 1/19 inside, off-by-one 9/19
        m = geometric(2, 9 / 10).matrix
        assert m[0, 0] == pytest.approx(10 / 19, abs=1e-12)
        assert m[0, 1] == pytest.approx(9 / 19, abs=1e-12)
        assert m[2, 1] == pytest.approx(9 / 19, abs=1e-12)
        assert m[1, 1] == pytest.approx(1 / 19, abs=1e-12)

    def test_n2_alpha_half_columns(self):
        m = geometric(2, 0.5).matrix
        expected = np.array([[2 / 3, 1 / 3, 1 / 6],
                             [1 / 6, 1 / 3, 1 / 6],
                             [1 / 6, 1 / 3, 2 / 3]])
        assert np.allclose(m, expected, atol=1e-15)

    def test_n1_is_randomized_response(self):
        for a in (0.2, 0.5, 0.9):
            m = geometric(1, a).matrix
            p = 1 / (1 + a)
            assert np.allclose(m, [[p, 1 - p], [1 - p, p]], atol=1e-15)

    def test_alpha_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(AlphaOutOfRange):
                geometric(3, bad)
        with pytest.raises(ValueError):
            geometric(0, 0.5)

    def test_all_ratio_constraints_tight(self):
        for n in range(1, 21):
            for a in ALPHA_GRID7:
                m = geometric(n, a).matrix
                left, right = m[:, :-1], m[:, 1:]
                gap = np.minimum(np.abs(a * right - left), np.abs(a * left - right))
                assert gap.max() <= 1e-12, (n, a)
                assert is_dp(geometric(n, a), a)

    def test_structural_properties(self):
        for n in range(1, 16):
            for a in ALPHA_GRID7:
                m = geometric(n, a)
                assert check_property(m, "S")
                assert check_property(m, "RM")
                assert check_property(m, "RH")
                if n >= 2:
                    assert check_property(m, "CM") == (a <= 0.5)
                    expect_wh = n >= gm_weak_honesty_threshold(a) - 1e-12
                    assert check_property(m, "WH") == expect_wh, (n, a)

    def test_n1_thresholds_do_not_apply(self):
        # the size-1 mechanism has no interior rows: its diagonal is
        # 1/(1+a) >= 1/2, so weak honesty and column monotonicity hold at
        # every alpha
        for a in ALPHA_GRID7:
            assert check_property(geometric(1, a), "WH")
            assert check_property(geometric(1, a), "CM")


class TestExplicitFair:
    def test_exponent_minimum_matches_the_branch(self):
        # min(|i-j|, (|i-j| + edge + 1) // 2) is |i-j| below the edge and the
        # halved form from it on, so the matrices are bit for bit the same
        for n in (1, 2, 3, 7, 8, 100, 401):
            idx = np.arange(n + 1)
            dist = np.abs(np.subtract.outer(idx, idx))
            edge = np.minimum(idx, n - idx)[None, :]
            exponent = np.where(dist < edge, dist, (dist + edge + 1) // 2)
            for a in ALPHA_GRID7:
                pows = np.cumprod(np.r_[1.0, np.full(n, a)])
                expected = fair_diagonal(n, a) * pows[exponent]
                assert explicit_fair(n, a).matrix.tobytes() == expected.tobytes(), (n, a)

    def test_n7_exponent_pattern(self):
        a = 0.62
        m = explicit_fair(7, a).matrix
        y = fair_diagonal(7, a)
        assert m[4, 0] == pytest.approx(y * a**2, abs=1e-15)
        assert m[7, 0] == pytest.approx(y * a**4, abs=1e-15)
        assert m[0, 3] == pytest.approx(y * a**3, abs=1e-15)
        assert m[0, 4] == pytest.approx(y * a**4, abs=1e-15)
        assert np.allclose(np.diagonal(m), y, atol=1e-15)

    def test_n2_alpha_half_columns(self):
        m = explicit_fair(2, 0.5).matrix
        expected = np.array([[0.5, 0.25, 0.25],
                             [0.25, 0.5, 0.25],
                             [0.25, 0.25, 0.5]])
        assert np.allclose(m, expected, atol=1e-15)

    def test_n4_truth_probability(self):
        # 121/541, the paper-reported 0.224 average truth probability
        y = fair_diagonal(4, 10 / 11)
        assert y == pytest.approx(0.22365988909426987, abs=1e-12)
        m = explicit_fair(4, 10 / 11)
        assert m.trace() / 5 == pytest.approx(y, abs=1e-12)

    def test_n1_equals_randomized_response(self):
        a = 0.37
        assert np.allclose(explicit_fair(1, a).matrix, geometric(1, a).matrix,
                           atol=1e-15)

    def test_column_sums_tight(self):
        for n in range(1, 21):
            for a in ALPHA_GRID7:
                sums = explicit_fair(n, a).matrix.sum(axis=0)
                assert np.abs(sums - 1.0).max() <= 1e-12

    def test_all_properties_and_privacy(self):
        for n in range(1, 21):
            for a in ALPHA_GRID7:
                m = explicit_fair(n, a)
                assert is_dp(m, a), (n, a)
                for p in PROPERTIES:
                    assert check_property(m, p), (n, a, p)

    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRange):
            explicit_fair(4, 1.0)


class TestUniform:
    def test_entries(self):
        assert np.allclose(uniform(1).matrix, 0.5)
        assert np.allclose(uniform(4).matrix, 0.2)

    def test_l0_is_one(self):
        assert l0_score(uniform(4)) == pytest.approx(1.0, abs=1e-12)

    def test_dp_at_alpha_one(self):
        assert is_dp(uniform(2), 1.0)


class TestClosedFormCosts:
    def test_gm_cost_examples(self):
        assert gm_l0_cost(2 / 3) == pytest.approx(0.8, abs=1e-15)
        assert gm_l0_cost(0.76) == pytest.approx(0.8636363636363636, abs=1e-12)
        assert gm_l0_cost(0.01) == pytest.approx(0.019801980198019802, abs=1e-15)

    def test_em_cost_examples(self):
        assert em_l0_cost(2, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert em_l0_cost(4, 10 / 11) == pytest.approx(0.9704251386321626, abs=1e-12)

    def test_costs_match_constructed_mechanisms(self):
        for n in range(1, 21):
            for a in ALPHA_GRID7:
                assert l0_score(geometric(n, a)) == pytest.approx(
                    gm_l0_cost(a), abs=1e-10)
                assert l0_score(explicit_fair(n, a)) == pytest.approx(
                    em_l0_cost(n, a), abs=1e-10)

    def test_em_cost_dominates_gm_cost(self):
        for n in range(1, 21):
            for a in ALPHA_GRID7:
                assert em_l0_cost(n, a) >= gm_l0_cost(a) - 1e-12

    def test_cost_gap_vanishes_with_n(self):
        # the un-rescaled gap is controlled by the alpha power at the middle
        # column; checked per parity against the symbolic difference bound
        for n in range(2, 21):
            for a in ALPHA_GRID7:
                gap = abs(em_l0_cost(n, a) * n / (n + 1) - gm_l0_cost(a))
                if n % 2 == 0:
                    t = a ** (n // 2 + 1)
                    bound = 2 * t / (1 + a - 2 * t)
                else:
                    t = a ** ((n + 1) // 2)
                    bound = t / (1 - t)
                assert gap <= bound + 1e-12, (n, a)

    def test_alpha_validation(self):
        with pytest.raises(AlphaOutOfRange):
            gm_l0_cost(1.0)
        with pytest.raises(AlphaOutOfRange):
            em_l0_cost(4, 0.0)
