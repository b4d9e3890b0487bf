"""CSV ingestion, predicate parsing and the seeded empirical metrics."""

import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _sampling_reference

from dpmech import (
    EvalConfig,
    GroupCounts,
    binomial_population,
    empirical_l0d,
    empirical_rmse,
    evaluate,
    explicit_fair,
    geometric,
    ingest_groups,
    new_mechanism,
    parse_predicate,
    uniform,
)
from dpmech.core import TOL
from dpmech.errors import DimensionMismatch, ParseError, UnknownColumn


def _csv(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


class TestParsePredicate:
    @pytest.mark.parametrize("spec, inside, outside", [
        ("age<=30", "30", "31"),
        ("age>=30", "30", "29"),
        ("age<30", "29", "30"),
        ("age>30", "31", "30"),
    ])
    def test_two_character_ops_win(self, spec, inside, outside):
        column, pred = parse_predicate(spec)
        assert column == "age"
        assert pred(inside) and not pred(outside)

    def test_equality_is_numeric_for_numbers(self):
        column, pred = parse_predicate("score==1e1")
        assert column == "score"
        assert pred("10") and pred(" 10.0 ")
        assert not pred("11")

    def test_equality_falls_back_to_strings(self):
        _, pred = parse_predicate("score==10")
        assert not pred("ten")
        _, pred = parse_predicate("city == Oslo")
        assert pred("Oslo") and pred(" Oslo ")
        assert not pred("oslo")

    @pytest.mark.parametrize("spec", [" flag ", "flag"])
    def test_spec_without_an_operator_names_a_bit_column(self, spec):
        assert parse_predicate(spec) == ("flag", None)

    @pytest.mark.parametrize("spec", ["<=30", "age<=", " "])
    def test_malformed(self, spec):
        with pytest.raises(ValueError, match="must look like|missing a column or value"):
            parse_predicate(spec)

    def test_non_numeric_value_is_named(self):
        with pytest.raises(ValueError, match="'abc'"):
            parse_predicate("age<=abc")


class TestIngestGroups:
    def test_blank_rows_skipped_and_tail_dropped(self, tmp_path):
        path = _csv(tmp_path, "id,bit\na,1\n\nb,1\n , \nc,0\nd,1\ne,1\n")
        groups = ingest_groups(path, "bit", 2)
        assert groups.n == 2
        assert groups.counts.tolist() == [2, 1]

    def test_predicate_sets_the_bit(self, tmp_path):
        path = _csv(tmp_path, "age\n20\n40\n35\n10\n")
        _, pred = parse_predicate("age>=35")
        assert ingest_groups(path, "age", 2, predicate=pred).counts.tolist() == [1, 1]

    @pytest.mark.parametrize("group_size", [2.5, 0])
    def test_group_size_checked_before_the_file_is_opened(self, tmp_path, group_size):
        with pytest.raises(ValueError, match="group size"):
            ingest_groups(tmp_path / "missing.csv", "bit", group_size)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty file"):
            ingest_groups(_csv(tmp_path, ""), "bit", 1)

    def test_unknown_column(self, tmp_path):
        path = _csv(tmp_path, "id,bit\na,1\n")
        with pytest.raises(UnknownColumn):
            ingest_groups(path, "flag", 1)

    @pytest.mark.parametrize("text, column, predicate, message", [
        ("id,bit\na,1\nb,2\n", "bit", None, "line 3: expected a 0/1 bit"),
        ("id,bit\na,1\nb\n", "bit", None, "line 3: too few fields"),
        ("id,age\na,30\nb,old\n", "age", "age<40", "line 3: cannot evaluate"),
    ])
    def test_parse_errors_carry_line_numbers(self, tmp_path, text, column, predicate,
                                             message):
        pred = parse_predicate(predicate)[1] if predicate else None
        with pytest.raises(ParseError, match=message):
            ingest_groups(_csv(tmp_path, text), column, 1, predicate=pred)


class TestInputRules:
    def test_binomial_population_rejects_fractional_group_size(self):
        with pytest.raises(ValueError, match="group size"):
            binomial_population(10, 2.5, 0.5, np.random.default_rng(0))

    def test_binomial_population_needs_a_full_group(self):
        with pytest.raises(ValueError, match="need total >= n, got total=3, n=4"):
            binomial_population(3, 4, 0.5, np.random.default_rng(0))

    def test_group_counts_are_a_vector(self):
        with pytest.raises(DimensionMismatch, match="1-D"):
            GroupCounts(n=2, counts=np.zeros((2, 2)))

    @pytest.mark.parametrize("count", [-1, 3])
    def test_group_counts_lie_in_0_to_n(self, count):
        with pytest.raises(ValueError, match=re.escape("counts must lie in [0, 2]")):
            GroupCounts(n=2, counts=np.array([0, count]))

    def test_eval_config_metric_is_l0d_or_rmse(self):
        with pytest.raises(ValueError, match="metric must be 'l0d' or 'rmse', got 'mse'"):
            EvalConfig(metric="mse")

    @pytest.mark.parametrize("metric", [empirical_l0d, empirical_rmse])
    def test_mechanism_must_fit_the_group_size(self, metric):
        groups = GroupCounts(n=3, counts=np.array([0, 3]))
        with pytest.raises(DimensionMismatch, match="mechanism size 2 does not match "
                                                    "group size 3"):
            metric(geometric(2, 0.5), groups, EvalConfig(reps=1))

    def test_eval_config_rejects_fractional_tail_offset(self):
        with pytest.raises(ValueError, match="d must be a non-negative integer"):
            EvalConfig(d=1.5)

    def test_eval_config_tail_offset_needs_the_l0d_metric(self):
        with pytest.raises(ValueError, match="d applies only to the l0d metric, not rmse"):
            EvalConfig(d=2, metric="rmse")
        assert EvalConfig(d=2, metric="l0d").d == 2
        assert EvalConfig(d=0, metric="rmse").d == 0

    @pytest.mark.parametrize("reps", [0, -3, 2.5])
    def test_eval_config_reps_must_be_a_positive_integer(self, reps):
        with pytest.raises(ValueError, match="reps must be an integer >= 1"):
            EvalConfig(reps=reps)

    def test_eval_config_whole_float_reps_run_as_an_integer(self):
        groups = GroupCounts(n=2, counts=np.array([0, 1, 2]))
        cfg = EvalConfig(reps=2.0, seed=3)
        assert cfg.reps == 2 and isinstance(cfg.reps, int)
        result = empirical_l0d(geometric(2, 0.5), groups, cfg)
        assert result.per_rep == empirical_l0d(geometric(2, 0.5), groups,
                                               EvalConfig(reps=2, seed=3)).per_rep


class TestEmpiricalMetrics:
    @pytest.mark.parametrize("metric", [empirical_l0d, empirical_rmse])
    def test_same_seed_same_reps(self, metric):
        d = 1 if metric is empirical_l0d else 0
        counts = np.random.default_rng(7).binomial(6, 0.4, size=500)
        cfg = EvalConfig(reps=5, seed=11, d=d)
        first = metric(geometric(6, 0.7), GroupCounts(n=6, counts=counts), cfg)
        # equal but distinct objects, so the repeat draws again from scratch
        mech, groups = geometric(6, 0.7), GroupCounts(n=6, counts=counts.copy())
        assert first.per_rep == metric(mech, groups, cfg).per_rep
        assert first.per_rep != metric(mech, groups, EvalConfig(reps=5, seed=12, d=d)).per_rep

    def test_rmse_rejects_a_tail_offset(self):
        groups = GroupCounts(n=2, counts=np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="d applies only to the l0d metric, not rmse"):
            empirical_rmse(geometric(2, 0.5), groups, EvalConfig(d=1))

    @pytest.mark.parametrize("metric", [empirical_l0d, empirical_rmse])
    def test_identity_mechanism_scores_zero(self, metric):
        groups = GroupCounts(n=4, counts=np.arange(5).repeat(20))
        result = metric(new_mechanism(4, np.eye(5)), groups, EvalConfig(reps=3, seed=0))
        assert result.per_rep == [0.0, 0.0, 0.0]
        assert result.mean == 0.0 and result.std_error == 0.0


def _sampled_outputs(mech, counts, reps=3, seed=5):
    """The outputs of every draw, one array per rep."""
    groups = GroupCounts(n=mech.n, counts=counts)
    return list(evaluate._draws(mech, groups, seed, reps))


def _dense_outputs(matrix, counts, draws):
    """Oracle: compare every CDF entry of the group's column with its draw."""
    n = matrix.shape[0] - 1
    cdf = np.cumsum(matrix, axis=0)
    return [np.minimum((cdf[:, counts] <= u[None, :]).sum(axis=0), n).astype(np.int64)
            for u in draws]


def _random_mechanism(n, seed):
    m = np.random.default_rng(seed).random((n + 1, n + 1))
    return new_mechanism(n, m / m.sum(axis=0))


class _FixedDraws:
    """Stands in for a generator: random(size) returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert size == self.values.size
        return self.values.copy()


class TestSampler:
    @pytest.mark.parametrize("n", [1, 2, 5, 30, 31, 62, 63, 400])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        size = 3000
        count_sets = {
            "zeros": np.zeros(size, np.int64),
            "all n": np.full(size, n, np.int64),
            "skewed": np.minimum(rng.geometric(0.5, size) - 1, n),
            "binomial": rng.binomial(n, 0.5, size),
        }
        mechs = {
            "gm": geometric(n, 0.9),
            "em": explicit_fair(n, 0.9),
            "uniform": uniform(n),
            "identity": new_mechanism(n, np.eye(n + 1)),
            "random-1": _random_mechanism(n, 1),
            "random-2": _random_mechanism(n, 2),
        }
        for mech_name, mech in mechs.items():
            for count_name, counts in count_sets.items():
                draws = [evaluate.substream(5, r).random(size) for r in range(3)]
                got = _sampled_outputs(mech, counts)
                want = _dense_outputs(mech.matrix, counts, draws)
                for r in range(3):
                    assert got[r].dtype == np.int64
                    assert np.array_equal(got[r], want[r]), (mech_name, count_name, r)

    def _with_draws(self, monkeypatch, mech, counts, values):
        monkeypatch.setattr(evaluate, "substream", lambda seed, k: _FixedDraws(values))
        return _sampled_outputs(mech, np.asarray(counts), reps=1)[0]

    def test_ties_and_edges(self, monkeypatch):
        # columns: CDFs (1/4, 1/2, 1, 1), (0, 1/2, 3/4, 1), (0, 0, 0, 1) and
        # (1/2, 1 - 2**-31, 1 - 2**-31, 1 - 2**-31), whose last entry sits below
        # every u near 1 so the cap at n decides
        short = 2.0 ** -31
        matrix = np.array([[0.25, 0.0, 0.0, 0.5],
                           [0.25, 0.5, 0.0, 0.5 - short],
                           [0.5, 0.25, 0.0, 0.0],
                           [0.0, 0.25, 1.0, 0.0]])
        mech = new_mechanism(3, matrix)
        top = np.nextafter(1.0, 0.0)
        cases = [  # (true count, u, expected output)
            (0, 0.0, 0), (0, 0.25, 1), (0, 0.5, 2), (0, 0.75, 2), (0, top, 2),
            (1, 0.0, 1), (1, 0.5, 2), (1, 0.75, 3), (1, top, 3),
            (2, 0.0, 3), (2, 0.5, 3), (2, top, 3),
            (3, 0.0, 0), (3, 0.5, 1), (3, 1.0 - short, 3), (3, top, 3),
        ]
        counts = [c for c, _, _ in cases]
        values = [u for _, u, _ in cases]
        got = self._with_draws(monkeypatch, mech, counts, values)
        assert got.tolist() == [want for _, _, want in cases]
        oracle = _dense_outputs(matrix, np.asarray(counts), [np.asarray(values)])[0]
        assert np.array_equal(got, oracle)

    def test_negative_entry_is_clipped(self, monkeypatch):
        tiny = 5e-10
        matrix = np.array([[0.5 + tiny, 0.25, 0.0],
                           [-tiny, 0.25, 0.5],
                           [0.5, 0.5, 0.5]])
        mech = new_mechanism(2, matrix)
        values = np.array([0.0, 0.5, 0.5 + tiny, 0.75, np.nextafter(1.0, 0.0)] * 3)
        counts = np.repeat([0, 1, 2], 5)
        got = self._with_draws(monkeypatch, mech, counts, values)
        assert got.min() >= 0 and got.max() <= 2
        clipped = _dense_outputs(np.maximum(matrix, 0.0), counts, [values])[0]
        assert np.array_equal(got, clipped)


def _mechanism_near_the_floor(rng, n):
    """Valid mechanism with some zero entries and some as low as -TOL, the
    deficit moved onto another entry of the same column."""
    m = rng.random((n + 1, n + 1)) * (rng.random((n + 1, n + 1)) < 0.6)
    m[rng.integers(0, n + 1, size=n + 1), np.arange(n + 1)] += 0.1
    m /= m.sum(axis=0)
    for j in range(n + 1):
        if rng.random() < 0.5:
            low, high = rng.choice(n + 1, size=2, replace=False)
            shortfall = m[low, j] + TOL * rng.random()
            m[low, j] -= shortfall
            m[high, j] += shortfall
    return new_mechanism(n, m)


class TestOneDraw:
    """l0d at every d and RMSE read one seeded draw, and equal the loop that
    drew again for each statistic."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), reps=st.integers(1, 4),
           seed=st.integers(0, 2**64 - 1), size=st.integers(1, 40))
    def test_matches_the_per_statistic_loop(self, data, n, reps, seed, size):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mech = _mechanism_near_the_floor(rng, n)
        groups = GroupCounts(n=n, counts=rng.integers(0, n + 1, size=size))
        calls = data.draw(st.lists(
            st.tuples(st.sampled_from(["l0d", "rmse"]), st.integers(0, n + 1), st.booleans()),
            min_size=1, max_size=6))
        for metric, d, fresh in calls:
            if fresh:
                mech = new_mechanism(n, mech.matrix)
                groups = GroupCounts(n=n, counts=groups.counts.copy())
            if metric == "l0d":
                cfg = EvalConfig(reps=reps, seed=seed, d=d)
                got = empirical_l0d(mech, groups, cfg)
                want = _sampling_reference.empirical_l0d(mech, groups, cfg)
            else:
                cfg = EvalConfig(reps=reps, seed=seed, metric="rmse")
                got = empirical_rmse(mech, groups, cfg)
                want = _sampling_reference.empirical_rmse(mech, groups, cfg)
            assert got.per_rep == want.per_rep
            assert (got.mean, got.std_error) == (want.mean, want.std_error)

    def _counting(self, monkeypatch):
        calls = []
        real = evaluate.substream

        def counted(seed, k):
            calls.append((seed, k))
            return real(seed, k)

        monkeypatch.setattr(evaluate, "substream", counted)
        return calls

    def _objects(self):
        counts = np.random.default_rng(3).binomial(5, 0.5, size=200)
        return geometric(5, 0.6), GroupCounts(n=5, counts=counts)

    def test_three_statistics_draw_once(self, monkeypatch):
        calls = self._counting(monkeypatch)
        mech, groups = self._objects()
        empirical_l0d(mech, groups, EvalConfig(reps=4, seed=9, d=0))
        empirical_l0d(mech, groups, EvalConfig(reps=4, seed=9, d=2))
        empirical_rmse(mech, groups, EvalConfig(reps=4, seed=9, metric="rmse"))
        assert calls == [(9, r) for r in range(4)]

    @pytest.mark.parametrize("change", ["groups", "mech", "seed", "reps"])
    def test_other_objects_or_settings_draw_again(self, monkeypatch, change):
        calls = self._counting(monkeypatch)
        mech, groups = self._objects()
        empirical_l0d(mech, groups, EvalConfig(reps=2, seed=9))
        cfg = EvalConfig(reps=2, seed=9)
        if change == "groups":
            groups = GroupCounts(n=5, counts=groups.counts.copy())
        elif change == "mech":
            mech = new_mechanism(5, mech.matrix)
        elif change == "seed":
            cfg = EvalConfig(reps=2, seed=10)
        else:
            cfg = EvalConfig(reps=3, seed=9)
        empirical_l0d(mech, groups, cfg)
        assert len(calls) == 2 + cfg.reps

    def test_remembered_counts_are_read_only(self):
        mech, groups = self._objects()
        counts = evaluate._error_counts(mech, groups, 9, 2)
        assert counts is evaluate._error_counts(mech, groups, 9, 2)
        assert counts.dtype == np.int64 and counts.shape == (2, 11)
        assert counts.sum(axis=1).tolist() == [200, 200]
        with pytest.raises(ValueError, match="read-only"):
            counts[0, 0] = 1

    def test_memo_keeps_no_caller_object_alive(self):
        mech, groups = self._objects()
        empirical_rmse(mech, groups, EvalConfig(reps=2, seed=9))
        refs = weakref.ref(mech), weakref.ref(groups)
        del mech, groups
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
