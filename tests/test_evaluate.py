"""CSV ingestion, predicate parsing and the seeded empirical metrics."""

import numpy as np
import pytest

from dpmech import (
    EvalConfig,
    GroupCounts,
    empirical_l0d,
    empirical_rmse,
    geometric,
    ingest_groups,
    new_mechanism,
    parse_predicate,
)
from dpmech.errors import ParseError, UnknownColumn


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

    @pytest.mark.parametrize("spec", ["age", "<=30", "age<="])
    def test_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_predicate(spec)


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


class TestEmpiricalMetrics:
    @pytest.mark.parametrize("metric", [empirical_l0d, empirical_rmse])
    def test_same_seed_same_reps(self, metric):
        rng = np.random.default_rng(7)
        groups = GroupCounts(n=6, counts=rng.binomial(6, 0.4, size=500))
        mech = geometric(6, 0.7)
        cfg = EvalConfig(reps=5, seed=11, d=1)
        first = metric(mech, groups, cfg)
        assert first.per_rep == metric(mech, groups, cfg).per_rep
        assert first.per_rep != metric(mech, groups, EvalConfig(reps=5, seed=12, d=1)).per_rep

    @pytest.mark.parametrize("metric", [empirical_l0d, empirical_rmse])
    def test_identity_mechanism_scores_zero(self, metric):
        groups = GroupCounts(n=4, counts=np.arange(5).repeat(20))
        result = metric(new_mechanism(4, np.eye(5)), groups, EvalConfig(reps=3, seed=0))
        assert result.per_rep == [0.0, 0.0, 0.0]
        assert result.mean == 0.0 and result.std_error == 0.0
