"""Tests for distributed naive evaluation (Section 3.2 baseline)."""

import pytest

from repro.datalog import EvaluationBudget, Query, parse_atom, parse_program
from repro.datalog.database import load_facts
from repro.distributed import (DDatalogProgram, DistributedNaiveEngine,
                               DqsqEngine, NetworkOptions)
from repro.errors import DistributedError

RULES = """
r@r(X, Y) :- a@r(X, Y).
r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
t@t(X, Y) :- c@t(X, Y).
"""

FACTS = """
a@r("1", "2").
a@r("2", "3").
b@s("2", "x").
b@s("3", "x").
c@t("2", "4").
c@t("3", "5").
c@t("4", "6").
"""


def setup():
    dd = DDatalogProgram(parse_program(RULES))
    edb = load_facts(parse_program(FACTS))
    return dd, edb


class TestDistributedNaive:
    def test_answers(self):
        dd, edb = setup()
        result = DistributedNaiveEngine(dd, edb).query(Query(parse_atom('r@r("1", Y)')))
        assert {f[1].value for f in result.answers} == {"2", "4"}

    def test_agrees_with_dqsq(self):
        dd, edb = setup()
        for query_text in ('r@r("1", Y)', "r@r(X, Y)", 't@t("2", Y)'):
            query = Query(parse_atom(query_text))
            naive = DistributedNaiveEngine(dd, edb).query(query)
            dqsq = DqsqEngine(dd, edb).query(query)
            assert naive.answers == dqsq.answers, query_text

    def test_materializes_whole_relations(self):
        # Naive evaluation ships whole relations: it computes all of r,
        # not just the tuples matching the binding.
        dd, edb = setup()
        result = DistributedNaiveEngine(dd, edb).query(Query(parse_atom('r@r("1", Y)')))
        # r contains ("1","2"), ("2","3"), ("1","4"), ("2","5"), ... --
        # strictly more than the two answers.
        assert result.counters["facts_materialized_global"] > len(result.answers)

    def test_dqsq_materializes_less(self):
        dd, edb = setup()
        query = Query(parse_atom('r@r("1", Y)'))
        naive = DistributedNaiveEngine(dd, edb).query(query)
        dqsq = DqsqEngine(dd, edb).query(query)
        naive_idb = (naive.counters["facts_materialized_global"]
                     - sum(1 for _ in parse_program(FACTS).facts()))
        dqsq_adorned = sum(len(v) for v in dqsq.adorned_fact_sets().values())
        assert dqsq_adorned < naive_idb

    def test_activation_is_demand_driven(self):
        # A relation unreachable from the query is never activated.
        rules = RULES + "huge@s(X, Y) :- b@s(X, Y), b@s(Y, X).\n"
        dd = DDatalogProgram(parse_program(rules))
        edb = load_facts(parse_program(FACTS))
        result = DistributedNaiveEngine(dd, edb).query(Query(parse_atom('r@r("1", Y)')))
        total_relations_activated = result.counters["relations_activated"]
        # a, r, s, t, b, c -- but not huge.
        assert total_relations_activated == 6

    def test_schedule_independence(self):
        dd, edb = setup()
        answers = set()
        for seed in range(5):
            engine = DistributedNaiveEngine(dd, edb, options=NetworkOptions(seed=seed))
            result = engine.query(Query(parse_atom('r@r("1", Y)')))
            answers.add(frozenset(result.answers))
        assert len(answers) == 1

    def test_unlocated_query_rejected(self):
        dd, edb = setup()
        with pytest.raises(DistributedError):
            DistributedNaiveEngine(dd, edb).query(Query(parse_atom('r("1", Y)')))

    def test_edb_only_query(self):
        dd, edb = setup()
        result = DistributedNaiveEngine(dd, edb).query(Query(parse_atom('a@r("1", Y)')))
        assert len(result.answers) == 1
