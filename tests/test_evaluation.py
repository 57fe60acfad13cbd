"""Tests for semi-naive bottom-up evaluation."""

import pytest

from repro.datalog import (Database, EvaluationBudget, Query,
                           SemiNaiveEvaluator, parse_atom, parse_program)
from repro.datalog.database import load_facts, select
from repro.datalog.seminaive import IncrementalEvaluator
from repro.errors import BudgetExceeded

TC = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
edge("a", "b").
edge("b", "c").
edge("c", "d").
"""


def answers_of(evaluator_cls, text, query_text, budget=None):
    program = parse_program(text)
    db = load_facts(program)
    evaluator = evaluator_cls(program, budget) if budget else evaluator_cls(program)
    return evaluator.answers(db, Query(parse_atom(query_text)))


class TestTransitiveClosure:
    def test_seminaive(self):
        answers = answers_of(SemiNaiveEvaluator, TC, "path(X, Y)")
        assert len(answers) == 6

    def test_query_selection(self):
        answers = answers_of(SemiNaiveEvaluator, TC, 'path("b", Y)')
        values = {fact[1].value for fact in answers}
        assert values == {"c", "d"}

    def test_firings_are_counted_and_the_empty_ones_told_apart(self):
        # Each rule's first firing joins the edges; the path delta then
        # fires the recursive rule twice, and the last delta (a-d) joins
        # nothing.
        program = parse_program(TC)
        semi = SemiNaiveEvaluator(program)
        semi.run(load_facts(program))
        assert semi.counters["plan.firings"] == 4
        assert semi.counters["plan.empty_firings"] == 1

    def test_a_populated_store_is_not_replayed_as_a_delta(self):
        # The edges are in the store before the scheduler is bound to it:
        # each rule joins them once, as the delta of its first firing, and
        # starts its cursors behind them.  6 facts, each derived once;
        # replayed as deltas as well the edges make 14 derivations.
        program = parse_program(TC)
        semi = SemiNaiveEvaluator(program)
        semi.run(Database())
        db = load_facts(program)
        bound = IncrementalEvaluator(db)
        for rule in program.proper_rules():
            bound.add_rule(rule)
        bound.run()
        assert db.count(("path", None)) == 6
        assert bound.counters["derivations"] == 6
        assert semi.counters["derivations"] == 6

    def test_a_second_run_compiles_no_plan_again(self):
        program = parse_program(TC)
        semi = SemiNaiveEvaluator(program)
        semi.run(Database())
        compiled = semi.counters["plan.cache_misses"]
        assert compiled > 0
        assert semi.run(Database()).count(("path", None)) == 6
        assert semi.counters["plan.cache_misses"] == compiled
        assert semi.counters["plan.firings"] == 8


class TestRuleEntersAsConsumer:
    """A rule's first firing is a delta firing like any other."""

    @staticmethod
    def _rule(text):
        return next(parse_program(text, check=False).proper_rules())

    def test_a_rule_over_an_empty_relation_compiles_nothing(self):
        db = Database()
        evaluator = IncrementalEvaluator(db)
        evaluator.add_rule(self._rule("p(X) :- q(X), r(X)."))
        db.add_atom(parse_atom('r("a")'))
        evaluator.run()
        assert evaluator.counters["plan.cache_misses"] == 0
        assert evaluator.counters["plan.firings"] == 0
        # what fills the relation later reaches the rule as a delta
        db.add_atom(parse_atom('q("a")'))
        evaluator.run()
        assert select(db, parse_atom("p(X)")) == {parse_atom('p("a")').args}
        assert evaluator.counters["plan.cache_misses"] == 1

    def test_a_delta_while_a_partner_is_empty_compiles_and_fires_nothing(self):
        db = Database()
        evaluator = IncrementalEvaluator(db)
        evaluator.add_rule(self._rule("p(X) :- q(X), r(X)."))
        evaluator.run()
        for value in ("a", "b", "c"):
            db.add_atom(parse_atom(f'q("{value}")'))
            evaluator.run()
        assert evaluator.counters["plan.cache_misses"] == 0
        assert evaluator.counters["plan.firings"] == 0
        # r's delta joins the full q, the facts skipped above included
        db.add_atom(parse_atom('r("a")'))
        db.add_atom(parse_atom('r("c")'))
        evaluator.run()
        assert select(db, parse_atom("p(X)")) == {
            parse_atom('p("a")').args, parse_atom('p("c")').args}
        assert evaluator.counters["plan.cache_misses"] == 1
        assert evaluator.counters["plan.firings"] == 1

    def test_a_fact_stored_between_bind_and_add_rule_is_joined_once(self):
        db = Database()
        evaluator = IncrementalEvaluator(db)
        db.add_atom(parse_atom('q("a")'))
        db.add_atom(parse_atom('q("b")'))
        evaluator.add_rule(self._rule("p(X) :- q(X)."))
        evaluator.run()
        assert db.count(("p", None)) == 2
        assert evaluator.counters["derivations"] == 2
        assert evaluator.counters["plan.firings"] == 1

    def test_a_self_join_over_a_populated_store_derives_the_full_join(self):
        db = load_facts(parse_program(TC, check=False))
        evaluator = IncrementalEvaluator(db)
        evaluator.add_rule(self._rule("hop(X, Z) :- edge(X, Y), edge(Y, Z)."))
        evaluator.run()
        assert select(db, parse_atom("hop(X, Z)")) == {
            parse_atom('hop("a", "c")').args, parse_atom('hop("b", "d")').args}
        assert evaluator.counters["derivations"] == 2
        # ... and a later edge joins on either side of it
        db.add_atom(parse_atom('edge("d", "a")'))
        evaluator.run()
        assert db.count(("hop", None)) == 4


class TestInequalities:
    TEXT = """
    sibling(X, Y) :- parent(Z, X), parent(Z, Y), X != Y.
    parent("p", "a").
    parent("p", "b").
    """

    def test_inequality_filters(self):
        answers = answers_of(SemiNaiveEvaluator, self.TEXT, "sibling(X, Y)")
        pairs = {(f[0].value, f[1].value) for f in answers}
        assert pairs == {("a", "b"), ("b", "a")}


class TestFunctionSymbols:
    NATS = """
    nat(s(X)) :- nat(X).
    nat(z()).
    """

    def test_divergence_raises_budget_exceeded(self):
        program = parse_program(self.NATS)
        with pytest.raises(BudgetExceeded):
            SemiNaiveEvaluator(program, EvaluationBudget(max_facts=50)).run(Database())

    def test_iteration_budget(self):
        program = parse_program(self.NATS)
        with pytest.raises(BudgetExceeded):
            SemiNaiveEvaluator(program, EvaluationBudget(max_iterations=10)).run(Database())

    def test_depth_budget_raises_by_default(self):
        program = parse_program(self.NATS)
        budget = EvaluationBudget(max_term_depth=5)
        with pytest.raises(BudgetExceeded):
            SemiNaiveEvaluator(program, budget).run(Database())

    def test_depth_pruning_terminates(self):
        program = parse_program(self.NATS)
        budget = EvaluationBudget(max_term_depth=5, prune_depth=True)
        evaluator = SemiNaiveEvaluator(program, budget)
        db = evaluator.run(Database())
        # z() has depth 1, s(z()) depth 2, ...: depths 1..5 survive.
        assert db.count(("nat", None)) == 5
        assert evaluator.counters["pruned_deep_facts"] >= 1

    def test_terms_constructed_in_heads(self):
        text = """
        pair(p(X, Y)) :- left(X), right(Y).
        left("a").
        right("b").
        """
        answers = answers_of(SemiNaiveEvaluator, text, "pair(Z)")
        assert len(answers) == 1
        (fact,) = answers
        assert str(fact[0]) == 'p("a","b")'


class TestLocatedPrograms:
    def test_peers_are_separate_relations(self):
        text = """
        r@p(X) :- base@p(X).
        r@q(X) :- base@q(X).
        base@p("1").
        base@q("2").
        """
        program = parse_program(text)
        db = load_facts(program)
        SemiNaiveEvaluator(program).run(db)
        assert db.count(("r", "p")) == 1
        assert db.count(("r", "q")) == 1

    def test_cross_peer_rule(self):
        text = """
        r@p(X, Y) :- s@q(X, Y).
        s@q("1", "2").
        """
        program = parse_program(text)
        db = load_facts(program)
        SemiNaiveEvaluator(program).run(db)
        assert db.contains(("r", "p"), tuple(parse_atom('x("1","2")').args))


class TestSelect:
    def test_select_with_pattern(self):
        program = parse_program(TC)
        db = load_facts(program)
        SemiNaiveEvaluator(program).run(db)
        got = select(db, parse_atom('path(X, "d")'))
        assert {f[0].value for f in got} == {"a", "b", "c"}

    def test_select_repeated_variable(self):
        db = Database()
        program = parse_program('r("a", "a"). r("a", "b").')
        load_facts(program, db)
        got = select(db, parse_atom("r(X, X)"))
        assert len(got) == 1


class TestStress:
    def test_long_chain(self):
        edges = "\n".join(f'edge("n{i}", "n{i+1}").' for i in range(60))
        text = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n" + edges
        answers = answers_of(SemiNaiveEvaluator, text, 'path("n0", Y)')
        assert len(answers) == 60
