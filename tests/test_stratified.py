"""Tests for stratified negation (Remark 4 extension)."""

import pytest

from repro.datalog import SemiNaiveEvaluator, parse_atom, parse_program
from repro.datalog.database import Database, load_facts, select
from repro.datalog.stratified import has_negation, stratify
from repro.errors import ValidationError


class TestStratify:
    def test_positive_program_single_stratum(self):
        program = parse_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        assert len(stratify(program)) == 1

    def test_two_strata(self):
        program = parse_program("""
        reach(X) :- source(X).
        reach(Y) :- reach(X), edge(X, Y).
        unreachable(X) :- node(X), not reach(X).
        """)
        strata = stratify(program)
        assert len(strata) == 2
        heads0 = {r.head.relation for r in strata[0].proper_rules()}
        heads1 = {r.head.relation for r in strata[1].proper_rules()}
        assert heads0 == {"reach"}
        assert heads1 == {"unreachable"}

    def test_negation_through_recursion_rejected(self):
        program = parse_program("""
        win(X) :- move(X, Y), not win(Y).
        """)
        with pytest.raises(ValidationError):
            stratify(program)

    def test_has_negation(self):
        assert has_negation(parse_program("p(X) :- q(X), not r(X)."))
        assert not has_negation(parse_program("p(X) :- q(X)."))


class TestStratifiedEvaluator:
    def test_unreachable_nodes(self):
        program = parse_program("""
        reach(X) :- source(X).
        reach(Y) :- reach(X), edge(X, Y).
        unreachable(X) :- node(X), not reach(X).
        source("a").
        edge("a", "b").
        node("a"). node("b"). node("c").
        """)
        db = load_facts(program)
        SemiNaiveEvaluator(program).run(db)
        got = select(db, parse_atom("unreachable(X)"))
        assert {f[0].value for f in got} == {"c"}

    def test_complement_relation(self):
        # The Remark-4 pattern: derive notCausal as the complement of
        # causal over a known domain.
        program = parse_program("""
        causal(X, Y) :- edge(X, Y).
        causal(X, Y) :- edge(X, Z), causal(Z, Y).
        pair(X, Y) :- node(X), node(Y).
        notcausal(X, Y) :- pair(X, Y), not causal(X, Y).
        edge("a", "b").
        edge("b", "c").
        node("a"). node("b"). node("c").
        """)
        db = load_facts(program)
        SemiNaiveEvaluator(program).run(db)
        causal = select(db, parse_atom("causal(X, Y)"))
        notcausal = select(db, parse_atom("notcausal(X, Y)"))
        assert len(causal) + len(notcausal) == 9
        assert len(causal) == 3

    def test_three_strata(self):
        program = parse_program("""
        a(X) :- base(X).
        b(X) :- dom(X), not a(X).
        c(X) :- dom(X), not b(X).
        base("1").
        dom("1"). dom("2").
        """)
        db = load_facts(program)
        SemiNaiveEvaluator(program).run(db)
        assert {f[0].value for f in select(db, parse_atom("b(X)"))} == {"2"}
        assert {f[0].value for f in select(db, parse_atom("c(X)"))} == {"1"}

    def test_negated_relation_is_complete_before_it_is_tested(self):
        # bad/1 is derived through g/1, one round after ok/1's first
        # firing: a single fixpoint over the whole program fires ok("2")
        # while bad("2") is still missing and never retracts it.
        program = parse_program("""
        ok(X) :- e(X), not bad(X).
        bad(X) :- e(X), g(X).
        g(X) :- f(X).
        e("1"). e("2"). f("2").
        """)
        db = Database()
        SemiNaiveEvaluator(program).run(db)
        assert {f[0].value for f in select(db, parse_atom("ok(X)"))} == {"1"}
        assert {f[0].value for f in select(db, parse_atom("bad(X)"))} == {"2"}
