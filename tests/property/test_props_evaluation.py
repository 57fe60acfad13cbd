"""Property-based tests: the evaluation engines agree.

Random edge relations are fed to recursive programs; semi-naive
evaluation and QSQ must return, for random queries, the answers of the
reference interpreter (``tests/reference.py``).
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import (Database, Query, SemiNaiveEvaluator, parse_atom,
                           parse_program, qsq_evaluate)
from repro.datalog.database import select
from repro.datalog.term import Const
from tests.reference import reference_model

NODES = [f"n{i}" for i in range(6)]

edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    min_size=0, max_size=12)

TC_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""

SG_RULES = """
sg(X, X) :- node(X).
sg(X, Y) :- edge(U, X), sg(U, V), edge(V, Y).
"""


def database_from(edge_list):
    db = Database()
    for source, target in edge_list:
        db.add(("edge", None), (Const(source), Const(target)))
    for node in NODES:
        db.add(("node", None), (Const(node),))
    return db


class TestEngineAgreement:
    @settings(max_examples=40, deadline=None)
    @given(edges, st.sampled_from(NODES))
    def test_transitive_closure_all_engines(self, edge_list, source):
        program = parse_program(TC_RULES)
        db = database_from(edge_list)
        query = Query(parse_atom(f'path("{source}", Y)'))

        semi = SemiNaiveEvaluator(program).answers(db.copy(), query)
        qsq = qsq_evaluate(program, query, db).answers
        expected = select(reference_model(program, db), query.atom)

        assert semi == qsq == expected

    @settings(max_examples=25, deadline=None)
    @given(edges, st.sampled_from(NODES))
    def test_same_generation_all_engines(self, edge_list, source):
        program = parse_program(SG_RULES)
        db = database_from(edge_list)
        query = Query(parse_atom(f'sg("{source}", Y)'))

        semi = SemiNaiveEvaluator(program).answers(db.copy(), query)
        qsq = qsq_evaluate(program, query, db).answers
        expected = select(reference_model(program, db), query.atom)

        assert semi == qsq == expected

    @settings(max_examples=30, deadline=None)
    @given(edges)
    def test_closure_matches_reference(self, edge_list):
        # Independent reference: Warshall closure in plain Python.
        program = parse_program(TC_RULES)
        db = database_from(edge_list)
        SemiNaiveEvaluator(program).run(db)

        reach = {n: set() for n in NODES}
        for source, target in edge_list:
            reach[source].add(target)
        changed = True
        while changed:
            changed = False
            for node in NODES:
                extra = set()
                for mid in reach[node]:
                    extra |= reach[mid]
                if not extra <= reach[node]:
                    reach[node] |= extra
                    changed = True

        derived = {(f[0].value, f[1].value) for f in db.facts(("path", None))}
        expected = {(a, b) for a in NODES for b in reach[a]}
        assert derived == expected

    @settings(max_examples=25, deadline=None)
    @given(edges, st.sampled_from(NODES), st.sampled_from(NODES))
    def test_bound_bound_queries(self, edge_list, source, target):
        program = parse_program(TC_RULES)
        db = database_from(edge_list)
        query = Query(parse_atom(f'path("{source}", "{target}")'))
        semi = SemiNaiveEvaluator(program).answers(db.copy(), query)
        qsq = qsq_evaluate(program, query, db).answers
        assert semi == qsq
