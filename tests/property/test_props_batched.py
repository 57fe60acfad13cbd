"""Property-based executor parity on random stratified programs.

Random stratified programs (random EDBs, randomly selected rule
subsets, including negation in a later stratum):

* every plan of every rule, fired once over the program's model, returns
  the same row *sequence* and the same :class:`PlanStats` whether
  :meth:`JoinPlan.fire` runs the step interpreter or the generated
  kernel;
* the engines reach the fixpoint of the reference interpreter
  (``tests/reference.py``) at both extremes of the threshold and at the
  default;
* programs that cross a pickle boundary (the mp worker path) re-intern
  and then evaluate to the same fixpoint as the originals.
"""

import pickle
import sys

from hypothesis import given, settings, strategies as st

from repro.datalog import (Database, Query, SemiNaiveEvaluator, parse_atom,
                           parse_program, qsq_evaluate)
from repro.datalog.database import select
from repro.datalog.plan import PlanStats, compile_join_plan
from repro.datalog.stratified import StratifiedEvaluator
from repro.datalog.term import Const
from tests.reference import (at_each_setting, pinned_executor,
                             reference_model, snapshot)

NODES = [f"n{i}" for i in range(6)]

edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    min_size=0, max_size=12)

#: optional positive rules; any subset joined with the base TC rules is
#: a valid stratum-0 program
OPTIONAL_RULES = [
    'sg(X, X) :- node(X).',
    'sg(X, Y) :- edge(U, X), sg(U, V), edge(V, Y).',
    'tri(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).',
    'fan(X, Z) :- edge(X, Y), edge(X, Z), Y != Z.',
]

#: optional stratum-1 rules: negation over the stratum-0 fixpoint
OPTIONAL_NEGATION = [
    'isolated(X) :- node(X), not touched(X).',
    'nopath(X, Y) :- node(X), node(Y), not path(X, Y).',
]

BASE_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
touched(X) :- edge(X, Y).
touched(Y) :- edge(X, Y).
"""

rule_subsets = st.tuples(
    st.lists(st.sampled_from(OPTIONAL_RULES), max_size=4, unique=True),
    st.lists(st.sampled_from(OPTIONAL_NEGATION), max_size=2, unique=True))


def database_from(edge_list):
    db = Database()
    for source, target in edge_list:
        db.add(("edge", None), (Const(source), Const(target)))
    for node in NODES:
        db.add(("node", None), (Const(node),))
    return db


def program_from(subsets):
    positive, negative = subsets
    return parse_program(BASE_RULES + "\n".join(positive) + "\n"
                         + "\n".join(negative))


class TestTiersAgree:
    @settings(max_examples=30, deadline=None)
    @given(edges, rule_subsets)
    def test_fire_rows_and_stats_identical(self, edge_list, subsets):
        program = program_from(subsets)
        model = reference_model(program, database_from(edge_list))

        def fire_everything():
            fired = []
            for rule in program.proper_rules():
                for position in (None, *range(len(rule.body))):
                    delta = (None if position is None
                             else list(model.facts(rule.body[position].key())))
                    stats = PlanStats()
                    rows = compile_join_plan(rule, position).fire(
                        model, delta, stats=stats)
                    fired.append((rows, [getattr(stats, name)
                                         for name in PlanStats._FIELDS
                                         if name != "promotions"]))
            return fired
        with pinned_executor(sys.maxsize):
            interpreted = fire_everything()
        with pinned_executor(0):
            generated = fire_everything()
        assert interpreted == generated

    @settings(max_examples=30, deadline=None)
    @given(edges, rule_subsets)
    def test_random_stratified_programs(self, edge_list, subsets):
        program = program_from(subsets)

        def run():
            db = database_from(edge_list)
            StratifiedEvaluator(program).run(db)
            return snapshot(db)
        assert at_each_setting(run) == snapshot(
            reference_model(program, database_from(edge_list)))

    @settings(max_examples=25, deadline=None)
    @given(edges, st.sampled_from(NODES))
    def test_qsq_demand_driven(self, edge_list, source):
        program = parse_program(BASE_RULES)
        query = Query(parse_atom(f'path("{source}", Y)'))
        answers = at_each_setting(lambda: qsq_evaluate(
            program, query, database_from(edge_list)).answers)
        assert answers == select(
            reference_model(program, database_from(edge_list)), query.atom)

    @settings(max_examples=20, deadline=None)
    @given(edges, rule_subsets)
    def test_pickled_program_batches_identically(self, edge_list, subsets):
        # The forked-worker path: the program round-trips through
        # pickle (terms re-intern via __reduce__), then either executor
        # must compute the same fixpoint from the clone.
        program = program_from(subsets)
        clone = pickle.loads(pickle.dumps(program))

        def run():
            db_clone = database_from(edge_list)
            StratifiedEvaluator(clone).run(db_clone)
            return snapshot(db_clone)
        assert at_each_setting(run) == snapshot(
            reference_model(program, database_from(edge_list)))

    @settings(max_examples=25, deadline=None)
    @given(edges)
    def test_batched_matches_independent_reference(self, edge_list):
        # Independent oracle: Warshall closure in plain Python.
        program = parse_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        db = database_from(edge_list)
        with pinned_executor(0):
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
