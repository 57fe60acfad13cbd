"""Property: the incremental evaluator computes the program's model.

The distributed engines rely on :class:`IncrementalEvaluator` processing
facts and rules that arrive in arbitrary batches; whatever the batching,
the final store must equal the model over everything.  The oracle is the
reference interpreter: ``SemiNaiveEvaluator`` runs the same scheduler.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import Database, parse_program
from repro.datalog.seminaive import IncrementalEvaluator
from repro.datalog.term import Const
from tests.reference import reference_model, snapshot

NODES = [f"n{i}" for i in range(5)]

edge_lists = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    min_size=1, max_size=10)

RULES = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
two(X) :- path(X, X).
"""


class TestIncrementalEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(edge_lists, st.lists(st.integers(min_value=0, max_value=3),
                                min_size=0, max_size=4),
           st.randoms(use_true_random=False))
    def test_arbitrary_batching(self, edges, rule_batches, rng):
        program = parse_program(RULES)
        rules = list(program)

        # Reference: everything at once.
        edge_db = Database()
        for source, target in edges:
            edge_db.add(("edge", None), (Const(source), Const(target)))
        reference_db = reference_model(program, edge_db)

        # Incremental: facts and rules interleaved in random batches.
        db = Database()
        evaluator = IncrementalEvaluator(db)
        pending_rules = list(rules)
        rng.shuffle(pending_rules)
        pending_facts = list(edges)
        rng.shuffle(pending_facts)
        while pending_rules or pending_facts:
            if pending_rules and (not pending_facts or rng.random() < 0.5):
                evaluator.add_rule(pending_rules.pop())
            else:
                source, target = pending_facts.pop()
                db.add(("edge", None), (Const(source), Const(target)))
            if rng.random() < 0.7:
                evaluator.run()
        evaluator.run()

        assert snapshot(db) == snapshot(reference_db)

    @settings(max_examples=20, deadline=None)
    @given(edge_lists)
    def test_run_is_idempotent(self, edges):
        program = parse_program(RULES)
        db = Database()
        evaluator = IncrementalEvaluator(db)
        for rule in program:
            evaluator.add_rule(rule)
        for source, target in edges:
            db.add(("edge", None), (Const(source), Const(target)))
        evaluator.run()
        first = snapshot(db)
        evaluator.run()
        assert snapshot(db) == first
