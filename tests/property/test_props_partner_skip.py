"""Property: skipping deltas over an empty partner loses no join row.

:class:`IncrementalEvaluator` moves a consumer's cursor past a delta
without firing while another body relation of its rule is empty, and
relies on that relation's own consumer to join the skipped facts once
it fills.  Two EDB relations joined by one rule, filled in a random
interleaving with fixpoints at random points, must still give the
reference interpreter's model.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import Database, parse_program
from repro.datalog.seminaive import IncrementalEvaluator
from repro.datalog.term import Const
from tests.reference import reference_model, snapshot

VALUES = ["a", "b", "c"]

JOIN = "p(X, Y) :- q(X, Z), r(Z, Y)."

pairs = st.lists(st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)),
                 max_size=6)


class TestEmptyPartnerSkip:
    @settings(max_examples=60, deadline=None)
    @given(pairs, pairs, st.randoms(use_true_random=False))
    def test_random_interleavings_give_the_model(self, q_rows, r_rows, rng):
        program = parse_program(JOIN)
        edb = Database()
        arrivals = ([("q", row) for row in q_rows]
                    + [("r", row) for row in r_rows])
        for relation, row in arrivals:
            edb.add((relation, None), tuple(Const(v) for v in row))
        expected = snapshot(reference_model(program, edb))

        rng.shuffle(arrivals)
        # the rule enters before, between or after the facts
        arrivals.insert(rng.randint(0, len(arrivals)), None)
        db = Database()
        evaluator = IncrementalEvaluator(db)
        for arrival in arrivals:
            if arrival is None:
                evaluator.add_rule(next(program.proper_rules()))
            else:
                relation, row = arrival
                db.add((relation, None), tuple(Const(v) for v in row))
            if rng.random() < 0.6:
                evaluator.run()
        evaluator.run()

        assert snapshot(db) == expected
