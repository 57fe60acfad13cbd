"""Property: lazy secondary indices agree with a full-scan filter.

``Database.candidates`` answers from hash indices built lazily per
(relation, bound-position set); compiled join plans probe the same
indices through ``index_lookup``.  An index that dropped, duplicated or
mis-bucketed a fact would silently corrupt every evaluator, so the
oracle here is the brute-force definition: scan all facts and keep the
ones whose indexed positions equal the bound values.

``Database.add_batch`` is the semi-naive insert path; its oracle is the
same rows inserted one at a time through ``add_ground``.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog.database import Database
from repro.datalog.term import Const, Func, Var, is_ground
from repro.datalog.unify import match_tuple

KEY = ("r", None)

ground_args = st.recursive(
    st.sampled_from([Const(v) for v in ("a", "b", 1, 2)]),
    lambda children: st.builds(
        lambda a, b: Func("f", (a, b)), children, children),
    max_leaves=3)

facts = st.lists(st.tuples(ground_args, ground_args, ground_args),
                 min_size=0, max_size=25)

VARS = [Var(n) for n in ("X", "Y", "Z")]

# A pattern position is a constant, a bound variable, or a free variable.
pattern_args = st.tuples(*([st.one_of(ground_args, st.sampled_from(VARS))] * 3))
bindings = st.dictionaries(st.sampled_from(VARS), ground_args, max_size=3)


def full_scan(db, pattern, binding):
    """Oracle: facts whose positions ground under ``binding`` match."""
    out = []
    for fact in db.facts(KEY):
        ok = True
        for arg, value in zip(pattern, fact):
            if isinstance(arg, Var):
                bound = binding.get(arg)
                if bound is not None and bound != value:
                    ok = False
                    break
            elif is_ground(arg) and arg != value:
                ok = False
                break
        if ok:
            out.append(fact)
    return out


class TestCandidatesAgreeWithFullScan:
    @settings(max_examples=80, deadline=None)
    @given(facts, pattern_args, bindings)
    def test_candidates_equal_full_scan(self, fact_list, pattern, binding):
        db = Database()
        for fact in fact_list:
            db.add_ground(KEY, fact)
        got = sorted(db.candidates(KEY, pattern, binding), key=repr)
        want = sorted(full_scan(db, pattern, binding), key=repr)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(facts, pattern_args, bindings,
           st.lists(st.tuples(ground_args, ground_args, ground_args),
                    min_size=0, max_size=5))
    def test_candidates_after_copy_and_growth(self, fact_list, pattern,
                                              binding, extra):
        db = Database()
        for fact in fact_list:
            db.add_ground(KEY, fact)
        # Warm an index on the original, then copy and keep inserting:
        # the copy must neither share buckets with the original nor
        # serve stale buckets for its own new facts.
        db.candidates(KEY, pattern, binding)
        clone = db.copy()
        for fact in extra:
            clone.add_ground(KEY, fact)
        assert (sorted(clone.candidates(KEY, pattern, binding), key=repr)
                == sorted(full_scan(clone, pattern, binding), key=repr))
        # The original is unaffected by the clone's growth.
        assert (sorted(db.candidates(KEY, pattern, binding), key=repr)
                == sorted(full_scan(db, pattern, binding), key=repr))

    @settings(max_examples=40, deadline=None)
    @given(facts, pattern_args, bindings)
    def test_candidates_superset_of_matches(self, fact_list, pattern, binding):
        # candidates() may overapproximate (it ignores repeated-variable
        # constraints) but must never miss a real match.
        db = Database()
        for fact in fact_list:
            db.add_ground(KEY, fact)
        candidates = set(db.candidates(KEY, pattern, binding))
        for fact in db.facts(KEY):
            if match_tuple(pattern, fact, dict(binding)):
                assert fact in candidates


INDEXED_POSITIONS = [(0,), (2,), (0, 1), (2, 0), (0, 1, 2)]


class TestAddBatchEqualsAddGround:
    @settings(max_examples=80, deadline=None)
    @given(facts, facts, st.lists(st.sampled_from(INDEXED_POSITIONS), unique=True),
           st.integers(min_value=0, max_value=5))
    def test_a_batch_is_its_rows_added_one_at_a_time(self, stored, batch,
                                                     indexed, repeats):
        # in-batch duplicates: the batch's first rows once more at its end
        batch = batch + batch[:repeats]
        one_by_one, batched = Database(), Database()
        for db in (one_by_one, batched):
            for fact in stored:
                db.add_ground(KEY, fact)
            for positions in indexed:
                db.index_map(KEY, positions)
        expected = [fact for fact in batch if one_by_one.add_ground(KEY, fact)]
        assert batched.add_batch(KEY, batch) == expected
        assert list(batched.facts(KEY)) == list(one_by_one.facts(KEY))
        assert batched.change_log() == one_by_one.change_log()
        assert batched.total_facts() == one_by_one.total_facts()
        for positions in indexed:
            # bucket keys and bucket contents, both in insertion order
            assert (list(batched.index_map(KEY, positions).items())
                    == list(one_by_one.index_map(KEY, positions).items()))
