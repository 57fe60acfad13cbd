"""Unit tests for the indexed fact store."""

import pytest

from repro.datalog.atom import Atom
from repro.datalog.database import Database
from repro.datalog.term import Const, Func, Var


def c(v):
    return Const(v)


KEY = ("r", None)


class TestAddAndLookup:
    def test_add_new_fact(self):
        db = Database()
        assert db.add(KEY, (c("a"), c("b")))
        assert db.contains(KEY, (c("a"), c("b")))
        assert db.count(KEY) == 1

    def test_add_duplicate(self):
        db = Database()
        db.add(KEY, (c("a"),))
        assert not db.add(KEY, (c("a"),))
        assert db.count(KEY) == 1

    def test_add_rejects_nonground(self):
        db = Database()
        with pytest.raises(ValueError):
            db.add(KEY, (Var("X"),))

    def test_add_atom(self):
        db = Database()
        db.add_atom(Atom("r", [c("a")], "p"))
        assert db.contains(("r", "p"), (c("a"),))
        assert not db.contains(("r", None), (c("a"),))

    def test_zero_arity_facts(self):
        db = Database()
        assert db.add(KEY, ())
        assert not db.add(KEY, ())
        assert db.contains(KEY, ())

    def test_function_term_facts(self):
        db = Database()
        fact = (Func("f", [c(1), c(2)]),)
        db.add(KEY, fact)
        assert db.contains(KEY, fact)

    def test_facts_insertion_order(self):
        db = Database()
        db.add(KEY, (c(2),))
        db.add(KEY, (c(1),))
        assert [f[0].value for f in db.facts(KEY)] == [2, 1]


class TestCandidates:
    def build(self):
        db = Database()
        for x in "abc":
            for y in "xy":
                db.add(KEY, (c(x), c(y)))
        return db

    def test_full_scan_when_unbound(self):
        db = self.build()
        pattern = (Var("X"), Var("Y"))
        assert len(list(db.candidates(KEY, pattern, {}))) == 6

    def test_index_on_constant(self):
        db = self.build()
        pattern = (c("a"), Var("Y"))
        got = list(db.candidates(KEY, pattern, {}))
        assert {f[1].value for f in got} == {"x", "y"}
        assert all(f[0].value == "a" for f in got)

    def test_index_on_bound_variable(self):
        db = self.build()
        pattern = (Var("X"), Var("Y"))
        got = list(db.candidates(KEY, pattern, {Var("X"): c("b")}))
        assert all(f[0].value == "b" for f in got)

    def test_index_updates_after_insert(self):
        db = self.build()
        pattern = (c("a"), Var("Y"))
        assert len(list(db.candidates(KEY, pattern, {}))) == 2
        db.add(KEY, (c("a"), c("z")))
        assert len(list(db.candidates(KEY, pattern, {}))) == 3

    def test_index_on_function_term(self):
        db = Database()
        db.add(KEY, (Func("f", [c(1)]), c("v")))
        db.add(KEY, (Func("f", [c(2)]), c("w")))
        pattern = (Func("f", [c(1)]), Var("Y"))
        got = list(db.candidates(KEY, pattern, {}))
        assert len(got) == 1
        assert got[0][1] == c("v")

    def test_nonground_function_pattern_not_indexed(self):
        db = Database()
        db.add(KEY, (Func("f", [c(1)]), c("v")))
        pattern = (Func("f", [Var("X")]), Var("Y"))
        # Must fall back to scanning, not crash.
        assert len(list(db.candidates(KEY, pattern, {}))) == 1


class TestMisc:
    def test_total_and_snapshot(self):
        db = Database()
        db.add(("r", None), (c(1),))
        db.add(("s", "p"), (c(1), c(2)))
        assert db.total_facts() == 2
        assert db.snapshot_counts() == {("r", None): 1, ("s", "p"): 1}

    def test_copy_is_independent(self):
        db = Database()
        db.add(KEY, (c(1),))
        clone = db.copy()
        clone.add(KEY, (c(2),))
        assert db.count(KEY) == 1
        assert clone.count(KEY) == 2

    def test_add_all(self):
        db = Database()
        added = db.add_all(KEY, [(c(1),), (c(2),), (c(1),)])
        assert added == 2


class TestFromRelations:
    R, S, E = ("r", "p"), ("s", None), ("e", "q")

    def _both(self, relations):
        """The bulk-built store and one built by add_all, relation by relation."""
        built = Database()
        for key, facts in relations.items():
            built.add_all(key, facts, assume_ground=True)
        return Database.from_relations(relations), built

    def test_matches_an_add_all_built_store(self):
        bulk, built = self._both({
            self.R: [(c("a"), c("b")), (c("b"), c("c")), (c("a"), c("c"))],
            self.S: [(Func("f", [c("a")]),)],
            self.E: []})
        for key in (self.R, self.S, self.E):
            assert list(bulk.facts(key)) == list(built.facts(key))
        assert set(bulk.relations()) == set(built.relations())
        assert list(bulk.change_log()) == list(built.change_log())
        assert bulk.total_facts() == built.total_facts() == 4
        probes = [((0,), (c("a"),)), ((1,), (c("c"),)),
                  ((0, 1), (c("b"), c("c"))), ((0,), (c("z"),))]
        for positions, values in probes:
            assert (bulk.index_lookup(self.R, positions, values)
                    == built.index_lookup(self.R, positions, values))
        # the indices the probes built keep up with later inserts
        for db in (bulk, built):
            assert db.add(self.R, (c("a"), c("d")))
            assert not db.add(self.R, (c("a"), c("b")))
        assert (bulk.index_lookup(self.R, (0,), (c("a"),))
                == built.index_lookup(self.R, (0,), (c("a"),)))
        assert list(bulk.change_log()) == list(built.change_log())

    def test_a_repeated_fact_is_kept_once_where_it_first_came(self):
        bulk, built = self._both({self.R: [(c(2),), (c(1),), (c(2),)]})
        assert list(bulk.facts(self.R)) == list(built.facts(self.R)) \
            == [(c(2),), (c(1),)]
        assert list(bulk.change_log()) == list(built.change_log())
        assert bulk.total_facts() == built.total_facts() == 2
