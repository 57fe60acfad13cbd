"""Tests for dDatalog programs and the global-Datalog semantics."""

import pytest

from repro.datalog import (Database, Query, SemiNaiveEvaluator, parse_atom,
                           parse_program)
from repro.datalog.database import load_facts, select
from repro.distributed.ddatalog import (DDatalogProgram, global_translation,
                                        globalize_database, localize_facts)
from repro.errors import ValidationError

FIGURE3 = """
r@r(X, Y) :- a@r(X, Y).
r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
t@t(X, Y) :- c@t(X, Y).
a@r("1", "2").
a@r("2", "3").
b@s("2", "x").
b@s("3", "x").
c@t("2", "4").
c@t("3", "5").
c@t("4", "6").
"""


def program():
    return DDatalogProgram(parse_program(FIGURE3))


class TestDDatalogProgram:
    def test_rules_at(self):
        dd = program()
        assert len(dd.rules_at("r")) == 4  # 2 rules + 2 facts
        assert len(dd.rules_at("s")) == 3
        assert len(dd.rules_at("t")) == 4

    def test_peers(self):
        assert program().peers() == ("r", "s", "t")

    def test_unlocated_head_rejected(self):
        with pytest.raises(ValidationError):
            DDatalogProgram(parse_program("p(X) :- q@r(X)."))

    def test_unlocated_body_rejected(self):
        with pytest.raises(ValidationError):
            DDatalogProgram(parse_program("p@r(X) :- q(X)."))

    def test_local_version_keeps_relations_apart(self):
        local = program().local_version()
        assert local.is_local()
        relations = {rel for rel, _peer in local.all_relations()}
        assert "r@r" in relations and "s@s" in relations


class TestGlobalTranslation:
    def test_structure(self):
        dd = program()
        translated = global_translation(dd)
        rule_heads = {rule.head.relation for rule in translated}
        assert rule_heads == {"r_g", "a_g", "b_g", "c_g", "s_g", "t_g"}
        # Arity grows by one (the peer constant).
        for rule in translated:
            if rule.head.relation == "r_g":
                assert rule.head.arity == 3

    def test_global_semantics_matches_located_evaluation(self):
        # The minimal model of P^g restricted to r_g(.., "r") must equal
        # the located evaluation of r@r.
        dd = program()
        translated = global_translation(dd)
        global_db = load_facts(translated)
        SemiNaiveEvaluator(translated).run(global_db)

        located_db = load_facts(dd.program)
        SemiNaiveEvaluator(dd.program).run(located_db)

        localized = localize_facts(global_db)
        assert localized[("r", "r")] == set(located_db.facts(("r", "r")))
        assert localized[("s", "s")] == set(located_db.facts(("s", "s")))

    def test_globalize_database_round_trip(self):
        dd = program()
        located = load_facts(dd.program)
        global_db = globalize_database(located)
        back = localize_facts(global_db)
        for key in located.relations():
            assert back[key] == set(located.facts(key))

    def test_globalize_rejects_unlocated(self):
        db = Database()
        db.add(("r", None), (parse_atom('x("1")').args[0],))
        with pytest.raises(ValidationError):
            globalize_database(db)
