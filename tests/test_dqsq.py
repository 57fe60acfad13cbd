"""Tests for dQSQ: Figure 5 structure, Theorem 1, and robustness.

Theorem 1 (checked on several programs): dQSQ computes the same facts as
centralized QSQ on the local version of the program, up to the renaming
``zeta`` (here: adorned relation ``R^ad@p``  <->  ``R@p^ad``), and
terminates iff QSQ does.
"""

import pytest

from repro.datalog import (Database, EvaluationBudget, Query, parse_atom,
                           parse_program, qsq_evaluate)
from repro.datalog.atom import Atom
from repro.datalog.database import load_facts, select
from repro.distributed import (DDatalogProgram, DqsqEngine, FaultPlan,
                               NetworkOptions)
from repro.distributed.dqsq import split_input_name
from repro.datalog.adornment import Adornment
from repro.errors import BudgetExceeded, DistributedError
from tests.reference import reference_model

FIGURE3_RULES = """
r@r(X, Y) :- a@r(X, Y).
r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
t@t(X, Y) :- c@t(X, Y).
"""

FIGURE3_FACTS = """
a@r("1", "2").
a@r("2", "3").
b@s("2", "x").
b@s("3", "x").
c@t("2", "4").
c@t("3", "5").
c@t("4", "6").
"""


def setup_figure3():
    dd = DDatalogProgram(parse_program(FIGURE3_RULES))
    edb = load_facts(parse_program(FIGURE3_FACTS))
    return dd, edb


def localized(dd, facts_text, query):
    """The paper's P_local with its EDB and query."""
    local_edb = Database()
    for fact in parse_program(facts_text).facts():
        qualified = f"{fact.head.relation}@{fact.head.peer}"
        local_edb.add((qualified, None), fact.head.args)
    local_query = Query(Atom(f"{query.atom.relation}@{query.atom.peer}",
                             query.atom.args, None))
    return dd.local_version(), local_query, local_edb


def local_reference_answers(dd, facts_text, query):
    """Answers of centralized QSQ on the paper's P_local."""
    local, local_query, local_edb = localized(dd, facts_text, query)
    return qsq_evaluate(local, local_query, local_edb)


class TestFigure5:
    def test_answers(self):
        dd, edb = setup_figure3()
        query = Query(parse_atom('r@r("1", Y)'))
        result = DqsqEngine(dd, edb).query(query)
        values = {f[1].value for f in result.answers}
        assert values == {"2", "4"}

    def test_supplementary_relations_are_distributed(self):
        # Figure 5's hallmark: sup relations of one rule live on several
        # peers (the bold sup22/sup32 handoffs).
        dd, edb = setup_figure3()
        result = DqsqEngine(dd, edb).query(Query(parse_atom('r@r("1", Y)')))
        sup_homes = {}
        for key, count in result.homed_fact_counts().items():
            relation, home = key
            if relation.startswith("sup["):
                uid = relation[4:relation.index("]")]
                sup_homes.setdefault(uid.rsplit(".", 1)[0], set()).add(home)
        # The recursive rule of r (via s and t) spreads over >= 2 peers.
        assert any(len(homes) >= 2 for homes in sup_homes.values())

    def test_each_peer_rewrites_only_its_relations(self):
        dd, edb = setup_figure3()
        result = DqsqEngine(dd, edb).query(Query(parse_atom('r@r("1", Y)')))
        assert result.per_peer["r"]["rewritings"] >= 1
        assert result.per_peer["s"]["rewritings"] == 1
        assert result.per_peer["t"]["rewritings"] == 1

    def test_reuse_of_machinery(self):
        # Two queries to the same engine instance are independent runs;
        # within one run, repeated demands install nothing twice.
        dd, edb = setup_figure3()
        engine = DqsqEngine(dd, edb)
        first = engine.query(Query(parse_atom('r@r("1", Y)')))
        second = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert first.answers == second.answers


class TestTheorem1:
    def check_program(self, rules_text, facts_text, query_text):
        dd = DDatalogProgram(parse_program(rules_text))
        edb = load_facts(parse_program(facts_text))
        query = Query(parse_atom(query_text))
        dqsq = DqsqEngine(dd, edb).query(query)
        reference = local_reference_answers(dd, facts_text, query)

        assert dqsq.answers == reference.answers
        # zeta-bijection on adorned relations: same fact sets per
        # (relation, peer, adornment).
        got = dqsq.adorned_fact_sets()
        expected = {}
        kinds = reference.rewriting.relation_kinds()
        for (relation, _peer), count in reference.database.snapshot_counts().items():
            if kinds.get(relation) == "adorned":
                base, _sep, pattern = relation.rpartition("^")
                name, _at, peer = base.rpartition("@")
                expected[(name, peer, pattern)] = set(
                    reference.database.facts((relation, None)))
        assert got == expected
        return dqsq

    def test_figure3(self):
        self.check_program(FIGURE3_RULES, FIGURE3_FACTS, 'r@r("1", Y)')

    def test_free_query(self):
        self.check_program(FIGURE3_RULES, FIGURE3_FACTS, "r@r(X, Y)")

    def test_mutual_recursion_across_peers(self):
        rules = """
        even@a(X) :- zero@a(X).
        even@a(s(X)) :- odd@b(X).
        odd@b(s(X)) :- even@a(X).
        """
        facts = 'zero@a(z()).\n'
        self.check_program(rules, facts, "even@a(s(s(z())))")

    def test_same_peer_interleaved(self):
        rules = """
        p@a(X, Y) :- e@a(X, Z), q@b(Z, W), e@a(W, Y).
        q@b(X, Y) :- f@b(X, Y).
        """
        facts = """
        e@a("1", "2").
        e@a("3", "4").
        f@b("2", "3").
        """
        self.check_program(rules, facts, 'p@a("1", Y)')

    def test_inequalities(self):
        rules = """
        apart@a(X, Y) :- e@a(X, Y), X != Y.
        apart@a(X, Y) :- e@a(X, Z), far@b(Z, Y), X != Y.
        far@b(X, Y) :- g@b(X, Y).
        """
        facts = """
        e@a("1", "1").
        e@a("1", "2").
        g@b("2", "3").
        g@b("2", "1").
        """
        self.check_program(rules, facts, 'apart@a("1", Y)')

    # The places where the shared segment rewriter departs from the
    # literal Figure 5 chain.  Function-free, so the answers are also
    # held against the model of P_local (an oracle that rewrites nothing).

    CHAIN_FACTS = """
    e@a("1", "2").
    e@a("2", "2").
    e@a("4", "5").
    f@b("1", "2").
    f@b("2", "3").
    f@b("2", "4").
    f@b("2", "2").
    """

    def check_against_model(self, rules_text, query_text):
        result = self.check_program(rules_text, self.CHAIN_FACTS, query_text)
        local, local_query, local_edb = localized(
            DDatalogProgram(parse_program(rules_text)), self.CHAIN_FACTS,
            Query(parse_atom(query_text)))
        assert result.answers == select(reference_model(local, local_edb),
                                        local_query.atom)
        assert result.answers
        return result

    @staticmethod
    def sup_homes(result):
        """(chain position, home peer) of every populated sup relation."""
        return {(relation[-1], home)
                for relation, home in result.homed_fact_counts()
                if relation.startswith("sup[")}

    def test_first_atom_remote(self):
        # The demand itself is what the next peer needs: the one case
        # (besides a demand-only inequality) where a sup 0 is kept, as the
        # projected relation shipped to b.
        result = self.check_against_model("""
        p@a(X, Y) :- q@b(X, Z), e@a(Z, Y).
        q@b(X, Y) :- f@b(X, Y).
        """, 'p@a("1", Y)')
        assert self.sup_homes(result) == {("0", "a"), ("1", "b")}

    def test_last_atom_remote(self):
        # The last join runs at b and derives a's answer there: no sup 2.
        result = self.check_against_model("""
        p@a(X, Y) :- e@a(X, Z), q@b(Z, Y).
        q@b(X, Y) :- f@b(X, Y).
        """, 'p@a("1", Y)')
        assert self.sup_homes(result) == {("1", "a")}

    def test_one_atom_bodies(self):
        # Local: q^bf :- in-q^bf, f.  Remote: sup 0 at a, joined at b.
        result = self.check_against_model("""
        p@a(X, Y) :- q@b(X, Y).
        q@b(X, Y) :- f@b(X, Y).
        """, 'p@a("2", Y)')
        assert self.sup_homes(result) == {("0", "a")}

    def test_demand_only_inequality_filters_before_the_first_demand(self):
        rules = """
        apart@a(X, Y) :- q@a(X, Z), far@b(Z, Y), X != Y.
        q@a(X, Y) :- e@a(X, Y).
        far@b(X, Y) :- f@b(X, Y).
        """
        result = self.check_against_model(rules, 'apart@a("1", "3")')
        assert ("in-q^bf", "a") in result.homed_fact_counts()
        # X != Y is decided on the demand: a reflexive query issues no
        # sub-demand at all.
        dd = DDatalogProgram(parse_program(rules))
        edb = load_facts(parse_program(self.CHAIN_FACTS))
        refused = DqsqEngine(dd, edb).query(Query(parse_atom('apart@a("2", "2")')))
        assert refused.answers == set()
        assert ("in-q^bf", "a") not in refused.homed_fact_counts()
        assert refused.counters["tuples_shipped"] == 0

    def test_termination_parity_function_symbols(self):
        # nat over two peers; bound demand terminates for both QSQ and
        # dQSQ (Theorem 1.2).
        rules = """
        nat@a(s(X)) :- natb@b(X).
        natb@b(s(X)) :- nat@a(X).
        natb@b(z()).
        """
        self.check_program(rules, "dummy@a(0).", "nat@a(s(s(s(z()))))")


class TestRobustness:
    def test_schedule_independence(self):
        dd, edb = setup_figure3()
        query_text = 'r@r("1", Y)'
        results = set()
        for seed in range(6):
            engine = DqsqEngine(dd, edb, options=NetworkOptions(seed=seed))
            result = engine.query(Query(parse_atom(query_text)))
            results.add(frozenset(result.answers))
        assert len(results) == 1

    def test_duplicate_deliveries_are_harmless(self):
        dd, edb = setup_figure3()
        engine = DqsqEngine(dd, edb, options=NetworkOptions(
            seed=2, fault=FaultPlan(duplicate_probability=0.5)))
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert {f[1].value for f in result.answers} == {"2", "4"}

    def test_query_posed_at_non_owner_peer(self):
        dd, edb = setup_figure3()
        result = DqsqEngine(dd, edb).query(Query(parse_atom('r@r("1", Y)')),
                                           at_peer="t")
        assert {f[1].value for f in result.answers} == {"2", "4"}

    def test_unlocated_query_rejected(self):
        dd, edb = setup_figure3()
        with pytest.raises(DistributedError):
            DqsqEngine(dd, edb).query(Query(parse_atom('r("1", Y)')))

    def test_budget_propagates(self):
        rules = "loop@a(f(X)) :- loop@a(X).\nloop@a(z())."
        dd = DDatalogProgram(parse_program(rules))
        engine = DqsqEngine(dd, budget=EvaluationBudget(max_facts=20))
        with pytest.raises(BudgetExceeded):
            engine.query(Query(parse_atom("loop@a(Y)")))

    def test_termination_detector_agrees_with_oracle(self):
        dd, edb = setup_figure3()
        engine = DqsqEngine(dd, edb)
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.terminated_by_detector is True
        assert {f[1].value for f in result.answers} == {"2", "4"}

    @pytest.mark.parametrize("seed", range(5))
    def test_termination_detector_under_duplication_only(self, seed):
        # A plan that only duplicates used to leave the reliability layer
        # off: handlers saw the second copy and the detector's
        # acknowledgement deficit went negative.
        dd, edb = setup_figure3()
        query = Query(parse_atom('r@r("1", Y)'))
        engine = DqsqEngine(dd, edb,
                            options=NetworkOptions(seed=seed, fault=FaultPlan(
                                duplicate_probability=0.5)))
        result = engine.query(query)
        assert result.terminated_by_detector is True
        assert result.answers == DqsqEngine(dd, edb).query(query).answers
        assert result.counters["net.duplicates_suppressed"] > 0


class TestSplitInputName:
    def test_round_trip(self):
        assert split_input_name("in-r^bf") == ("r", Adornment("bf"))

    def test_non_input(self):
        assert split_input_name("r^bf") is None
        assert split_input_name("in-r") is None
        assert split_input_name("in-r^zz") is None
