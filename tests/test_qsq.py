"""Tests for the QSQ rewriting and evaluation (Figures 3 and 4).

The central claims checked here:

* QSQ computes the correct answer to the query (equal to semi-naive).
* The rewriting has the Figure-4 shape on the Figure-3 program.
* QSQ materializes only a demand-restricted set of tuples.
* QSQ terminates on function-symbol programs whenever the demanded
  portion is finite, where bottom-up evaluation diverges.
* The rewritten program passes the static analyzer it is checked by.
"""

import pytest

from repro.datalog import (Database, EvaluationBudget, Query,
                           SemiNaiveEvaluator, parse_atom, parse_program,
                           qsq_evaluate, qsq_rewrite)
from repro.datalog.adornment import Adornment, adorned_name, input_name
from repro.datalog.analysis import analyze
from repro.datalog.atom import Atom
from repro.datalog.database import load_facts
from repro.diagnosis import AlarmSequence
from repro.diagnosis.supervisor import SupervisorEncoder
from repro.errors import BudgetExceeded
from repro.petri.examples import figure1_net

FIGURE3_LOCAL = """
r(X, Y) :- a(X, Y).
r(X, Y) :- s(X, Z), t(Z, Y).
s(X, Y) :- r(X, Y), b(Y, Z).
t(X, Y) :- c(X, Y).
"""

FIGURE3_FACTS = """
a("1", "2").
a("2", "3").
b("2", "x").
b("3", "x").
c("2", "4").
c("3", "5").
c("4", "6").
"""


def figure3():
    program = parse_program(FIGURE3_LOCAL + FIGURE3_FACTS)
    return program, load_facts(program)


class TestRewritingShape:
    def test_figure4_relations(self):
        program, _db = figure3()
        rewriting = qsq_rewrite(program, Query(parse_atom('r("1", Y)')))
        kinds = rewriting.relation_kinds()
        adorned = {name for name, kind in kinds.items() if kind == "adorned"}
        inputs = {name for name, kind in kinds.items() if kind == "input"}
        assert adorned == {"r^bf", "s^bf", "t^bf"}
        assert inputs == {"in-r^bf", "in-s^bf", "in-t^bf"}

    def test_figure4_supplementary_counts(self):
        """Figure 4 draws one chain per rule of length body + 1 (10
        relations here).  The rewriter drops both bookends -- ``sup_i_0``
        is a verbatim copy of the demand and ``sup_i_n`` exists only to be
        copied into the answer -- so only the interior of the two
        two-atom rules is left: 2 relations."""
        program, _db = figure3()
        rewriting = qsq_rewrite(program, Query(parse_atom('r("1", Y)')))
        positions = sorted(index for _rule, _ad, index in
                           rewriting.sup_index.values())
        assert positions == [1, 1]
        assert {len(rule.body) for rule, _ad, _index in
                rewriting.sup_index.values()} == {2}

    @staticmethod
    def pure_copies(rewriting):
        """Rules that move one relation into another and do nothing else:
        one body atom, no inequality, and a supplementary relation on
        either side -- the old ``sup_0 :- in-R`` and ``R^ad :- sup_n``.
        Demand rules (``in-B :- sup_j``) are projections onto the bound
        arguments, not copies, and are the one single-atom shape left."""
        kinds = rewriting.relation_kinds()
        copies = []
        for rule in rewriting.program.proper_rules():
            if len(rule.body) != 1 or rule.inequalities or rule.negated:
                continue
            head, body = kinds[rule.head.relation], kinds[rule.body[0].relation]
            if head == "sup" or (body == "sup" and head != "input"):
                copies.append(str(rule))
        return copies

    def test_no_rule_is_a_pure_copy_on_figure3(self):
        program, _db = figure3()
        rewriting = qsq_rewrite(program, Query(parse_atom('r("1", Y)')))
        assert self.pure_copies(rewriting) == []

    def test_no_rule_is_a_pure_copy_on_a_diagnosis_program(self):
        # Figure 1 under b a c: Section 4.1 unfolding rules plus the
        # Section 4.2 supervisor, as diagnose(method="qsq") rewrites them.
        encoder = SupervisorEncoder(
            figure1_net(), AlarmSequence([("b", "p1"), ("a", "p2"), ("c", "p1")]))
        query_atom = encoder.query_atom()
        rewriting = qsq_rewrite(
            encoder.program().local_version(),
            Query(Atom(f"{query_atom.relation}@{query_atom.peer}",
                       query_atom.args, None)))
        assert len(rewriting.sup_index) > 100
        assert self.pure_copies(rewriting) == []
        # No sup_n is left, and a sup_0 only where the demand alone
        # decides an inequality (the notCausal rules: 8 of 404 here).
        filters = {rule.head.relation: rule.inequalities
                   for rule in rewriting.program.proper_rules()}
        for name, (rule, _ad, index) in rewriting.sup_index.items():
            assert index < len(rule.body)
            assert index > 0 or filters[name]

    def test_seed_and_answer_atoms(self):
        program, _db = figure3()
        rewriting = qsq_rewrite(program, Query(parse_atom('r("1", Y)')))
        assert rewriting.seed is not None
        assert rewriting.seed.relation == "in-r^bf"
        assert [str(a) for a in rewriting.seed.args] == ['"1"']
        assert rewriting.answer_atom.relation == "r^bf"

    def test_edb_query_passthrough(self):
        program, _db = figure3()
        rewriting = qsq_rewrite(program, Query(parse_atom('a("1", Y)')))
        assert rewriting.seed is None
        assert rewriting.answer_atom.relation == "a"


class TestAnswers:
    def test_matches_seminaive(self):
        program, db = figure3()
        query = Query(parse_atom('r("1", Y)'))
        expected = SemiNaiveEvaluator(program).answers(db.copy(), query)
        got = qsq_evaluate(program, query, db).answers
        assert got == expected
        assert len(got) >= 2

    def test_all_free_query(self):
        program, db = figure3()
        query = Query(parse_atom("r(X, Y)"))
        expected = SemiNaiveEvaluator(program).answers(db.copy(), query)
        assert qsq_evaluate(program, query, db).answers == expected

    def test_all_bound_query(self):
        program, db = figure3()
        query = Query(parse_atom('r("1", "2")'))
        result = qsq_evaluate(program, query, db)
        assert len(result.answers) == 1

    def test_empty_answer(self):
        program, db = figure3()
        query = Query(parse_atom('r("nope", Y)'))
        assert qsq_evaluate(program, query, db).answers == set()

    def test_edb_query(self):
        program, db = figure3()
        result = qsq_evaluate(program, Query(parse_atom('a("1", Y)')), db)
        assert len(result.answers) == 1

    def test_caller_database_untouched(self):
        program, db = figure3()
        before = db.total_facts()
        qsq_evaluate(program, Query(parse_atom('r("1", Y)')), db)
        assert db.total_facts() == before


class TestMaterialization:
    def test_qsq_materializes_less_than_bottom_up(self):
        # Build a program where only a tiny portion is relevant to the
        # query: two disconnected components.
        edges = "\n".join(f'edge("a{i}", "a{i+1}").' for i in range(30))
        edges += "\n" + "\n".join(f'edge("z{i}", "z{i+1}").' for i in range(30))
        text = ("path(X, Y) :- edge(X, Y).\n"
                "path(X, Y) :- edge(X, Z), path(Z, Y).\n" + edges)
        program = parse_program(text)
        db = load_facts(program)
        query = Query(parse_atom('path("a28", Y)'))

        semi = SemiNaiveEvaluator(program)
        semi.run(db.copy())
        result = qsq_evaluate(program, query, db)

        full_paths = semi.counters["facts_materialized"]
        # QSQ materializes paths from a28 (2) plus the recursive demand
        # from a29 (1); bottom-up materializes the whole closure.
        qsq_answers = result.materialized_by_kind().get("adorned", 0)
        assert qsq_answers <= 3
        assert full_paths > 100
        assert {f[1].value for f in result.answers} == {"a29", "a30"}

    def test_counter_breakdown(self):
        """With the bookend relations gone only the two interior
        relations hold supplementary tuples: 3 on this run (was 11 when
        every demand and every finished join was also copied into one)."""
        program, db = figure3()
        result = qsq_evaluate(program, Query(parse_atom('r("1", Y)')), db)
        kinds = result.materialized_by_kind()
        assert set(kinds) <= {"edb", "sup", "input", "adorned"}
        assert kinds["input"] >= 1
        assert kinds["sup"] == 3


class TestFunctionSymbols:
    NATS = """
    nat(s(X)) :- nat(X).
    nat(z()).
    """

    def test_bottom_up_diverges(self):
        program = parse_program(self.NATS)
        with pytest.raises(BudgetExceeded):
            SemiNaiveEvaluator(program, EvaluationBudget(max_facts=100)).run(Database())

    def test_qsq_terminates_on_bound_query(self):
        # Demanding a specific numeral explores only its subterms.
        program = parse_program(self.NATS)
        query = Query(parse_atom("nat(s(s(s(z()))))"))
        result = qsq_evaluate(program, query, Database(),
                              budget=EvaluationBudget(max_facts=100))
        assert len(result.answers) == 1

    def test_qsq_rejects_nonmember(self):
        program = parse_program(self.NATS + 'other("x").')
        query = Query(parse_atom('nat(s("x"))'))
        result = qsq_evaluate(program, query, Database(),
                              budget=EvaluationBudget(max_facts=100))
        assert result.answers == set()

    def test_head_function_term_demand_unification(self):
        # Demands against heads containing function terms must bind the
        # head variables by unification (the Section-4.1 pattern).
        text = """
        node(g(X, c1), X) :- trigger(X).
        trigger("t1").
        """
        program = parse_program(text)
        query = Query(parse_atom('node(g("t1", c1), Y)'))
        result = qsq_evaluate(program, query, Database(),
                              budget=EvaluationBudget(max_facts=100))
        assert len(result.answers) == 1

    def test_idb_fact_rules_answer_demands(self):
        text = """
        root(g(r, c1)).
        tree(X) :- root(X).
        tree(f(X)) :- tree(X).
        """
        program = parse_program(text)
        query = Query(parse_atom("tree(f(f(g(r, c1))))"))
        result = qsq_evaluate(program, query, Database(),
                              budget=EvaluationBudget(max_facts=100))
        assert len(result.answers) == 1


class TestInequalitiesInQsq:
    def test_inequality_respected(self):
        text = """
        sibling(X, Y) :- parent(Z, X), parent(Z, Y), X != Y.
        parent("p", "a").
        parent("p", "b").
        """
        program = parse_program(text)
        db = load_facts(program)
        result = qsq_evaluate(program, Query(parse_atom('sibling("a", Y)')), db)
        assert {f[1].value for f in result.answers} == {"b"}

    def test_inequality_on_recursive_rule(self):
        text = """
        apart(X, Y) :- edge(X, Y), X != Y.
        apart(X, Y) :- edge(X, Z), apart(Z, Y), X != Y.
        edge("a", "a").
        edge("a", "b").
        edge("b", "c").
        """
        program = parse_program(text)
        db = load_facts(program)
        result = qsq_evaluate(program, Query(parse_atom('apart("a", Y)')), db)
        values = {f[1].value for f in result.answers}
        assert values == {"b", "c"}


class TestAnalyzerOnTheRewriting:
    """Every rewritten rule is reachable from the rewritten query by
    construction, and the demands *add* bound positions, never remove
    them: the rewriting must trip neither the reachability pass (DD501)
    nor the plan passes (DD601/DD602)."""

    TC = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
    edge("a", "b").
    edge("b", "c").
    """

    @staticmethod
    def rewrite(text, query_text):
        return qsq_rewrite(parse_program(text), Query(parse_atom(query_text)))

    @staticmethod
    def codes(program, query=None):
        return [d.code for d in analyze(program, query).diagnostics]

    def test_no_dd501_on_rewritten_figure3(self):
        rewriting = self.rewrite(FIGURE3_LOCAL + FIGURE3_FACTS, 'r("1", Y)')
        assert "DD501" not in self.codes(rewriting.program,
                                         Query(rewriting.answer_atom))

    def test_no_dd501_on_rewritten_tc(self):
        # path(X, Y) gets DD601 (an all-free demand), so the plan checks
        # below stay off that query
        for query_text in ('path("a", Y)', "path(X, Y)"):
            rewriting = self.rewrite(self.TC, query_text)
            assert "DD501" not in self.codes(
                rewriting.program, Query(rewriting.answer_atom)), query_text

    def test_rewriting_introduces_no_new_plan_warnings(self):
        program, _db = figure3()
        rewriting = qsq_rewrite(program, Query(parse_atom('r("1", Y)')))
        plan_codes = {"DD601", "DD602"}
        assert (plan_codes & set(self.codes(rewriting.program))
                <= plan_codes & set(self.codes(program)))

    def test_clean_tc_stays_clean_after_rewriting(self):
        rewriting = self.rewrite(self.TC, 'path("a", Y)')
        codes = self.codes(rewriting.program, Query(rewriting.answer_atom))
        assert not {"DD601", "DD602"} & set(codes)

    def test_rewritten_program_has_no_errors_at_all(self):
        for text, query_text in ((FIGURE3_LOCAL + FIGURE3_FACTS, 'r("1", Y)'),
                                 (self.TC, 'path("a", Y)')):
            rewriting = self.rewrite(text, query_text)
            report = analyze(rewriting.program, Query(rewriting.answer_atom))
            assert report.errors == (), query_text
