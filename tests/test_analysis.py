"""Tests for the static analyzer (repro.datalog.analysis) and its wiring."""

import pathlib
import re

import pytest

from repro.datalog.analysis import (CODES, DependencyGraph, analyze,
                                    check_program, make_diagnostic,
                                    render_cycle)
from repro.datalog.atom import Atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.qsq import qsq_evaluate
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.seminaive import EvaluationBudget, SemiNaiveEvaluator
from repro.datalog.stratified import StratifiedEvaluator, stratify
from repro.datalog.term import Var
from repro.distributed.chaos import RACY_TEXT
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.dqsq import DqsqEngine
from repro.distributed.naive_dist import DistributedNaiveEngine
from repro.errors import ProgramAnalysisError, ValidationError
from repro.utils.counters import Counters
from repro.workloads.scenarios import FIGURE3_TEXT


def codes(report):
    return {d.code for d in report.diagnostics}


# -- safety / range restriction -----------------------------------------------


class TestSafety:
    def test_safe_program_is_clean(self):
        program = parse_program("""
            t(X, Y) :- e(X, Y).
            t(X, Z) :- e(X, Y), t(Y, Z).
            e("a", "b").
        """)
        assert analyze(program).diagnostics == ()

    def test_unsafe_head_variable(self):
        rule = Rule(Atom("p", (Var("X"), Var("Y"))),
                    (Atom("q", (Var("X"),)),), check=False)
        report = analyze(Program([rule]))
        assert "DD101" in codes(report)
        assert not report.ok

    def test_variable_only_under_negation(self):
        rule = Rule(Atom("p", (Var("Y"),)),
                    (Atom("q", (Var("X"),)),),
                    negated=(Atom("r", (Var("Y"),)),), check=False)
        report = analyze(Program([rule]))
        found = report.by_code("DD101")
        assert found and "only under negation" in found[0].message
        assert "DD105" in codes(report)

    def test_variable_only_in_inequality(self):
        program = parse_program("p(X) :- q(X), X != Y.", check=False)
        report = analyze(program)
        assert "DD102" in codes(report)

    def test_unbound_negation_variable(self):
        rule = Rule(Atom("p", (Var("X"),)),
                    (Atom("q", (Var("X"),)),),
                    negated=(Atom("r", (Var("Z"),)),), check=False)
        report = analyze(Program([rule]))
        assert "DD105" in codes(report)


# -- arity consistency --------------------------------------------------------


class TestArities:
    def test_relation_arity_clash(self):
        program = parse_program("""
            p(X) :- q(X).
            p(X, X) :- q(X).
            q("a").
        """)
        report = analyze(program)
        assert "DD103" in codes(report)
        assert not report.ok

    def test_query_arity_clash(self):
        program = parse_program("p(X) :- q(X). q(\"a\").")
        report = analyze(program, Query(parse_atom('p("a", "b")')))
        assert "DD103" in codes(report)

    def test_function_arity_overload_is_info_only(self):
        program = parse_program("""
            p(f(X)) :- q(X).
            r(f(X, X)) :- q(X).
            q("a").
        """)
        report = analyze(program)
        found = report.by_code("DD104")
        assert found and all(d.severity == "info" for d in found)
        assert report.ok


class TestSeverityPinning:
    """The DD103/DD104 asymmetry is deliberate; see docs/datalog.md.

    A relation used at two arities (DD103) breaks join planning and
    indexing -- facts of different widths cannot share a fact table --
    so it is an ERROR.  A *function symbol* used at two arities (DD104)
    is the paper's own Skolem idiom (``f`` builds both 2- and 3-ary
    unfolding node ids) and distinct-arity terms never unify, so it is
    informational only.
    """

    def test_dd103_stays_error_and_dd104_stays_info(self):
        assert CODES["DD103"][1] == "error"
        assert CODES["DD104"][1] == "info"

    def test_behavior_on_a_program_with_both(self):
        program = parse_program("""
            p(X) :- q(X).
            p(X, X) :- q(X).
            r(f(X)) :- q(X).
            s(f(X, X)) :- q(X).
            q("a").
        """, check=False)
        report = analyze(program)
        by_code = {d.code: d for d in report.diagnostics}
        assert by_code["DD103"].severity == "error"
        assert by_code["DD104"].severity == "info"


# -- stratification -----------------------------------------------------------


class TestStratification:
    def test_full_negative_cycle_path(self):
        program = parse_program("""
            a(X) :- s(X), not b(X).
            b(X) :- c(X).
            c(X) :- a(X).
            s("1").
        """)
        report = analyze(program)
        found = report.by_code("DD201")
        assert len(found) == 1
        # The whole cycle a -not-> b -> c -> a is in the message, not
        # just the offending edge.
        assert "a -not-> b -> c -> a" in found[0].message

    def test_self_negation(self):
        program = parse_program("""
            win(X) :- move(X, Y), not win(Y).
            move("a", "b").
        """)
        report = analyze(program)
        assert "DD201" in codes(report)

    def test_stratified_negation_is_clean(self):
        program = parse_program("""
            reach(X) :- edge("root", X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), not reach(X).
            edge("root", "a").
            node("a").
            node("b").
        """)
        assert analyze(program).ok

    def test_stratify_raises_with_full_path(self):
        program = parse_program("""
            a(X) :- s(X), not b(X).
            b(X) :- c(X).
            c(X) :- a(X).
            s("1").
        """)
        with pytest.raises(ProgramAnalysisError) as err:
            stratify(program)
        assert "a -not-> b -> c -> a" in str(err.value)
        assert err.value.diagnostics[0].code == "DD201"
        # Backwards compatible: still a ValidationError.
        assert isinstance(err.value, ValidationError)

    def test_render_cycle(self):
        edges = [(("a", None), ("b", None), True),
                 (("b", None), ("a", None), False)]
        assert render_cycle(edges) == "a -not-> b -> a"


# -- termination risk ---------------------------------------------------------


class TestTermination:
    GROWING = """
        tree(f(X, X)) :- tree(X).
        tree("leaf").
    """

    def test_depth_growth_flagged(self):
        report = analyze(parse_program(self.GROWING))
        found = report.by_code("DD301")
        assert found and found[0].severity == "warning"

    def test_depth_bound_gadget_downgrades(self):
        report = analyze(parse_program(self.GROWING), depth_bounded=True)
        found = report.by_code("DD301")
        assert found and found[0].severity == "info"
        assert "guarded" in found[0].message

    def test_nonrecursive_function_head_not_flagged(self):
        program = parse_program("""
            wrap(f(X)) :- base(X).
            base("a").
        """)
        assert "DD301" not in codes(analyze(program))

    def test_recursion_without_growth_not_flagged(self):
        program = parse_program("""
            t(X, Z) :- e(X, Y), t(Y, Z).
            t(X, Y) :- e(X, Y).
            e("a", "b").
        """)
        assert "DD301" not in codes(analyze(program))


# -- locality / distributability ----------------------------------------------


class TestLocality:
    def test_mixed_locality_is_error(self):
        program = parse_program("""
            r@p(X) :- s@p(X), t(X).
            s@p("1").
        """)
        report = analyze(program)
        assert "DD401" in codes(report)
        assert not report.ok

    def test_unknown_peer_requires_deployment(self):
        program = parse_program("""
            r@p(X) :- s@q(X).
            s@q("1").
        """)
        assert "DD402" not in codes(analyze(program))
        report = analyze(program, known_peers={"p"})
        found = report.by_code("DD402")
        assert found and "'q'" in found[0].message

    def test_negation_in_located_rule(self):
        rule = Rule(Atom("a", (Var("X"),), "p"),
                    (Atom("b", (Var("X"),), "p"),),
                    negated=(Atom("c", (Var("X"),), "p"),))
        report = analyze(Program([rule]))
        found = report.by_code("DD403")
        assert found and found[0].severity == "warning"

    def test_fully_located_program_is_clean(self):
        program = parse_program("""
            r@p(X) :- s@q(X).
            s@q("1").
        """)
        assert analyze(program, known_peers={"p", "q"}).ok


# -- reachability -------------------------------------------------------------


class TestReachability:
    def test_dead_rule_flagged(self):
        program = parse_program("""
            alive(X) :- e(X).
            dead(X) :- e(X).
            e("1").
        """)
        report = analyze(program, Query(parse_atom("alive(X)")))
        found = report.by_code("DD501")
        assert len(found) == 1
        assert "dead" in found[0].message

    def test_no_query_no_reachability_pass(self):
        program = parse_program("""
            dead(X) :- e(X).
            e("1").
        """)
        assert "DD501" not in codes(analyze(program))


# -- plan warnings ------------------------------------------------------------


class TestPlanWarnings:
    def test_cross_product(self):
        program = parse_program("""
            pair(X, Y) :- a(X), b(Y).
            a("1").
            b("2").
        """)
        assert "DD601" in codes(analyze(program))

    def test_never_indexable_probe(self):
        program = parse_program("""
            p(X) :- q(X), r(f(X, Y)).
            q("1").
            r(f("1", "2")).
        """)
        report = analyze(program)
        assert "DD602" in codes(report)

    def test_connected_join_is_clean(self):
        program = parse_program("""
            p(X, Z) :- q(X, Y), r(Y, Z).
            q("1", "2").
            r("2", "3").
        """)
        assert "DD601" not in codes(analyze(program))
        assert "DD602" not in codes(analyze(program))

    def test_plan_pass_skipped_by_check_program(self):
        program = parse_program("""
            pair(X, Y) :- a(X), b(Y).
            a("1").
            b("2").
        """)
        report = check_program(program)
        assert "DD601" not in codes(report)


# -- dependency graph ---------------------------------------------------------


class TestDependencyGraph:
    def test_components_and_recursion(self):
        program = parse_program("""
            t(X, Z) :- e(X, Y), t(Y, Z).
            t(X, Y) :- e(X, Y).
            top(X) :- t(X, "z").
            e("a", "b").
        """)
        graph = DependencyGraph(program)
        assert ("t", None) in graph.recursive_relations()
        assert ("top", None) not in graph.recursive_relations()
        assert graph.negative_cycle() is None


# -- fail-fast engine wiring --------------------------------------------------

ARITY_CLASH = """
    p(X) :- q(X).
    p(X, X) :- q(X).
    q("a").
"""


class TestEngineFailFast:
    def _program(self):
        return parse_program(ARITY_CLASH)

    def test_seminaive_rejects(self):
        with pytest.raises(ProgramAnalysisError) as err:
            SemiNaiveEvaluator(self._program())
        assert "DD103" in str(err.value)

    def test_qsq_evaluate_rejects(self):
        with pytest.raises(ProgramAnalysisError):
            qsq_evaluate(self._program(), Query(parse_atom('p("a")')))

    def test_stratified_rejects(self):
        with pytest.raises(ProgramAnalysisError):
            StratifiedEvaluator(self._program())

    def test_check_false_bypasses(self):
        evaluator = SemiNaiveEvaluator(self._program(), check=False)
        evaluator.run(Database())

    def test_rendered_diagnostics_in_message(self):
        with pytest.raises(ProgramAnalysisError) as err:
            SemiNaiveEvaluator(self._program())
        message = str(err.value)
        assert "arity-mismatch" in message
        assert "seminaive" in message
        assert err.value.diagnostics

    def test_dqsq_rejects_located_arity_clash(self):
        program = DDatalogProgram(parse_program("""
            p@a(X) :- q@a(X).
            p@a(X, X) :- q@a(X).
            q@a("1").
        """))
        with pytest.raises(ProgramAnalysisError):
            DqsqEngine(program)

    def test_naive_dist_rejects_located_arity_clash(self):
        program = DDatalogProgram(parse_program("""
            p@a(X) :- q@a(X).
            p@a(X, X) :- q@a(X).
            q@a("1").
        """))
        with pytest.raises(ProgramAnalysisError):
            DistributedNaiveEngine(program)

    def test_distributed_engines_escalate_negation(self):
        rule = Rule(Atom("a", (Var("X"),), "p"),
                    (Atom("b", (Var("X"),), "p"),),
                    negated=(Atom("c", (Var("X"),), "p"),))
        program = DDatalogProgram(Program([rule]))
        with pytest.raises(ProgramAnalysisError) as err:
            DqsqEngine(program)
        assert "DD403" in str(err.value)
        with pytest.raises(ProgramAnalysisError):
            DistributedNaiveEngine(program)

    def test_stratified_local_negation_still_allowed(self):
        # The *local* stratified evaluator handles negation fine; only
        # the distributed engines escalate DD403.
        program = parse_program("""
            reach(X) :- edge("root", X).
            unreach(X) :- node(X), not reach(X).
            edge("root", "a").
            node("b").
        """)
        db = StratifiedEvaluator(program).run(Database())
        from repro.datalog.term import Const
        assert (Const("b"),) in db.facts(("unreach", None))


# -- check_program plumbing ---------------------------------------------------


class TestCheckProgram:
    def test_warnings_go_to_counters(self):
        program = parse_program("""
            tree(f(X, X)) :- tree(X).
            tree("leaf").
        """)
        counters = Counters()
        report = check_program(program, counters=counters)
        assert report.ok
        assert counters["analysis.warnings"] >= 1
        assert counters["analysis.programs_checked"] == 1

    def test_clean_program_returns_report(self):
        program = parse_program("p(X) :- q(X). q(\"a\").")
        report = check_program(program)
        assert report.ok and report.diagnostics == ()

    def test_depth_budget_silences_warning_counter(self):
        program = parse_program("""
            tree(f(X, X)) :- tree(X).
            tree("leaf").
        """)
        counters = Counters()
        check_program(program, depth_bounded=True, counters=counters)
        assert counters["analysis.warnings"] == 0
        assert counters["analysis.infos"] >= 1

    def test_engine_depth_budget_downgrades(self):
        program = parse_program("""
            tree(f(X, X)) :- tree(X).
            tree("leaf").
        """)
        budget = EvaluationBudget(max_term_depth=3, prune_depth=True)
        evaluator = SemiNaiveEvaluator(program, budget)
        assert evaluator.counters["analysis.warnings"] == 0


# -- the registered paper programs lint clean ---------------------------------


class TestRegisteredPrograms:
    def test_all_registered_programs_have_zero_errors(self):
        from repro.experiments.registry import registered_programs
        entries = registered_programs()
        assert {"figure1-diagnosis", "figure3", "figure4-qsq"} <= set(entries)
        for name, entry in entries.items():
            report = analyze(entry.program, entry.query,
                             known_peers=entry.known_peers,
                             depth_bounded=entry.depth_bounded)
            assert report.ok, f"{name}: {report.render()}"

    def test_lint_registered_passes(self):
        from repro.experiments.registry import lint_registered
        lint_registered()


class TestIndexSpans:
    def test_spans_number_rules_in_program_order(self):
        from repro.datalog.analysis import index_spans
        program = parse_program("""
            p(X) :- q(X).
            q("a").
            r(X) :- p(X).
        """, check=False)
        spans = index_spans(program)
        assert sorted(spans.values()) == [(1, 1), (2, 1), (3, 1)]


class TestCodeRegistry:
    """``CODES`` is the one catalog: every code has a doc entry and back."""

    DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"
    HEADING = re.compile(r"^### (DD\d{3}) `([\w-]+)` \((\w+)", re.MULTILINE)

    def test_doc_headings_are_exactly_the_registry(self):
        documented = {}
        for page in ("datalog.md", "diagnosability.md"):
            for code, slug, severity in self.HEADING.findall(
                    (self.DOCS / page).read_text()):
                assert code not in documented, f"{code} documented twice"
                documented[code] = (slug, severity)
        assert documented == CODES

    def test_unregistered_code_is_refused(self):
        with pytest.raises(KeyError):
            make_diagnostic("DD999", "no such code")


class TestAnalyzerRaceCodes:
    def test_racy_program_flagged(self):
        report = analyze(parse_program(RACY_TEXT, check=False))
        codes = {d.code for d in report.diagnostics}
        assert {"DD701", "DD702", "DD703"} <= codes
        dd701 = [d for d in report.diagnostics if d.code == "DD701"]
        assert any("suspect@p2" in d.message for d in dd701)

    def test_positive_program_clean(self):
        report = analyze(parse_program(FIGURE3_TEXT))
        codes = {d.code for d in report.diagnostics}
        assert not codes & {"DD701", "DD702", "DD703"}
