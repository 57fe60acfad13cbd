"""Tests for the static cost/cardinality analyzer (repro.datalog.cost)."""

import math
import pathlib

import pytest

from repro.datalog import Query, SemiNaiveEvaluator, parse_atom, parse_program
from repro.datalog.analysis import CODES, analyze
from repro.datalog.cost import (Card, CostModel, CostThresholds, PlanAdvisor,
                                check_cost, estimate_rule)
from repro.datalog.database import load_facts
from repro.datalog.plan import JoinPlan, PlanStats, compile_join_plan

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

TC = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
edge("a", "b").
edge("b", "c").
edge("c", "d").
"""


def measured_bindings(rule, db):
    """Replay one rule's compiled plan over ``db``; bindings explored."""
    stats = PlanStats()
    plan = compile_join_plan(rule)
    for _slots in plan.bindings(db, stats=stats):
        pass
    return stats.bindings_explored


class TestCard:
    def test_times_multiplies_counts_and_adds_degrees(self):
        assert Card(3, 1).times(Card(4, 2)) == Card(12, 3)

    def test_times_zero_beats_infinity(self):
        assert Card(0, 0).times(Card(math.inf, math.inf)).count == 0

    def test_plus_adds_counts_and_maxes_degrees(self):
        assert Card(3, 1).plus(Card(4, 2)) == Card(7, 2)

    def test_cap_takes_the_tighter_bound(self):
        assert Card(100, 3).cap(Card(10, 2)) == Card(10, 2)

    def test_render(self):
        assert Card(math.inf, math.inf).render() == "unbounded"
        assert Card(16, 2).render(symbolic=True) == "O(n^2)"
        assert Card(1, 0).render(symbolic=True) == "O(1)"


class TestCostModel:
    def test_edb_card_from_database_stats(self):
        program = parse_program(TC)
        model = CostModel.from_program(program)
        assert model.card(("edge", None)) == Card(3, 1)

    def test_symbolic_without_facts(self):
        program = parse_program("p(X, Y) :- e(X, Y).", check=False)
        model = CostModel.from_program(program, symbolic_n=100)
        assert model.card(("e", None)) == Card(100, 1)
        assert model.symbolic

    def test_recursive_scc_gets_universe_bound(self):
        program = parse_program(TC)
        model = CostModel.from_program(program)
        card = model.card(("path", None))
        # D^2 over the 4-constant active domain
        assert card.degree == 2
        assert card.count == 16

    def test_nonrecursive_idb_sums_rule_outputs(self):
        program = parse_program("""
            q(X) :- e(X, Y).
            e("a", "b").
            e("a", "c").
        """)
        model = CostModel.from_program(program)
        assert model.card(("q", None)).count <= 3  # capped by domain^1

    def test_function_growth_unbounded_without_depth(self):
        program = parse_program("""
            tree(f(X, X)) :- tree(X).
            tree("leaf").
        """)
        model = CostModel.from_program(program)
        assert model.card(("tree", None)).unbounded

    def test_function_growth_finite_under_depth_bound(self):
        program = parse_program("""
            tree(f(X, X)) :- tree(X).
            tree("leaf").
        """)
        model = CostModel.from_program(program, max_term_depth=3)
        card = model.card(("tree", None))
        assert not card.unbounded
        assert card.count > 1

    def test_total_facts_sums_relations(self):
        program = parse_program(TC)
        model = CostModel.from_program(program)
        assert model.total_facts().count == pytest.approx(3 + 16)


class TestEstimateRule:
    def test_cost_predicts_bindings_explored_exactly_on_a_chain_join(self):
        # Non-recursive single-pass rule: the estimate should match the
        # compiled plan's measured counter on the program's own EDB.
        program = parse_program("""
            two(X, Z) :- edge(X, Y), edge(Y, Z).
            edge("a", "b").
            edge("b", "c").
            edge("c", "d").
        """)
        db = load_facts(program)
        model = CostModel.from_program(program)
        rule = next(program.proper_rules())
        estimate = estimate_rule(rule, model)
        measured = measured_bindings(rule, db)
        # 3 (full scan) + 3 probes x 3/4 expected bucket ~ 5.25; measured
        # is 3 + 2 = 5 -- the estimate must land within a small factor.
        assert estimate.cost.count == pytest.approx(measured, rel=0.5)

    def test_ranking_matches_measurement_on_tc(self):
        program = parse_program(TC)
        db = SemiNaiveEvaluator(program).run(load_facts(program))
        model = CostModel(program, database=db)
        rules = list(program.proper_rules())
        predicted = sorted(rules, key=lambda r: estimate_rule(r, model).cost.count)
        measured = sorted(rules, key=lambda r: measured_bindings(r, db))
        assert predicted == measured

    def test_explicit_order_changes_the_estimate(self):
        program = parse_program("""
            j(X, Y) :- big(X, K), pin(X), big2(K, Y).
            pin("x1").
            big("x1", "k1").  big("x2", "k1").  big("x3", "k1").
            big("x4", "k1").  big("x5", "k1").  big("x6", "k1").
            big2("k1", "y1").  big2("k1", "y2").  big2("k1", "y3").
        """)
        model = CostModel.from_program(program)
        rule = next(program.proper_rules())
        default = estimate_rule(rule, model)
        pin_first = estimate_rule(rule, model, order=(1, 0, 2))
        assert pin_first.cost.count < default.cost.count

    def test_delta_position_is_pinned_and_scanned_fully(self):
        program = parse_program(TC)
        model = CostModel.from_program(program)
        recursive = [r for r in program.proper_rules() if len(r.body) == 2][0]
        estimate = estimate_rule(recursive, model, delta_position=1)
        assert estimate.order[0] == 1
        first = estimate.steps[0]
        assert first.scanned == first.relation  # delta: no index probe


class TestPlanAdvisor:
    ADVISABLE = """
        triples(X, Y) :- bulk(X, Z), bulk2(Z, Y), pin(X).
        pin("b1").
        bulk("b1", "c1").  bulk("b2", "c1").  bulk("b3", "c1").
        bulk("b4", "c2").  bulk("b5", "c2").  bulk("b6", "c2").
        bulk("b7", "c2").  bulk("b8", "c1").  bulk("b9", "c1").
        bulk2("c1", "d1").  bulk2("c1", "d2").  bulk2("c2", "d3").
        bulk2("c2", "d4").  bulk2("c1", "d5").  bulk2("c2", "d6").
    """

    def test_reorders_toward_the_selective_atom(self):
        program = parse_program(self.ADVISABLE)
        advisor = PlanAdvisor(CostModel.from_program(program))
        rule = next(program.proper_rules())
        choice = advisor.choice(rule)
        assert choice.reordered
        assert choice.order[0] == 2  # pin first
        assert choice.predicted.cost.count < choice.default.cost.count

    def test_choice_is_cached(self):
        program = parse_program(self.ADVISABLE)
        advisor = PlanAdvisor(CostModel.from_program(program))
        rule = next(program.proper_rules())
        assert advisor.choice(rule) is advisor.choice(rule)

    def test_delta_stays_pinned_first(self):
        program = parse_program(TC)
        advisor = PlanAdvisor(CostModel.from_program(program))
        recursive = [r for r in program.proper_rules() if len(r.body) == 2][0]
        assert advisor.choice(recursive, delta_position=1).order[0] == 1

    def test_advised_plans_explore_fewer_bindings(self):
        # DD805's advice, taken by hand: the advised order as JoinPlan(order=).
        program = parse_program(self.ADVISABLE)
        rule = next(program.proper_rules())
        choice = PlanAdvisor(CostModel.from_program(program)).choice(rule)
        db = load_facts(program)
        advised, plain = PlanStats(), PlanStats()
        advised_rows = JoinPlan(rule, order=choice.order).fire(db, stats=advised)
        plain_rows = JoinPlan(rule).fire(db, stats=plain)
        assert set(advised_rows) == set(plain_rows)
        assert advised.bindings_explored < plain.bindings_explored


class TestDiagnostics:
    def costly(self):
        text = (EXAMPLES / "costly.dl").read_text()
        return parse_program(text, check=False)

    def test_costly_example_triggers_every_dd8xx_code(self):
        program = self.costly()
        diagnostics = check_cost(program, Query(parse_atom("audit(X, Y)")))
        codes = {d.code for d in diagnostics}
        assert codes >= {"DD801", "DD802", "DD803", "DD804", "DD805"}

    def test_dd8xx_attach_rules_for_spans(self):
        program = self.costly()
        for d in check_cost(program, Query(parse_atom("audit(X, Y)"))):
            assert d.rule is not None, d.code

    def test_dd802_is_info_severity(self):
        assert CODES["DD802"][1] == "info"
        program = parse_program(TC)
        dd802 = [d for d in check_cost(program) if d.code == "DD802"]
        assert dd802 and all(d.severity == "info" for d in dd802)

    def test_quiet_program_raises_nothing(self):
        program = parse_program("""
            q(X) :- e(X, Y), f(Y).
            e("a", "b").
            f("b").
        """)
        assert check_cost(program, Query(parse_atom("q(X)"))) == []

    def test_dd804_needs_an_unbound_recursive_query(self):
        program = parse_program(TC)
        free = check_cost(program, Query(parse_atom("path(X, Y)")))
        bound = check_cost(program, Query(parse_atom('path("a", Y)')))
        assert any(d.code == "DD804" for d in free)
        assert not any(d.code == "DD804" for d in bound)

    def test_analyze_cost_flag_appends_dd8xx(self):
        program = self.costly()
        plain = analyze(program)
        with_cost = analyze(program, cost=True)
        assert not any(d.code.startswith("DD8") for d in plain.diagnostics)
        assert any(d.code.startswith("DD8") for d in with_cost.diagnostics)

    def test_thresholds_are_tunable(self):
        program = parse_program(TC)
        lax = CostThresholds(scc_degree=99.0)
        assert not any(d.code == "DD802"
                       for d in check_cost(program, thresholds=lax))


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
