"""Executor parity: the step interpreter and the generated kernels agree.

:meth:`repro.datalog.plan.JoinPlan.fire` picks its executor per plan,
from the rows the plan has scanned and produced.  The choice must be
invisible: identical models (in identical insertion order), answers,
derivation counts and diagnosis sets on every engine and every program,
whichever side runs -- and all of them equal to the reference interpreter of
``tests/reference.py``.  Every test here runs with the threshold pinned
at both extremes (never / always the kernel) and at the shipped default.

The same file pins what rides on the plans: a threshold crossed in the
middle of a fixpoint or by firings that produce nothing, kernel shapes
shared across plans and dying with them, the bounded LRU plan cache
(eviction recompiles and drops the kernel, never changes answers),
zero-arity relations and pickled programs re-interning before
evaluation (the mp worker path).
"""

import gc
import pickle
import sys

import pytest

import repro
from repro.datalog import (Database, Query, SemiNaiveEvaluator, parse_atom,
                           parse_program)
from repro.datalog import batch as batch_module
from repro.datalog import plan as plan_module
from repro.datalog.database import load_facts, select
from repro.datalog.plan import (clear_plan_cache, compile_join_plan,
                                plan_cache_evictions, set_plan_cache_limit)
from repro.datalog.qsq import qsq_evaluate
from repro.datalog.seminaive import EvaluationBudget, IncrementalEvaluator
from repro.datalog.stratified import StratifiedEvaluator
from repro.datalog.term import Const
from repro.diagnosis import DatalogDiagnosisEngine
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.dqsq import DqsqEngine
from repro.errors import BudgetExceeded
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.workloads.alarmgen import AlarmSequence
from tests.reference import (at_each_setting, ordered_snapshot,
                             pinned_executor, reference_model, snapshot,
                             unordered)

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

FUNC_RULES = """
nat(z).
nat(s(N)) :- nat(N), N != s(z).
even(z).
even(s(s(N))) :- even(N).
"""

STRATIFIED = """
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
unreachable(X) :- node(X), not reach(X).
source("a").
edge("a", "b").
edge("b", "d").
edge("c", "c").
node("a"). node("b"). node("c"). node("d"). node("e").
"""

ZERO_ARITY = """
seen() :- e(X, Y).
twice() :- e(X, Y), e(Y, Z), X != Z.
p(X) :- e(X, Y), seen().
q(X) :- p(X), twice().
e("1", "2").
e("2", "3").
"""

#: a recursive rule with function symbols joined with a zero-arity
#: relation, and negation over its fixpoint in the next stratum
MID_FIXPOINT = """
go() :- start(X).
nat(z).
nat(s(N)) :- nat(N), go().
odd(s(z)).
odd(s(s(N))) :- odd(N), go().
even(N) :- nat(N), not odd(N).
start("a").
"""


class TestTierEquivalence:
    def test_seminaive_model_and_derivations(self):
        program = parse_program(FIGURE3)

        def run():
            db = Database()
            evaluator = SemiNaiveEvaluator(program)
            evaluator.run(db)
            return ordered_snapshot(db), evaluator.counters["derivations"]
        model, _derivations = at_each_setting(run)
        assert unordered(model) == snapshot(reference_model(program))

    def test_function_symbols_with_depth_prune(self):
        program = parse_program(FUNC_RULES)
        budget = EvaluationBudget(max_term_depth=6, prune_depth=True)

        def run():
            db = Database()
            SemiNaiveEvaluator(program, budget).run(db)
            return snapshot(db)
        model = at_each_setting(run)
        assert model == snapshot(reference_model(program, budget=budget))
        assert model[("even", None)]

    def test_stratified_negation(self):
        program = parse_program(STRATIFIED)

        def run():
            db = load_facts(program)
            StratifiedEvaluator(program).run(db)
            return snapshot(db)
        model = at_each_setting(run)
        assert model == snapshot(reference_model(program))
        unreachable = {f[0].value
                       for f in model[("unreachable", None)]}
        assert unreachable == {"c", "e"}

    def test_dqsq_answers(self):
        parsed = parse_program(FIGURE3)
        program = DDatalogProgram(parsed)
        query = Query(parse_atom('r@r("1", Y)'))

        def run():
            result = DqsqEngine(program, load_facts(parsed)).query(query)
            return frozenset(result.answers), result.counters["derivations"]
        answers, _derivations = at_each_setting(run)
        assert answers == select(reference_model(parsed), query.atom)

    def test_incremental_frontier(self):
        # Work arrives in two installments, as at a distributed peer:
        # the persistent frontier must join each installment's delta.
        rules = parse_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """, check=False)

        def run():
            db = Database()
            evaluator = IncrementalEvaluator(db)
            for rule in rules.proper_rules():
                evaluator.add_rule(rule)
            for pair in (("a", "b"), ("b", "c")):
                db.add(("edge", None), (Const(pair[0]), Const(pair[1])))
            evaluator.run()
            first = ordered_snapshot(db)
            db.add(("edge", None), (Const("c"), Const("d")))
            evaluator.run()
            return first, ordered_snapshot(db)
        first, second = at_each_setting(run)
        assert len(second[("path", None)]) > len(first[("path", None)])
        edges = Database()
        edges.add_all(("edge", None), second[("edge", None)])
        assert (frozenset(second[("path", None)])
                == snapshot(reference_model(rules, edges))[("path", None)])

    def test_zero_arity_relations(self):
        program = parse_program(ZERO_ARITY, check=False)

        def run():
            db = load_facts(program)
            SemiNaiveEvaluator(program, check=False).run(db)
            return snapshot(db)
        model = at_each_setting(run)
        assert model == snapshot(reference_model(program))
        assert model[("seen", None)] == frozenset({()})
        assert {f[0].value for f in model[("q", None)]} == {"1", "2"}

    def test_threshold_crossed_mid_fixpoint(self):
        # The recursive rules scan one delta row and derive one fact a
        # round, so at threshold 3 their delta plans run two rounds on
        # the step interpreter and every later round on the kernel
        # generated in between.
        program = parse_program(MID_FIXPOINT, check=False)
        budget = EvaluationBudget(max_term_depth=9, prune_depth=True)

        def run():
            db = Database()
            evaluator = StratifiedEvaluator(program, budget, check=False)
            evaluator.run(db)
            return ordered_snapshot(db), evaluator.counters
        with pinned_executor(sys.maxsize):
            model, counters = run()
        assert counters["plan.promotions"] == 0
        with pinned_executor(3):
            crossed, crossed_counters = run()
            recursive = next(r for r in program.proper_rules()
                             if str(r.head).startswith("nat"))
            delta_plan = compile_join_plan(recursive, 0)
            assert delta_plan.rows == 4 and delta_plan.kernel is not None
        assert crossed == model
        assert crossed_counters["plan.promotions"] >= 2
        for name in ("derivations", "facts_materialized", "pruned_deep_facts",
                     "plan.bindings_explored", "plan.index_hits",
                     "plan.index_misses", "plan.full_scans",
                     "plan.delta_scans"):
            assert crossed_counters[name] == counters[name], name
        assert counters["pruned_deep_facts"] > 0
        assert unordered(model) == snapshot(
            reference_model(program, budget=budget))
        assert len(model[("even", None)]) == 5


class TestKernelPromotion:
    def test_scanned_rows_promote_a_plan_that_produces_nothing(self):
        # Probes arrive four at a time and never meet a target: the
        # probe delta plan produces no row, ever, and is still promoted
        # once the delta rows it scanned reach the threshold.
        rule = next(parse_program("hit(X) :- probe(X), target(X).",
                                  check=False).proper_rules())

        def run():
            db = Database()
            db.add(("target", None), (Const("none"),))
            evaluator = IncrementalEvaluator(db)
            evaluator.add_rule(rule)
            for installment in range(5):
                for i in range(4):
                    db.add(("probe", None), (Const(4 * installment + i),))
                evaluator.run()
            return ordered_snapshot(db), evaluator.counters.as_dict()
        with pinned_executor(sys.maxsize):
            model, counters = run()
        with pinned_executor(8):
            promoted, promoted_counters = run()
            probe_plan = compile_join_plan(rule, 0)
            assert probe_plan.kernel is not None and probe_plan.rows == 8
        assert promoted == model and ("hit", None) not in model
        assert counters["plan.firings"] == counters["plan.empty_firings"] > 2
        assert "plan.promotions" not in counters
        assert promoted_counters.pop("plan.promotions") == 1
        assert promoted_counters == counters

    def test_plans_of_one_shape_share_compiled_code(self):
        # The rules differ only in relation names and constants, which
        # the generated source reads from each plan's own environment.
        first, second = parse_program("""
        p(X) :- a(X, "1"), b(X).
        q(Y) :- c(Y, "2"), d(Y).
        """, check=False).proper_rules()
        clear_plan_cache()
        gc.collect()
        assert not batch_module._SHAPES
        with pinned_executor(0):
            kernels = []
            for rule in (first, second):
                plan = compile_join_plan(rule)
                plan.fire(Database())
                kernels.append(plan.kernel)
            assert kernels[0] is not kernels[1]
            assert kernels[0].__code__ is kernels[1].__code__
            assert kernels[0].__globals__ is not kernels[1].__globals__
            assert len(batch_module._SHAPES) == 1
            del kernels, plan
        gc.collect()
        assert not batch_module._SHAPES


class TestDiagnosisEquivalence:
    @pytest.mark.parametrize("mode", ["qsq", "dqsq", "bottomup"])
    def test_figure1_all_modes(self, mode):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        budget = (EvaluationBudget(max_facts=2_000_000, max_term_depth=8,
                                   prune_depth=True)
                  if mode == "bottomup" else None)

        def run():
            engine = DatalogDiagnosisEngine(petri, mode=mode, budget=budget)
            result = engine.diagnose(alarms)
            return (set(result.diagnoses), result.materialized_events,
                    result.counters["derivations"])
        diagnoses, _events, _derivations = at_each_setting(run)
        assert diagnoses

    def test_runconfig_tier_knob(self):
        # There is none: the executor is the plan's choice, not the run's.
        with pytest.raises(TypeError):
            repro.RunConfig(compiled="batched")
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bca"])
        oracle = repro.diagnose(petri, alarms, method="bruteforce")
        diagnoses = at_each_setting(
            lambda: set(repro.diagnose(petri, alarms, method="qsq").diagnoses))
        assert diagnoses == set(oracle.diagnoses)


class TestInvalidTier:
    def test_engines_reject_unknown_tier(self):
        # No engine takes an executor argument.  SemiNaiveEvaluator alone
        # still accepts (and ignores) ``compiled`` for the frozen
        # benchmark probe; see its constructor.
        program = parse_program(FIGURE3)
        with pytest.raises(TypeError):
            StratifiedEvaluator(program, compiled="batched")
        with pytest.raises(TypeError):
            IncrementalEvaluator(Database(), compiled=True)
        with pytest.raises(TypeError):
            DqsqEngine(DDatalogProgram(program), compiled=True)
        with pytest.raises(TypeError):
            DatalogDiagnosisEngine(figure1_net(), compiled=True)
        query = Query(parse_atom('r@r("1", Y)'))
        with pytest.raises(TypeError):
            qsq_evaluate(program, query, compiled=False)
        assert not hasattr(plan_module, "coerce_compiled")
        db = Database()
        SemiNaiveEvaluator(program, compiled="anything").run(db)
        assert snapshot(db) == snapshot(reference_model(program))


class TestBottomUpFactBudget:
    CHAIN = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    """ + "".join(f'edge("{i}", "{i + 1}").\n' for i in range(6))

    @pytest.mark.parametrize("evaluator_class", [SemiNaiveEvaluator])
    def test_max_facts_fires_after_the_whole_firing(self, evaluator_class):
        # max_facts is checked once per firing, after its rows are
        # bulk-inserted: the limit still trips on the first firing that
        # crosses it, and the store then holds that whole firing.
        program = parse_program(self.CHAIN)
        model = snapshot(reference_model(program))
        total = sum(len(rows) for rows in model.values())

        def run(limit):
            db = load_facts(program)
            evaluator_class(program,
                            EvaluationBudget(max_facts=limit)).run(db)
            return db

        def run_over(limit):
            db = load_facts(program)
            evaluator = evaluator_class(program,
                                        EvaluationBudget(max_facts=limit))
            with pytest.raises(BudgetExceeded) as raised:
                evaluator.run(db)
            assert (raised.value.resource, raised.value.limit) == (
                "facts", limit)
            return ordered_snapshot(db)

        assert at_each_setting(lambda: snapshot(run(total))) == model
        assert sum(map(len, at_each_setting(
            lambda: run_over(total - 1)).values())) == total
        # 6 edges + all 6 paths of the first rule's one firing, not 8 + 1
        stopped = at_each_setting(lambda: run_over(8))
        assert sum(map(len, stopped.values())) == 12
        assert all(set(rows) <= model[key] for key, rows in stopped.items())


class TestLruPlanCache:
    def test_eviction_never_changes_answers(self):
        # A cache of 2 entries forces evictions on a program with more
        # distinct rules than slots: every firing beyond the cap
        # recompiles (and starts again on the step interpreter: the
        # kernel is evicted with its plan), and the model must not notice.
        program = parse_program(FIGURE3)
        reference = snapshot(reference_model(program))
        rule = next(program.proper_rules())

        def run():
            db = Database()
            SemiNaiveEvaluator(program).run(db)
            return snapshot(db)
        assert at_each_setting(run) == reference

        previous = set_plan_cache_limit(2)
        try:
            before = plan_cache_evictions()
            assert at_each_setting(run) == reference
            assert plan_cache_evictions() > before
            with pinned_executor(0):
                promoted = compile_join_plan(rule)
                promoted.fire(load_facts(program))
                assert promoted.kernel is not None
                run()
                recompiled = compile_join_plan(rule)
                assert recompiled is not promoted
                assert recompiled.kernel is None and recompiled.rows == 0
        finally:
            set_plan_cache_limit(previous)
            clear_plan_cache()

    def test_shrinking_limit_evicts_immediately(self):
        program = parse_program(FIGURE3)
        previous = set_plan_cache_limit(16384)
        try:
            clear_plan_cache()
            db = Database()
            SemiNaiveEvaluator(program).run(db)
            before = plan_cache_evictions()
            set_plan_cache_limit(1)
            assert plan_cache_evictions() > before
        finally:
            set_plan_cache_limit(previous)
            clear_plan_cache()

    def test_eviction_counter_surfaces_in_evaluator_counters(self):
        program = parse_program(FIGURE3)
        previous = set_plan_cache_limit(2)
        try:
            clear_plan_cache()
            evaluator = SemiNaiveEvaluator(program)
            evaluator.run(Database())
            evaluator.flush_stats()
            assert evaluator.counters["plan.cache_evictions"] > 0
        finally:
            set_plan_cache_limit(previous)
            clear_plan_cache()


class TestPickledProgramsBatchCleanly:
    def test_program_reinterns_then_batches(self):
        # The mp worker path: a program crosses a process boundary as a
        # pickle, its terms re-intern on arrival (identity-first equality
        # must keep holding), and evaluation of the clone on either
        # executor must match the original.  The pickle round-trip here
        # exercises the same __reduce__ machinery a forked worker runs
        # on import.
        program = parse_program(FIGURE3)
        clone = pickle.loads(pickle.dumps(program))
        for original, copied in zip(program.proper_rules(),
                                    clone.proper_rules()):
            assert all(a is b for a, b in
                       zip(original.head.args, copied.head.args))

        def run():
            db_original, db_clone = Database(), Database()
            SemiNaiveEvaluator(program).run(db_original)
            SemiNaiveEvaluator(clone).run(db_clone)
            assert snapshot(db_original) == snapshot(db_clone)
            return snapshot(db_clone)
        assert at_each_setting(run) == snapshot(reference_model(program))

    def test_batched_facts_interoperate_with_pickled_tuples(self):
        # Tuples that crossed the wire must bulk-insert as duplicates
        # of locally derived facts (add_batch relies on interning).
        key = ("cond", None)
        rows = [(Const(i), Const(i % 3)) for i in range(8)]
        db = Database()
        assert db.add_batch(key, rows) == rows
        wire = pickle.loads(pickle.dumps(rows))
        assert db.add_batch(key, wire) == []
        assert db.count(key) == 8
        assert db.add_batch(("flag", None), [(), ()]) == [()]
