"""Join plans vs the reference interpreter, plus term interning.

The plans (:mod:`repro.datalog.plan`) must compute, on every engine and
every program, the model, answers and diagnoses of the reference
interpreter (``tests/reference.py``), whichever executor
:meth:`~repro.datalog.plan.JoinPlan.fire` picks.  These tests pin that on
the paper's running examples (Figure 1 scenarios, the Figure 3 program
and its Figure 4 rewriting) and on the E5 random-net diagnosis suite;
``tests/test_batched_kernel.py`` sweeps the engines on smaller programs.

Interning is load-bearing for the plans (equality is identity-first),
so the same file checks that terms survive pickling -- the dQSQ wire
format -- as the *same* interned objects.
"""

import pickle

import pytest

import repro
from repro.datalog import (Database, Query, SemiNaiveEvaluator, parse_atom,
                           parse_program)
from repro.datalog.database import load_facts, select
from repro.datalog.qsq import qsq_evaluate
from repro.datalog.seminaive import EvaluationBudget
from repro.datalog.term import Const, Func, Var
from repro.diagnosis import DatalogDiagnosisEngine
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.petri.generators import random_safe_net
from repro.workloads.alarmgen import AlarmSequence, simulate_alarms
from tests.reference import (at_each_setting, derive_head, iter_rule_bindings,
                             reference_model, snapshot)

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


class TestBottomUpEquivalence:
    def test_seminaive_figure3_model(self):
        # Derivation counts too: the plans must explore no binding the
        # interpreter does not, not merely reach its fixpoint.  A round-
        # based semi-naive loop over the interpreter (full install firing,
        # then per-relation deltas) counts them independently; the
        # scheduler, whose every firing is a delta firing, stays between
        # one derivation per fact and that.
        program = parse_program(FIGURE3)

        def run():
            db = Database()
            evaluator = SemiNaiveEvaluator(program)
            evaluator.run(db)
            return snapshot(db), evaluator.counters["derivations"]
        model, derivations = at_each_setting(run)
        assert model == snapshot(reference_model(program))
        derived = (sum(len(facts) for facts in model.values())
                   - len(list(program.facts())))
        assert (derived <= derivations
                <= _reference_seminaive_derivations(program))

    def test_seminaive_function_symbols_with_budget(self):
        program = parse_program(FUNC_RULES)
        budget = EvaluationBudget(max_term_depth=6, prune_depth=True)

        def run():
            db = Database()
            SemiNaiveEvaluator(program, budget).run(db)
            return snapshot(db)
        assert (at_each_setting(run)
                == snapshot(reference_model(program, budget=budget)))


def _reference_seminaive_derivations(program) -> int:
    """Bindings a semi-naive run of the reference interpreter derives."""
    db = Database()
    for fact in program.facts():
        db.add_atom(fact.head)
    rules = list(program.proper_rules())
    derivations = 0
    firings = [(rule, None, None) for rule in rules]
    while firings:
        delta = {}
        for rule, position, rows in firings:
            heads = [derive_head(rule, binding) for binding in
                     iter_rule_bindings(rule, db, delta_position=position,
                                        delta_facts=rows)]
            derivations += len(heads)
            for head in heads:
                if db.add_atom(head):
                    delta.setdefault(head.key(), []).append(head.args)
        firings = [(rule, position, rows)
                   for key, rows in delta.items() for rule in rules
                   for position, atom in enumerate(rule.body)
                   if atom.key() == key]
    return derivations


class TestQsqEquivalence:
    def test_figure4_rewriting_answers(self):
        program = parse_program(FIGURE3)
        db = load_facts(program)
        query = Query(parse_atom('r@r("1", Y)'))
        answers = at_each_setting(
            lambda: qsq_evaluate(program, query, db).answers)
        assert answers == select(reference_model(program), query.atom)
        assert len(answers) > 0


class TestDiagnosisEquivalence:
    @pytest.mark.parametrize("scenario", ["bac", "bca", "cba"])
    @pytest.mark.parametrize("mode", ["qsq", "dqsq"])
    def test_figure1_scenarios(self, scenario, mode):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()[scenario])
        oracle = repro.diagnose(petri, alarms, method="dedicated")

        def run():
            result = DatalogDiagnosisEngine(petri, mode=mode).diagnose(alarms)
            return set(result.diagnoses), result.materialized_events
        diagnoses, events = at_each_setting(run)
        assert diagnoses == set(oracle.diagnoses)
        assert events == oracle.materialized_events

    @pytest.mark.parametrize("seed", [0, 3])
    def test_e5_random_nets(self, seed):
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=4, seed=seed)
        oracle = repro.diagnose(petri, alarms, method="dedicated")

        def run():
            result = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(alarms)
            return set(result.diagnoses), result.counters["derivations"]
        diagnoses, _derivations = at_each_setting(run)
        assert diagnoses == set(oracle.diagnoses)


class TestInterningSurvivesTheWire:
    def test_pickle_reinterns_terms(self):
        term = Func("e", (Const("p1"), Func("s", (Const(0), Const("x"))),
                          Const(3)))
        clone = pickle.loads(pickle.dumps(term))
        assert clone is term
        assert pickle.loads(pickle.dumps(Const("a"))) is Const("a")
        assert pickle.loads(pickle.dumps(Var("X"))) is Var("X")

    def test_facts_payload_roundtrip_deduplicates(self):
        # The dQSQ FACTS message carries bare tuples; after a pickle
        # round-trip (the wire format) the receiver's assume_ground
        # add_all must recognize existing facts as duplicates, which
        # requires the unpickled terms to be the same interned objects.
        key = ("cond", "p1")
        tuples = [(Func("c", (Const(i), Const("p1"))), Const(i % 3))
                  for i in range(8)]
        db = Database()
        assert db.add_all(key, tuples, assume_ground=True) == 8
        wire = pickle.loads(pickle.dumps({"relation": "cond", "peer": "p1",
                                          "tuples": tuples}))
        for sent, received in zip(tuples, wire["tuples"]):
            assert all(a is b for a, b in zip(sent, received))
        assert db.add_all(key, wire["tuples"], assume_ground=True) == 0
        assert db.count(key) == 8
