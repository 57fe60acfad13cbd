"""The prepared diagnosis table of :mod:`repro.diagnosis.engine`.

A diagnosis encodes and checks its program once per (mode, net,
observation) -- ``qsq`` then places it at the supervisor,
``bottomup`` takes its local version -- and dQSQ peers reuse their
rewritings of that program object.  These tests pin what makes that
safe:

* **hit equivalence** -- a call that reuses an entry answers exactly what
  a call after :func:`~repro.datalog.plan.clear_plan_cache` answers, with
  every counter equal except the plan-table lookups, runs the entry's
  program object, and compiles no plan;
* **key** -- an equal observation hits even as a fresh object; another
  observation, supervisor or mode gets its own entry, and the budget
  shares it;
* **lifetime** -- the table empties with the plan cache, and an entry
  dies with its net.
"""

import gc
import weakref

import pytest

from repro.datalog.plan import clear_plan_cache, plan_cache_size
from repro.datalog.rule import Program
from repro.datalog.seminaive import EvaluationBudget
from repro.diagnosis import AlarmSequence, DatalogDiagnosisEngine
from repro.diagnosis import engine as engine_module
from repro.diagnosis.patterns import AlarmPattern, ObservationSpec
from repro.distributed import dqsq as dqsq_module
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.petri.generators import TelecomSpec, telecom_net
from repro.workloads.alarmgen import simulate_alarms

#: counters that tell a hit from a miss, and nothing else
PLAN_LOOKUPS = {"plan.cache_hits", "plan.cache_misses", "plan.promotions"}


def bac():
    return AlarmSequence(figure1_alarm_scenarios()["bac"])


def star_spec():
    return ObservationSpec.from_patterns({
        "p1": AlarmPattern.symbol("b").then(AlarmPattern.symbol("c").star()),
        "p2": AlarmPattern.epsilon().alt(AlarmPattern.symbol("a")),
    }, max_events=4)


def pool_alarms():
    """A net and sequence of the shape the end-to-end benchmark draws."""
    petri = telecom_net(TelecomSpec(peers=2, ring_length=3, branching=0.3,
                                    topology="chain", seed=3))
    return petri, simulate_alarms(petri, steps=5, seed=9)


def entries(petri) -> int:
    return len(engine_module._PREPARED.get(petri, {}))


def observed(result) -> tuple:
    counters = {name: value for name, value in result.counters.as_dict().items()
                if name not in PLAN_LOOKUPS}
    return (result.answers, result.diagnoses, result.materialized_events,
            result.materialized_conditions, counters)


class TestHitEquivalence:
    mode = "qsq"

    @pytest.mark.parametrize("case", ["figure1", "pattern", "pool"])
    def test_hit_answers_what_a_cold_call_does(self, case, monkeypatch):
        if case == "pool":
            petri, observation = pool_alarms()
        else:
            petri = figure1_net()
            observation = bac() if case == "figure1" else star_spec()
        engine = DatalogDiagnosisEngine(petri, mode=self.mode)
        clear_plan_cache()
        cold = engine.diagnose(observation)
        (entry,) = engine_module._PREPARED[petri].values()
        compiled = plan_cache_size()
        # the program objects whose rewriting tables the hit's peers use
        keyed = []
        rewritings = dqsq_module._rewritings
        monkeypatch.setattr(dqsq_module, "_rewritings",
                            lambda program: keyed.append(program)
                            or rewritings(program))
        hit = engine.diagnose(observation)
        assert list(engine_module._PREPARED[petri].values()) == [entry]
        assert observed(hit) == observed(cold)
        assert cold.counters["plan.cache_misses"] > 0
        # the entry keeps its rules, and so their plans, alive
        assert hit.counters["plan.cache_misses"] == 0
        assert plan_cache_size() == compiled
        # a fresh placement per call would be a fresh key: rewrite again
        assert len(keyed) == 1 and keyed[0] is entry.program
        if self.mode == "qsq":
            # P_local at one peer: nothing crosses a channel
            assert hit.counters["messages_sent"] == 0


class TestDqsqHitEquivalence(TestHitEquivalence):
    mode = "dqsq"


class TestBottomupHitEquivalence:
    """``bottomup`` runs the entry's local program in place: a hit skips
    encode and check, and its rules' plans are still there."""

    @pytest.mark.parametrize("bounded", [False, True])
    def test_hit_answers_what_a_cold_call_does(self, bounded):
        petri = figure1_net()
        budget = (EvaluationBudget(max_term_depth=8, prune_depth=True)
                  if bounded else None)
        engine = DatalogDiagnosisEngine(petri, mode="bottomup", budget=budget)
        clear_plan_cache()
        cold = engine.diagnose(bac())
        (entry,) = engine_module._PREPARED[petri].values()
        compiled = plan_cache_size()
        hit = engine.diagnose(bac())
        assert list(engine_module._PREPARED[petri].values()) == [entry]
        assert observed(hit) == observed(cold)
        assert cold.counters["plan.cache_misses"] > 0
        assert hit.counters["plan.cache_misses"] == 0
        assert plan_cache_size() == compiled


class TestKey:
    def test_an_equal_observation_hits(self):
        petri = figure1_net()
        clear_plan_cache()
        DatalogDiagnosisEngine(petri, mode="qsq").diagnose(bac())
        DatalogDiagnosisEngine(petri, mode="qsq").diagnose(bac())
        DatalogDiagnosisEngine(petri, mode="qsq").diagnose(star_spec())
        DatalogDiagnosisEngine(petri, mode="qsq").diagnose(star_spec())
        assert entries(petri) == 2

    def test_what_changes_the_program_gets_its_own_entry(self):
        petri = figure1_net()
        clear_plan_cache()
        for engine, alarms in (
                (DatalogDiagnosisEngine(petri, mode="qsq"), bac()),
                (DatalogDiagnosisEngine(petri, mode="qsq"),
                 AlarmSequence([("b", "p1")])),
                (DatalogDiagnosisEngine(petri, mode="qsq", supervisor="sup"),
                 bac())):
            engine.diagnose(alarms)
        assert entries(petri) == 3

    def test_a_depth_bound_shares_the_entry(self):
        # the budget changes neither the program nor the check's verdict
        petri = figure1_net()
        clear_plan_cache()
        DatalogDiagnosisEngine(petri, mode="qsq").diagnose(bac())
        DatalogDiagnosisEngine(
            petri, mode="qsq",
            budget=EvaluationBudget(max_term_depth=50)).diagnose(bac())
        assert entries(petri) == 1

    def test_each_mode_gets_its_own_entry(self):
        petri = figure1_net()
        clear_plan_cache()
        for mode in ("qsq", "dqsq", "bottomup", "qsq", "dqsq", "bottomup"):
            DatalogDiagnosisEngine(petri, mode=mode).diagnose(bac())
        assert sorted(key[0] for key in engine_module._PREPARED[petri]) \
            == ["bottomup", "dqsq", "qsq"]

    def test_bottomup_keeps_its_local_program(self):
        petri = figure1_net()
        clear_plan_cache()
        DatalogDiagnosisEngine(petri, mode="bottomup").diagnose(bac())
        DatalogDiagnosisEngine(petri, mode="bottomup").diagnose(bac())
        [entry] = engine_module._PREPARED[petri].values()
        assert isinstance(entry.program, Program)


class TestLifetime:
    def test_table_empties_with_the_plan_cache(self):
        petri = figure1_net()
        DatalogDiagnosisEngine(petri, mode="qsq").diagnose(bac())
        assert entries(petri) == 1
        clear_plan_cache()
        assert len(engine_module._PREPARED) == 0

    def test_entry_dies_with_its_net(self):
        clear_plan_cache()
        petri = figure1_net()
        DatalogDiagnosisEngine(petri, mode="qsq").diagnose(bac())
        assert len(engine_module._PREPARED) == 1
        net = weakref.ref(petri)
        del petri
        gc.collect()
        assert net() is None
        assert len(engine_module._PREPARED) == 0
