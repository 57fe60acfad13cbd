"""The prepared diagnosis table of :mod:`repro.diagnosis.engine`.

A ``qsq`` diagnosis encodes, checks, rewrites and compiles its plans
once per (net, observation, depth bound); a ``dqsq`` diagnosis encodes
and checks once, and its peers reuse their rewritings of the encoded
program.  These tests pin what makes that safe:

* **hit equivalence** -- a call that reuses an entry answers exactly what
  a call after :func:`~repro.datalog.plan.clear_plan_cache` answers, with
  every counter equal except the plan-cache lookups, and compiles no
  plan;
* **key** -- an equal observation hits even as a fresh object; another
  observation, supervisor, depth bound or mode gets its own entry;
  ``bottomup`` keeps none;
* **lifetime** -- the table empties with the plan cache, and an entry
  dies with its net.
"""

import gc
import weakref

import pytest

from repro.datalog.plan import clear_plan_cache, plan_cache_size
from repro.datalog.seminaive import EvaluationBudget
from repro.diagnosis import AlarmSequence, DatalogDiagnosisEngine
from repro.diagnosis import engine as engine_module
from repro.diagnosis.patterns import AlarmPattern, ObservationSpec
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
    def test_hit_answers_what_a_cold_call_does(self, case):
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
        hit = engine.diagnose(observation)
        assert list(engine_module._PREPARED[petri].values()) == [entry]
        assert observed(hit) == observed(cold)
        assert cold.counters["plan.cache_misses"] > 0
        assert plan_cache_size() == compiled
        if self.mode == "qsq":
            # the entry holds the id-keyed plans too; a dqsq peer's plan
            # map is its own, so its misses hit the shared cache
            assert hit.counters["plan.cache_misses"] == 0


class TestDqsqHitEquivalence(TestHitEquivalence):
    mode = "dqsq"


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
                 bac()),
                (DatalogDiagnosisEngine(
                    petri, mode="qsq",
                    budget=EvaluationBudget(max_term_depth=50)), bac())):
            engine.diagnose(alarms)
        assert entries(petri) == 4

    def test_each_mode_gets_its_own_entry(self):
        petri = figure1_net()
        clear_plan_cache()
        for mode in ("qsq", "dqsq", "qsq", "dqsq"):
            DatalogDiagnosisEngine(petri, mode=mode).diagnose(bac())
        assert sorted(key[0] for key in engine_module._PREPARED[petri]) \
            == ["dqsq", "qsq"]

    @pytest.mark.parametrize("mode", ["bottomup"])
    def test_other_modes_keep_no_entry(self, mode):
        petri = figure1_net()
        clear_plan_cache()
        DatalogDiagnosisEngine(petri, mode=mode).diagnose(bac())
        assert entries(petri) == 0


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
