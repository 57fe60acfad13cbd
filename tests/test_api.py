"""Tests for the unified diagnosis API (repro.diagnose) and mode enums."""

import pytest

import repro
from repro.api import DiagnosisMethod, DiagnosisOutcome
from repro.diagnosis import AlarmSequence, DatalogDiagnosisEngine, EvaluationMode
from repro.diagnosis.patterns import ObservationSpec
from repro.errors import DiagnosisError
from repro.petri.examples import figure1_net
from repro.petri.generators import random_safe_net
from repro.petri.product import Observer

METHODS = ["dqsq", "qsq", "bottomup", "dedicated", "bruteforce"]


@pytest.fixture(scope="module")
def instance():
    return figure1_net(), AlarmSequence([("b", "p1"), ("a", "p2"), ("c", "p1")])


class TestFacade:
    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_reachable_and_protocol_compatible(self, instance, method):
        petri, alarms = instance
        result = repro.diagnose(petri, alarms, method=method)
        assert isinstance(result, DiagnosisOutcome)
        assert len(result.diagnoses) == 1
        assert result.counters["diagnoses"] >= 0
        assert isinstance(result.materialized_events, frozenset)
        assert isinstance(result.materialized_conditions, frozenset)
        assert result.partial is False

    @pytest.mark.parametrize("method", METHODS)
    def test_methods_agree_on_the_running_example(self, instance, method):
        petri, alarms = instance
        expected = repro.diagnose(petri, alarms, method="bruteforce").diagnoses
        assert repro.diagnose(petri, alarms, method=method).diagnoses == expected

    def test_enum_members_accepted(self, instance):
        petri, alarms = instance
        result = repro.diagnose(petri, alarms, method=DiagnosisMethod.DEDICATED)
        assert len(result.diagnoses) == 1

    def test_unknown_method_raises(self, instance):
        petri, alarms = instance
        with pytest.raises(DiagnosisError, match="unknown diagnosis method"):
            repro.diagnose(petri, alarms, method="magic")

    def test_network_options_reach_the_dqsq_path(self, instance):
        petri, alarms = instance
        options = repro.NetworkOptions(
            seed=3, fault=repro.FaultPlan(drop_probability=0.2))
        result = repro.diagnose(petri, alarms, method="dqsq",
                                config=repro.RunConfig(options=options))
        expected = repro.diagnose(petri, alarms, method="dqsq").diagnoses
        assert result.diagnoses == expected
        assert result.counters["net.dropped"] > 0

    def test_hidden_knobs_reach_the_unfolding_paths(self, instance):
        petri, _ = instance
        alarms = AlarmSequence([("b", "p1"), ("c", "p1")])
        brute = repro.diagnose(
            petri, alarms, method="bruteforce",
            config=repro.RunConfig(hidden=frozenset({"v"}), hidden_budget=1))
        assert len(brute.diagnoses) == 2

    @pytest.mark.parametrize("method", ["dqsq", "qsq", "dedicated"])
    def test_hidden_knobs_ask_every_solver_the_same_question(self, instance,
                                                              method):
        petri, _ = instance
        alarms = AlarmSequence([("b", "p1"), ("c", "p1")])
        config = repro.RunConfig(hidden=frozenset({"v"}), hidden_budget=1)
        expected = repro.diagnose(petri, alarms, method="bruteforce",
                                  config=config).diagnoses
        got = repro.diagnose(petri, alarms, method=method, config=config)
        assert got.diagnoses == expected

    def test_hidden_budget_bounds_events_for_dedicated_too(self):
        """The budget counts events.  `dedicated` used to read it as an
        unfolding depth and returned a fourth explanation here: one with
        three hidden events, each at depth <= 4."""
        petri = random_safe_net(23, branching=0.5)
        alarms = AlarmSequence([("a", "p0"), ("a", "p1")])
        config = repro.RunConfig(hidden=frozenset({"t0_1", "t1_0"}),
                                 hidden_budget=2)
        brute = repro.diagnose(petri, alarms, method="bruteforce",
                               config=config).diagnoses
        assert len(brute) == 3
        for method in ("dedicated", "qsq"):
            assert repro.diagnose(petri, alarms, method=method,
                                  config=config).diagnoses == brute

    @pytest.mark.parametrize("method", ["bottomup", "online"])
    def test_hidden_is_refused_not_ignored(self, instance, method):
        petri, alarms = instance
        config = repro.RunConfig(hidden=frozenset({"v"}), hidden_budget=1)
        with pytest.raises(DiagnosisError):
            repro.diagnose(petri, alarms, method=method, config=config)

    def test_observation_spec_with_hidden_config_is_ambiguous(self, instance):
        petri, _ = instance
        spec = ObservationSpec(observers={"p1": Observer.chain("p1", ["b"])})
        with pytest.raises(DiagnosisError, match="ObservationSpec"):
            repro.diagnose(petri, spec, config=repro.RunConfig(
                hidden=frozenset({"v"})))


class TestEvaluationMode:
    def test_strings_still_accepted(self):
        petri = figure1_net()
        engine = DatalogDiagnosisEngine(petri, mode="qsq")
        assert engine.mode is EvaluationMode.QSQ
        assert engine.mode == "qsq"

    def test_enum_accepted(self):
        petri = figure1_net()
        engine = DatalogDiagnosisEngine(petri, mode=EvaluationMode.BOTTOMUP)
        assert engine.mode is EvaluationMode.BOTTOMUP

    def test_unknown_mode_still_raises_diagnosis_error(self):
        petri = figure1_net()
        with pytest.raises(DiagnosisError, match="unknown mode"):
            DatalogDiagnosisEngine(petri, mode="zigzag")

    def test_extended_engine_rejects_bottomup(self):
        petri = figure1_net()
        observers = {"p1": Observer.chain("p1", ["b"])}
        spec = ObservationSpec(observers=observers, hidden=frozenset(),
                               max_events=4)
        with pytest.raises(DiagnosisError):
            DatalogDiagnosisEngine(petri, mode="bottomup").diagnose(spec)
        with pytest.raises(DiagnosisError):
            repro.diagnose(petri, spec, method="bottomup")
        with pytest.raises(DiagnosisError):
            DatalogDiagnosisEngine(petri, mode="zigzag")
