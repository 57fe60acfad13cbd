"""Tests for the unified diagnosis API (repro.diagnose) and mode enums."""

import dataclasses

import pytest

import repro
from repro.api import DiagnosisMethod, DiagnosisOutcome
from repro.diagnosis import AlarmSequence, DatalogDiagnosisEngine, EvaluationMode
from repro.diagnosis.online import OnlineDiagnoser
from repro.diagnosis.patterns import ObservationSpec
from repro.errors import DiagnosisError, EncodingError
from repro.petri.examples import figure1_net
from repro.petri.generators import random_safe_net
from repro.petri.net import PetriNet
from repro.petri.product import Observer
from tests.reference import methods_that_answer

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

    def test_hidden_budget_bounds_events_for_dedicated_too(self):
        """The budget counts events.  `dedicated` used to read it as an
        unfolding depth and returned a fourth explanation here: one with
        three hidden events, each at depth <= 4."""
        petri = random_safe_net(23, branching=0.5)
        alarms = AlarmSequence([("a", "p0"), ("a", "p1")])
        spec = ObservationSpec.from_alarms(
            alarms, petri.net.peers(), hidden=frozenset({"t0_1", "t1_0"}),
            hidden_budget=2)
        answered = methods_that_answer(petri, spec)
        assert set(answered) == {"dqsq", "qsq", "dedicated", "bruteforce"}
        assert len(answered["bruteforce"].diagnoses) == 3

    @pytest.mark.parametrize("method", ["bottomup", "online"])
    def test_hidden_is_refused_not_ignored(self, instance, method):
        petri, alarms = instance
        spec = ObservationSpec.from_alarms(
            alarms, petri.net.peers(), hidden=frozenset({"v"}), hidden_budget=1)
        with pytest.raises(DiagnosisError):
            repro.diagnose(petri, spec, method=method)

    @pytest.mark.parametrize("method", list(DiagnosisMethod))
    def test_unknown_peer_is_one_error_for_every_method(self, instance, method):
        """`b@p1 a@zz` used to be an EncodingError, an UnknownAlarmError
        or "0 diagnoses" depending on the method."""
        petri, _ = instance
        alarms = AlarmSequence([("b", "p1"), ("a", "zz")])
        with pytest.raises(EncodingError, match=r"unknown peers: \['zz'\]"):
            repro.diagnose(petri, alarms, method=method)

    def test_windowed_online_run_sees_the_arrival_order(self):
        """A window forgets by arrival order, so the front door must push
        the caller's sequence, not the spec's chains peer after peer: p1's
        three alarms first would compact the root away before `y` arrives
        and lose the only explanation."""
        places = {"m": "p2", "b0": "p2", "b1": "p2",
                  "a0": "p1", "a1": "p1", "a2": "p1", "a3": "p1"}
        transitions = {"ty": ("y", "p2"), "tx": ("x", "p1"),
                       "tz": ("z", "p1"), "tw": ("w", "p1")}
        edges = [("b0", "ty"), ("ty", "b1"), ("ty", "m"),
                 ("m", "tx"), ("a0", "tx"), ("tx", "a1"),
                 ("a1", "tz"), ("tz", "a2"), ("a2", "tw"), ("tw", "a3")]
        petri = PetriNet.build(places=places, transitions=transitions,
                               edges=edges, marking=["a0", "b0"])
        alarms = AlarmSequence([("y", "p2"), ("x", "p1"), ("z", "p1"), ("w", "p1")])
        pushed = OnlineDiagnoser(petri, window=2)
        pushed.push_all(alarms)
        assert len(pushed.diagnoses()) == 1
        config = repro.RunConfig(window=2)
        spec = ObservationSpec.from_alarms(alarms, petri.net.peers())
        for observation in (alarms, spec):
            result = repro.diagnose(petri, observation, method="online",
                                    config=config)
            assert result.diagnoses == pushed.diagnoses()
            assert result.partial is pushed.window_lossy
        chains = ObservationSpec(observers=spec.observers)  # no arrival order
        assert chains.as_alarms(petri.net) == AlarmSequence(
            [("x", "p1"), ("z", "p1"), ("w", "p1"), ("y", "p2")])

    def test_run_config_fields_are_pinned(self):
        """A new knob is a visible diff here.  What is diagnosed is the
        observation's business (ObservationSpec), not the run's."""
        assert {f.name for f in dataclasses.fields(repro.RunConfig)} == {
            "budget", "options", "transport",
            "use_termination_detector", "window"}


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
