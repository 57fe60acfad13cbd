"""Tests for the Section-4.4 extensions."""

import pytest

import repro
from repro.api import DiagnosisOutcome
from repro.diagnosis import (AlarmSequence, DedicatedDiagnoser,
                             bruteforce_diagnosis)
from repro.diagnosis.patterns import (AlarmPattern, ObservationSpec,
                                      totalize_and_complement)
from repro.diagnosis.supervisor import SupervisorEncoder
from repro.errors import DiagnosisError, EncodingError
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.petri.product import Observer
from repro.workloads import get_scenario
from repro.workloads.alarmgen import simulate_alarms
from tests.reference import methods_that_answer


def sym(s):
    return AlarmPattern.symbol(s)


class TestAlarmPattern:
    def test_symbol(self):
        assert sym("a").matches(["a"])
        assert not sym("a").matches(["b"])
        assert not sym("a").matches([])

    def test_concat_star(self):
        # The paper's example shape: alpha.beta*.alpha
        pattern = sym("a").then(sym("b").star()).then(sym("a"))
        assert pattern.matches(["a", "a"])
        assert pattern.matches(["a", "b", "a"])
        assert pattern.matches(["a", "b", "b", "b", "a"])
        assert not pattern.matches(["a", "b"])
        assert not pattern.matches(["b", "a"])

    def test_alt(self):
        pattern = sym("a").alt(sym("b"))
        assert pattern.matches(["a"]) and pattern.matches(["b"])
        assert not pattern.matches(["a", "b"])

    def test_plus(self):
        pattern = sym("a").plus()
        assert pattern.matches(["a"]) and pattern.matches(["a", "a"])
        assert not pattern.matches([])

    def test_epsilon(self):
        assert AlarmPattern.epsilon().matches([])
        assert not AlarmPattern.epsilon().matches(["a"])

    def test_sequence(self):
        pattern = AlarmPattern.sequence(["x", "y"])
        assert pattern.matches(["x", "y"])
        assert not pattern.matches(["y", "x"])

    def test_to_observer(self):
        observer = sym("a").then(sym("b")).to_observer("p")
        observer.validate()
        assert observer.peer == "p"
        assert len(observer.accepting) >= 1


class TestComplement:
    def test_complement_swaps_membership(self):
        pattern = sym("c").then(sym("b").alt(sym("c")).star())
        observer = totalize_and_complement(pattern.to_observer("p"), ("b", "c"))
        # Words starting with c are rejected by the complement.
        def accepts(word):
            state = observer.initial
            delta = {(e.source, e.alarm): e.target for e in observer.edges}
            for symbol in word:
                state = delta[(state, symbol)]
            return state in observer.accepting
        assert not accepts(["c"])
        assert not accepts(["c", "b"])
        assert accepts(["b"])
        assert accepts([])
        assert accepts(["b", "c"])


def chain_spec(max_events=3, hidden=frozenset()):
    return ObservationSpec(observers={
        "p1": Observer.chain("p1", ["b", "c"]),
        "p2": Observer.chain("p2", ["a"]),
    }, hidden=hidden, max_events=max_events)


class TestGeneralizedEncoder:
    def test_collision_rejected(self):
        with pytest.raises(EncodingError):
            SupervisorEncoder(figure1_net(), chain_spec(), supervisor="p1")

    def test_unknown_observer_peer_rejected(self):
        spec = ObservationSpec(observers={"zz": Observer.chain("zz", [])})
        with pytest.raises(EncodingError):
            SupervisorEncoder(figure1_net(), spec)

    def test_program_builds(self):
        encoder = SupervisorEncoder(figure1_net(), chain_spec())
        program = encoder.program()
        assert len(program) > 50

    @pytest.mark.parametrize("instance", ["figure1", "telecom-small"])
    def test_chain_observation_is_the_section_4_2_program(self, instance):
        """An alarm sequence and its chain ObservationSpec encode to the
        same rules: no gas dimension, no accepting atoms, no hiddenNet."""
        if instance == "figure1":
            petri = figure1_net()
            alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        else:
            petri, alarms = get_scenario(instance).instantiate()
        spec = ObservationSpec(
            observers={peer: Observer.chain(peer, alarms.project(peer))
                       for peer in petri.net.peers()},
            max_events=len(alarms))
        basic = SupervisorEncoder(petri, alarms).program()
        assert set(SupervisorEncoder(petri, spec).program()) == set(basic)
        if instance == "figure1":
            assert len(basic) == 176

    def test_gas_and_hidden_rules_appear_only_when_needed(self):
        def relations(spec):
            return {rule.head.relation
                    for rule in SupervisorEncoder(figure1_net(), spec).program()}
        extras = {"gasStep", "hiddenNet1", "hiddenNet2"}
        assert not relations(chain_spec()) & extras
        # fewer events allowed than the chains are long: gas, nothing hidden
        assert relations(chain_spec(max_events=2)) & extras == {"gasStep"}
        assert (relations(chain_spec(max_events=4, hidden=frozenset({"v"})))
                & extras == {"gasStep", "hiddenNet1"})


class TestEventBound:
    """`max_events` used to default to 6 and truncate in silence."""

    def test_chains_longer_than_the_old_default_bound_themselves(self):
        petri, _alarms = get_scenario("telecom-medium").instantiate()
        alarms = simulate_alarms(petri, steps=8, seed=12)
        spec = ObservationSpec(
            observers={peer: Observer.chain(peer, alarms.project(peer))
                       for peer in petri.net.peers()})
        assert spec.event_bound(petri.net) == (8, False)
        # the Datalog methods evaluate the alarm sequence's own program
        # (16 diagnoses; with a gas ladder of 6 it was 0, partial=False)
        assert (set(SupervisorEncoder(petri, spec).program())
                == set(SupervisorEncoder(petri, alarms).program()))
        for method in ("dedicated", "bruteforce"):
            got = repro.diagnose(petri, spec, method=method)
            assert got.diagnoses == repro.diagnose(
                petri, alarms, method=method).diagnoses
            assert len(got.diagnoses) == 16

    @pytest.mark.parametrize("spec, why", [
        (ObservationSpec.from_patterns({
            "p1": sym("b").then(sym("c").star()),
            "p2": AlarmPattern.epsilon()}), "an observer has a cycle"),
        (ObservationSpec(observers={"p1": Observer.chain("p1", ["b"])}),
         r"peers \['p2'\] are unobserved"),
        (ObservationSpec(observers={"p1": Observer.chain("p1", ["b"]),
                                    "p2": Observer.chain("p2", [])},
                         hidden=frozenset({"v"})),
         r"transitions \['v'\] are hidden"),
    ], ids=["cycle", "unobserved", "hidden"])
    def test_a_missing_bound_is_an_error_that_says_why(self, spec, why):
        for method in repro.DiagnosisMethod:
            with pytest.raises(DiagnosisError, match=why):
                repro.diagnose(figure1_net(), spec, method=method)

    def test_a_tighter_bound_than_the_chains_is_enforced(self):
        assert chain_spec(max_events=2).event_bound(figure1_net().net) == (2, True)
        assert chain_spec(max_events=9).event_bound(figure1_net().net) == (3, False)


class TestChainEquivalence:
    """Chain observers reproduce the basic problem exactly."""

    @pytest.mark.parametrize("mode", ["qsq", "dqsq"])
    def test_matches_basic_diagnosis(self, mode):
        petri = figure1_net()
        alarms = AlarmSequence([("b", "p1"), ("a", "p2"), ("c", "p1")])
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = repro.diagnose(petri, chain_spec(), method=mode)
        assert got.diagnoses == expected

    def test_dedicated_reference_agrees(self):
        petri = figure1_net()
        alarms = AlarmSequence([("b", "p1"), ("a", "p2"), ("c", "p1")])
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = DedicatedDiagnoser(petri).diagnose(chain_spec())
        assert got.diagnoses == expected


def agree_with_reference(petri, spec):
    """The four methods that answer a Section-4.4 observation, through
    the public API, against brute force; returns the agreed diagnosis
    set."""
    answered = methods_that_answer(petri, spec)
    assert set(answered) == {"dqsq", "qsq", "dedicated", "bruteforce"}
    for outcome in answered.values():
        assert isinstance(outcome, DiagnosisOutcome)
    return answered["bruteforce"].diagnoses


class TestHiddenTransitions:
    def test_hidden_v_yields_optional_event(self):
        # Hiding v (alarm a at p2): observing b, c at p1 has two
        # explanations -- with and without the concurrent hidden v.
        petri = figure1_net()
        spec = ObservationSpec(observers={
            "p1": Observer.chain("p1", ["b", "c"]),
            "p2": Observer.chain("p2", []),
        }, hidden=frozenset({"v"}), max_events=4)
        assert len(agree_with_reference(petri, spec)) == 2

    def test_hidden_event_can_be_required(self):
        # Hide i (alarm b); then observing just c at p1 can be explained
        # by ii alone, or by hidden-i followed by iii.
        petri = figure1_net()
        spec = ObservationSpec(observers={
            "p1": Observer.chain("p1", ["c"]),
            "p2": Observer.chain("p2", []),
        }, hidden=frozenset({"i"}), max_events=3)
        assert len(agree_with_reference(petri, spec)) == 2


def star_spec(max_events=4):
    return ObservationSpec.from_patterns({
        "p1": sym("b").then(sym("c").star()),
        "p2": AlarmPattern.epsilon().alt(sym("a")),
    }, max_events=max_events)


class TestPatterns:
    @pytest.mark.parametrize("mode", ["qsq", "dqsq"])
    def test_star_pattern(self, mode):
        petri = figure1_net()
        got = repro.diagnose(petri, star_spec(), method=mode)
        assert isinstance(got, DiagnosisOutcome)
        assert got.diagnoses == bruteforce_diagnosis(petri, star_spec()).diagnoses
        assert len(got.diagnoses) == 4

    def test_blocked_pattern(self):
        # Configurations whose p1-word does NOT start with c.
        petri = figure1_net()
        bad = sym("c").then(sym("b").alt(sym("c")).star())
        observer = totalize_and_complement(bad.to_observer("p1"), ("b", "c"))
        spec = ObservationSpec(observers={
            "p1": observer,
            "p2": Observer.chain("p2", []),
        }, max_events=2)
        # The empty config, {i}, and {i, iii} -- but nothing containing ii.
        for diagnosis in agree_with_reference(petri, spec):
            assert not any("f(ii," in event for event in diagnosis)

    def test_gas_bounds_search(self):
        # With pattern c* at p1 on a cyclic-free net the gas bound caps
        # the configuration size.
        petri = figure1_net()
        spec = ObservationSpec.from_patterns({
            "p1": sym("b").then(sym("c").star()),
            "p2": AlarmPattern.epsilon(),
        }, max_events=1)
        got = repro.diagnose(petri, spec, method="qsq")
        for diagnosis in got.diagnoses:
            assert len(diagnosis) <= 1

    def test_every_method_answers_a_pattern_or_refuses_it(self):
        """The oracles used to refuse any ObservationSpec at the door.
        Now a method refuses by what the spec says: `bottomup` because a
        starred pattern does not bound its explanations, `online` because
        it is not an alarm chain."""
        assert len(agree_with_reference(figure1_net(), star_spec())) == 4
        for method in ("bottomup", "online"):
            with pytest.raises(DiagnosisError, match=method):
                repro.diagnose(figure1_net(), star_spec(), method=method)
