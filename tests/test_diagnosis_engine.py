"""End-to-end tests for the Datalog diagnosis engine.

Covers Theorem 3 (the computed configuration set is exactly the
diagnosis set), Proposition 1 (dQSQ terminates on the diagnosis query,
despite the function symbols and cyclic nets), Theorem 4 (the
materialized unfolding prefix equals the dedicated algorithm's), and
the supervisor's ``cut`` parent check against the paper's ``notParent``.
"""

import pytest

from repro.diagnosis import (AlarmSequence, DatalogDiagnosisEngine,
                             DedicatedDiagnoser, bruteforce_diagnosis)
from repro.diagnosis.encoding import UnfoldingEncoder
from repro.diagnosis.patterns import ObservationSpec
from repro.diagnosis.supervisor import SupervisorEncoder, h_root
from repro.datalog.seminaive import EvaluationBudget
from repro.errors import DiagnosisError, EncodingError
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.petri.generators import random_safe_net
from repro.petri.product import Observer, ObserverEdge
from repro.workloads.alarmgen import simulate_alarms
from tests.reference import PaperSupervisorEncoder, paper_supervisor


def scenario(name):
    return AlarmSequence(figure1_alarm_scenarios()[name])


class TestSupervisorEncoder:
    def test_supervisor_name_collision_rejected(self):
        petri = figure1_net()
        with pytest.raises(EncodingError):
            SupervisorEncoder(petri, scenario("bac"), supervisor="p1")

    def test_unknown_peer_rejected(self):
        petri = figure1_net()
        with pytest.raises(EncodingError):
            SupervisorEncoder(petri, AlarmSequence([("a", "zz")]))

    def test_alarm_facts_encode_subsequences(self):
        petri = figure1_net()
        encoder = SupervisorEncoder(petri, scenario("bac"))
        facts = encoder.alarm_facts()
        assert len(facts) == 3  # b, c at p1; a at p2

    def test_supervisor_rules_live_at_supervisor(self):
        petri = figure1_net()
        encoder = SupervisorEncoder(petri, scenario("bac"))
        for rule in encoder.rules():
            assert rule.head.peer == encoder.supervisor

    def test_silent_peer_has_no_index_dimension(self):
        """A peer that sent nothing gets no dimension and no extension
        rule, whether it is absent from the sequence or given as an
        empty chain: configPrefixes keeps the Section-4.2 arity."""
        petri = figure1_net()
        alarms = AlarmSequence([("b", "p1"), ("c", "p1")])
        spec = ObservationSpec(observers={
            "p1": Observer.chain("p1", ["b", "c"]),
            "p2": Observer.chain("p2", [])}, max_events=2)
        for observation in (alarms, spec):
            encoder = SupervisorEncoder(petri, observation)
            assert encoder.peers == ("p1",)
            assert not encoder.needs_gas
            heads = [rule.head for rule in encoder.config_prefix_rules()]
            assert heads and all(len(head.args) == 4 for head in heads)

    @pytest.mark.parametrize("observers, expected", [
        # an edgeless observer that does not accept: nothing is explained
        ({"p1": Observer.chain("p1", ["b"]),
          "p2": Observer("p2", ("q0", "q1"), "q0", frozenset({"q1"}), ())}, 0),
        # no accepting state at all
        ({"p1": Observer("p1", ("q0", "q1"), "q0", frozenset(),
                         (ObserverEdge("q0", "b", "q1"),)),
          "p2": Observer.chain("p2", [])}, 0),
        # every peer silent: only the empty configuration
        ({"p1": Observer.chain("p1", []), "p2": Observer.chain("p2", [])}, 1),
        # nobody watched: every run of at most max_events events
        ({}, 7),
    ])
    def test_degenerate_observations(self, observers, expected):
        petri = figure1_net()
        spec = ObservationSpec(observers=observers, max_events=2)
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(spec)
        assert got.diagnoses == bruteforce_diagnosis(petri, spec).diagnoses
        assert got.diagnoses == DedicatedDiagnoser(petri).diagnose(spec).diagnoses
        assert len(got.diagnoses) == expected


class TestTheorem3RunningExample:
    @pytest.mark.parametrize("mode", ["qsq", "dqsq"])
    def test_positive_scenarios(self, mode):
        petri = figure1_net()
        for name in ("bac", "bca"):
            alarms = scenario(name)
            expected = bruteforce_diagnosis(petri, alarms).diagnoses
            got = DatalogDiagnosisEngine(petri, mode=mode).diagnose(alarms)
            assert got.diagnoses == expected, name
            assert len(got.diagnoses) == 1

    @pytest.mark.parametrize("mode", ["qsq", "dqsq"])
    def test_inexplicable_scenario(self, mode):
        petri = figure1_net()
        got = DatalogDiagnosisEngine(petri, mode=mode).diagnose(scenario("cba"))
        assert got.diagnoses == frozenset()

    def test_equivalent_interleavings_same_diagnosis(self):
        petri = figure1_net()
        engine = DatalogDiagnosisEngine(petri, mode="qsq")
        assert (engine.diagnose(scenario("bac")).diagnoses
                == engine.diagnose(scenario("bca")).diagnoses)

    def test_bottom_up_mode_agrees_on_acyclic_net(self):
        petri = figure1_net()
        alarms = scenario("bac")
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = DatalogDiagnosisEngine(petri, mode="bottomup").diagnose(alarms)
        assert got.diagnoses == expected

    def test_unknown_mode_rejected(self):
        with pytest.raises(DiagnosisError):
            DatalogDiagnosisEngine(figure1_net(), mode="magic")


class TestTheorem3RandomNets:
    @pytest.mark.parametrize("seed", range(6))
    def test_qsq_matches_bruteforce(self, seed):
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=4, seed=seed)
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(alarms)
        assert got.diagnoses == expected
        assert len(got.diagnoses) >= 1

    @pytest.mark.parametrize("seed", range(3))
    def test_dqsq_matches_bruteforce(self, seed):
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=4, seed=seed)
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = DatalogDiagnosisEngine(petri, mode="dqsq").diagnose(alarms)
        assert got.diagnoses == expected


class TestProposition1:
    """dQSQ terminates on the diagnosis query even on cyclic nets, whose
    unfoldings (and hence bottom-up fixpoints) are infinite."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_terminates_on_cyclic_net(self, seed):
        petri = random_safe_net(seed)  # telecom nets are cyclic
        alarms = simulate_alarms(petri, steps=3, seed=seed)
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(alarms)
        assert got.counters["diagnoses"] == len(got.diagnoses)

    def test_bottom_up_diverges_on_cyclic_net(self):
        from repro.errors import BudgetExceeded
        petri = random_safe_net(0)
        alarms = simulate_alarms(petri, steps=3, seed=0)
        engine = DatalogDiagnosisEngine(
            petri, mode="bottomup",
            budget=EvaluationBudget(max_facts=30_000, max_iterations=100))
        with pytest.raises(BudgetExceeded):
            engine.diagnose(alarms)


class TestTheorem4:
    """dQSQ materializes exactly the prefix the dedicated algorithm does."""

    @pytest.mark.parametrize("name", ["bac", "bca", "cba"])
    def test_running_example_parity(self, name):
        petri = figure1_net()
        alarms = scenario(name)
        dedicated = DedicatedDiagnoser(petri).diagnose(alarms)
        for mode in ("qsq", "dqsq"):
            got = DatalogDiagnosisEngine(petri, mode=mode).diagnose(alarms)
            assert got.materialized_events == dedicated.projected_events, (name, mode)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_net_parity(self, seed):
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=4, seed=seed)
        dedicated = DedicatedDiagnoser(petri).diagnose(alarms)
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(alarms)
        assert got.materialized_events == dedicated.projected_events

    def test_reduction_vs_full_unfolding(self):
        # The optimized engines must not build the whole (depth-bounded)
        # unfolding: transition ii of the running example is irrelevant
        # to (b,p1),(a,p2),(c,p1) and never materialized.
        petri = figure1_net()
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(scenario("bac"))
        assert not any("f(ii," in event for event in got.materialized_events)
        bottomup = DatalogDiagnosisEngine(petri, mode="bottomup").diagnose(scenario("bac"))
        assert any("f(ii," in event for event in bottomup.materialized_events)
        assert len(got.materialized_events) < len(bottomup.materialized_events)


class TestEmptySequence:
    def test_empty_alarm_sequence(self):
        petri = figure1_net()
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(AlarmSequence([]))
        # The empty configuration is the unique explanation.
        assert got.diagnoses == frozenset({frozenset()})


class TestCutAgainstThePaper:
    """The shipped supervisor checks a parent with ``cut(z, g(u, c))``;
    Section 4.2 checks ``transInConf(z, u)`` and ``notParent(z, g(u, c))``.
    In a safe net both mean "produced in z and consumed by none of its
    events", so the two programs explain the same alarms with the same
    events."""

    def test_the_programs_differ_in_the_parent_check_only(self):
        petri = figure1_net()
        net = petri.net
        arities = {len(net.parents(transition))
                   for transition in net.transitions}
        # Figure 1, and Section 4.4: v fires unreported, so configurations
        # carry gas
        hidden = ObservationSpec(
            observers={"p1": Observer.chain("p1", ["b", "c"]),
                       "p2": Observer.chain("p2", [])},
            hidden=frozenset({"v"}), max_events=4)
        for observation in (scenario("bac"), hidden):
            encoder = SupervisorEncoder(petri, observation)
            shipped = {rule.head.relation for rule in encoder.rules()}
            paper = {rule.head.relation for rule in
                     PaperSupervisorEncoder(petri, observation).rules()}
            assert shipped - paper == {"cut"}
            assert paper - shipped == {"notParent"}
            # cut(z.y) = cut(z) - parents(y) + children(y): a keep rule per
            # event arity, which reads y's parents off its Skolem id, and
            # an add rule per place-home peer; h(r) is the seed's
            # extension by the root r, not a case of its own
            cut = encoder.cut_rules()
            assert len(cut) == (len(arities)
                                + len(UnfoldingEncoder(petri).place_home_peers()))
            assert not [atom for rule in cut for atom in rule.body
                        if atom.relation in ("trans1", "trans2")]
            assert h_root() not in {rule.head.args[0] for rule in cut}

    @pytest.mark.parametrize("seed", [None, 0, 3, 8, 13], ids=lambda seed:
                             "figure1-bac" if seed is None else f"random{seed}")
    @pytest.mark.parametrize("mode", ["qsq", "dqsq"])
    def test_same_diagnoses_and_events(self, seed, mode):
        if seed is None:
            petri, alarms = figure1_net(), scenario("bac")
        else:
            petri = random_safe_net(seed, branching=0.4)
            alarms = simulate_alarms(petri, steps=4, seed=seed)
        dedicated = DedicatedDiagnoser(petri).diagnose(alarms)
        cut = DatalogDiagnosisEngine(petri, mode=mode).diagnose(alarms)
        with paper_supervisor():
            paper = DatalogDiagnosisEngine(petri, mode=mode).diagnose(alarms)
        assert cut.diagnoses == paper.diagnoses == dedicated.diagnoses
        assert cut.materialized_events == paper.materialized_events
        assert cut.materialized_conditions <= dedicated.projected_conditions
        assert paper.materialized_conditions <= dedicated.projected_conditions
