"""Property-based tests: diagnosis invariants across solvers.

The central properties:

* *soundness/completeness* -- every method of ``repro.diagnose`` that
  answers a randomized observation (an alarm sequence, or a Section-4.4
  shape of it) answers what brute force does; the others refuse;
* *completeness for the true run* -- diagnosing the alarms of a
  simulated run always recovers (at least) that run;
* *asynchrony invariance* -- sequences with equal per-peer projections
  have equal diagnoses (only per-peer order is meaningful);
* *certification* -- every reported configuration satisfies the
  declarative `explains` predicate.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.diagnosis import (AlarmPattern, DatalogDiagnosisEngine,
                             DedicatedDiagnoser, ObservationSpec,
                             bruteforce_diagnosis, explains)
from repro.petri.generators import random_safe_net
from repro.workloads.alarmgen import interleave, simulate_alarms, simulate_run
from tests.reference import methods_that_answer

seeds = st.integers(min_value=0, max_value=200)
step_counts = st.integers(min_value=1, max_value=4)


#: observation kind -> random draws per run.  The plain alarm sequence is
#: what every fast path is benchmarked on and gets the old budget; each
#: draw asks six solvers, so the Section-4.4 shapes get fewer.
OBSERVATION_KINDS = {"alarms": 15, "hidden": 5, "unobserved": 5, "pattern": 5}


def draw_observation(petri, seed, steps, kind):
    """One question about a simulated run of ``petri``, in one of four
    shapes: its alarm sequence; the sequence with one transition hidden
    (it may have fired: budget 1); one peer not watched at all; one
    peer's stream known only to match ``x.y*``."""
    net = petri.net
    rng = random.Random(seed)
    if kind == "hidden":
        hidden = frozenset({rng.choice(sorted(net.transitions))})
        alarms = simulate_alarms(petri, steps=steps, seed=seed, hidden=hidden)
        return ObservationSpec.from_alarms(alarms, net.peers(), hidden=hidden,
                                           hidden_budget=1)
    alarms = simulate_alarms(petri, steps=steps, seed=seed)
    if kind == "alarms":
        return alarms
    observers = dict(ObservationSpec.from_alarms(alarms, net.peers()).observers)
    peer = rng.choice(sorted(observers))
    if kind == "unobserved":
        del observers[peer]
    else:
        symbols = sorted({net.alarm[t] for t in net.transitions_of_peer(peer)})
        x = (alarms.project(peer) or symbols)[0]
        observers[peer] = AlarmPattern.symbol(x).then(
            AlarmPattern.symbol(rng.choice(symbols)).star()).to_observer(peer)
    return ObservationSpec(observers=observers, max_events=steps)


class TestSolverAgreement:
    @pytest.mark.parametrize("kind", OBSERVATION_KINDS)
    def test_every_method_answers_the_question_or_refuses_it(self, kind):
        """The six methods of `repro.diagnose`, one question: who answers
        agrees with brute force and is complete, who does not raises
        DiagnosisError.  All six answer a plain alarm sequence; the
        Section-4.4 shapes are left to the four that can bound them."""
        expected = {"dqsq", "qsq", "dedicated", "bruteforce"}
        if kind == "alarms":
            expected |= {"bottomup", "online"}

        @settings(max_examples=OBSERVATION_KINDS[kind], deadline=None)
        @given(seeds, step_counts)
        @example(7, 3)
        def check(seed, steps):
            petri = random_safe_net(seed, branching=0.4)
            answered = methods_that_answer(
                petri, draw_observation(petri, seed, steps, kind))
            assert set(answered) == expected

        check()

    @settings(max_examples=12, deadline=None)
    @given(seeds, step_counts)
    def test_theorem4_parity(self, seed, steps):
        petri = random_safe_net(seed, branching=0.4)
        alarms = simulate_alarms(petri, steps=steps, seed=seed)
        dedicated = DedicatedDiagnoser(petri).diagnose(alarms)
        datalog = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(alarms)
        assert datalog.materialized_events == dedicated.projected_events


class TestLiveness:
    @settings(max_examples=15, deadline=None)
    @given(seeds, step_counts)
    def test_true_run_is_always_recovered(self, seed, steps):
        petri = random_safe_net(seed, branching=0.4)
        fired = simulate_run(petri, steps=steps, seed=seed)
        alarms = simulate_alarms(petri, steps=steps, seed=seed)
        result = bruteforce_diagnosis(petri, alarms)
        assert len(result.diagnoses) >= 1
        # The true run's transition multiset appears among the diagnoses.
        fired_multiset = sorted(fired)
        assert any(
            sorted(result.bp.events[e].transition for e in config) == fired_multiset
            for config in result.diagnoses)

    @settings(max_examples=15, deadline=None)
    @given(seeds, step_counts)
    def test_every_diagnosis_explains(self, seed, steps):
        petri = random_safe_net(seed, branching=0.4)
        alarms = simulate_alarms(petri, steps=steps, seed=seed)
        result = bruteforce_diagnosis(petri, alarms)
        for config in result.diagnoses:
            assert explains(result.bp, config, alarms)


class TestAsynchronyInvariance:
    @settings(max_examples=10, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=50))
    def test_interleavings_share_diagnoses(self, seed, shuffle_a, shuffle_b):
        petri = random_safe_net(seed, branching=0.4)
        fired = simulate_run(petri, steps=3, seed=seed)
        streams: dict[str, list[str]] = {}
        for transition in fired:
            peer = petri.net.peer[transition]
            streams.setdefault(peer, []).append(petri.net.alarm[transition])
        left = interleave(streams, seed=shuffle_a)
        right = interleave(streams, seed=shuffle_b)
        assert left.equivalent(right)
        left_diagnoses = bruteforce_diagnosis(petri, left).diagnoses
        right_diagnoses = bruteforce_diagnosis(petri, right).diagnoses
        assert left_diagnoses == right_diagnoses

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_datalog_invariant_under_interleaving(self, seed):
        petri = random_safe_net(seed, branching=0.4)
        fired = simulate_run(petri, steps=3, seed=seed)
        streams: dict[str, list[str]] = {}
        for transition in fired:
            peer = petri.net.peer[transition]
            streams.setdefault(peer, []).append(petri.net.alarm[transition])
        engine = DatalogDiagnosisEngine(petri, mode="qsq")
        first = engine.diagnose(interleave(streams, seed=1)).diagnoses
        second = engine.diagnose(interleave(streams, seed=2)).diagnoses
        assert first == second
