"""Property-based tests: diagnosis invariants across solvers.

The central properties:

* *soundness/completeness* -- the Datalog engine, the dedicated
  algorithm and brute force agree on randomized instances;
* *completeness for the true run* -- diagnosing the alarms of a
  simulated run always recovers (at least) that run;
* *asynchrony invariance* -- sequences with equal per-peer projections
  have equal diagnoses (only per-peer order is meaningful);
* *certification* -- every reported configuration satisfies the
  declarative `explains` predicate.
"""

from hypothesis import given, settings, strategies as st

from repro.diagnosis import (AlarmSequence, DatalogDiagnosisEngine,
                             DedicatedDiagnoser, bruteforce_diagnosis,
                             explains)
from repro.petri.generators import random_safe_net
from repro.workloads.alarmgen import interleave, simulate_alarms, simulate_run

seeds = st.integers(min_value=0, max_value=200)
step_counts = st.integers(min_value=1, max_value=4)


class TestSolverAgreement:
    @settings(max_examples=15, deadline=None)
    @given(seeds, step_counts)
    def test_datalog_matches_bruteforce(self, seed, steps):
        petri = random_safe_net(seed, branching=0.4)
        alarms = simulate_alarms(petri, steps=steps, seed=seed)
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(alarms)
        assert got.diagnoses == expected

    @settings(max_examples=15, deadline=None)
    @given(seeds, step_counts)
    def test_dedicated_matches_bruteforce(self, seed, steps):
        petri = random_safe_net(seed, branching=0.4)
        alarms = simulate_alarms(petri, steps=steps, seed=seed)
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = DedicatedDiagnoser(petri).diagnose(alarms)
        assert got.diagnoses == expected

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


class TestExtensionEngineAgreement:
    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_chain_observers_reduce_to_basic_problem(self, seed):
        """The Section-4.4 machinery with chain observers must reproduce
        the basic diagnosis on arbitrary instances (not just figure 1)."""
        from repro.diagnosis.patterns import ObservationSpec
        from repro.petri.product import Observer
        petri = random_safe_net(seed, branching=0.4)
        alarms = simulate_alarms(petri, steps=3, seed=seed)
        observers = {peer: Observer.chain(peer, list(symbols))
                     for peer, symbols in alarms.by_peer().items()}
        for peer in petri.net.peers():
            observers.setdefault(peer, Observer.chain(peer, []))
        spec = ObservationSpec(observers=observers, max_events=len(alarms))
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(spec)
        assert got.diagnoses == expected


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
