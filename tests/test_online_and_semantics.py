"""Tests for the online diagnoser and the Definition-vs-algorithm subtlety.

Two things live here:

1. :class:`OnlineDiagnoser`: after every pushed alarm its diagnosis set
   must equal the batch diagnosis of the prefix, and its materialized
   branching process must only grow.

2. The *crossing* counterexample: the paper's Output definition checks
   per-peer order only (condition (iii)); a configuration whose
   cross-peer causality forms a cycle with the per-peer emission orders
   satisfies (iii) but is physically unrealizable.  All solvers (the
   Section-4.2 program, [8], brute force) implement the realizable
   semantics; ``explains`` accepts the literal definition and
   ``explains_strict`` the realizable one.
"""

import pytest

from repro.diagnosis import (AlarmSequence, DatalogDiagnosisEngine,
                             DedicatedDiagnoser, bruteforce_diagnosis, explains)
from repro.diagnosis.online import OnlineDiagnoser, online_diagnosis_result
from repro.diagnosis.problem import explains_strict
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.petri.generators import random_safe_net
from repro.petri.net import PetriNet
from repro.petri.unfolding import unfold
from repro.workloads.alarmgen import simulate_alarms


class TestOnlineDiagnoser:
    def test_running_example_matches_batch(self):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        online = OnlineDiagnoser(petri)
        for i, alarm in enumerate(alarms, start=1):
            online.push(alarm)
            prefix = AlarmSequence(list(alarms)[:i])
            batch = bruteforce_diagnosis(petri, prefix).diagnoses
            assert online.diagnoses() == batch, f"prefix {i}"

    def test_inconsistent_stream_detected(self):
        petri = figure1_net()
        online = OnlineDiagnoser(petri)
        online.push(("c", "p1"))
        assert online.is_consistent()
        online.push(("b", "p1"))  # after c, b is impossible at p1
        assert not online.is_consistent()
        assert online.diagnoses() == frozenset()

    def test_monotone_materialization(self):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        online = OnlineDiagnoser(petri)
        sizes = []
        for alarm in alarms:
            online.push(alarm)
            sizes.append(len(online.materialized_events()))
        assert sizes == sorted(sizes)

    def test_materialized_prefix_matches_dedicated(self):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        online = OnlineDiagnoser(petri)
        online.push_all(alarms)
        dedicated = DedicatedDiagnoser(petri).diagnose(alarms)
        assert online.materialized_events() == dedicated.projected_events
        assert online.diagnoses() == dedicated.diagnoses

    @pytest.mark.parametrize("seed", range(5))
    def test_online_equals_batch_on_random_nets(self, seed):
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=4, seed=seed)
        assert (online_diagnosis_result(petri, alarms).diagnoses
                == bruteforce_diagnosis(petri, alarms).diagnoses)

    def test_asynchronous_race_is_handled(self):
        # The case the naive "extend by the newest alarm" reading gets
        # wrong: the second-received alarm's event causally precedes the
        # first-received one.
        petri = PetriNet.build(
            places={"qa": "q", "m": "q", "rz": "r", "qz": "q", "ra": "r"},
            transitions={"x": ("a", "q"), "y": ("b", "r")},
            edges=[("qa", "x"), ("x", "m"), ("x", "qz"),
                   ("m", "y"), ("ra", "y"), ("y", "rz")],
            marking=["qa", "ra"])
        # y (at r) causally depends on x (at q), but the supervisor
        # receives r's alarm FIRST.
        alarms = AlarmSequence([("b", "r"), ("a", "q")])
        online = OnlineDiagnoser(petri)
        online.push_all(alarms)
        assert len(online.diagnoses()) == 1
        assert online.diagnoses() == bruteforce_diagnosis(petri, alarms).diagnoses

    def test_received_echo(self):
        petri = figure1_net()
        online = OnlineDiagnoser(petri)
        online.push(("b", "p1"))
        assert online.received() == AlarmSequence([("b", "p1")])
        assert online.candidate_count() == 1


def crossing_net() -> PetriNet:
    """The semantic counterexample: x2 <= y1 and y2 <= x1 across peers."""
    return PetriNet.build(
        places={"qa": "q", "qk": "q", "qz1": "q", "qz2": "q", "m1": "q",
                "ra": "r", "rk": "r", "rz1": "r", "rz2": "r", "m2": "r"},
        transitions={"x1": ("a", "q"), "x2": ("b", "q"),
                     "y1": ("c", "r"), "y2": ("d", "r")},
        edges=[("qk", "x1"), ("m2", "x1"), ("x1", "qz1"),
               ("qa", "x2"), ("x2", "m1"), ("x2", "qz2"),
               ("rk", "y1"), ("m1", "y1"), ("y1", "rz1"),
               ("ra", "y2"), ("y2", "m2"), ("y2", "rz2")],
        marking=["qa", "qk", "ra", "rk"])


class TestDefinitionVsAlgorithms:
    def setup_method(self):
        self.petri = crossing_net()
        self.bp = unfold(self.petri)
        self.config = list(self.bp.events)
        # q observed [a, b]; r observed [c, d].
        self.alarms = AlarmSequence([("a", "q"), ("b", "q"),
                                     ("c", "r"), ("d", "r")])

    def test_literal_definition_accepts_the_crossing(self):
        # Condition (iii) is per-peer: within q, x1 || x2 (no causal
        # relation), so mapping a->x1, b->x2 has no inversion; same at r.
        assert explains(self.bp, self.config, self.alarms)

    def test_no_run_realizes_it(self):
        # Causality forces x2 before y1 and y2 before x1, while the
        # per-peer orders force x1 before x2 and y1 before y2: a cycle.
        assert not explains_strict(self.bp, self.config, self.alarms)

    def test_all_solvers_implement_the_realizable_semantics(self):
        expected = frozenset()  # the only 4-event candidate is unrealizable
        assert bruteforce_diagnosis(self.petri, self.alarms).diagnoses == expected
        assert DedicatedDiagnoser(self.petri).diagnose(self.alarms).diagnoses == expected
        got = DatalogDiagnosisEngine(self.petri, mode="qsq").diagnose(self.alarms)
        assert got.diagnoses == expected

    def test_realizable_order_is_accepted_by_everything(self):
        # The physically possible observation: q emits b then a.
        alarms = AlarmSequence([("b", "q"), ("a", "q"), ("c", "r"), ("d", "r")])
        assert explains(self.bp, self.config, alarms)
        assert explains_strict(self.bp, self.config, alarms)
        assert len(bruteforce_diagnosis(self.petri, alarms).diagnoses) == 1

    def test_strict_implies_literal(self):
        # On the running example, every strict explanation is a literal one.
        petri = figure1_net()
        bp = unfold(petri)
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        for config in bruteforce_diagnosis(petri, alarms).diagnoses:
            assert explains_strict(bp, config, alarms)
            assert explains(bp, config, alarms)


class TestOnlineValidation:
    """Satellite (a): boundary validation instead of bare KeyError."""

    def test_unknown_peer_raises_structured_error(self):
        from repro.errors import UnknownAlarmError, ValidationError

        online = OnlineDiagnoser(figure1_net())
        with pytest.raises(UnknownAlarmError, match="not a peer") as info:
            online.push(("b", "nosuchpeer"))
        assert isinstance(info.value, ValidationError)
        assert info.value.alarm.peer == "nosuchpeer"

    def test_unknown_symbol_raises_structured_error(self):
        from repro.errors import UnknownAlarmError

        online = OnlineDiagnoser(figure1_net())
        with pytest.raises(UnknownAlarmError, match="never emits") as info:
            online.push(("zzz", "p1"))
        assert info.value.alarm.symbol == "zzz"

    def test_rejected_alarm_leaves_state_untouched(self):
        from repro.errors import UnknownAlarmError

        online = OnlineDiagnoser(figure1_net())
        online.push(("b", "p1"))
        with pytest.raises(UnknownAlarmError):
            online.push(("zzz", "p1"))
        assert online.received_count == 1
        assert online.is_consistent()

    def test_inconsistent_but_well_formed_is_not_an_error(self):
        # malformed input raises; a model-inconsistent stream does not
        online = OnlineDiagnoser(figure1_net())
        online.push(("c", "p1"))
        online.push(("b", "p1"))  # impossible order, yet well-formed
        assert not online.is_consistent()


class TestOnlineCheckpointRestore:
    """Satellite (c): pickle round-trip mid-stream, resume == batch."""

    def test_resume_equals_batch(self):
        import pickle

        petri = figure1_net()
        alarms = list(AlarmSequence(figure1_alarm_scenarios()["bac"]))
        online = OnlineDiagnoser(petri)
        online.push(alarms[0])
        online.push(alarms[1])
        frozen = pickle.dumps(online.checkpoint())

        resumed = OnlineDiagnoser(petri)
        resumed.restore(pickle.loads(frozen))
        assert resumed.received_count == 2
        resumed.push(alarms[2])
        batch = bruteforce_diagnosis(petri, AlarmSequence(alarms)).diagnoses
        assert resumed.diagnoses() == batch
        assert resumed.counters["restores"] == 1

    def test_snapshot_is_isolated_from_later_pushes(self):
        import pickle

        petri = figure1_net()
        alarms = list(AlarmSequence(figure1_alarm_scenarios()["bac"]))
        online = OnlineDiagnoser(petri)
        online.push(alarms[0])
        frozen = pickle.dumps(online.checkpoint())
        online.push(alarms[1])  # mutate after the checkpoint
        online.push(alarms[2])

        resumed = OnlineDiagnoser(petri)
        resumed.restore(pickle.loads(frozen))
        assert resumed.received_count == 1
        prefix = bruteforce_diagnosis(
            petri, AlarmSequence(alarms[:1])).diagnoses
        assert resumed.diagnoses() == prefix

    def test_restore_none_resets(self):
        online = OnlineDiagnoser(figure1_net())
        online.push(("b", "p1"))
        online.restore(None)
        assert online.received_count == 0
        assert online.counters["restores"] == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_on_random_nets(self, seed):
        import pickle

        petri = random_safe_net(seed, branching=0.5)
        alarms = list(simulate_alarms(petri, steps=4, seed=seed))
        online = OnlineDiagnoser(petri)
        for alarm in alarms[:2]:
            online.push(alarm)
        frozen = pickle.dumps(online.checkpoint())
        resumed = OnlineDiagnoser(petri)
        resumed.restore(pickle.loads(frozen))
        for alarm in alarms[2:]:
            resumed.push(alarm)
        assert (resumed.diagnoses()
                == bruteforce_diagnosis(petri,
                                        AlarmSequence(alarms)).diagnoses)


    def test_checkpoint_is_plain_data_that_restore_does_not_alias(self):
        import copy

        from repro.workloads.scenarios import get_scenario

        def walk(value):
            assert type(value) in (dict, list, tuple, str, int, bool,
                                   type(None)), type(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(key)
                    walk(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    walk(item)

        petri, _unused = get_scenario("telecom-small").instantiate()
        alarms = list(simulate_alarms(petri, steps=12, seed=3))
        online = OnlineDiagnoser(petri, window=8)
        online.push_all(alarms[:6])
        snapshot = online.checkpoint()
        walk(snapshot)
        assert any(snapshot["table"].values())  # live states were encoded
        pristine = copy.deepcopy(snapshot)

        # one snapshot, restored twice: the copies share nothing mutable
        # with it or with each other
        first = OnlineDiagnoser(petri)
        first.restore(snapshot)
        first.push_all(alarms[6:])
        assert snapshot == pristine
        second = OnlineDiagnoser.from_checkpoint(petri, snapshot)
        assert second.received_count == 6 and second.window == 8
        second.push_all(alarms[6:])
        online.push_all(alarms[6:])
        assert snapshot == pristine
        assert first.diagnoses() == second.diagnoses() == online.diagnoses()
        assert (first.materialized_events() == second.materialized_events()
                == online.materialized_events())

    def test_refused_snapshot_leaves_the_diagnoser_untouched(self):
        from repro.errors import PetriNetError

        petri = figure1_net()
        online = OnlineDiagnoser(petri)
        online.push(("b", "p1"))
        snapshot = online.checkpoint()
        snapshot["events"].append(snapshot["events"][0])
        target = OnlineDiagnoser(petri)
        target.push(("b", "p1"))
        target.push(("a", "p2"))
        with pytest.raises(PetriNetError, match="duplicate event"):
            target.restore(snapshot)
        assert target.received_count == 2
        with pytest.raises(ValueError, match="version"):
            target.restore({"version": 1})
        target.push(("c", "p1"))
        assert target.diagnoses() == bruteforce_diagnosis(
            petri,
            AlarmSequence(figure1_alarm_scenarios()["bac"])).diagnoses


class TestWindowCompaction:
    """Tentpole layer 3: windowing bounds the table, soundly."""

    def test_not_lossy_means_bit_identical(self):
        # the compaction oracle: while window_lossy stays False, the
        # windowed diagnoses equal the exact ones after every push
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        exact = OnlineDiagnoser(petri)
        windowed = OnlineDiagnoser(petri, window=2)
        for alarm in alarms:
            exact.push(alarm)
            windowed.push(alarm)
            if not windowed.window_lossy:
                assert windowed.diagnoses() == exact.diagnoses()

    @pytest.mark.parametrize("seed", range(5))
    def test_windowed_is_sound_subset_on_random_nets(self, seed):
        petri = random_safe_net(seed, branching=0.5)
        alarms = list(simulate_alarms(petri, steps=5, seed=seed))
        exact = OnlineDiagnoser(petri)
        windowed = OnlineDiagnoser(petri, window=2)
        for alarm in alarms:
            exact.push(alarm)
            windowed.push(alarm)
            assert windowed.diagnoses() <= exact.diagnoses()
            if not windowed.window_lossy:
                assert windowed.diagnoses() == exact.diagnoses()

    def test_peak_table_bounded_while_exact_grows(self):
        from repro.workloads.scenarios import get_scenario

        petri, _unused = get_scenario("telecom-small").instantiate()
        peaks = {}
        for window in (None, 3):
            diagnoser = OnlineDiagnoser(petri, window=window)
            diagnoser.push_all(simulate_alarms(petri, steps=40, seed=9))
            peaks[window] = diagnoser.counters["peak_table_vectors"]
            longer = OnlineDiagnoser(petri, window=window)
            longer.push_all(simulate_alarms(petri, steps=80, seed=9))
            peaks[(window, "long")] = longer.counters["peak_table_vectors"]
        assert peaks[(None, "long")] > peaks[None], "exact peak must grow"
        assert peaks[(3, "long")] == peaks[3], "windowed peak must not"

    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_pushed_peer_scan_equals_the_full_scan(self, window):
        # push compares only the pushed peer's component; the oracle
        # compares every component of every vector after every push
        from repro.workloads.scenarios import get_scenario

        class FullScan(OnlineDiagnoser):
            def _compact(self, peer=None):
                super()._compact()

        petri, _unused = get_scenario("telecom-small").instantiate()
        for seed in range(6):
            fast = OnlineDiagnoser(petri, window=window)
            oracle = FullScan(petri, window=window)
            for alarm in simulate_alarms(petri, steps=40, seed=seed):
                assert fast.push(alarm) == oracle.push(alarm)
                assert fast._table == oracle._table
                assert list(fast._table) == list(oracle._table)
                assert fast.counters.as_dict() == oracle.counters.as_dict()
                assert fast.window_lossy == oracle.window_lossy
            assert fast.counters["window_vectors_compacted"] > 0

    def test_set_window_tighten_compacts_immediately(self):
        petri = figure1_net()
        online = OnlineDiagnoser(petri)
        online.push_all(AlarmSequence(figure1_alarm_scenarios()["bac"]))
        before = online.counters["peak_table_vectors"]
        online.set_window(1)
        assert len(online._table) <= before
        with pytest.raises(ValueError):
            online.set_window(0)

    def test_window_partial_flag_reaches_diagnose_api(self):
        import repro

        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        exact = repro.diagnose(petri, alarms, method="online")
        assert not exact.partial
        windowed = repro.diagnose(
            petri, alarms, method="online",
            config=repro.RunConfig(window=1))
        assert windowed.partial == windowed.window_lossy
        assert windowed.diagnoses <= exact.diagnoses
