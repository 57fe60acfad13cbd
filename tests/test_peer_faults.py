"""Peer crash/recovery: network-level lifecycle, engine checkpointing,
and degraded (partial) diagnosis."""

from collections import Counter

import pytest

from repro.datalog import parse_atom
from repro.datalog.rule import Query
from repro.distributed import (DijkstraScholten, DistributedNaiveEngine,
                               DqsqEngine, FaultPlan, LinkPartition, Network,
                               NetworkOptions, PeerFaultPlan)
from repro.distributed import transport as transport_module
from repro.errors import DistributedError, PeerUnavailable, UnknownPeerError
from repro.workloads.scenarios import figure3

QUERY = Query(parse_atom('r@r("1", Y)'))


class CheckpointableRecorder:
    """A handler whose whole state is the multiset of payloads it saw."""

    def __init__(self, name, forward_to=None):
        self.name = name
        self.forward_to = forward_to
        self.received = []

    def on_messages(self, batch, network):
        for message in batch:
            self.received.append(message.payload)
            if self.forward_to is not None:
                network.send(self.name, self.forward_to, "fwd",
                             message.payload)

    def checkpoint(self):
        return list(self.received)

    def restore(self, snapshot):
        self.received = list(snapshot) if snapshot is not None else []


class PlainRecorder:
    """Not checkpointable: crashing it must be an explicit error."""

    def __init__(self):
        self.received = []

    def on_messages(self, batch, network):
        self.received.extend(message.payload for message in batch)


def naive_figure3_deliveries(monkeypatch, seed):
    """Deliveries per peer (``ds-ack`` included) of the fault-free
    distributed naive Figure-3 run at ``seed``, seen by a monitor."""
    counts: Counter[str] = Counter()

    class MonitoredNetwork(Network):
        def __init__(self, options=None):
            super().__init__(options)
            self.add_monitor(lambda message: counts.update((message.recipient,)))

    program, edb, _query = figure3()
    with monkeypatch.context() as patch:
        patch.setattr(transport_module, "Network", MonitoredNetwork)
        DistributedNaiveEngine(program, edb, options=NetworkOptions(
            seed=seed)).query(QUERY)
    return counts


def crash_network(peer_fault, fault=None, seed=0, names=("a", "b")):
    network = Network(NetworkOptions(seed=seed, fault=fault or FaultPlan(),
                                     peer_fault=peer_fault))
    handlers = {name: CheckpointableRecorder(name) for name in names}
    for name, handler in handlers.items():
        network.register(name, handler)
    return network, handlers


class TestPeerFaultPlanValidation:
    def test_defaults_are_disabled(self):
        assert not PeerFaultPlan().enabled()

    def test_any_fault_enables(self):
        assert PeerFaultPlan(crash_at={"a": (1,)}).enabled()
        assert PeerFaultPlan(
            partitions=(LinkPartition(a="a", b="b"),)).enabled()
        # restart timing and checkpoint cadence only shape a crash
        assert not PeerFaultPlan(restart_after_deliveries=3,
                                 checkpoint_interval=2).enabled()

    def test_validation(self):
        with pytest.raises(ValueError):
            PeerFaultPlan(crash_at={"a": (0,)})
        with pytest.raises(ValueError):
            PeerFaultPlan(checkpoint_interval=0)
        with pytest.raises(ValueError):
            PeerFaultPlan(restart_after_deliveries=0)
        with pytest.raises(ValueError):
            LinkPartition(a="a", b="a")
        with pytest.raises(ValueError):
            LinkPartition(a="a", b="b", heal_after=0)

    @pytest.mark.parametrize("plan", [
        PeerFaultPlan(crash_at={"zz": (2,)}, restart_after_deliveries=6),
        PeerFaultPlan(partitions=(LinkPartition(a="a", b="zz"),)),
    ], ids=["crash", "partition"])
    def test_plan_naming_an_unknown_peer_is_refused(self, plan):
        # Such a fault would never fire: the run must not pass as faulted.
        network, handlers = crash_network(plan)
        network.send("a", "b", "n", 0)
        with pytest.raises(UnknownPeerError, match="zz"):
            network.run_until_quiescent()
        assert handlers["b"].received == []


class TestNetworkLifecycle:
    def test_crash_and_restart_recovers_exact_state(self):
        network, handlers = crash_network(PeerFaultPlan(
            crash_at={"b": (3,)}, restart_after_deliveries=2))
        for i in range(8):
            network.send("a", "b", "n", i)
        network.run_until_quiescent()
        # The restored peer replayed its checkpoint gap and then consumed
        # the rest: every payload seen at least once, in order by first
        # occurrence, with no permanent loss.
        seen = []
        for payload in handlers["b"].received:
            if payload not in seen:
                seen.append(payload)
        assert seen == list(range(8))
        assert network.counters["net.recovery.crashes"] == 1
        assert network.counters["net.recovery.restarts"] == 1
        assert network.counters["net.recovery.checkpoints_restored"] == 1
        assert network.peer_report()["b"]["up"] is True

    def test_crash_during_replay_replays_each_message_once(self):
        # b crashes in place of its third delivery, restarts from the
        # baseline and crashes again while its replay is under way: the
        # second restart must regenerate the replay, not stack a copy on
        # top of what was left of the first.
        network, handlers = crash_network(PeerFaultPlan(
            crash_at={"b": (3, 4)}, checkpoint_interval=3,
            restart_after_deliveries=1), seed=0)
        for i in range(12):
            network.send("a", "b", "n", i)
        network.run_until_quiescent()
        assert handlers["b"].received == list(range(12))
        assert network.counters["net.recovery.crashes"] == 2
        assert network.counters["net.recovery.restarts"] == 2

    def test_seed_is_recorded_for_replay(self):
        network, _handlers = crash_network(PeerFaultPlan(), seed=1234)
        assert network.counters["net.seed"] == 1234

    def test_permanent_death_raises_peer_unavailable(self):
        network, _handlers = crash_network(PeerFaultPlan(
            crash_at={"b": (1,)}, restart_after_deliveries=None))
        network.send("a", "b", "n", 0)
        network.send("a", "b", "n", 1)
        with pytest.raises(PeerUnavailable) as excinfo:
            network.run_until_quiescent()
        assert excinfo.value.peers == ("b",)
        report = excinfo.value.report
        assert report["b"]["permanently_down"] is True
        assert report["b"]["crashes"] == 1
        assert report["b"]["held_frames"] >= 1
        assert report["a"]["up"] is True

    def test_crashing_non_checkpointable_peer_is_an_error(self):
        network = Network(NetworkOptions(peer_fault=PeerFaultPlan(
            crash_at={"b": (1,)})))
        network.register("a", CheckpointableRecorder("a"))
        network.register("b", PlainRecorder())
        network.send("a", "b", "n", 0)
        with pytest.raises(DistributedError, match="not checkpointable"):
            network.run_until_quiescent()

    def test_partition_window_heals(self):
        network, handlers = crash_network(PeerFaultPlan(
            partitions=(LinkPartition(a="a", b="b", start=0, heal_after=3),)),
            names=("a", "b", "c"))
        network.send("a", "b", "n", "cut-me")
        for i in range(4):
            network.send("a", "c", "n", i)
        network.run_until_quiescent()
        # The partitioned frame is retained and delivered after the heal.
        assert handlers["b"].received == ["cut-me"]
        assert handlers["c"].received == [0, 1, 2, 3]

    def test_unhealable_partition_raises(self):
        network, _handlers = crash_network(PeerFaultPlan(
            partitions=(LinkPartition(a="a", b="b", heal_after=None),)))
        network.send("a", "b", "n", 0)
        with pytest.raises(PeerUnavailable):
            network.run_until_quiescent()

    def test_stalled_run_brings_restart_forward(self):
        # Only one message total: after the crash no delivery can advance
        # the count to the scheduled restart, so the stall forces it.
        network, handlers = crash_network(PeerFaultPlan(
            crash_at={"b": (1,)}, restart_after_deliveries=50))
        network.send("a", "b", "n", 0)
        network.run_until_quiescent()
        assert handlers["b"].received == [0]
        assert network.counters["net.recovery.restarts"] == 1

    def test_lifecycle_listener_sequence(self):
        events = []

        class RecordingDetector(DijkstraScholten):
            def on_peer_crash(self, peer, network):
                events.append(("crash", peer))
                super().on_peer_crash(peer, network)

            def on_peer_restart(self, peer, replays, network):
                events.append(("restart", peer, replays))
                super().on_peer_restart(peer, replays, network)

        # b's first delivery is not checkpointed before the crash, so the
        # restart replays it.
        network, _handlers = crash_network(PeerFaultPlan(
            crash_at={"b": (2,)}, restart_after_deliveries=2,
            checkpoint_interval=5))
        detector = network.detector = RecordingDetector("a")

        def pose():
            for i in range(5):
                network.send("a", "b", "n", i)

        detector.start(pose, network)
        network.run_until_quiescent()
        replayed = network.counters["net.recovery.frames_replayed"]
        assert replayed >= 1
        assert events == [("crash", "b"), ("restart", "b", replayed)]
        assert detector.terminated


class TestDqsqRecovery:
    @pytest.mark.parametrize("victim", ["r", "s", "t"])
    @pytest.mark.parametrize("crash_at", [1, 2, 3])
    def test_single_crash_restart_recovers_oracle(self, victim, crash_at):
        program, edb, _query = figure3()
        oracle = DqsqEngine(program, edb).query(QUERY).answers
        options = NetworkOptions(seed=7, peer_fault=PeerFaultPlan(
            crash_at={victim: (crash_at,)}, restart_after_deliveries=5))
        result = DqsqEngine(program, edb, options=options).query(QUERY)
        assert result.answers == oracle
        assert not result.partial
        assert result.terminated_by_detector is True
        assert result.counters["net.recovery.checkpoints_restored"] >= 1

    @pytest.mark.parametrize("interval", [1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_channels_retain_only_what_no_checkpoint_covers(
            self, monkeypatch, interval, seed):
        networks = []

        class KeptNetwork(Network):
            def __init__(self, options=None):
                super().__init__(options)
                networks.append(self)

        program, edb, _query = figure3()
        options = NetworkOptions(
            seed=seed, fault=FaultPlan(drop_probability=0.1),
            peer_fault=PeerFaultPlan(crash_at={"s": (2,)},
                                     restart_after_deliveries=5,
                                     checkpoint_interval=interval))
        with monkeypatch.context() as patch:
            patch.setattr(transport_module, "Network", KeptNetwork)
            result = DqsqEngine(program, edb, options=options).query(QUERY)
        assert not result.partial
        assert result.counters["net.recovery.crashes"] == 1
        (network,) = networks
        report = network.peer_report()
        # A checkpoint is stored after the batch that crosses a multiple
        # of the interval and releases every frame the peer took before:
        # with interval 1 nothing stays behind.
        for peer, frames in network._retained.items():
            assert len(frames) <= report[peer]["deliveries"] % interval

    def test_permanent_death_degrades_to_sound_subset(self):
        program, edb, _query = figure3()
        oracle = DqsqEngine(program, edb).query(QUERY).answers
        options = NetworkOptions(seed=7, peer_fault=PeerFaultPlan(
            crash_at={"s": (1,)}, restart_after_deliveries=None))
        result = DqsqEngine(program, edb, options=options).query(QUERY)
        assert result.partial
        assert result.answers <= oracle
        assert result.peer_failure is not None
        assert result.peer_failure.peers == ("s",)
        assert result.peer_report["s"]["permanently_down"] is True

    def test_crash_under_message_faults_too(self):
        program, edb, _query = figure3()
        oracle = DqsqEngine(program, edb).query(QUERY).answers
        options = NetworkOptions(
            seed=11,
            fault=FaultPlan(drop_probability=0.15, max_retries=50),
            peer_fault=PeerFaultPlan(crash_at={"t": (2,)},
                                     restart_after_deliveries=10))
        result = DqsqEngine(program, edb, options=options).query(QUERY)
        assert result.answers == oracle
        assert not result.partial

    def test_checkpoint_restore_roundtrip_is_lossless(self):
        # Drive a run, checkpoint a peer mid-flight, clobber it, restore,
        # and check the restored state answers identically.
        program, edb, _query = figure3()
        options = NetworkOptions(seed=0, peer_fault=PeerFaultPlan(
            crash_at={"s": (2,)}, restart_after_deliveries=4,
            checkpoint_interval=2))
        result = DqsqEngine(program, edb, options=options).query(QUERY)
        baseline = DqsqEngine(program, edb).query(QUERY)
        assert result.answers == baseline.answers


class TestNaiveDistRecovery:
    @pytest.mark.parametrize("victim", ["r", "s", "t"])
    def test_crash_restart_recovers_oracle(self, monkeypatch, victim):
        program, edb, _query = figure3()
        oracle = DistributedNaiveEngine(program, edb).query(QUERY).answers
        # Up to the axis TestDqsqRecovery has (1, 2, 3), but only the
        # deliveries the victim gets: the run is the fault-free one until
        # the crash, so each of these indices fires.
        deliveries = naive_figure3_deliveries(monkeypatch, seed=3)[victim]
        for crash_at in range(1, min(deliveries, 3) + 1):
            options = NetworkOptions(seed=3, peer_fault=PeerFaultPlan(
                crash_at={victim: (crash_at,)}, restart_after_deliveries=4))
            result = DistributedNaiveEngine(program, edb,
                                            options=options).query(QUERY)
            assert result.answers == oracle, crash_at
            assert not result.partial, crash_at
            assert result.counters["net.recovery.crashes"] == 1, crash_at
            assert result.counters["net.recovery.checkpoints_restored"] == 1

    def test_crash_at_counts_deliveries_not_transmissions(self, monkeypatch):
        # t has two deliveries at seed 3, so a crash in place of its
        # third never fires -- no other frame heading to t may stand in
        # for one.
        assert naive_figure3_deliveries(monkeypatch, seed=3)["t"] == 2
        program, edb, _query = figure3()
        oracle = DistributedNaiveEngine(program, edb).query(QUERY).answers
        options = NetworkOptions(seed=3, peer_fault=PeerFaultPlan(
            crash_at={"t": (3,)}))
        result = DistributedNaiveEngine(program, edb,
                                        options=options).query(QUERY)
        assert result.counters["net.recovery.crashes"] == 0
        assert not result.partial
        assert result.answers == oracle

    def test_permanent_death_degrades(self):
        program, edb, _query = figure3()
        oracle = DistributedNaiveEngine(program, edb).query(QUERY).answers
        options = NetworkOptions(seed=3, peer_fault=PeerFaultPlan(
            crash_at={"t": (1,)}, restart_after_deliveries=None))
        result = DistributedNaiveEngine(program, edb,
                                        options=options).query(QUERY)
        assert result.partial
        assert result.answers <= oracle
        assert result.peer_report is not None


class TestDiagnosisRecovery:
    def test_figure1_crash_restart_recovers_diagnosis(self):
        # The acceptance scenario: any single peer crashes during the
        # Figure-1 diagnosis and restarts; the diagnosis set is exact and
        # at least one checkpoint was restored.
        import repro
        from repro.workloads.scenarios import get_scenario
        petri, alarms = get_scenario("figure1-bac").instantiate()
        oracle = repro.diagnose(petri, alarms, method="bruteforce").diagnoses
        for victim in sorted(petri.net.peers()):
            options = NetworkOptions(seed=5, peer_fault=PeerFaultPlan(
                crash_at={victim: (2,)}, restart_after_deliveries=6))
            result = repro.diagnose(
                petri, alarms, method="dqsq",
                config=repro.RunConfig(options=options))
            assert result.diagnoses == oracle
            assert not result.partial
            assert result.counters["net.recovery.checkpoints_restored"] >= 1

    def test_figure1_permanent_death_degrades(self):
        import repro
        from repro.workloads.scenarios import get_scenario
        petri, alarms = get_scenario("figure1-bac").instantiate()
        oracle = repro.diagnose(petri, alarms, method="bruteforce").diagnoses
        options = NetworkOptions(seed=5, peer_fault=PeerFaultPlan(
            crash_at={"p2": (1,)}, restart_after_deliveries=None))
        result = repro.diagnose(petri, alarms, method="dqsq",
                                config=repro.RunConfig(options=options))
        assert result.partial
        assert result.diagnoses <= oracle
        assert result.peer_report is not None
        assert result.peer_report["p2"]["permanently_down"] is True
        assert result.counters["net.peer_unavailable"] == 1
