"""Tests for Dijkstra-Scholten termination detection.

Soundness is the critical property: when the detector declares
termination, no basic message may be in flight anywhere.  We check it by
monitoring every delivery of the dQSQ engine under many schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Query, parse_atom, parse_program
from repro.datalog.database import load_facts
from repro.distributed import (DDatalogProgram, DijkstraScholten, DqsqEngine,
                               LinkPartition, NetworkOptions, PeerFaultPlan)
from repro.distributed.network import Message, Network
from repro.distributed.termination import ACK_KIND

RULES = """
r@r(X, Y) :- a@r(X, Y).
r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
t@t(X, Y) :- c@t(X, Y).
"""

FACTS = """
a@r("1", "2").
a@r("2", "3").
b@s("2", "x").
b@s("3", "x").
c@t("2", "4").
c@t("3", "5").
c@t("4", "6").
"""


class TestWithDqsq:
    @pytest.mark.parametrize("seed", range(8))
    def test_detects_termination_under_many_schedules(self, seed):
        dd = DDatalogProgram(parse_program(RULES))
        edb = load_facts(parse_program(FACTS))
        engine = DqsqEngine(dd, edb, options=NetworkOptions(seed=seed),
                            use_termination_detector=True)
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.terminated_by_detector is True
        assert {f[1].value for f in result.answers} == {"2", "4"}

    def test_trivial_local_query_terminates(self):
        dd = DDatalogProgram(parse_program('p@a(X) :- base@a(X).\nbase@a("1").'))
        engine = DqsqEngine(dd, use_termination_detector=True)
        result = engine.query(Query(parse_atom("p@a(X)")))
        assert result.terminated_by_detector is True
        assert len(result.answers) == 1

    def test_acks_flow(self):
        dd = DDatalogProgram(parse_program(RULES))
        edb = load_facts(parse_program(FACTS))
        engine = DqsqEngine(dd, edb, use_termination_detector=True)
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.counters[f"messages_sent[{ACK_KIND}]"] >= 1


class _Relay:
    """A peer doing a fixed amount of relayed work, instrumented for DS.

    Checkpointable, so crash schedules can target it: the whole state is
    the ``fired`` flag.  Replayed deliveries re-run the work sends (the
    pre-crash incarnation's outputs are deduplicated downstream in a real
    engine; here the relay only fires once per incarnation anyway) but
    skip the termination protocol, exactly like the dQSQ peers.
    """

    def __init__(self, name: str, detector: DijkstraScholten, plan: dict):
        self.name = name
        self.detector = detector
        self.plan = plan  # recipient -> count of messages to send on first receipt
        self.fired = False

    def checkpoint(self):
        return {"fired": self.fired}

    def restore(self, snapshot):
        self.fired = bool(snapshot["fired"]) if snapshot else False

    def on_message(self, message: Message, network: Network) -> None:
        replayed = network.delivering_replayed
        if message.kind == ACK_KIND:
            if not replayed:
                self.detector.on_ack(message, network)
            return
        if not replayed:
            self.detector.on_basic_receive(message)
        if not self.fired:
            self.fired = True
            for recipient, count in self.plan.items():
                for _ in range(count):
                    self.detector.on_basic_send(self.name)
                    network.send(self.name, recipient, "work", None)
        self.detector.peer_passive(self.name, network)


class TestProtocolDirectly:
    def build(self, seed: int):
        detector = DijkstraScholten("root")
        network = Network(NetworkOptions(seed=seed))
        peers = {
            "root": _Relay("root", detector, {"a": 2, "b": 1}),
            "a": _Relay("a", detector, {"b": 1, "c": 1}),
            "b": _Relay("b", detector, {"c": 2}),
            "c": _Relay("c", detector, {}),
        }
        for name, peer in peers.items():
            network.register(name, peer)
        return detector, network, peers

    @pytest.mark.parametrize("seed", range(10))
    def test_sound_and_live(self, seed):
        detector, network, peers = self.build(seed)
        basic_in_flight = [0]
        pending_basic = set()

        def monitor(message: Message) -> None:
            if message.kind != ACK_KIND:
                pending_basic.discard(message.seq)
            if detector.terminated:
                assert not pending_basic, "termination declared with messages in flight"

        network.add_monitor(monitor)
        detector.root_activated()
        root = peers["root"]
        root.fired = True
        for recipient, count in root.plan.items():
            for _ in range(count):
                detector.on_basic_send("root")
                network.send("root", recipient, "work", None)
        detector.peer_passive("root", network)
        # Track in-flight basic messages.
        while True:
            nonempty = network.pending()
            if not nonempty:
                break
            network.step()
        assert detector.terminated, "detector failed to detect termination (liveness)"

    def test_no_false_positive_before_work_done(self):
        detector, network, peers = self.build(seed=0)
        detector.root_activated()
        detector.on_basic_send("root")
        network.send("root", "a", "work", None)
        detector.peer_passive("root", network)
        # Work is still in flight: not terminated yet.
        assert not detector.terminated
        network.run_until_quiescent()
        assert detector.terminated


def _unsettled_basic(network: Network) -> int:
    """Basic (non-ack) messages still owed a first delivery.

    Frames below a channel's crash watermark were already consumed and
    protocol-settled by the pre-crash incarnation of the recipient; their
    re-delivery is a replay, not outstanding work, so they are excluded.
    Sender-side ``outstanding`` entries with no copy on the wire (dropped
    or flushed, awaiting retransmission) still count: the message has not
    had its first delivery yet.
    """
    count = 0
    for channel, queue in network._channels.items():
        watermark = network._ds_watermark.get(channel, 0)
        for frame in queue:
            if frame.is_ack or frame.message.kind == ACK_KIND:
                continue
            if frame.is_replay or frame.channel_seq < watermark:
                continue
            count += 1
    for channel, state in network._states.items():
        watermark = network._ds_watermark.get(channel, 0)
        for seq, pending in state.outstanding.items():
            if pending.message.kind == ACK_KIND:
                continue
            if pending.in_flight == 0 and seq >= watermark:
                count += 1
    return count


class TestProtocolUnderCrashes:
    """The satellite property: the detector never declares termination
    while a recovered (or any) peer still holds unacked basic messages.

    Driven directly against the relay fixture so the monitor can check
    the invariant at every single delivery, and end-to-end through dQSQ
    so crash schedules also have to preserve liveness and the answers.
    """

    def build(self, seed: int, peer_fault: PeerFaultPlan):
        detector = DijkstraScholten("root")
        network = Network(NetworkOptions(seed=seed, peer_fault=peer_fault))
        peers = {
            "root": _Relay("root", detector, {"a": 2, "b": 1}),
            "a": _Relay("a", detector, {"b": 1, "c": 1}),
            "b": _Relay("b", detector, {"c": 2}),
            "c": _Relay("c", detector, {}),
        }
        for name, peer in peers.items():
            network.register(name, peer)
        network.add_lifecycle_listener(detector)
        return detector, network, peers

    def kick_off(self, detector, network, peers) -> None:
        detector.root_activated()
        root = peers["root"]
        root.fired = True
        for recipient, count in root.plan.items():
            for _ in range(count):
                detector.on_basic_send("root")
                network.send("root", recipient, "work", None)
        detector.peer_passive("root", network)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           victim=st.sampled_from(("a", "b", "c")),
           crash_at=st.integers(1, 4),
           restart_after=st.integers(2, 15),
           checkpoint_interval=st.sampled_from((1, 2, 3)))
    def test_never_terminated_with_unsettled_basic_messages(
            self, seed, victim, crash_at, restart_after, checkpoint_interval):
        plan = PeerFaultPlan(crash_at={victim: (crash_at,)},
                             restart_after_deliveries=restart_after,
                             checkpoint_interval=checkpoint_interval)
        detector, network, peers = self.build(seed, plan)

        def monitor(message: Message) -> None:
            if not detector.terminated:
                return
            # The frame being delivered right now has left the queues but
            # not yet reached its handler: it is in flight too.
            this_one = int(message.kind != ACK_KIND
                           and not network.delivering_replayed)
            unsettled = _unsettled_basic(network) + this_one
            assert unsettled == 0, (
                f"termination declared with {unsettled} basic message(s) "
                f"unsettled (delivering {message.kind})")

        network.add_monitor(monitor)
        self.kick_off(detector, network, peers)
        network.run_until_quiescent()
        assert detector.terminated, "liveness: detector never fired"
        assert _unsettled_basic(network) == 0
        if network.counters["net.recovery.crashes"]:
            assert network.counters["net.recovery.restarts"] >= 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           victim=st.sampled_from(("r", "s", "t")),
           crash_at=st.integers(1, 6),
           restart_after=st.integers(3, 25))
    def test_dqsq_crash_schedules_terminate_with_correct_answers(
            self, seed, victim, crash_at, restart_after):
        plan = PeerFaultPlan(crash_at={victim: (crash_at,)},
                             restart_after_deliveries=restart_after)
        dd = DDatalogProgram(parse_program(RULES))
        edb = load_facts(parse_program(FACTS))
        engine = DqsqEngine(dd, edb,
                            options=NetworkOptions(seed=seed, peer_fault=plan),
                            use_termination_detector=True)
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.terminated_by_detector is True
        assert not result.partial
        assert {f[1].value for f in result.answers} == {"2", "4"}

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1_000),
           start=st.integers(0, 8),
           heal_after=st.integers(2, 20))
    def test_dqsq_partition_schedules_terminate_with_correct_answers(
            self, seed, start, heal_after):
        plan = PeerFaultPlan(partitions=(
            LinkPartition("r", "s", start=start, heal_after=heal_after),))
        dd = DDatalogProgram(parse_program(RULES))
        edb = load_facts(parse_program(FACTS))
        engine = DqsqEngine(dd, edb,
                            options=NetworkOptions(seed=seed, peer_fault=plan),
                            use_termination_detector=True)
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.terminated_by_detector is True
        assert {f[1].value for f in result.answers} == {"2", "4"}
