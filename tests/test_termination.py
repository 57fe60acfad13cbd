"""Tests for Dijkstra-Scholten termination detection.

Soundness is the critical property: when the detector declares
termination, no basic message may be in flight anywhere.  We check it by
monitoring every delivery under many schedules, holding the detector's
verdict to the simulator's drain to global quiescence.  The handlers are
plain: the network runs the protocol around every delivery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Query, parse_atom, parse_program
from repro.datalog.database import load_facts
from repro.distributed import (DDatalogProgram, DijkstraScholten,
                               DistributedNaiveEngine, DqsqEngine,
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
        engine = DqsqEngine(dd, edb, options=NetworkOptions(seed=seed))
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.terminated_by_detector is True
        assert {f[1].value for f in result.answers} == {"2", "4"}

    def test_trivial_local_query_terminates(self):
        dd = DDatalogProgram(parse_program('p@a(X) :- base@a(X).\nbase@a("1").'))
        engine = DqsqEngine(dd)
        result = engine.query(Query(parse_atom("p@a(X)")))
        assert result.terminated_by_detector is True
        assert len(result.answers) == 1

    def test_acks_flow(self):
        dd = DDatalogProgram(parse_program(RULES))
        edb = load_facts(parse_program(FACTS))
        engine = DqsqEngine(dd, edb)
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.counters[f"messages_sent[{ACK_KIND}]"] >= 1


class TestVerdictOnEveryRun:
    """The detector rides every distributed run: a run the simulator
    drains to completion has the root's verdict, on both engines."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           engine=st.sampled_from((DqsqEngine, DistributedNaiveEngine)))
    def test_complete_runs_are_detected(self, seed, engine):
        dd = DDatalogProgram(parse_program(RULES))
        edb = load_facts(parse_program(FACTS))
        result = engine(dd, edb, options=NetworkOptions(seed=seed)).query(
            Query(parse_atom('r@r("1", Y)')))
        assert not result.partial
        assert result.terminated_by_detector is True
        assert {f[1].value for f in result.answers} == {"2", "4"}


class _Relay:
    """A peer doing a fixed amount of relayed work: a plain handler, the
    network runs the termination protocol around it.

    Checkpointable, so crash schedules can target it: the whole state is
    the ``fired`` flag.  Replayed deliveries re-run the handler (the
    relay only fires once per incarnation anyway).
    """

    def __init__(self, name: str, plan: dict):
        self.name = name
        self.plan = plan  # recipient -> count of messages to send on first receipt
        self.fired = False

    def checkpoint(self):
        return {"fired": self.fired}

    def restore(self, snapshot):
        self.fired = bool(snapshot["fired"]) if snapshot else False

    def on_messages(self, batch: list[Message], network: Network) -> None:
        assert all(message.kind != ACK_KIND for message in batch), \
            "the network consumes ds-acks"
        self.fire(network)

    def fire(self, network: Network) -> None:
        if not self.fired:
            self.fired = True
            for recipient, count in self.plan.items():
                for _ in range(count):
                    network.send(self.name, recipient, "work", None)


def _relay_network(options: NetworkOptions):
    detector = DijkstraScholten("root")
    network = Network(options)
    network.detector = detector
    peers = {
        "root": _Relay("root", {"a": 2, "b": 1}),
        "a": _Relay("a", {"b": 1, "c": 1}),
        "b": _Relay("b", {"c": 2}),
        "c": _Relay("c", {}),
    }
    for name, peer in peers.items():
        network.register(name, peer)
    return detector, network, peers


def _kick_off(detector, network, peers) -> None:
    detector.start(lambda: peers["root"].fire(network), network)


class TestProtocolDirectly:
    @pytest.mark.parametrize("seed", range(10))
    def test_sound_and_live(self, seed):
        detector, network, peers = _relay_network(NetworkOptions(seed=seed))

        def monitor(message: Message) -> None:
            if detector.terminated:
                in_flight = (_unsettled_basic(network)
                             + int(message.kind != ACK_KIND))
                assert not in_flight, "termination declared with messages in flight"

        network.add_monitor(monitor)
        _kick_off(detector, network, peers)
        while network.pending():
            network.step()
        assert detector.terminated, "detector failed to detect termination (liveness)"

    def test_no_false_positive_before_work_done(self):
        detector, network, _peers = _relay_network(NetworkOptions(seed=0))
        detector.start(lambda: network.send("root", "a", "work", None),
                       network)
        # Work is still in flight: not terminated yet.
        assert not detector.terminated
        network.run_until_quiescent()
        assert detector.terminated

    def test_handlers_never_see_acks(self):
        detector, network, peers = _relay_network(NetworkOptions(seed=0))
        _kick_off(detector, network, peers)
        network.run_until_quiescent()
        assert network.counters[f"messages_sent[{ACK_KIND}]"] > 0
        assert detector.terminated


def _unsettled_basic(network: Network) -> int:
    """Basic (non-ack) messages still owed a first delivery.

    Every such frame is on the wire: a lost transmission stays at the
    head of its channel.  A frame that already reached its recipient
    was consumed and protocol-settled by the pre-crash incarnation of
    the recipient; its re-delivery is a replay, not outstanding work,
    so it is excluded.
    """
    return sum(1 for queue in network._channels.values() for frame in queue
               if frame.message.kind != ACK_KIND and not frame.delivered)


class TestProtocolUnderCrashes:
    """The satellite property: the detector never declares termination
    while a recovered (or any) peer still holds unacked basic messages.

    Driven directly against the relay fixture so the monitor can check
    the invariant at every single delivery, and end-to-end through dQSQ
    so crash schedules also have to preserve liveness and the answers.
    """

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
        detector, network, peers = _relay_network(
            NetworkOptions(seed=seed, peer_fault=plan))

        replays_seen = [0]

        def monitor(message: Message) -> None:
            # The network counts a replay before monitors see it.
            replays = network.counters["net.recovery.deliveries_replayed"]
            replayed = replays > replays_seen[0]
            replays_seen[0] = replays
            if not detector.terminated:
                return
            # The frame being delivered right now has left the queues but
            # not yet reached its handler: unless it is a replay, it is
            # in flight too.
            this_one = int(message.kind != ACK_KIND and not replayed)
            unsettled = _unsettled_basic(network) + this_one
            assert unsettled == 0, (
                f"termination declared with {unsettled} basic message(s) "
                f"unsettled (delivering {message.kind})")

        network.add_monitor(monitor)
        _kick_off(detector, network, peers)
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
                            options=NetworkOptions(seed=seed, peer_fault=plan))
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
                            options=NetworkOptions(seed=seed, peer_fault=plan))
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.terminated_by_detector is True
        assert {f[1].value for f in result.answers} == {"2", "4"}
