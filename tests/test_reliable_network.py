"""Tests for exactly-once FIFO delivery over the lossy simulated network."""

import pytest

from repro.datalog import Query, parse_atom, parse_program
from repro.distributed import DDatalogProgram, DqsqEngine
from repro.distributed.network import (FaultPlan, Message, Network,
                                       NetworkOptions)
from repro.errors import TransportExhausted


class Recorder:
    def __init__(self, name):
        self.name = name
        self.received = []

    def on_messages(self, batch: list[Message], network: Network) -> None:
        self.received.extend(batch)


def two_peer_network(fault: FaultPlan, seed: int = 0):
    network = Network(NetworkOptions(seed=seed, fault=fault))
    a, b = Recorder("a"), Recorder("b")
    network.register("a", a)
    network.register("b", b)
    return network, a, b


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPlan(delay_distribution=(-1, 2))
        with pytest.raises(ValueError):
            FaultPlan(delay_distribution=(3, 1))

    def test_duplicate_probability_shim_is_gone(self):
        # A lost frame is retransmitted from the head of its channel, so
        # no copy ever arrives twice: there is no duplication knob.
        with pytest.raises(TypeError):
            NetworkOptions(duplicate_probability=0.25)
        with pytest.raises(TypeError):
            FaultPlan(duplicate_probability=0.25)


class TestLossyFifo:
    @pytest.mark.parametrize("seed", range(8))
    def test_exactly_once_in_order_under_loss(self, seed):
        network, _a, b = two_peer_network(
            FaultPlan(drop_probability=0.3), seed=seed)
        for i in range(40):
            network.send("a", "b", "n", i)
        network.run_until_quiescent()
        assert [m.payload for m in b.received] == list(range(40))
        assert network.counters["net.dropped"] > 0
        # one retransmission per lost transmission, never a spurious one
        assert (network.counters["net.retransmits"]
                == network.counters["net.dropped"])

    @pytest.mark.parametrize("seed", range(8))
    def test_exactly_once_in_order_under_loss_and_delay(self, seed):
        network, _a, b = two_peer_network(
            FaultPlan(drop_probability=0.25, delay_distribution=(0, 5)),
            seed=seed)
        for i in range(30):
            network.send("a", "b", "n", i)
        network.run_until_quiescent()
        assert [m.payload for m in b.received] == list(range(30))

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_channel_traffic_stays_per_channel_fifo(self, seed):
        network = Network(NetworkOptions(
            seed=seed, fault=FaultPlan(drop_probability=0.3,
                                       delay_distribution=(0, 4))))
        c = Recorder("c")
        for name in ("a", "b"):
            network.register(name, Recorder(name))
        network.register("c", c)
        for i in range(15):
            network.send("a", "c", "a", f"a{i}")
            network.send("b", "c", "b", f"b{i}")
        network.run_until_quiescent()
        a_events = [m.payload for m in c.received if m.kind == "a"]
        b_events = [m.payload for m in c.received if m.kind == "b"]
        assert a_events == [f"a{i}" for i in range(15)]
        assert b_events == [f"b{i}" for i in range(15)]

    def test_delay_reorders_nothing_within_a_channel(self):
        network, _a, b = two_peer_network(
            FaultPlan(delay_distribution=(0, 10)), seed=3)
        for i in range(25):
            network.send("a", "b", "n", i)
        network.run_until_quiescent()
        assert [m.payload for m in b.received] == list(range(25))
        assert network.counters["net.dropped"] == 0

    def test_monitors_see_only_first_deliveries(self):
        network, _a, b = two_peer_network(
            FaultPlan(drop_probability=0.4), seed=1)
        seen = []
        network.add_monitor(lambda m: seen.append(m.payload))
        for i in range(20):
            network.send("a", "b", "n", i)
        network.run_until_quiescent()
        assert seen == list(range(20))

    def test_delivery_latency_counter_tracks_delay(self):
        network, _a, b = two_peer_network(
            FaultPlan(delay_distribution=(5, 5)), seed=0)
        network.send("a", "b", "n", 0)
        network.run_until_quiescent()
        assert network.counters["net.delivery_latency_max"] >= 1


class TestExhaustion:
    def test_total_loss_exhausts_retries(self):
        network, _a, _b = two_peer_network(
            FaultPlan(drop_probability=1.0, max_retries=4), seed=0)
        network.send("a", "b", "doomed", None)
        with pytest.raises(TransportExhausted) as info:
            network.run_until_quiescent()
        err = info.value
        assert err.channel == ("a", "b")
        assert err.kind == "doomed"
        assert err.retries == 4
        stats = err.stats["a->b"]
        assert stats["sent"] == 1
        assert stats["delivered"] == 0
        assert stats["retransmits"] == 4
        # original + 4 retransmissions, all dropped
        assert stats["dropped"] == 5

    def test_channel_stats_snapshot(self):
        network, _a, b = two_peer_network(
            FaultPlan(drop_probability=0.3), seed=2)
        for i in range(10):
            network.send("a", "b", "n", i)
        network.run_until_quiescent()
        stats = network.channel_stats()
        assert stats["a->b"]["delivered"] == 10
        assert stats["a->b"]["sent"] == 10
        assert stats["a->b"]["retransmits"] == stats["a->b"]["dropped"] > 0

    def test_zero_retries_is_a_valid_budget(self):
        network, _a, _b = two_peer_network(
            FaultPlan(drop_probability=1.0, max_retries=0), seed=0)
        network.send("a", "b", "x", None)
        with pytest.raises(TransportExhausted):
            network.run_until_quiescent()


class TestExhaustedPartialResults:
    """An exhausted transport must surface a *partial* result -- answers
    found so far plus the counters of every peer, including the ones on
    the dead channel -- rather than discarding the run (regression)."""

    RULES = """
    p@a(X) :- q@b(X).
    q@b("1").
    q@b("2").
    """

    def test_partial_result_carries_failed_peer_counters(self):
        dd = DDatalogProgram(parse_program(self.RULES))
        engine = DqsqEngine(dd, options=NetworkOptions(
            seed=7, fault=FaultPlan(drop_probability=1.0, max_retries=3)))
        result = engine.query(Query(parse_atom("p@a(X)")))
        assert result.partial
        err = result.transport_error
        assert err is not None and err.retries == 3
        # The merged counters still include the transport's evidence and
        # the per-peer work, with both endpoints of the dead channel
        # individually reported.
        assert result.counters["net.seed"] == 7
        assert result.counters["net.retransmits"] >= 3
        assert result.counters["net.dropped"] >= 4
        assert set(result.per_peer) == {"a", "b"}
        assert result.per_peer["a"]["rewritings"] >= 1
        sender, recipient = err.channel
        assert err.stats[f"{sender}->{recipient}"]["delivered"] == 0

    def test_fault_free_oracle_for_the_same_program(self):
        dd = DDatalogProgram(parse_program(self.RULES))
        engine = DqsqEngine(dd)
        result = engine.query(Query(parse_atom("p@a(X)")))
        assert not result.partial
        assert {f[0].value for f in result.answers} == {"1", "2"}


class TestReliabilityOffPath:
    def test_no_faults_means_no_transport_traffic(self):
        network, _a, b = two_peer_network(FaultPlan(), seed=0)
        for i in range(5):
            network.send("a", "b", "n", i)
        delivered = network.run_until_quiescent()
        assert delivered == 5
        assert network.counters["net.dropped"] == 0
        assert network.counters["net.retransmits"] == 0
