"""Tests for the simulated asynchronous network."""

import pytest

from repro.distributed.network import Message, Network, NetworkOptions
from repro.errors import NetworkClosedError, UnknownPeerError


class Recorder:
    """A peer that records deliveries and can forward messages."""

    def __init__(self, name, forward_to=None, count=0):
        self.name = name
        self.received = []
        self.forward_to = forward_to
        self.forward_count = count

    def on_messages(self, batch: list[Message], network: Network) -> None:
        for message in batch:
            self.received.append(message)
            if self.forward_to and self.forward_count > 0:
                self.forward_count -= 1
                network.send(self.name, self.forward_to, "fwd",
                             message.payload)


class TestDelivery:
    def test_basic_delivery(self):
        network = Network()
        a, b = Recorder("a"), Recorder("b")
        network.register("a", a)
        network.register("b", b)
        network.send("a", "b", "hello", 42)
        assert network.pending() == 1
        assert network.step()
        assert [m.payload for m in b.received] == [42]
        assert not network.step()

    def test_unknown_recipient(self):
        network = Network()
        network.register("a", Recorder("a"))
        with pytest.raises(UnknownPeerError):
            network.send("a", "zz", "hello", 1)

    def test_double_registration(self):
        network = Network()
        network.register("a", Recorder("a"))
        with pytest.raises(UnknownPeerError):
            network.register("a", Recorder("a"))

    def test_closed_network(self):
        network = Network()
        network.register("a", Recorder("a"))
        network.close()
        with pytest.raises(NetworkClosedError):
            network.send("a", "a", "x", None)

    def test_per_channel_fifo(self):
        network = Network(NetworkOptions(seed=3))
        b = Recorder("b")
        network.register("a", Recorder("a"))
        network.register("b", b)
        for i in range(20):
            network.send("a", "b", "n", i)
        network.run_until_quiescent()
        assert [m.payload for m in b.received] == list(range(20))

    def test_cross_channel_interleaving_varies_by_seed(self):
        def trace(seed):
            network = Network(NetworkOptions(seed=seed))
            c = Recorder("c")
            for name in ("a", "b"):
                network.register(name, Recorder(name))
            network.register("c", c)
            for i in range(10):
                network.send("a", "c", "a", f"a{i}")
                network.send("b", "c", "b", f"b{i}")
            network.run_until_quiescent()
            return [m.payload for m in c.received]

        traces = {tuple(trace(seed)) for seed in range(6)}
        assert len(traces) > 1  # asynchrony: schedules differ
        for t in traces:
            # per-sender order is always preserved
            a_events = [x for x in t if x.startswith("a")]
            b_events = [x for x in t if x.startswith("b")]
            assert a_events == sorted(a_events, key=lambda s: int(s[1:]))
            assert b_events == sorted(b_events, key=lambda s: int(s[1:]))

    def test_handlers_can_send(self):
        network = Network()
        b = Recorder("b", forward_to="a", count=3)
        a = Recorder("a")
        network.register("a", a)
        network.register("b", b)
        network.send("a", "b", "ping", 0)
        delivered = network.run_until_quiescent()
        assert delivered == 2  # ping + one forward
        assert len(a.received) == 1

    def test_max_deliveries_guard(self):
        network = Network(NetworkOptions(max_deliveries=5))
        # Two peers ping-ponging forever.
        a = Recorder("a", forward_to="b", count=10**9)
        b = Recorder("b", forward_to="a", count=10**9)
        network.register("a", a)
        network.register("b", b)
        network.send("a", "b", "ping", 0)
        with pytest.raises(NetworkClosedError):
            network.run_until_quiescent()

    def test_counters(self):
        network = Network()
        b = Recorder("b")
        network.register("a", Recorder("a"))
        network.register("b", b)
        network.send("a", "b", "kindA", 1)
        network.send("a", "b", "kindB", 2)
        network.run_until_quiescent()
        assert network.counters["messages_sent"] == 2
        assert network.counters["messages_sent[kindA]"] == 1
        assert network.counters["messages_delivered"] == 2

    def test_monitor_sees_deliveries(self):
        network = Network()
        seen = []
        network.add_monitor(lambda m: seen.append(m.kind))
        b = Recorder("b")
        network.register("a", Recorder("a"))
        network.register("b", b)
        network.send("a", "b", "x", None)
        network.run_until_quiescent()
        assert seen == ["x"]
