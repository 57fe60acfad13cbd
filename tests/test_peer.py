"""The shared peer runtime (repro.distributed.peer): what the merge of
the dQSQ and naive peers added, not what either engine already tested."""

import pytest

import repro
from repro.datalog import EvaluationBudget, parse_atom
from repro.datalog.rule import Query
from repro.datalog.term import Const
from repro.distributed import DistributedNaiveEngine, DqsqEngine
from repro.distributed.network import Message
from repro.distributed.peer import Peer
from repro.workloads.scenarios import figure3, get_scenario

KEY = ("r", "home")


class _StoreThenRegister(Peer):
    """A request stores a fact and *then* registers the asker as reader."""

    KIND_FACTS = "facts"

    def handle(self, message, transport):
        self.db.add(KEY, (Const(message.payload),))
        self.register_reader(KEY, message.sender, transport)


class _Outbox:
    def __init__(self):
        self.sent = []

    def send(self, sender, recipient, kind, payload):
        self.sent.append((recipient, payload))


def _shipped_to(outbox, reader):
    return [row[0].value for recipient, payload in outbox.sent
            if recipient == reader for row in zip(*payload["columns"])]


class TestDispatchRules:
    def test_fact_stored_before_its_reader_registers_is_shipped_once(self):
        peer = _StoreThenRegister("home", (), EvaluationBudget())
        outbox = _Outbox()
        peer.on_message(Message("a", "home", "ask", "1", 1), outbox)
        assert _shipped_to(outbox, "a") == ["1"]
        # A later reader gets what the first already has, and the new fact
        # together with it -- each exactly once.
        peer.on_message(Message("b", "home", "ask", "2", 1), outbox)
        assert _shipped_to(outbox, "a") == ["1", "2"]
        assert sorted(_shipped_to(outbox, "b")) == ["1", "2"]
        assert peer.counters["tuples_shipped"] == 4

    def test_initial_store_is_current_not_new(self):
        peer = _StoreThenRegister("home", (), EvaluationBudget(),
                                  facts={KEY: [(Const("0"),)]})
        outbox = _Outbox()
        peer.work(outbox)
        assert outbox.sent == []
        peer.on_message(Message("a", "home", "ask", "1", 1), outbox)
        assert _shipped_to(outbox, "a") == ["0", "1"]


class TestNothingShippedTwice:
    """Fault-free, every shipped tuple is new to its receiver."""

    @pytest.mark.parametrize("engine", [DqsqEngine, DistributedNaiveEngine])
    def test_figure3(self, engine):
        program, edb, _query = figure3()
        counters = engine(program, edb).query(
            Query(parse_atom('r@r("1", Y)'))).counters
        assert counters["tuples_shipped"] == counters["tuples_received"] > 0

    def test_figure1_diagnosis(self):
        petri, alarms = get_scenario("figure1-bac").instantiate()
        counters = repro.diagnose(petri, alarms, method="dqsq").counters
        assert counters["tuples_shipped"] == counters["tuples_received"] > 0
