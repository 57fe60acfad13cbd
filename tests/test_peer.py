"""The shared peer runtime (repro.distributed.peer): what the merge of
the dQSQ and naive peers added, not what either engine already tested."""

import pytest

import repro
from repro.datalog import EvaluationBudget, parse_atom
from repro.datalog.rule import Query
from repro.datalog.term import Const
from repro.distributed import DistributedNaiveEngine, DqsqEngine
from repro.distributed.dqsq import KIND_FACTS, _DqsqPeer
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
        peer.on_messages([Message("a", "home", "ask", "1")], outbox)
        assert _shipped_to(outbox, "a") == ["1"]
        # A later reader gets what the first already has, and the new fact
        # together with it -- each exactly once.
        peer.on_messages([Message("b", "home", "ask", "2")], outbox)
        assert _shipped_to(outbox, "a") == ["1", "2"]
        assert sorted(_shipped_to(outbox, "b")) == ["1", "2"]
        assert peer.counters["tuples_shipped"] == 4

    def test_initial_store_is_current_not_new(self):
        peer = _StoreThenRegister("home", (), EvaluationBudget(),
                                  facts={KEY: [(Const("0"),)]})
        outbox = _Outbox()
        peer.work(outbox)
        assert outbox.sent == []
        peer.on_messages([Message("a", "home", "ask", "1")], outbox)
        assert _shipped_to(outbox, "a") == ["0", "1"]


class TestOneFixpointPerBatch:
    """A batch is one transducer transition: however many deltas it
    carries, the peer runs one local fixpoint."""

    @staticmethod
    def _delta(i):
        return Message("a", "home", KIND_FACTS, {
            "relation": "q", "home": "a", "columns": ((Const(str(i)),),),
            "count": 1})

    def test_batch_of_deltas_costs_one_fixpoint(self):
        batch = [self._delta(i) for i in range(5)]
        peer = _DqsqPeer("home", (), EvaluationBudget())
        peer.on_messages(batch, _Outbox())
        assert peer.counters["tuples_received"] == 5
        assert peer.counters["fixpoint_runs"] == 1
        one_by_one = _DqsqPeer("home", (), EvaluationBudget())
        for message in batch:
            one_by_one.on_messages([message], _Outbox())
        assert one_by_one.counters["fixpoint_runs"] == 5

    def test_a_round_that_only_ships_is_not_run_again(self):
        # shipping a fixpoint's new facts stores nothing locally, and
        # this peer installs nothing after a fixpoint: one run per batch
        peer = _StoreThenRegister("home", (), EvaluationBudget())
        outbox = _Outbox()
        for i in range(2):
            peer.on_messages([Message("a", "home", "ask", str(i))], outbox)
        assert _shipped_to(outbox, "a") == ["0", "1"]
        assert peer.counters["fixpoint_runs"] == 2


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
