"""Distributed naive evaluation of dDatalog (Section 3.2).

"For local relations, the treatment is the same as before.  For external
relations, a request has to be sent to the external site.  Then tuples
start being produced in various sites and exchanged.  The system reaches
a fixpoint when no new relation may be activated and no new fact derived
at any peer."

Each peer holds the rules whose head it owns plus its EDB facts.
Activating a relation activates its rules; a rule with a remote body
atom *subscribes* to the remote relation, whose owner streams all its
current and future tuples.  No bindings are propagated -- whole relations
travel -- which is exactly the inefficiency dQSQ removes.
"""

from __future__ import annotations

import functools
from typing import Sequence

from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.rule import Query, Rule
from repro.datalog.seminaive import EvaluationBudget
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.network import Message, NetworkOptions
from repro.distributed.peer import DistributedResult, Peer, run_query
from repro.distributed.transport import Transport, TransportRuntime
from repro.errors import DistributedError

KIND_ACTIVATE = "activate"
KIND_FACTS = "facts"


class _NaivePeer(Peer):
    """A peer of the distributed naive evaluation: its rules, installed
    relation by relation as they are activated."""

    KIND_FACTS = KIND_FACTS

    def __init__(self, name: str, rules: Sequence[Rule], budget: EvaluationBudget,
                 facts: dict[RelationKey, list[Fact]] | None = None,
                 unsafe_negation: bool = False) -> None:
        #: subscribe to negated atoms too, evaluating the negation at
        #: fire time against whatever replica has arrived -- knowingly
        #: order-sensitive (see DistributedNaiveEngine)
        self.unsafe_negation = unsafe_negation
        super().__init__(name, rules, budget, facts)

    def state(self) -> tuple[set[str], set[RelationKey]]:
        return set(self.active), set(self.subscriptions)

    def set_state(self, state: tuple[set[str], set[RelationKey]] | None) -> None:
        # The restored subscription set stands without re-sending: lost
        # remote registrations are healed by replay of the ACTIVATE
        # messages that carried them.
        self.active, self.subscriptions = state or (set(), set())

    # -- activation -------------------------------------------------------------

    def activate(self, relation: str, transport: Transport) -> None:
        """Activate a local relation: activate its rules and their bodies."""
        if relation in self.active:
            return
        self.active.add(relation)
        self.counters.add("relations_activated")
        for rule in self.rules.rules_for(relation, self.name):
            self.counters.add("rules_activated")
            self.install(rule)
            atoms = rule.body
            if self.unsafe_negation:
                # Negated atoms need their replica too -- without it the
                # fire-time negation check would see an empty relation.
                atoms = rule.body + rule.negated
            for atom in atoms:
                if atom.peer == self.name:
                    self.activate(atom.relation, transport)
                elif (atom.relation, atom.peer) not in self.subscriptions:
                    self.subscriptions.add((atom.relation, atom.peer))
                    transport.send(self.name, atom.peer or "", KIND_ACTIVATE,
                                   {"relation": atom.relation,
                                    "subscriber": self.name})

    def handle(self, message: Message, transport: Transport) -> None:
        if message.kind == KIND_ACTIVATE:
            relation = message.payload["relation"]
            self.activate(relation, transport)
            self.register_reader((relation, self.name),
                                 message.payload["subscriber"], transport)
        else:
            super().handle(message, transport)


class NaiveDistResult(DistributedResult):
    """Answers plus aggregate instrumentation."""


def _start_naive(peer: _NaivePeer, transport: Transport, *,
                 relation: str) -> None:
    """Activate the queried relation at the origin peer."""
    peer.activate(relation, transport)
    peer.work(transport)


class DistributedNaiveEngine:
    """Drives a distributed naive evaluation over a pluggable transport.

    ``transport`` selects the substrate exactly as in
    :class:`repro.distributed.dqsq.DqsqEngine`.  Note that
    ``unsafe_negation=True`` marks the job *order-sensitive*, so the
    multiprocessing transport refuses it unless explicitly overridden --
    fire-time negation only makes sense under the simulator's seeded,
    replayable schedules.
    """

    def __init__(self, program: DDatalogProgram, edb: Database | None = None,
                 budget: EvaluationBudget | None = None,
                 options: NetworkOptions | None = None,
                 check: bool = True, unsafe_negation: bool = False,
                 transport: str | TransportRuntime = "sim") -> None:
        self.program = program
        self.budget = budget or EvaluationBudget()
        self.options = options or NetworkOptions()
        self._edb = edb or Database()
        self.unsafe_negation = unsafe_negation
        self.transport = transport
        if check:
            from repro.datalog.analysis import check_program
            # DD403 escalates to an error here: peers never subscribe to
            # negated atoms, so the negation would be silently ignored.
            # ``unsafe_negation=True`` opts out: peers then *do* subscribe
            # to negated atoms and check the negation at fire time against
            # whatever replica has arrived.  That is deliberately
            # order-sensitive -- it exists so ``repro race`` has a
            # live subject whose races (DD701/DD702/DD703) are
            # observable, not masked.
            escalate = () if unsafe_negation else ("DD403",)
            check_program(program.program, context="naive-dist",
                          escalate=escalate)

    def query(self, query: Query) -> NaiveDistResult:
        """Evaluate ``query`` (whose atom must be located) to fixpoint."""
        atom = query.atom
        if atom.peer is None:
            raise DistributedError("distributed queries must target a located atom")
        result = run_query(
            self.program, self._edb, atom, origin=atom.peer, peers=(atom.peer,),
            peer_class=_NaivePeer, result_class=NaiveDistResult,
            budget=self.budget,
            start=functools.partial(_start_naive, relation=atom.relation),
            transport=self.transport, options=self.options,
            order_sensitive=self.unsafe_negation,
            unsafe_negation=self.unsafe_negation)
        result.counters.add(
            "facts_materialized_global",
            sum(db.total_facts() for db in result.databases.values()))
        return result
