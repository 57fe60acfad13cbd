"""The dDatalog peer runtime: what every peer is, whichever engine runs it.

Section 3.2 sets the two distributed evaluations side by side and lets
them differ in one thing, binding propagation.  So do the engines here:
:mod:`repro.distributed.naive_dist` and :mod:`repro.distributed.dqsq`
subclass :class:`Peer` and keep only *what they install* and *what they
ask each other for*.  How a peer stores facts, schedules its rules,
remembers who reads a relation, ships a delta, checkpoints and restores
is written once, below (Ameloot, Neven & Van den Bussche's one transducer
run at every node).  As in their transducer transition, a peer reads a
whole batch of buffered messages and then computes once: one local
fixpoint and dispatch per batch, whatever its size.  Termination
detection is not a peer's business: the transport runs it around every
batch (:mod:`repro.distributed.termination`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.datalog.atom import Atom
from repro.datalog.database import Database, Fact, RelationKey, select
from repro.datalog.rule import Program, Rule
from repro.datalog.seminaive import EvaluationBudget, IncrementalEvaluator
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.network import Message, NetworkOptions
from repro.distributed.transport import (PeerSpec, Transport, TransportJob,
                                         TransportRuntime, resolve_transport)
from repro.errors import DistributedError, PeerUnavailable, TransportExhausted
from repro.utils.counters import Counters

R = TypeVar("R", bound="DistributedResult")


class Peer:
    """One peer: the rules and EDB facts it holds, a fact store, the rules
    installed so far, and the readers of its relations.

    Subclasses set :attr:`KIND_FACTS` and fill five hooks: :meth:`handle`,
    :meth:`after_fixpoint`, :meth:`load_initial`, :meth:`state` and
    :meth:`set_state`.  Attributes ``load_initial`` reads must be set
    before ``Peer.__init__`` runs.
    """

    #: message kind of a shipped delta (one per engine: the race reports
    #: and the benchmark's ``messages_sent[...]`` counters print it)
    KIND_FACTS: str

    def __init__(self, name: str, rules: Sequence[Rule], budget: EvaluationBudget,
                 facts: dict[RelationKey, list[Fact]] | None = None) -> None:
        self.name = name
        self.rules = Program(rules)
        self.counters = Counters()
        self.evaluator = IncrementalEvaluator(None, budget)
        self._edb = facts or {}
        self._rebuild(None)

    # -- subclass hooks ----------------------------------------------------------

    def handle(self, message: Message, transport: Transport) -> None:
        """Apply a message that is not a delta (a request of the engine)."""
        raise DistributedError(f"unexpected message kind {message.kind}")

    def after_fixpoint(self, touched: Iterable[RelationKey],
                       transport: Transport) -> bool:
        """React to the relations the latest fixpoint added to; True when
        that installed anything, so :meth:`work` goes round again."""
        return False

    def load_initial(self) -> None:
        """Store what the peer's own program makes it hold before any
        message (its EDB facts are loaded after this)."""

    def state(self) -> Any:
        """The engine-specific part of a checkpoint (picklable)."""
        return None

    def set_state(self, state: Any) -> None:
        """Adopt :meth:`state`'s value, or start afresh on ``None``;
        called once the store is rebuilt."""

    # -- checkpoint / restore ----------------------------------------------------

    def checkpoint(self) -> dict:
        """A serializable snapshot of this peer's mutable state.

        Taken at a batch boundary, so the local evaluation is at a
        fixpoint and every stored fact has been dispatched: the snapshot
        is internally consistent by construction and needs no cursor.
        Source rules and the budget are static configuration and are not
        included.
        """
        return {
            "facts": {key: list(self.db.facts(key))
                      for key in self.db.relations()},
            "rules": list(self._install_log),
            "readers": {key: set(names) for key, names in self.readers.items()},
            "state": self.state(),
        }

    def restore(self, snapshot: dict | None) -> None:
        """Replace this peer's state with ``snapshot`` (``None`` = reset
        to the post-construction state).

        Counters are deliberately *not* rolled back: recovery work is
        real work.  Registrations and requests lost with the rolled-back
        suffix are healed by the transport replaying the messages that
        carried them.
        """
        self.counters.add("net.recovery.restores")
        self._rebuild(snapshot)

    def _rebuild(self, snapshot: dict | None) -> None:
        """Fresh store and scheduler, filled from ``snapshot`` (``None``:
        from the peer's own initial facts)."""
        self.db = Database()
        self.evaluator.bind(self.db)
        self.readers: dict[RelationKey, set[str]] = {}
        self._install_log: list[Rule] = []
        if snapshot is None:
            self.load_initial()
            for key, tuples in self._edb.items():
                self.db.add_all(key, tuples, assume_ground=True)
        else:
            for key, tuples in snapshot["facts"].items():
                self.db.add_all(key, tuples, assume_ground=True)
            for rule in snapshot["rules"]:
                self.install(rule)
                self.counters.add("net.recovery.refired_rules")
            # One fixpoint run re-derives the evaluator's frontier; the
            # snapshot was a fixpoint of these rules, so it adds no fact.
            self.evaluator.run()
            self.readers = {key: set(names)
                            for key, names in snapshot["readers"].items()}
        # Everything stored so far is current, not new: only genuinely new
        # facts (replayed or fresh deliveries) flow through dispatch.
        self._dispatched: dict[RelationKey, int] = self.db.snapshot_counts()
        self._log_position = len(self.db.change_log())
        self.set_state(None if snapshot is None else snapshot["state"])

    # -- message handling --------------------------------------------------------

    def on_messages(self, batch: Sequence[Message],
                    transport: Transport) -> None:
        """Store every delta and apply every request of ``batch``, then
        run one :meth:`work`."""
        # A recovery replay re-runs this too: fact stores, rule
        # installation and reader registration all deduplicate.
        for message in batch:
            if message.kind == self.KIND_FACTS:
                self._store_delta(message.payload)
            else:
                self.handle(message, transport)
        self.work(transport)

    def _store_delta(self, payload: dict) -> None:
        key = (payload["relation"], payload["home"])
        # Facts travel columnar (parallel term columns + count).  Shipped
        # tuples come out of a peer's validated store (and are re-interned
        # on unpickling), so the bulk insert skips per-fact groundness
        # checks.
        columns = payload["columns"]
        rows: list[Fact] = (list(zip(*columns)) if columns
                            else [()] * payload["count"])
        added = self.db.add_all(key, rows, assume_ground=True)
        self.counters.add("tuples_received", added)
        if key[1] != self.name:
            # Replicas of remote-homed relations must not be pushed back
            # to their home: advance the dispatch cursor.
            self._dispatched[key] = len(self.db.facts(key))

    def work(self, transport: Transport) -> None:
        """Run a local fixpoint and dispatch its new facts; go round
        again only while :meth:`after_fixpoint` installs something
        (a dispatch ships facts but stores none)."""
        while True:
            self.evaluator.run()
            self.counters.add("fixpoint_runs")
            log = self.db.change_log()
            touched = dict.fromkeys(log[self._log_position:])
            self._log_position = len(log)
            self._dispatch(touched, transport)
            if not self.after_fixpoint(touched, transport):
                return

    def install(self, rule: Rule) -> None:
        """Hand ``rule`` to the scheduler (once) and log it for restore."""
        if self.evaluator.add_rule(rule):
            self.counters.add("rules_installed")
            self._install_log.append(rule)

    # -- fact dispatch -----------------------------------------------------------

    def register_reader(self, key: RelationKey, reader: str,
                        transport: Transport) -> None:
        """Stream ``key``'s facts, current and future, to ``reader``."""
        readers = self.readers.setdefault(key, set())
        if reader in readers or reader == self.name:
            return
        readers.add(reader)
        # Only what the other readers already have: facts beyond the
        # cursor reach every reader, this one included, at the next
        # dispatch, so nothing is shipped twice.
        sent = self.db.facts(key)[:self._dispatched.get(key, 0)]
        if sent:
            self._send_facts(transport, reader, key, sent)

    def _dispatch(self, touched: Iterable[RelationKey],
                  transport: Transport) -> None:
        """Push new facts to their home peer or to registered readers."""
        for key in touched:
            facts = self.db.facts(key)
            start = self._dispatched.get(key, 0)
            if start >= len(facts):
                continue
            new = facts[start:]
            self._dispatched[key] = len(facts)
            home = key[1]
            if home is not None and home != self.name:
                self._send_facts(transport, home, key, new)
            else:
                for reader in self.readers.get(key, ()):
                    self._send_facts(transport, reader, key, new)

    def _send_facts(self, transport: Transport, recipient: str, key: RelationKey,
                    tuples: Sequence[Fact]) -> None:
        # Ship the delta columnar: k columns of n interned terms instead
        # of n k-tuples (fewer containers to pickle on the mp transport,
        # and the receiver's bulk insert applies it as one batch).  The
        # explicit count keeps zero-arity deltas visible.
        self.counters.add("tuples_shipped", len(tuples))
        columns = tuple(zip(*tuples)) if tuples and tuples[0] else ()
        transport.send(self.name, recipient, self.KIND_FACTS,
                       {"relation": key[0], "home": key[1],
                        "columns": columns, "count": len(tuples)})


@dataclass
class DistributedResult:
    """Answers plus aggregate instrumentation from a distributed run."""

    answers: set[Fact]
    counters: Counters
    per_peer: dict[str, Counters]
    databases: dict[str, Database] = field(repr=False, default_factory=dict)
    #: the Dijkstra-Scholten detector's verdict at the origin
    terminated_by_detector: bool = False
    #: set when a frame ran out of retries before quiescence; the
    #: answers then reflect only what was derived before the failure
    transport_error: TransportExhausted | None = None
    #: set when one or more peers failed permanently; the answers are
    #: the sound partial result computed by the surviving peers
    peer_failure: PeerUnavailable | None = None

    @property
    def partial(self) -> bool:
        """True when the evaluation stopped early on transport or peer failure."""
        return self.transport_error is not None or self.peer_failure is not None

    @property
    def peer_report(self) -> dict[str, dict[str, int | bool]] | None:
        """Per-peer failure report of a degraded run, else None."""
        return self.peer_failure.report if self.peer_failure is not None else None


def run_query(program: DDatalogProgram, edb: Database, answer: Atom, *,
              origin: str, peers: Iterable[str], peer_class: type[Peer],
              result_class: type[R], budget: EvaluationBudget,
              start: Callable[[Any, Transport], None],
              transport: str | TransportRuntime, options: NetworkOptions,
              order_sensitive: bool = False, **peer_options: Any) -> R:
    """Run one distributed evaluation and read the facts matching
    ``answer`` off ``origin``'s final store.

    There is a ``peer_class`` peer per name (the program's, ``peers`` and
    every EDB owner), each holding its rules and its share of ``edb``;
    ``start`` runs at ``origin``, the root of the run's termination
    detector.  The peer class itself is the
    :class:`PeerSpec` factory: a module-level class pickles by reference,
    so the multiprocessing transport builds the peer inside its worker
    process.
    """
    names = set(program.peers()) | set(peers)
    facts: dict[str, dict[RelationKey, list[Fact]]] = {}
    for key in edb.relations():
        relation, owner = key
        if owner is None:
            raise DistributedError(f"EDB relation {relation} is not located")
        names.add(owner)
        facts.setdefault(owner, {})[key] = list(edb.facts(key))
    specs = {name: PeerSpec(peer_class, {
                 "rules": tuple(program.rules_at(name)), "budget": budget,
                 "facts": facts.get(name, {}), **peer_options})
             for name in names}
    job = TransportJob(peers=specs, origin=origin, start=start,
                       program=program.program,
                       order_sensitive=order_sensitive)
    outcome = resolve_transport(transport, options).run(job)
    return result_class(
        answers=select(outcome.databases.get(origin, Database()), answer),
        counters=outcome.merged_counters(), per_peer=outcome.per_peer,
        databases=outcome.databases,
        terminated_by_detector=outcome.terminated_by_detector,
        transport_error=outcome.transport_error,
        peer_failure=outcome.peer_failure)
