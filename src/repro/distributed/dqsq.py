"""dQSQ: distributed Query-Sub-Query (Section 3.2, Figure 5).

The processing starts at the peer where the query is posed.  As in
centralized QSQ, the rule defining the query is rewritten top-down,
left to right -- but "when a remote relation is encountered, the peer
delegates the processing of the remainder of the rule (from the remote
relation name to the right end of the rule) to the remote peer in
charge of that relation" (the paper's rule (†)).

Faithfulness points implemented here:

* every peer rewrites **only its own rules**, lazily, when the first
  demand for an adorned relation arrives (Remark 2's "computation may
  start even before the rewriting is complete" holds: delegations and
  tuples interleave freely on the simulated network);
* supplementary relations are *located*: a handoff ships the current
  supplementary relation's tuples to the next peer, exactly like the
  bold ``sup22`` / ``sup32`` rules of Figure 5 (the chain itself is
  :func:`repro.datalog.qsq.rewrite_segment`, cut at each handoff);
* "if a peer receives the same request from different peers, it reuses
  the same machinery" -- demands are deduplicated per (relation,
  adornment), and new demand tuples flow through the installed rules.

Every installed rule fragment has a *local body*: the only cross-peer
traffic is (a) delegation requests and (b) streamed tuples of demand
(``in-``), supplementary and adorned-answer relations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.datalog.adornment import Adornment, adorned_name, input_name
from repro.datalog.atom import Atom, Inequality
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.naive import select
from repro.datalog.qsq import rewrite_segment
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.seminaive import EvaluationBudget, IncrementalEvaluator
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.network import Message, NetworkOptions
from repro.distributed.termination import ACK_KIND, DijkstraScholten
from repro.distributed.transport import (PeerSpec, Transport, TransportJob,
                                         TransportRuntime, resolve_transport)
from repro.errors import DistributedError, PeerUnavailable, TransportExhausted
from repro.utils.counters import Counters

KIND_FACTS = "dqsq-facts"
KIND_DELEGATE = "dqsq-delegate"
KIND_QUERY = "dqsq-query"


def sup_relation_name(uid: str, position: int) -> str:
    """Globally unique supplementary-relation name for a rewriting step."""
    return f"sup[{uid}]{position}"


def split_input_name(relation: str) -> tuple[str, Adornment] | None:
    """Inverse of :func:`repro.datalog.adornment.input_name`, or None."""
    if not relation.startswith("in-"):
        return None
    base = relation[3:]
    name, sep, pattern = base.rpartition("^")
    if not sep:
        return None
    try:
        return name, Adornment(pattern)
    except ValueError:
        return None


@dataclass
class _Delegation:
    """The remainder of a rule, for the peer owning its next atom (a whole
    rule at its home peer is the remainder after zero atoms)."""

    uid: str
    position: int                    #: body atoms already consumed
    head: Atom                       #: final adorned answer atom (located)
    atoms: tuple[Atom, ...]          #: remaining body atoms (located)
    inequalities: tuple[Inequality, ...]
    incoming: Atom                   #: relation holding the bindings so far


class _DqsqPeer:
    """One peer: its source rules, installed fragments, and fact store."""

    def __init__(self, name: str, rules: Sequence[Rule],
                 budget: EvaluationBudget,
                 detector: DijkstraScholten | None = None) -> None:
        self.name = name
        self.source_rules = Program(rules)
        self.db = Database()
        self.budget = budget
        self.evaluator = IncrementalEvaluator(self.db, budget)
        self.detector = detector
        self.counters = Counters()
        self.processed: set[tuple[str, str]] = set()
        self.readers: dict[RelationKey, set[str]] = {}
        self._dispatched: dict[RelationKey, int] = {}
        self._dispatch_log_position = 0
        self._demand_log_position = 0
        self._install_log: list[Rule] = []
        self._idb: set[str] = {rule.head.relation for rule in self.source_rules
                               if rule.body or rule.negated}
        # Fact rules of relations with no proper rules are plain EDB: load
        # them into the store so joins see them directly (matching the
        # centralized QSQ treatment -- Theorem 1's zeta stays a bijection).
        # Fact rules of relations that *also* have proper rules (e.g. the
        # unfolding roots) answer demands through the rewriting instead.
        for rule in self.source_rules.facts():
            if rule.head.relation not in self._idb:
                self.db.add_atom(rule.head)

    # -- checkpoint / restore ----------------------------------------------------

    def checkpoint(self) -> dict:
        """A serializable snapshot of this peer's mutable state.

        Taken at a handler boundary, so the local evaluation is at a
        fixpoint and dispatch has consumed the whole change log: the
        snapshot is internally consistent by construction.  Source rules
        and the budget are static configuration and are not included.
        """
        return {
            "facts": {key: list(self.db.facts(key))
                      for key in self.db.relations()},
            "rules": list(self._install_log),
            "processed": set(self.processed),
            "readers": {key: set(names) for key, names in self.readers.items()},
            "dispatched": dict(self._dispatched),
        }

    def restore(self, snapshot: dict | None) -> None:
        """Replace this peer's state with ``snapshot`` (``None`` = reset
        to the post-construction state).

        The database and evaluator are rebuilt from scratch: snapshot
        facts are re-added, installed rule fragments re-installed, and
        one fixpoint run re-derives the evaluator's internal frontier.
        The change-log cursors then point at the end of the rebuilt log,
        so only genuinely new facts (replayed or fresh deliveries) flow
        through dispatch and demand processing afterwards.  Counters are
        deliberately *not* rolled back: recovery work is real work.
        """
        self.counters.add("net.recovery.restores")
        self.db = Database()
        # Reuse the evaluator via reset() rather than rebuilding it: the
        # reset clears the id-keyed compiled-plan cache, so re-installed
        # rule fragments can never hit a plan compiled for a pre-crash
        # rule object whose id() the allocator happened to recycle.
        self.evaluator.reset(self.db)
        self.processed = set()
        self.readers = {}
        self._dispatched = {}
        self._install_log = []
        if snapshot is None:
            for rule in self.source_rules.facts():
                if rule.head.relation not in self._idb:
                    self.db.add_atom(rule.head)
        else:
            for key, tuples in snapshot["facts"].items():
                self.db.add_all(key, tuples, assume_ground=True)
            for rule in snapshot["rules"]:
                self._install(rule)
                self.counters.add("net.recovery.refired_rules")
            self.evaluator.run()
            self.processed = set(snapshot["processed"])
            self.readers = {key: set(names)
                            for key, names in snapshot["readers"].items()}
            self._dispatched = dict(snapshot["dispatched"])
        position = len(self.db.change_log())
        self._dispatch_log_position = position
        self._demand_log_position = position

    # -- message handling --------------------------------------------------------

    def on_message(self, message: Message, transport: Transport) -> None:
        # Replayed deliveries re-run the payload processing (idempotent:
        # fact stores, rule installation and reader registration all
        # deduplicate) but must not re-run the termination protocol --
        # the pre-crash incarnation already counted them.
        replayed = transport.delivering_replayed
        if message.kind == ACK_KIND:
            if self.detector is not None and not replayed:
                self.detector.on_ack(message, transport)
            return
        if self.detector is not None and not replayed:
            self.detector.on_basic_receive(message)
        if message.kind == KIND_FACTS:
            payload = message.payload
            key = (payload["relation"], payload["home"])
            # Facts travel columnar (parallel term columns + count).
            # Shipped tuples come out of a peer's validated store (and are
            # re-interned on unpickling), so the bulk insert skips
            # per-fact groundness checks.
            columns = payload["columns"]
            rows: list[Fact] = (list(zip(*columns)) if columns
                                else [()] * payload["count"])
            added = self.db.add_all(key, rows, assume_ground=True)
            self.counters.add("tuples_received", added)
            if key[1] != self.name:
                # Replicas of remote-homed relations must not be pushed
                # back to their home: advance the dispatch watermark.
                self._dispatched[key] = len(self.db.facts(key))
        elif message.kind == KIND_DELEGATE:
            self._install_delegation(message.payload, transport)
        elif message.kind == KIND_QUERY:
            self.pose_demand(payload=message.payload, transport=transport)
        else:
            raise DistributedError(f"unexpected message kind {message.kind}")
        self.work(transport)
        if self.detector is not None:
            self.detector.peer_passive(self.name, transport)

    def pose_demand(self, payload: dict, transport: Transport) -> None:
        """Handle a query seed: register the asker and record the demand."""
        relation = payload["relation"]
        adornment = Adornment(payload["adornment"])
        reply_to = payload["reply_to"]
        answer_key = (adorned_name(relation, adornment), self.name)
        self._register_reader(answer_key, reply_to, transport)
        in_key = (input_name(relation, adornment), self.name)
        if self.db.add(in_key, tuple(payload["bound"])):
            transport.trace_marker("demand", self.name, (in_key,))

    # -- demand-driven local rewriting ----------------------------------------------

    def work(self, transport: Transport) -> None:
        """Run local fixpoints, trigger rewritings, dispatch new facts."""
        while True:
            self.evaluator.run()
            progressed = self._dispatch(transport)
            progressed |= self._process_new_demands(transport)
            if not progressed:
                return

    def _process_new_demands(self, transport: Transport) -> bool:
        """Rewrite local relations for which fresh demands arrived."""
        progressed = False
        log = self.db.change_log()
        touched: dict[RelationKey, None] = {}
        for key in log[self._demand_log_position:]:
            touched[key] = None
        self._demand_log_position = len(log)
        for key in touched:
            relation, home = key
            if home != self.name:
                continue
            parsed = split_input_name(relation)
            if parsed is None:
                continue
            base, adornment = parsed
            if (base, adornment.pattern) in self.processed:
                continue
            if base not in self._idb:
                # Demand for a relation we hold no rules for: it acts as
                # an empty relation (EDB facts are joined directly and
                # never demanded).
                self.processed.add((base, adornment.pattern))
                continue
            self.processed.add((base, adornment.pattern))
            transport.trace_marker("demand", self.name, (key,))
            self._rewrite_relation(base, adornment, transport)
            progressed = True
        return progressed

    def _rewrite_relation(self, relation: str, adornment: Adornment,
                          transport: Transport) -> None:
        """The local QSQ rewriting of this peer's rules for a demand."""
        self.counters.add("rewritings")
        for index, rule in enumerate(self.source_rules.rules_for(relation, self.name)):
            head_args = rule.head.args
            self._rewrite_segment(_Delegation(
                uid=f"{self.name}.{relation}.{adornment}.{index}", position=0,
                head=Atom(adorned_name(relation, adornment), head_args, self.name),
                atoms=rule.body, inequalities=rule.inequalities,
                incoming=Atom(input_name(relation, adornment),
                              adornment.select_bound(head_args), self.name)),
                transport)

    def _install_delegation(self, delegation: _Delegation, transport: Transport) -> None:
        self.counters.add("delegations_received")
        self._rewrite_segment(delegation, transport)

    def _rewrite_segment(self, work: _Delegation, transport: Transport) -> None:
        """Rewrite body atoms left to right while they are local; delegate
        the remainder at the first remote atom."""
        segment = rewrite_segment(
            work.incoming, work.atoms, work.inequalities, work.head,
            sup_atom=lambda k, args: Atom(
                sup_relation_name(work.uid, work.position + k), args, self.name),
            is_idb=lambda atom: atom.relation in self._idb,
            is_local=lambda atom: atom.peer == self.name)
        for rule in segment.rules:
            self._install(rule)
        if segment.cut is None:
            return
        offset, shipped, pending = segment.cut
        remote = work.atoms[offset].peer or ""
        self._register_reader((shipped.relation, shipped.peer or self.name),
                              remote, transport)
        self.counters.add("delegations_sent")
        self._send(transport, remote, KIND_DELEGATE, _Delegation(
            uid=work.uid, position=work.position + offset, head=work.head,
            atoms=work.atoms[offset:], inequalities=pending, incoming=shipped))

    def _install(self, rule: Rule) -> None:
        if self.evaluator.add_rule(rule):
            self.counters.add("rules_installed")
            self._install_log.append(rule)

    # -- fact dispatch ---------------------------------------------------------------

    def _register_reader(self, key: RelationKey, reader: str,
                         transport: Transport) -> None:
        readers = self.readers.setdefault(key, set())
        if reader in readers or reader == self.name:
            return
        readers.add(reader)
        current = list(self.db.facts(key))
        if current:
            self._send_facts(transport, reader, key, current)

    def _dispatch(self, transport: Transport) -> bool:
        """Push new facts to their home peer or to registered readers."""
        progressed = False
        log = self.db.change_log()
        touched: dict[RelationKey, None] = {}
        for key in log[self._dispatch_log_position:]:
            touched[key] = None
        self._dispatch_log_position = len(log)
        for key in touched:
            relation, home = key
            facts = self.db.facts(key)
            start = self._dispatched.get(key, 0)
            if start >= len(facts):
                continue
            new = list(facts[start:])
            self._dispatched[key] = len(facts)
            progressed = True
            if home is not None and home != self.name:
                self._send_facts(transport, home, key, new)
            else:
                for reader in self.readers.get(key, ()):
                    self._send_facts(transport, reader, key, new)
        return progressed

    def _send_facts(self, transport: Transport, recipient: str, key: RelationKey,
                    tuples: list[Fact]) -> None:
        # Ship the delta columnar: k columns of n interned terms instead
        # of n k-tuples (fewer containers to pickle on the mp transport,
        # and the receiver's bulk insert applies it as one batch).  The
        # explicit count keeps zero-arity deltas visible.
        self.counters.add("tuples_shipped", len(tuples))
        columns = tuple(zip(*tuples)) if tuples and tuples[0] else ()
        self._send(transport, recipient, KIND_FACTS,
                   {"relation": key[0], "home": key[1],
                    "columns": columns, "count": len(tuples)})

    def _send(self, transport: Transport, recipient: str, kind: str,
              payload: Any) -> None:
        if self.detector is not None:
            self.detector.on_basic_send(self.name)
        transport.send(self.name, recipient, kind, payload)


@dataclass
class DqsqResult:
    """Answers plus aggregate instrumentation from a dQSQ run."""

    answers: set[Fact]
    counters: Counters
    per_peer: dict[str, Counters]
    databases: dict[str, Database] = field(repr=False, default_factory=dict)
    terminated_by_detector: bool | None = None
    #: set when the reliable transport gave up before quiescence; the
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

    def homed_fact_counts(self) -> dict[RelationKey, int]:
        """Distinct facts per relation, counted at their home peer only.

        Replicas (tuples shipped to readers) are excluded, so this is the
        number of *materialized* tuples in the paper's sense.
        """
        out: dict[RelationKey, int] = {}
        for name, db in self.databases.items():
            for key, count in db.snapshot_counts().items():
                if key[1] == name:
                    out[key] = count
        return out

    def adorned_fact_sets(self) -> dict[tuple[str, str, str], set[Fact]]:
        """Answer facts per (relation, peer, adornment) -- the Theorem-1 view."""
        out: dict[tuple[str, str, str], set[Fact]] = {}
        for name, db in self.databases.items():
            for key in db.relations():
                relation, home = key
                if home != name or "^" not in relation or relation.startswith(("in-", "sup[")):
                    continue
                base, _sep, pattern = relation.rpartition("^")
                out[(base, name, pattern)] = set(db.facts(key))
        return out


def _build_dqsq_peer(*, name: str, detector: DijkstraScholten | None,
                     rules: tuple[Rule, ...], budget: EvaluationBudget,
                     facts: dict[RelationKey, list[Fact]]) -> _DqsqPeer:
    """Module-level peer factory (picklable, so the multiprocessing
    transport can build the peer inside its worker process)."""
    peer = _DqsqPeer(name, rules, budget, detector=detector)
    for key, tuples in facts.items():
        peer.db.add_all(key, tuples, assume_ground=True)
    return peer


def _start_dqsq(peer: _DqsqPeer, transport: Transport, *, target: str,
                seed: dict[str, Any]) -> None:
    """Pose the query at the origin peer, through the transport only."""
    detector = peer.detector
    if detector is not None:
        detector.root_activated()
    if target == peer.name:
        peer.pose_demand(seed, transport)
        peer.work(transport)
    else:
        peer._send(transport, target, KIND_QUERY, seed)
    if detector is not None:
        detector.peer_passive(peer.name, transport)


class DqsqEngine:
    """Drives a dQSQ evaluation over a pluggable transport.

    ``transport`` selects the substrate: ``"sim"`` (default) runs on the
    deterministic in-process simulator configured by ``options``;
    ``"mp"`` runs each peer in its own OS process (genuinely parallel,
    no seeded schedule -- see :mod:`repro.distributed.mp`).  A ready
    :class:`~repro.distributed.transport.TransportRuntime` instance is
    accepted too.
    """

    def __init__(self, program: DDatalogProgram, edb: Database | None = None,
                 budget: EvaluationBudget | None = None,
                 options: NetworkOptions | None = None,
                 use_termination_detector: bool = False,
                 check: bool = True,
                 transport: str | TransportRuntime = "sim",
                 mp_config: Any = None) -> None:
        self.program = program
        self.budget = budget or EvaluationBudget()
        self.options = options or NetworkOptions()
        self.use_termination_detector = use_termination_detector
        self.transport = transport
        self.mp_config = mp_config
        self._edb = edb or Database()
        if check:
            from repro.datalog.analysis import check_program
            # DD403 escalates to an error here: the remainder rewriting
            # walks body+inequalities only, so a negated atom would be
            # silently ignored rather than evaluated.
            check_program(program.program, context="dqsq",
                          depth_bounded=self.budget.max_term_depth is not None,
                          escalate=("DD403",))

    def query(self, query: Query, at_peer: str | None = None) -> DqsqResult:
        """Evaluate ``query``; ``at_peer`` is where it is posed (defaults to
        the peer of the query atom)."""
        atom = query.atom
        if atom.peer is None:
            raise DistributedError("distributed queries must target a located atom")
        origin_name = at_peer or atom.peer

        names = set(self.program.peers()) | {atom.peer, origin_name}
        edb_by_peer: dict[str, dict[RelationKey, list[Fact]]] = {}
        for key in self._edb.relations():
            relation, owner = key
            if owner is None:
                raise DistributedError(f"EDB relation {relation} is not located")
            names.add(owner)
            edb_by_peer.setdefault(owner, {})[key] = list(self._edb.facts(key))

        adornment = Adornment.from_atom(atom)
        seed = {
            "relation": atom.relation,
            "adornment": adornment.pattern,
            "bound": adornment.select_bound(atom.args),
            "reply_to": origin_name,
        }
        specs = {
            name: PeerSpec(_build_dqsq_peer, {
                "rules": tuple(self.program.rules_at(name)),
                "budget": self.budget,
                "facts": edb_by_peer.get(name, {}),
            })
            for name in names}
        job = TransportJob(
            peers=specs, origin=origin_name,
            start=functools.partial(_start_dqsq, target=atom.peer, seed=seed),
            detector_root=(origin_name if self.use_termination_detector
                           else None),
            program=self.program.program)
        runtime = resolve_transport(self.transport, self.options,
                                    self.mp_config)
        outcome = runtime.run(job)

        answer_relation = adorned_name(atom.relation, adornment)
        origin_db = outcome.databases.get(origin_name, Database())
        answers = select(origin_db, Atom(answer_relation, atom.args, atom.peer))
        return DqsqResult(
            answers=answers, counters=outcome.merged_counters(),
            per_peer=outcome.per_peer, databases=outcome.databases,
            terminated_by_detector=outcome.terminated_by_detector,
            transport_error=outcome.transport_error,
            peer_failure=outcome.peer_failure)
