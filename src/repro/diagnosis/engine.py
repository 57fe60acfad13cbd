"""End-to-end Datalog diagnosis (Section 4.3).

"To perform the diagnosis, the supervisor issues the query
``q@p0(?, ?)``, which is evaluated with dQSQ."  This module glues the
Section-4.1/4.2 encodings -- of an alarm sequence or, for the
Section-4.4 patterns and hidden transitions, of an
:class:`~repro.diagnosis.patterns.ObservationSpec` -- to an evaluation
strategy:

* ``mode="dqsq"`` -- the paper's proposal: distributed evaluation with
  per-peer lazy rewriting and delegation;
* ``mode="qsq"``  -- centralized QSQ on the local version (Theorem 1
  guarantees the same results and materialization);
* ``mode="bottomup"`` -- unoptimized semi-naive evaluation: it builds
  the unfolding breadth-first and only terminates under an explicit
  depth budget (the strawman that motivates QSQ).

The result carries the diagnosis set and the set of *materialized
unfolding nodes* -- the quantity Theorem 4 compares against the
dedicated algorithm's prefix.

A ``qsq`` or ``dqsq`` diagnosis encodes and checks its program once
per (net, observation, depth bound), in a table keyed weakly by the net
that empties with :func:`repro.datalog.plan.clear_plan_cache`.  A
``qsq`` entry also holds the rewriting and its compiled plans, so asking
the same question again only evaluates.  A ``dqsq`` entry holds the
encoded program: its peers still rewrite lazily, on the first demand
for each adorned relation (Remark 2), but what a peer installs depends
only on the program and that demand, so :mod:`repro.distributed.dqsq`
keeps each peer's rewriting per program and a repeated question pays
only for evaluation and transport.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field

from repro.datalog.analysis import check_program
from repro.datalog.database import Database, Fact, select
from repro.datalog.plan import hold_plans
from repro.datalog.qsq import evaluate_rewriting, qsq_rewrite
from repro.datalog.rule import Query, Rule
from repro.datalog.seminaive import EvaluationBudget, SemiNaiveEvaluator
from repro.datalog.atom import Atom
from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.encoding import PLACES, TRANS1, TRANS2, node_id_of_term
from repro.diagnosis.patterns import ObservationSpec
from repro.diagnosis.problem import DiagnosisSet, diagnosis_set
from repro.diagnosis.supervisor import SUPERVISOR, SupervisorEncoder
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.dqsq import DqsqEngine
from repro.distributed.network import NetworkOptions
from repro.distributed.transport import TransportRuntime
from repro.errors import DiagnosisError
from repro.petri.net import PetriNet
from repro.petri.occurrence import VIRTUAL_ROOT
from repro.utils.counters import Counters

_EVENT_RELATIONS = (TRANS1, TRANS2)


class EvaluationMode(str, enum.Enum):
    """How the dDatalog diagnosis program is evaluated.

    A ``str`` enum: historical string arguments (``"dqsq"``) keep
    working everywhere a mode is accepted, and members compare equal to
    their string values.
    """

    DQSQ = "dqsq"
    QSQ = "qsq"
    BOTTOMUP = "bottomup"

    @classmethod
    def coerce(cls, value: "EvaluationMode | str") -> "EvaluationMode":
        """Accept a member or its string value; reject anything else."""
        try:
            return cls(value)
        except ValueError:
            raise DiagnosisError(f"unknown mode {value!r}") from None


@dataclass
class DatalogDiagnosisResult:
    """Diagnoses plus materialization instrumentation."""

    diagnoses: DiagnosisSet
    #: canonical ids of unfolding events materialized during evaluation
    materialized_events: frozenset[str]
    #: canonical ids of unfolding conditions materialized during evaluation
    materialized_conditions: frozenset[str]
    counters: Counters
    answers: set[Fact] = field(repr=False, default_factory=set)
    #: True when the run degraded -- the transport gave up before
    #: quiescence or a peer failed permanently: the diagnosis set is
    #: then a sound lower bound computed from what the surviving peers
    #: derived, not necessarily the exact answer
    partial: bool = False
    #: per-channel delivery statistics of the failed run (from
    #: :class:`repro.errors.TransportExhausted`), ``None`` otherwise
    transport_stats: dict[str, dict[str, int]] | None = None
    #: per-peer lifecycle report of a degraded run (from
    #: :class:`repro.errors.PeerUnavailable`), ``None`` otherwise
    peer_report: dict[str, dict[str, int | bool]] | None = None


@dataclass
class _PreparedQsq:
    """What the ``qsq`` diagnoses of one (net, observation, depth bound)
    share: the local program's rewriting -- its rules (EDB facts first),
    seed and answer atoms and adorned-relation count -- and the id-keyed
    plans of those rules.  Not the source program, nor a
    :class:`~repro.datalog.qsq.QsqRewriting` with its containers."""

    #: the ``analysis.*`` counters of the check that accepted the program
    analysis: Counters
    rules: tuple[Rule, ...]
    seed: Atom | None
    answer: Atom
    adorned: int
    plans: dict = field(default_factory=dict)


@dataclass
class _PreparedDqsq:
    """What the ``dqsq`` diagnoses of one (net, observation, depth bound)
    share: the encoded program, which also keys its peers' rewritings."""

    #: the ``analysis.*`` counters of the check that accepted the program
    analysis: Counters
    program: DDatalogProgram


#: net -> (mode, supervisor, observation, depth bounded) -> its prepared
#: entry; an entry dies with its net and every entry with the plan cache
_PREPARED: ("weakref.WeakKeyDictionary[PetriNet, "
            "dict[tuple, _PreparedQsq | _PreparedDqsq]]") = \
    weakref.WeakKeyDictionary()
hold_plans(_PREPARED.clear)


def _local(atom: Atom) -> Atom:
    """``atom`` as the paper's ``P_local`` spells it (peer folded into the
    relation name)."""
    return Atom(f"{atom.relation}@{atom.peer}", atom.args, None)


class DatalogDiagnosisEngine:
    """Diagnosis via the dDatalog encoding, under a chosen evaluation mode."""

    def __init__(self, petri: PetriNet, mode: EvaluationMode | str = EvaluationMode.DQSQ,
                 supervisor: str = SUPERVISOR,
                 budget: EvaluationBudget | None = None,
                 options: NetworkOptions | None = None,
                 transport: "str | TransportRuntime" = "sim") -> None:
        self.petri = petri
        self.mode = EvaluationMode.coerce(mode)
        self.supervisor = supervisor
        self.budget = budget or EvaluationBudget(max_facts=2_000_000)
        self.options = options or NetworkOptions()
        #: transport substrate for the dqsq path ("sim", "mp", or a
        #: ready TransportRuntime); centralized modes evaluate locally
        #: and ignore it
        self.transport = transport

    def diagnose(self, observation: AlarmSequence | ObservationSpec
                 ) -> DatalogDiagnosisResult:
        encoder = SupervisorEncoder(self.petri, observation, self.supervisor)
        if self.mode is EvaluationMode.BOTTOMUP and encoder.needs_gas:
            raise DiagnosisError(
                "mode 'bottomup' has no termination gadget: the observation "
                "must bound its own explanations")
        query_atom = encoder.query_atom()
        counters = Counters()

        partial = False
        transport_stats: dict[str, dict[str, int]] | None = None
        peer_report: dict[str, dict[str, int | bool]] | None = None
        if self.mode is EvaluationMode.QSQ:
            prepared = self._prepare(encoder, query_atom)
            counters.merge(prepared.analysis)
            answers, db, evaluated = evaluate_rewriting(
                prepared.rules, prepared.seed, prepared.answer,
                budget=self.budget, plans=prepared.plans)
            counters.merge(evaluated)
            counters.add("qsq_rewritten_rules", len(prepared.rules))
            counters.add("qsq_adorned_relations", prepared.adorned)
            events, conditions = _collect_nodes_from_adorned([db])
        elif self.mode is EvaluationMode.DQSQ:
            prepared = self._prepare(encoder, query_atom)
            counters.merge(prepared.analysis)
            engine = DqsqEngine(prepared.program, budget=self.budget,
                                options=self.options, check=False,
                                transport=self.transport)
            result = engine.query(Query(query_atom))
            counters.merge(result.counters)
            answers = result.answers
            events, conditions = _collect_nodes_from_adorned(result.databases.values())
            if result.transport_error is not None:
                partial = True
                transport_stats = result.transport_error.stats
                counters.add("net.transport_exhausted")
            if result.peer_failure is not None:
                partial = True
                peer_report = result.peer_failure.report
                counters.add("net.peer_unavailable")
        else:
            program = encoder.program()
            self._check(program, query_atom, counters)
            db = Database()
            evaluator = SemiNaiveEvaluator(program.local_version(), self.budget,
                                           check=False)
            evaluator.run(db)
            counters.merge(evaluator.counters)
            answers = select(db, _local(query_atom))
            events, conditions = _collect_nodes_plain([db])

        diagnoses = _answers_to_diagnoses(answers)
        counters.add("diagnoses", len(diagnoses))
        counters.add("materialized_events", len(events))
        counters.add("materialized_conditions", len(conditions))
        return DatalogDiagnosisResult(
            diagnoses=diagnoses,
            materialized_events=frozenset(events),
            materialized_conditions=frozenset(conditions),
            counters=counters, answers=answers,
            partial=partial, transport_stats=transport_stats,
            peer_report=peer_report)

    def _check(self, program: DDatalogProgram, query_atom: Atom,
               counters: Counters) -> None:
        """Static analysis, once per program, fail-fast; the engines get
        ``check=False`` so the program is not re-analyzed per engine."""
        check_program(
            program.program, Query(query_atom), context=f"diagnose[{self.mode.value}]",
            known_peers=set(program.peers()) | {self.supervisor},
            depth_bounded=self.budget.max_term_depth is not None,
            escalate=("DD403",) if self.mode is EvaluationMode.DQSQ else (),
            counters=counters)

    def _prepare(self, encoder: SupervisorEncoder,
                 query_atom: Atom) -> "_PreparedQsq | _PreparedDqsq":
        """This call's entry in the prepared table, made on a miss.  The
        key holds the mode -- the check escalates DD403 for ``dqsq``
        only -- and everything the encoded program depends on besides
        the net; a hit replays the check's counters (its verdict is the
        program's) and logs nothing."""
        spec = encoder.spec
        key = (self.mode, self.supervisor, tuple(spec.observers.items()),
               frozenset(spec.hidden), spec.max_events,
               self.budget.max_term_depth is not None)
        table = _PREPARED.setdefault(self.petri, {})
        prepared = table.get(key)
        if prepared is None:
            program = encoder.program()
            analysis = Counters()
            self._check(program, query_atom, analysis)
            if self.mode is EvaluationMode.DQSQ:
                prepared = _PreparedDqsq(analysis, program)
            else:
                rewriting = qsq_rewrite(program.local_version(),
                                        Query(_local(query_atom)))
                prepared = _PreparedQsq(
                    analysis, tuple(rewriting.program), rewriting.seed,
                    rewriting.answer_atom, len(rewriting.adorned_relations))
            table[key] = prepared
        return prepared


def _answers_to_diagnoses(answers: set[Fact]) -> DiagnosisSet:
    """Group ``diag(z, x)`` answers by configuration id; drop the virtual
    root and deduplicate interleavings by event set."""
    by_config: dict[str, set[str]] = {}
    for config_term, event_term in answers:
        config_id = node_id_of_term(config_term)
        bucket = by_config.setdefault(config_id, set())
        event_id = node_id_of_term(event_term)
        if event_id != VIRTUAL_ROOT:
            bucket.add(event_id)
    return diagnosis_set(by_config.values())


def _collect_nodes_from_adorned(databases) -> tuple[set[str], set[str]]:
    """Node ids materialized in adorned trans/places answer relations.

    Handles both naming schemes: dQSQ homes ``trans2^fbb`` at a peer;
    centralized QSQ qualifies first (``trans2@p1^fbb``).  Demand (in-)
    and supplementary relations are not unfolding nodes and are skipped.
    """
    events: set[str] = set()
    conditions: set[str] = set()
    for db in databases:
        for key in db.relations():
            relation, _peer = key
            if "^" not in relation or relation.startswith(("in-", "sup")):
                continue
            base = relation.rpartition("^")[0].split("@", 1)[0]
            if base in _EVENT_RELATIONS:
                for fact in db.facts(key):
                    events.add(node_id_of_term(fact[0]))
            elif base == PLACES:
                for fact in db.facts(key):
                    conditions.add(node_id_of_term(fact[0]))
    return events, conditions


def _collect_nodes_plain(databases) -> tuple[set[str], set[str]]:
    """Node ids in plain (unadorned) trans/places relations (bottom-up mode)."""
    events: set[str] = set()
    conditions: set[str] = set()
    for db in databases:
        for key in db.relations():
            relation, _peer = key
            base = relation.split("@", 1)[0]
            if base in _EVENT_RELATIONS:
                for fact in db.facts(key):
                    events.add(node_id_of_term(fact[0]))
            elif base == PLACES:
                for fact in db.facts(key):
                    conditions.add(node_id_of_term(fact[0]))
    return events, conditions
