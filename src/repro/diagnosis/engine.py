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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.datalog.analysis import check_program
from repro.datalog.database import Database, Fact, select
from repro.datalog.qsq import qsq_evaluate
from repro.datalog.rule import Query
from repro.datalog.seminaive import EvaluationBudget, SemiNaiveEvaluator
from repro.datalog.atom import Atom
from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.encoding import PLACES, TRANS1, TRANS2, node_id_of_term
from repro.diagnosis.patterns import ObservationSpec
from repro.diagnosis.problem import DiagnosisSet, diagnosis_set
from repro.diagnosis.supervisor import SUPERVISOR, SupervisorEncoder
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


class DatalogDiagnosisEngine:
    """Diagnosis via the dDatalog encoding, under a chosen evaluation mode."""

    def __init__(self, petri: PetriNet, mode: EvaluationMode | str = EvaluationMode.DQSQ,
                 supervisor: str = SUPERVISOR,
                 budget: EvaluationBudget | None = None,
                 options: NetworkOptions | None = None,
                 use_termination_detector: bool = False,
                 transport: "str | TransportRuntime" = "sim") -> None:
        self.petri = petri
        self.mode = EvaluationMode.coerce(mode)
        self.supervisor = supervisor
        self.budget = budget or EvaluationBudget(max_facts=2_000_000)
        self.options = options or NetworkOptions()
        self.use_termination_detector = use_termination_detector
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
        program = encoder.program()
        query_atom = encoder.query_atom()
        counters = Counters()

        # Static analysis runs once here, fail-fast; the engines below get
        # ``check=False`` so the program is not re-analyzed per engine.
        check_program(
            program.program, Query(query_atom), context=f"diagnose[{self.mode.value}]",
            known_peers=set(program.peers()) | {self.supervisor},
            depth_bounded=self.budget.max_term_depth is not None,
            escalate=("DD403",) if self.mode is EvaluationMode.DQSQ else (),
            counters=counters)

        partial = False
        transport_stats: dict[str, dict[str, int]] | None = None
        peer_report: dict[str, dict[str, int | bool]] | None = None
        if self.mode is EvaluationMode.DQSQ:
            engine = DqsqEngine(program, budget=self.budget, options=self.options,
                                use_termination_detector=self.use_termination_detector,
                                check=False, transport=self.transport)
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
            local = program.local_version()
            local_query = Query(Atom(f"{query_atom.relation}@{query_atom.peer}",
                                     query_atom.args, None))
            if self.mode is EvaluationMode.QSQ:
                qsq = qsq_evaluate(local, local_query, Database(),
                                   budget=self.budget, check=False)
                counters.merge(qsq.counters)
                answers = qsq.answers
                events, conditions = _collect_nodes_from_adorned([qsq.database])
            else:
                db = Database()
                evaluator = SemiNaiveEvaluator(local, self.budget, check=False)
                evaluator.run(db)
                counters.merge(evaluator.counters)
                answers = select(db, local_query.atom)
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
