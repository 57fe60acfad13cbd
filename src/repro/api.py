"""The one-call diagnosis API.

Every solver path of the library -- the paper's dQSQ, centralized QSQ,
the bottom-up strawman, the dedicated algorithm of [8], the Section-4.3
online supervisor and the brute-force ground truth -- is reachable
through a single front door::

    import repro
    result = repro.diagnose(petri, alarms, method="dqsq")
    result.diagnoses                # the diagnosis set
    result.counters                 # instrumentation
    result.materialized_events      # unfolding events built on the way

Run configuration is consolidated in :class:`RunConfig`::

    config = repro.RunConfig(options=NetworkOptions(seed=7),
                             transport="mp",
                             use_termination_detector=True)
    result = repro.diagnose(petri, alarms, method="dqsq", config=config)

``transport="sim"`` (default) evaluates on the deterministic simulator;
``transport="mp"`` runs each peer in its own OS process (see
:mod:`repro.distributed.mp`).

The concrete result types differ per solver (they carry solver-specific
extras such as the product branching process or per-peer databases),
but all satisfy the :class:`DiagnosisOutcome` protocol, so callers that
only need diagnoses and instrumentation can treat them uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.datalog.cost import CostBudget
from repro.datalog.seminaive import EvaluationBudget
from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.bruteforce import bruteforce_diagnosis
from repro.diagnosis.dedicated import DedicatedDiagnoser
from repro.diagnosis.engine import DatalogDiagnosisEngine, EvaluationMode
from repro.diagnosis.patterns import ObservationSpec
from repro.diagnosis.problem import DiagnosisSet
from repro.diagnosis.supervisor import SUPERVISOR
from repro.distributed.network import NetworkOptions
from repro.distributed.transport import TransportRuntime
from repro.errors import DiagnosisError
from repro.petri.net import PetriNet
from repro.utils.counters import Counters


class DiagnosisMethod(str, enum.Enum):
    """The six solver paths reachable through :func:`diagnose`.

    ``"online"`` is the Section-4.3 incremental supervisor
    (:class:`repro.diagnosis.online.OnlineDiagnoser`) run to the end of
    the sequence -- the same engine the streaming service
    (:mod:`repro.service`) feeds alarm-by-alarm.
    """

    DQSQ = "dqsq"
    QSQ = "qsq"
    BOTTOMUP = "bottomup"
    DEDICATED = "dedicated"
    BRUTEFORCE = "bruteforce"
    ONLINE = "online"

    @classmethod
    def coerce(cls, value: "DiagnosisMethod | str") -> "DiagnosisMethod":
        try:
            return cls(value)
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise DiagnosisError(
                f"unknown diagnosis method {value!r}; known: {known}") from None


@dataclass(frozen=True)
class RunConfig:
    """Everything configurable about one :func:`diagnose` run.

    One object composes the previously scattered knobs: evaluation
    budget, simulated-network options, the transport selection, and the
    unfolding-path limits.  Run knobs a solver does not consume are
    ignored by it, so one config can drive several methods; ``hidden``
    changes the question and is refused by a solver that cannot honour
    it.
    """

    #: evaluation budget of the Datalog paths (``None`` = engine default)
    budget: EvaluationBudget | None = None
    #: simulated-network options (seed, faults, tracer, chooser);
    #: simulator-only -- combining fault plans with ``transport="mp"``
    #: raises at run time rather than silently downgrading
    options: NetworkOptions | None = None
    #: ``"sim"`` (deterministic simulator, default), ``"mp"`` (one OS
    #: process per peer), or a ready
    #: :class:`~repro.distributed.transport.TransportRuntime`
    transport: str | TransportRuntime = "sim"
    #: optional :class:`repro.distributed.mp.MpConfig` for ``"mp"``
    mp: Any = None
    #: the supervisor peer that poses the diagnosis query
    supervisor: str = SUPERVISOR
    #: run the Dijkstra-Scholten detector alongside the evaluation
    use_termination_detector: bool = False
    #: Section-4.4 hidden transitions of an alarm-sequence diagnosis
    #: (dqsq / qsq / dedicated / bruteforce; the others refuse) and how
    #: many events beyond the alarms an explanation may contain
    hidden: frozenset[str] = frozenset()
    hidden_budget: int = 0
    max_events: int = 50_000
    #: admission control for the Datalog paths: before evaluation the
    #: static cost analyzer (:mod:`repro.datalog.cost`) estimates the
    #: run's fixpoint size and cross-peer message volume; an over-budget
    #: estimate either raises :class:`~repro.errors.CostBudgetExceeded`
    #: (``on_exceeded="refuse"``) or degrades the run to a depth-pruned
    #: sound subset marked ``partial`` (``on_exceeded="degrade"``).
    #: Ignored by the dedicated / bruteforce paths.
    cost_budget: CostBudget | None = None
    #: prefix-index window of the ``"online"`` method (and the default
    #: for service sessions): bound the materialized table to vectors
    #: within this lag of every stream head; ``None`` = exact/unbounded.
    #: A lossy compaction marks the result ``partial=True`` -- see
    #: :mod:`repro.diagnosis.online`.
    window: int | None = None


@runtime_checkable
class DiagnosisOutcome(Protocol):
    """What every solver's result offers, whatever else it carries.

    Satisfied by :class:`repro.diagnosis.engine.DatalogDiagnosisResult`,
    :class:`repro.diagnosis.dedicated.DedicatedResult` and
    :class:`repro.diagnosis.bruteforce.BruteforceResult`.
    """

    @property
    def diagnoses(self) -> DiagnosisSet: ...

    @property
    def counters(self) -> Counters: ...

    @property
    def materialized_events(self) -> frozenset[str]: ...

    @property
    def materialized_conditions(self) -> frozenset[str]: ...

    @property
    def partial(self) -> bool: ...

    @property
    def peer_report(self) -> dict[str, dict[str, int | bool]] | None: ...


def diagnose(petri: PetriNet, observation: AlarmSequence | ObservationSpec,
             method: DiagnosisMethod | str = DiagnosisMethod.DQSQ, *,
             config: RunConfig | None = None) -> DiagnosisOutcome:
    """Diagnose ``observation`` against ``petri`` with the chosen solver.

    ``observation`` is an alarm sequence, or -- for the ``dqsq`` and
    ``qsq`` methods -- a Section-4.4
    :class:`~repro.diagnosis.patterns.ObservationSpec` (alarm patterns,
    hidden transitions, unobserved peers).

    Configuration lives in ``config`` (a :class:`RunConfig`).  A run
    knob the chosen solver does not consume is harmless.  ``hidden`` is
    not a run knob: it changes the question, so a solver that cannot
    answer it raises :class:`~repro.errors.DiagnosisError`.
    """
    method = DiagnosisMethod.coerce(method)
    config = config or RunConfig()
    if method in (DiagnosisMethod.DQSQ, DiagnosisMethod.QSQ,
                  DiagnosisMethod.BOTTOMUP):
        if isinstance(observation, AlarmSequence):
            if config.hidden:
                observation = ObservationSpec.from_alarms(
                    observation, petri.net.peers(), hidden=config.hidden,
                    hidden_budget=config.hidden_budget)
        elif config.hidden:
            raise DiagnosisError(
                "RunConfig.hidden applies to an alarm sequence; an "
                "ObservationSpec carries its own hidden transitions")
        engine = DatalogDiagnosisEngine(
            petri, mode=EvaluationMode(method.value),
            supervisor=config.supervisor, budget=config.budget,
            options=config.options,
            use_termination_detector=config.use_termination_detector,
            transport=config.transport, mp_config=config.mp,
            cost_budget=config.cost_budget)
        return engine.diagnose(observation)
    if not isinstance(observation, AlarmSequence):
        raise DiagnosisError(
            f"method {method.value!r} takes an alarm sequence, not an "
            f"ObservationSpec; use 'dqsq' or 'qsq'")
    alarms = observation
    if method is DiagnosisMethod.ONLINE:
        if config.hidden:
            raise DiagnosisError(
                "method 'online' does not support hidden transitions")
        from repro.diagnosis.online import online_diagnosis_result
        return online_diagnosis_result(petri, alarms, window=config.window)
    if method is DiagnosisMethod.DEDICATED:
        return DedicatedDiagnoser(
            petri, max_events=config.max_events, hidden=config.hidden,
            hidden_budget=config.hidden_budget).diagnose(alarms)
    return bruteforce_diagnosis(petri, alarms, hidden=config.hidden,
                                hidden_budget=config.hidden_budget,
                                max_events=config.max_events)
