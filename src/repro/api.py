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

Every solver is asked the same thing, an
:class:`~repro.diagnosis.patterns.ObservationSpec`; an alarm sequence is
the spec whose observers are chains, and Section 4.4 is other specs::

    spec = ObservationSpec.from_alarms(alarms, petri.net.peers(),
                                       hidden=frozenset({"v"}), hidden_budget=1)
    repro.diagnose(petri, spec, method="dedicated")

A solver refuses (:class:`~repro.errors.DiagnosisError`) what it cannot
answer by what the spec says.  Brute force shares nothing with the
product construction or the Datalog encoding: it is everyone's reference.

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
from typing import Callable, Protocol, runtime_checkable

from repro.datalog.seminaive import EvaluationBudget
from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.bruteforce import bruteforce_diagnosis
from repro.diagnosis.dedicated import DedicatedDiagnoser
from repro.diagnosis.engine import DatalogDiagnosisEngine, EvaluationMode
from repro.diagnosis.online import online_diagnosis_result
from repro.diagnosis.patterns import ObservationSpec
from repro.diagnosis.problem import DiagnosisSet
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
    budget, simulated-network options and the transport selection.  Run
    knobs a solver does not consume are ignored by it, so one config can
    drive several methods; nothing here changes the *question* (that is
    the observation's job).
    """

    #: evaluation budget of the Datalog paths (``None`` = engine default)
    budget: EvaluationBudget | None = None
    #: simulated-network options (seed, delivery cap, fault plans);
    #: simulator-only -- combining fault plans with ``transport="mp"``
    #: raises at run time rather than silently downgrading
    options: NetworkOptions | None = None
    #: ``"sim"`` (deterministic simulator, default), ``"mp"`` (one OS
    #: process per peer, under ``MpConfig()``), or a ready
    #: :class:`~repro.distributed.transport.TransportRuntime` -- a
    #: configured ``MpTransportRuntime(MpConfig(...))`` included
    transport: str | TransportRuntime = "sim"
    #: run the Dijkstra-Scholten detector alongside the evaluation
    use_termination_detector: bool = False
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


_Solver = Callable[[PetriNet, ObservationSpec, RunConfig], DiagnosisOutcome]


def _datalog(mode: EvaluationMode) -> _Solver:
    return lambda petri, spec, config: DatalogDiagnosisEngine(
        petri, mode=mode, budget=config.budget,
        options=config.options, transport=config.transport,
        use_termination_detector=config.use_termination_detector,
    ).diagnose(spec)


def _online(petri: PetriNet, spec: ObservationSpec,
            config: RunConfig) -> DiagnosisOutcome:
    alarms = spec.as_alarms(petri.net)
    if alarms is None:
        raise DiagnosisError(
            "method 'online' answers an alarm sequence: one chain observer "
            "per peer, every transition reported, no tighter event bound")
    return online_diagnosis_result(petri, alarms, window=config.window)


_SOLVERS: dict[DiagnosisMethod, _Solver] = {
    DiagnosisMethod.DQSQ: _datalog(EvaluationMode.DQSQ),
    DiagnosisMethod.QSQ: _datalog(EvaluationMode.QSQ),
    DiagnosisMethod.BOTTOMUP: _datalog(EvaluationMode.BOTTOMUP),
    DiagnosisMethod.DEDICATED: lambda petri, spec, config: DedicatedDiagnoser(
        petri).diagnose(spec),
    DiagnosisMethod.BRUTEFORCE: lambda petri, spec, config: bruteforce_diagnosis(
        petri, spec),
    DiagnosisMethod.ONLINE: _online,
}


def diagnose(petri: PetriNet, observation: AlarmSequence | ObservationSpec,
             method: DiagnosisMethod | str = DiagnosisMethod.DQSQ, *,
             config: RunConfig | None = None) -> DiagnosisOutcome:
    """Diagnose ``observation`` against ``petri`` with the chosen solver.

    An alarm sequence is read as its chain-shaped
    :class:`~repro.diagnosis.patterns.ObservationSpec`, so every solver
    is asked the same question, checked against the net here.  A solver
    that cannot answer it raises :class:`~repro.errors.DiagnosisError`:
    ``bottomup`` when the spec does not bound its own explanations,
    ``online`` when it is not one alarm chain per peer.

    Configuration lives in ``config`` (a :class:`RunConfig`); a run knob
    the chosen solver does not consume is harmless.
    """
    spec = ObservationSpec.coerce(observation, petri.net)
    solver = _SOLVERS[DiagnosisMethod.coerce(method)]
    return solver(petri, spec, config or RunConfig())
