"""Model lint: diagnosability verdicts as DD9xx diagnostics.

The DD1xx-DD7xx families analyze the *program*; the DD9xx family
analyzes the *model* (the Petri net plus a fault/observability spec)
and reports through the same :class:`~repro.datalog.analysis.Diagnostic`
machinery so ``repro lint``'s text/json/sarif emitters, severities and
exit codes apply unchanged::

    DD901 non-diagnosable-fault        ambiguous cycle/deadlock, with witness
    DD902 bounded-diagnosability       verdict only holds up to the search bound
    DD903 silent-unobservable-fault    fault with no observable causal future
    DD904 locally-undiagnosable-fault  globally diagnosable, but some peer
                                       cannot decide it alone (needs
                                       communication); see
                                       repro.distributed.analysis

DD902's severity depends on who set the bound: when the caller
*declared* it (``assume_bounded=True``, the CLI's ``--depth``), the
finding is informational -- the user opted into a bounded verdict; when
the search was cut off by the default safety limits instead, it stays a
warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.datalog.analysis import CODES, INFO, AnalysisReport, Diagnostic
from repro.datalog.rule import Program
from repro.diagnosability.spec import DiagnosabilitySpec
from repro.diagnosability.verifier import (VERDICT_BOUNDED,
                                           VERDICT_NON_DIAGNOSABLE,
                                           AmbiguousWitness,
                                           DiagnosabilityReport,
                                           VerifierLimits,
                                           analyze_diagnosability)
from repro.petri.marking import reachable_markings
from repro.petri.net import PetriNet


@dataclass(frozen=True)
class ModelDiagnostic(Diagnostic):
    """A diagnostic about a model rather than a program.

    Carries the replayable ambiguous witness (DD901) and the fault
    class it concerns; the json/sarif emitters attach both as
    structured payloads.
    """

    witness: AmbiguousWitness | None = None
    fault_class: str | None = None


def _model_diagnostic(code: str, message: str, *,
                      fault_class: str | None = None,
                      witness: AmbiguousWitness | None = None,
                      suggestion: str | None = None,
                      severity: str | None = None) -> ModelDiagnostic:
    default = CODES[code][1]
    return ModelDiagnostic(code=code, severity=severity or default,
                           message=message, suggestion=suggestion,
                           witness=witness, fault_class=fault_class)


def silent_dead_faults(petri: PetriNet, spec: DiagnosabilitySpec,
                       fault_class: str,
                       max_markings: int = 20_000) -> tuple[str, ...]:
    """Fault transitions with no observable causal future (DD903).

    Structural: starting from the fault's postset, walk the flow graph
    forward; if no observable transition is ever reachable, firing the
    fault can never influence the observation stream, so (provided the
    fault can fire at all) the fault-free mirror of any faulty run
    explains the same observations forever -- trivially non-diagnosable.
    A bounded reachability scan guards the "can fire at all" side; when
    the scan is cut off the transition is conservatively treated as
    fireable.
    """
    net = petri.net
    out: list[str] = []
    fireable: set[str] | None = None
    try:
        fireable = set()
        for marking in reachable_markings(petri, max_markings=max_markings):
            for transition in net.transitions:
                if all(p in marking for p in net.parents(transition)):
                    fireable.add(transition)
    except Exception:
        fireable = None  # scan truncated: assume everything fires
    for fault in sorted(spec.classes()[fault_class]):
        if fault in spec.observable:
            continue
        if fireable is not None and fault not in fireable:
            continue  # a dead fault never occurs: vacuously diagnosable
        seen: set[str] = set()
        agenda: list[str] = list(net.children(fault))
        observable_future = False
        while agenda and not observable_future:
            node = agenda.pop()
            if node in seen:
                continue
            seen.add(node)
            for child in net.children(node):
                if net.is_transition(child):
                    if child in spec.observable:
                        observable_future = True
                        break
                    agenda.extend(net.children(child))
                else:
                    agenda.append(child)
            if net.is_transition(node) and node in spec.observable:
                observable_future = True
        if not observable_future:
            out.append(fault)
    return tuple(out)


def model_diagnostics(petri: PetriNet, spec: DiagnosabilitySpec,
                      report: DiagnosabilityReport | None = None, *,
                      limits: VerifierLimits | None = None,
                      assume_bounded: bool = False,
                      per_peer: bool = True) \
        -> tuple[list[Diagnostic], DiagnosabilityReport]:
    """All DD9xx findings for one (net, spec) model.

    Runs the twin-plant verifier (unless a ``report`` is supplied),
    derives DD901/DD902/DD903 per fault class, and -- when ``per_peer``
    and the class is globally diagnosable -- delegates to
    :func:`repro.distributed.analysis.check_peer_diagnosability` for
    the DD904 needs-communication pass.
    """
    spec.validate(petri)
    if report is None:
        report = analyze_diagnosability(petri, spec, limits=limits)
    diagnostics: list[Diagnostic] = []
    for verdict in report.verdicts:
        name = verdict.fault_class
        for fault in silent_dead_faults(petri, spec, name):
            diagnostics.append(_model_diagnostic(
                "DD903",
                f"fault transition {fault} (class {name!r}) is unobservable "
                f"and no observable transition is causally downstream of it: "
                f"its occurrence can never influence what the supervisor "
                f"sees, so the class is trivially non-diagnosable",
                fault_class=name,
                suggestion="make the fault's alarm observable, or add an "
                           "observable transition downstream of its postset"))
        if verdict.verdict == VERDICT_NON_DIAGNOSABLE:
            witness = verdict.witness
            assert witness is not None
            kind = ("the faulty run can extend forever"
                    if witness.kind == "cycle"
                    else "the faulty run ends")
            obs = " ".join(f"{a}@{p}" for a, p in witness.observable_trace) \
                or "(empty)"
            diagnostics.append(_model_diagnostic(
                "DD901",
                f"fault class {name!r} is not diagnosable: the observation "
                f"[{obs}] is produced both by a faulty and by a fault-free "
                f"run, and {kind} without ever telling them apart "
                f"(ambiguous {witness.kind}; witness attached)",
                fault_class=name, witness=witness,
                suggestion="distinguish the runs: make a transition on the "
                           "faulty path emit a distinct observable alarm"))
        elif verdict.verdict == VERDICT_BOUNDED:
            if assume_bounded:
                diagnostics.append(_model_diagnostic(
                    "DD902",
                    f"fault class {name!r}: no ambiguity within the declared "
                    f"bound (depth {report.limits.max_depth}, "
                    f"{verdict.states} verifier states); the verdict is "
                    f"'diagnosable up to the bound' by request",
                    fault_class=name, severity=INFO))
            else:
                diagnostics.append(_model_diagnostic(
                    "DD902",
                    f"fault class {name!r}: the verifier search was cut off "
                    f"after {verdict.states} states before reaching a "
                    f"conclusion; 'diagnosable' is only certified up to the "
                    f"explored bound",
                    fault_class=name,
                    suggestion="raise VerifierLimits.max_states / --max-states "
                               "or declare the bound (--depth) to accept a "
                               "bounded verdict"))
    if per_peer:
        from repro.distributed.analysis import check_peer_diagnosability
        diagnostics.extend(check_peer_diagnosability(
            petri, spec, limits=limits, global_report=report))
    return diagnostics, report


def model_report(petri: PetriNet, spec: DiagnosabilitySpec, *,
                 limits: VerifierLimits | None = None,
                 assume_bounded: bool = False,
                 per_peer: bool = True) \
        -> tuple[AnalysisReport, DiagnosabilityReport]:
    """DD9xx findings wrapped as an :class:`AnalysisReport`.

    The wrapper is what lets ``repro lint --registered`` and the
    ``repro diagnosability`` CLI reuse the text/json/sarif emitters
    verbatim; the embedded program is empty (models have no rules).
    """
    diagnostics, report = model_diagnostics(
        petri, spec, limits=limits, assume_bounded=assume_bounded,
        per_peer=per_peer)
    return AnalysisReport(program=Program(()),
                          diagnostics=tuple(diagnostics)), report


def witness_payload(diagnostic: Diagnostic) -> dict[str, Any] | None:
    """The structured witness of a diagnostic, if it carries one."""
    witness = getattr(diagnostic, "witness", None)
    if witness is None:
        return None
    payload: dict[str, Any] = witness.to_payload()
    return payload
