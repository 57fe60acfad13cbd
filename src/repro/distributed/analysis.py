"""Located-atom analysis passes for dDatalog programs.

dQSQ (Figure 5) evaluates a rule at the peer of its head and delegates
the *remainder* of the body — everything from the first non-local atom
on — to that atom's peer.  That scheme is only sound when every body
atom names a peer at all (otherwise there is nowhere to delegate to),
when the named peers exist in the deployment, and when the rule carries
no negated atoms (the dQSQ rewriting walks ``rule.body`` and
``rule.inequalities`` only, silently dropping ``rule.negated``, and the
distributed naive engine never subscribes to negated atoms).

These passes are invoked lazily from :func:`repro.datalog.analysis.analyze`
whenever the program mentions peers; keeping them here keeps
``repro.datalog`` free of distributed-layer concerns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.datalog.analysis import Diagnostic, make_diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.datalog.rule import Program
    from repro.diagnosability.spec import DiagnosabilitySpec
    from repro.diagnosability.verifier import (DiagnosabilityReport,
                                               VerifierLimits)
    from repro.petri.net import PetriNet


def check_locality(program: "Program",
                   known_peers: Iterable[str] | None = None) -> list[Diagnostic]:
    """Distributability of located rules: DD401 / DD402 / DD403.

    DD401 (error): a rule mixing located and unlocated atoms is not
    localizable — dQSQ cannot decide where an unlocated atom lives, and
    ``strip_peers``/``qualify_relations`` would silently merge it with
    every peer's copy.  Fully located and fully unlocated rules are both
    fine (the latter form a local program evaluated wholesale).

    DD402 (warning): an atom located at a peer outside ``known_peers``
    can never be answered by the deployment; reported only when a
    deployment is given.

    DD403 (warning): a located rule with negated atoms — the dQSQ
    remainder rewriting drops negation silently and the distributed
    naive engine never activates on negated subscriptions, so the rule's
    distributed semantics differ from its stratified local semantics.
    The distributed engines escalate this code to an error.
    """
    peers = set(known_peers) if known_peers is not None else None
    out: list[Diagnostic] = []
    for rule in program:
        atoms = [rule.head, *rule.body, *rule.negated]
        located = [a for a in atoms if a.peer is not None]
        unlocated = [a for a in atoms if a.peer is None]
        if located and unlocated:
            sample = unlocated[0] if rule.head.peer is not None else rule.head
            out.append(make_diagnostic(
                "DD401",
                f"rule mixes located and unlocated atoms ({sample} carries "
                f"no peer): it cannot be localized for distributed "
                f"evaluation",
                rule=rule,
                suggestion="locate every atom at a peer (R@peer) or none"))
        if peers is not None:
            for atom in located:
                if atom.peer not in peers:
                    out.append(make_diagnostic(
                        "DD402",
                        f"atom {atom} is located at unknown peer "
                        f"{atom.peer!r} (deployment: "
                        f"{', '.join(sorted(peers)) or 'empty'})",
                        rule=rule,
                        suggestion="add the peer to the deployment or fix "
                                   "the peer name"))
        if located and rule.negated:
            out.append(make_diagnostic(
                "DD403",
                f"located rule negates {rule.negated[0]}: dQSQ remainder "
                f"delegation drops negated atoms, so the distributed "
                f"result would ignore the negation",
                rule=rule,
                suggestion="define the complement positively (as the paper "
                           "does for notCausal/notConf) or evaluate the "
                           "stratified program locally"))
    return out


def check_peer_diagnosability(petri: "PetriNet", spec: "DiagnosabilitySpec",
                              limits: "VerifierLimits | None" = None,
                              global_report: "DiagnosabilityReport | None"
                              = None) -> list[Diagnostic]:
    """DD904: a fault only the *pooled* observations can decide.

    Re-runs the twin-plant verifier once per peer with the observable
    set restricted to that peer's own transitions (its local alarm
    stream).  A fault class that is globally diagnosable but locally
    non-diagnosable at some peer needs communication: no single-site
    diagnoser suffices, which is precisely the setting the paper's
    distributed dDatalog diagnosers exist for.  Classes that are not
    globally diagnosable are skipped (DD901/DD902 already cover them,
    and every local view is at least as ambiguous as the global one).
    """
    from repro.diagnosability.verifier import (VERDICT_NON_DIAGNOSABLE,
                                               analyze_class,
                                               analyze_diagnosability)
    if global_report is None:
        global_report = analyze_diagnosability(petri, spec, limits=limits)
    peers = sorted({petri.net.peer[t] for t in petri.net.transitions})
    out: list[Diagnostic] = []
    if len(peers) < 2:
        return out  # a single-site system has nobody to communicate with
    for verdict in global_report.verdicts:
        if not verdict.diagnosable:
            continue
        undiagnosing: list[str] = []
        for peer in peers:
            local_spec = spec.restricted_to_peer(petri.net, peer)
            local = analyze_class(petri, local_spec, verdict.fault_class,
                                  limits=limits)
            if local.verdict == VERDICT_NON_DIAGNOSABLE:
                undiagnosing.append(peer)
        if undiagnosing:
            from repro.diagnosability.lint import ModelDiagnostic
            from repro.datalog.analysis import CODES
            roster = ", ".join(undiagnosing)
            out.append(ModelDiagnostic(
                code="DD904", severity=CODES["DD904"][1],
                message=f"fault class {verdict.fault_class!r} is "
                        f"diagnosable from the pooled observations but "
                        f"not from the local alarms of peer(s) {roster}: "
                        f"a diagnoser at any of these sites must "
                        f"communicate to reach a verdict",
                suggestion="deploy communicating diagnosers (repro "
                           "distributed run) or add distinguishing local "
                           "alarms at the affected peers",
                fault_class=verdict.fault_class))
    return out
