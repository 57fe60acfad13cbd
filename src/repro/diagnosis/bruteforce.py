"""Brute-force diagnoser: direct search over the unfolding.

Ground truth for small instances.  The *plain* unfolding is built to the
depth of the observation's event bound (``|A|`` in the basic problem: one
event per alarm, so no deeper event can participate); explanations are
enumerated by extending partial configurations one event at a time while
tracking each watched peer's observer state: a reported event follows a
matching observer edge, an unreported one (a hidden transition, or any
at an unobserved peer -- Section 4.4) moves nothing, and a configuration
is a diagnosis when every observer accepts.

Nothing here touches the product construction (:mod:`repro.petri.product`)
or the Datalog encoding, which makes this their independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.patterns import ObservationSpec
from repro.diagnosis.problem import DiagnosisSet, diagnosis_set
from repro.petri.net import PetriNet
from repro.petri.occurrence import BranchingProcess
from repro.petri.unfolding import unfold
from repro.utils.counters import Counters


@dataclass
class BruteforceResult:
    """Diagnosis set plus the branching process it refers to."""

    diagnoses: DiagnosisSet
    bp: BranchingProcess
    explored_states: int
    counters: Counters = field(default_factory=Counters)

    # -- DiagnosisOutcome protocol (repro.api): brute force materializes
    # the whole depth-bounded unfolding it searches.

    @property
    def materialized_events(self) -> frozenset[str]:
        return frozenset(self.bp.events)

    @property
    def materialized_conditions(self) -> frozenset[str]:
        return frozenset(self.bp.conditions)

    @property
    def partial(self) -> bool:
        """Brute force runs in-process; never partial."""
        return False

    @property
    def peer_report(self) -> dict[str, dict[str, int | bool]] | None:
        """In-process: there are no peers to fail."""
        return None


def bruteforce_diagnosis(petri: PetriNet,
                         observation: AlarmSequence | ObservationSpec,
                         max_events: int = 50_000) -> BruteforceResult:
    """Enumerate all explanations of ``observation`` in ``Unfold(petri)``;
    ``max_events`` caps the unfolding built, not an explanation."""
    net = petri.net
    spec = ObservationSpec.coerce(observation, net)
    limit, _enforced = spec.event_bound(net)
    bp = unfold(petri, max_events=max_events, max_depth=limit)

    unreported = spec.unreported(net)
    peers = sorted(spec.observers)
    position = {peer: index for index, peer in enumerate(peers)}
    accepting = [spec.observers[peer].accepting for peer in peers]
    #: (peer, state, alarm) -> the states the peer's observer may move to
    moves: dict[tuple[str, str, str], list[str]] = {}
    for peer in peers:
        for edge in spec.observers[peer].edges:
            moves.setdefault((peer, edge.source, edge.alarm),
                             []).append(edge.target)

    #: (chosen events, observer state per watched peer): the states are not
    #: a function of the events, concurrent ones may be reported either way
    seen: set[tuple[frozenset[str], tuple[str, ...]]] = set()
    found: set[frozenset[str]] = set()

    def search(chosen: frozenset[str], cut: frozenset[str],
               states: tuple[str, ...]) -> None:
        if (chosen, states) in seen:
            return
        seen.add((chosen, states))
        if all(state in ok for state, ok in zip(states, accepting)):
            found.add(chosen)
        if len(chosen) == limit:
            return
        enabled = {eid for cid in cut for eid in bp.consumers[cid]
                   if cut.issuperset(bp.events[eid].preset)}
        for eid in enabled:
            event = bp.events[eid]
            extended = chosen | {eid}
            new_cut = cut.difference(event.preset).union(bp.postset[eid])
            if event.transition in unreported:
                search(extended, new_cut, states)
                continue
            peer = net.peer[event.transition]
            index = position[peer]
            for target in moves.get(
                    (peer, states[index], net.alarm[event.transition]), ()):
                search(extended, new_cut,
                       states[:index] + (target,) + states[index + 1:])

    search(frozenset(), frozenset(bp.roots),
           tuple(spec.observers[peer].initial for peer in peers))
    diagnoses = diagnosis_set(found)
    counters = Counters()
    counters.add("explored_states", len(seen))
    counters.add("diagnoses", len(diagnoses))
    counters.add("materialized_events", len(bp.events))
    counters.add("materialized_conditions", len(bp.conditions))
    return BruteforceResult(diagnoses=diagnoses, bp=bp,
                            explored_states=len(seen), counters=counters)
