"""Fault / observability specifications for diagnosability analysis.

Diagnosis ("explain these alarms") takes an alarm sequence; the *static*
diagnosability question ("could this fault ever be told apart from
normal behaviour at all?") instead takes a partition of the model's
transitions: which transitions are *faults* (grouped into named fault
classes, decided independently) and which are *observable* (their alarm
is reported to the supervisor when they fire).

The observation a run produces is the sequence of ``(alarm, peer)``
labels of its observable transitions, in firing order.  Two transitions
are indistinguishable to the supervisor exactly when they share that
label -- the paper's alarm symbols are deliberately ambiguous, which is
what gives diagnosability analysis real work to do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import PetriNetError
from repro.petri.net import Net, PetriNet

#: What the supervisor sees when an observable transition fires.
Label = tuple[str, str]


def observation_label(net: Net, transition: str) -> Label:
    """The ``(alarm, peer)`` pair reported when ``transition`` fires."""
    return (net.alarm[transition], net.peer[transition])


@dataclass(frozen=True)
class DiagnosabilitySpec:
    """Which transitions are faulty, and which are observable.

    ``fault_classes`` is a sorted tuple of ``(name, transitions)``
    pairs; each class is analyzed independently (a run is *faulty for a
    class* when it fires any transition of that class).  ``observable``
    lists the transitions whose alarms reach the supervisor; everything
    else fires silently.
    """

    fault_classes: tuple[tuple[str, frozenset[str]], ...]
    observable: frozenset[str]

    @classmethod
    def build(cls, fault_classes: Mapping[str, Iterable[str]],
              observable: Iterable[str]) -> "DiagnosabilitySpec":
        classes = tuple(sorted((name, frozenset(faults))
                               for name, faults in fault_classes.items()))
        return cls(fault_classes=classes, observable=frozenset(observable))

    @classmethod
    def single(cls, faults: Iterable[str], observable: Iterable[str],
               name: str = "fault") -> "DiagnosabilitySpec":
        """The common one-fault-class case."""
        return cls.build({name: faults}, observable)

    def classes(self) -> dict[str, frozenset[str]]:
        return dict(self.fault_classes)

    def validate(self, petri: PetriNet) -> None:
        """Raise :class:`PetriNetError` unless the spec fits the net."""
        transitions = petri.net.transitions
        unknown = self.observable - transitions
        if unknown:
            raise PetriNetError(
                f"observable set names unknown transitions: {sorted(unknown)}")
        if not self.fault_classes:
            raise PetriNetError("spec declares no fault class")
        seen: set[str] = set()
        for name, faults in self.fault_classes:
            if not faults:
                raise PetriNetError(f"fault class {name!r} is empty")
            if name in seen:
                raise PetriNetError(f"duplicate fault class {name!r}")
            seen.add(name)
            unknown = faults - transitions
            if unknown:
                raise PetriNetError(
                    f"fault class {name!r} names unknown transitions: "
                    f"{sorted(unknown)}")

    def restricted_to_peer(self, net: Net, peer: str) -> "DiagnosabilitySpec":
        """The spec as seen by one peer: only its own alarms are visible.

        Fault classes are unchanged -- the question becomes whether the
        peer can decide the (global) fault from its local observations
        alone, which is what the DD904 needs-communication pass compares
        against the pooled-observation verdict.
        """
        local = frozenset(t for t in self.observable if net.peer[t] == peer)
        return DiagnosabilitySpec(fault_classes=self.fault_classes,
                                  observable=local)
