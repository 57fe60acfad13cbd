"""Token-game semantics: enabledness, firing, reachability, safety.

The reachability exploration doubles as the substrate of the brute-force
diagnoser (ground truth for small nets) and of the global safety check.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.errors import (MarkingBoundExceeded, NotFireableError,
                          NotSafeError, PetriNetError)
from repro.petri.net import Net, PetriNet

Marking = frozenset[str]


def enabled_transitions(net: Net, marking: Marking) -> tuple[str, ...]:
    """Transitions whose every parent place is marked, in sorted order."""
    return tuple(sorted(t for t in net.transitions
                        if all(p in marking for p in net.parents(t))))


def fire(net: Net, marking: Marking, transition: str) -> Marking:
    """Fire a transition: ``M' = M - preset + postset`` (Definition 2).

    Raises :class:`NotFireableError` when disabled and
    :class:`NotSafeError` when firing would put a second token on a
    marked place (violating the safety assumption).
    """
    if transition not in net.transitions:
        raise PetriNetError(f"unknown transition {transition}")
    preset = set(net.parents(transition))
    postset = set(net.children(transition))
    if not preset <= marking:
        raise NotFireableError(f"transition {transition} is not enabled in {sorted(marking)}")
    remainder = marking - preset
    double = postset & remainder
    if double:
        raise NotSafeError(
            f"firing {transition} would double-mark places {sorted(double)}")
    return frozenset(remainder | postset)


def run_sequence(petri: PetriNet, transitions: Iterable[str]) -> Marking:
    """Fire a sequence of transitions from the initial marking."""
    marking = petri.marking
    for transition in transitions:
        marking = fire(petri.net, marking, transition)
    return marking


def reachable_markings(petri: PetriNet, max_markings: int = 100_000) -> Iterator[Marking]:
    """Breadth-first enumeration of the reachable markings.

    Stops with :class:`MarkingBoundExceeded` if the bound is exceeded
    (cannot happen for safe nets with few places, but generated nets are
    checked defensively).
    """
    seen: set[Marking] = {petri.marking}
    agenda: deque[Marking] = deque([petri.marking])
    while agenda:
        marking = agenda.popleft()
        yield marking
        for transition in enabled_transitions(petri.net, marking):
            successor = fire(petri.net, marking, transition)
            if successor not in seen:
                if len(seen) >= max_markings:
                    raise MarkingBoundExceeded(
                        f"reachability passed the bound of {max_markings} "
                        f"markings ({len(agenda)} still unexplored)")
                seen.add(successor)
                agenda.append(successor)


def is_safe(petri: PetriNet, max_markings: int = 100_000) -> bool:
    """Explore the state space; False iff some firing violates 1-safety."""
    try:
        for _marking in reachable_markings(petri, max_markings):
            pass
    except NotSafeError:
        return False
    return True
