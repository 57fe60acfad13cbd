"""Synchronized product of a Petri net with per-peer alarm observers.

This is the construction underlying the dedicated diagnosis algorithm of
Benveniste-Fabre-Haar-Jard [8], sketched in Section 4.3 of the paper:
"(i) models A as a linear Petri net formed by a sequence of transitions
emitting the alarms in A, (ii) computes the product Petri net of (N, M)
and A and unfolds it completely."

An :class:`Observer` is a finite automaton over one peer's alarm stream
(a linear chain for a concrete alarm subsequence; a general DFA for the
Section-4.4 alarm-pattern extension).  The product synchronizes every
visible transition of the peer with the observer's matching edges; the
product unfolding then contains exactly the behaviour compatible with
the observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import PetriNetError
from repro.petri.net import PetriNet


@dataclass(frozen=True)
class ObserverEdge:
    """One automaton edge: ``source --alarm--> target``."""

    source: str
    alarm: str
    target: str


@dataclass(frozen=True)
class Observer:
    """A finite automaton over the alarms of one peer.

    ``states``/``initial``/``accepting`` are automaton states; every
    visible alarm of the peer must be matched by an edge for the run to
    be compatible with the observation.
    """

    peer: str
    states: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    edges: tuple[ObserverEdge, ...]

    @classmethod
    def chain(cls, peer: str, alarms: Sequence[str]) -> "Observer":
        """The linear observer for a concrete alarm subsequence.

        This is the paper's "linear Petri net formed by a sequence of
        transitions emitting the alarms in A" restricted to one peer.
        """
        states = tuple(f"q{i}" for i in range(len(alarms) + 1))
        edges = tuple(ObserverEdge(f"q{i}", alarm, f"q{i+1}")
                      for i, alarm in enumerate(alarms))
        return cls(peer=peer, states=states, initial="q0",
                   accepting=frozenset({f"q{len(alarms)}"}), edges=edges)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.initial not in self.states:
            raise PetriNetError(f"observer initial state {self.initial} unknown")
        for state in self.accepting:
            if state not in self.states:
                raise PetriNetError(f"observer accepting state {state} unknown")
        for edge in self.edges:
            if edge.source not in self.states or edge.target not in self.states:
                raise PetriNetError(f"observer edge {edge} mentions unknown state")

    def longest_word(self) -> float:
        """Length of the longest word the automaton can read, infinite
        when it has a cycle.  Kahn's algorithm: a long chain must not
        recurse."""
        successors: dict[str, list[str]] = {state: [] for state in self.states}
        pending = dict.fromkeys(self.states, 0)
        for edge in self.edges:
            successors[edge.source].append(edge.target)
            pending[edge.target] += 1
        length = dict.fromkeys(self.states, 0)
        ready = [state for state, count in pending.items() if not count]
        sorted_states = 0
        while ready:
            state = ready.pop()
            sorted_states += 1
            for target in successors[state]:
                length[target] = max(length[target], length[state] + 1)
                pending[target] -= 1
                if not pending[target]:
                    ready.append(target)
        if sorted_states < len(self.states):
            return math.inf
        return max(length.values())


@dataclass
class ProductNet:
    """The synchronized product plus projection metadata."""

    petri: PetriNet
    #: product transition id -> original system transition id
    projection: dict[str, str]
    #: observer place id -> (peer, state)
    observer_places: dict[str, tuple[str, str]]
    #: peer -> accepting observer place ids
    accepting_places: dict[str, frozenset[str]] = field(default_factory=dict)


def observer_place(peer: str, state: str) -> str:
    """Id of the product place carrying an observer state."""
    return f"obs[{peer},{state}]"


def product_with_observers(petri: PetriNet, observers: Iterable[Observer],
                           hidden: frozenset[str] = frozenset()) -> ProductNet:
    """Build the product of ``petri`` with one observer per peer.

    ``hidden`` lists transitions that emit no observable alarm (the
    Section-4.4 "hidden transitions" extension); they are copied into the
    product unsynchronized.  Peers without an observer are also left
    unsynchronized (their alarms are not observed).
    """
    observer_by_peer: dict[str, Observer] = {}
    for observer in observers:
        if observer.peer in observer_by_peer:
            raise PetriNetError(f"two observers for peer {observer.peer}")
        observer_by_peer[observer.peer] = observer

    net = petri.net
    places: dict[str, str] = {p: net.peer[p] for p in net.places}
    transitions: dict[str, tuple[str, str]] = {}
    edges: list[tuple[str, str]] = [(u, v) for (u, v) in net.edges]
    projection: dict[str, str] = {}
    observer_places: dict[str, tuple[str, str]] = {}
    accepting_places: dict[str, frozenset[str]] = {}
    marking = set(petri.marking)

    for peer, observer in observer_by_peer.items():
        for state in observer.states:
            pid = observer_place(peer, state)
            places[pid] = peer
            observer_places[pid] = (peer, state)
        marking.add(observer_place(peer, observer.initial))
        accepting_places[peer] = frozenset(observer_place(peer, s)
                                           for s in observer.accepting)

    # Keep the original edges only for transitions we copy verbatim;
    # synchronized transitions get fresh ids, so drop their edges and
    # re-add per copy.
    synchronized: set[str] = set()
    for transition in net.transitions:
        peer = net.peer[transition]
        observer = observer_by_peer.get(peer)
        if observer is None or transition in hidden:
            transitions[transition] = (net.alarm[transition], peer)
            projection[transition] = transition
            continue
        synchronized.add(transition)
        alarm = net.alarm[transition]
        for index, edge in enumerate(observer.edges):
            if edge.alarm != alarm:
                continue
            pid = f"{transition}*{index}"
            transitions[pid] = (alarm, peer)
            projection[pid] = transition
            for parent in net.parents(transition):
                edges.append((parent, pid))
            edges.append((observer_place(peer, edge.source), pid))
            for child in net.children(transition):
                edges.append((pid, child))
            edges.append((pid, observer_place(peer, edge.target)))

    edges = [(u, v) for (u, v) in edges
             if u not in synchronized and v not in synchronized]

    product = PetriNet.build(places=places, transitions=transitions,
                             edges=edges, marking=marking)
    return ProductNet(petri=product, projection=projection,
                      observer_places=observer_places,
                      accepting_places=accepting_places)
