"""Nets and Petri nets (Definitions 1 and 2 of the paper).

A *net* is a directed bipartite graph of places and transitions with two
labeling functions: ``alarm`` maps each transition to an alarm symbol,
``peer`` maps every node to the peer that hosts it.  A *Petri net* is a
finite net plus a set of marked places.  Edges may cross peers -- that is
what makes the diagnosis problem distributed (e.g. transition ``i`` of
Figure 1 consumes place ``7`` of the other peer).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping

from repro.errors import PetriNetError


class Net:
    """A finite labeled net ``(S, T, E, alpha, phi)``.

    Node ids are strings and must be globally unique across places and
    transitions (the paper's w.l.o.g. assumption; footnote 3 suggests
    concatenating the peer id when needed).
    """

    def __init__(self, places: Iterable[str], transitions: Iterable[str],
                 edges: Iterable[tuple[str, str]], alarm: Mapping[str, str],
                 peer: Mapping[str, str]) -> None:
        self.places = frozenset(places)
        self.transitions = frozenset(transitions)
        self.edges = frozenset(edges)
        self.alarm = dict(alarm)
        self.peer = dict(peer)
        self._parents: dict[str, tuple[str, ...]] = {}
        self._children: dict[str, tuple[str, ...]] = {}
        self._validate()
        self._build_adjacency()

    def _validate(self) -> None:
        overlap = self.places & self.transitions
        if overlap:
            raise PetriNetError(f"nodes are both place and transition: {sorted(overlap)}")
        nodes = self.places | self.transitions
        for source, target in self.edges:
            if source not in nodes or target not in nodes:
                raise PetriNetError(f"edge ({source}, {target}) mentions unknown node")
            source_is_place = source in self.places
            target_is_place = target in self.places
            if source_is_place == target_is_place:
                raise PetriNetError(
                    f"edge ({source}, {target}) does not connect a place and a transition")
        for transition in self.transitions:
            if transition not in self.alarm:
                raise PetriNetError(f"transition {transition} has no alarm symbol")
        for node in nodes:
            if node not in self.peer:
                raise PetriNetError(f"node {node} has no peer")
        for node in self.alarm:
            if node not in self.transitions:
                raise PetriNetError(f"alarm labels non-transition {node}")

    def _build_adjacency(self) -> None:
        parents: dict[str, list[str]] = defaultdict(list)
        children: dict[str, list[str]] = defaultdict(list)
        for source, target in sorted(self.edges):
            children[source].append(target)
            parents[target].append(source)
        nodes = self.places | self.transitions
        self._parents = {n: tuple(parents.get(n, ())) for n in nodes}
        self._children = {n: tuple(children.get(n, ())) for n in nodes}

    # -- structure ---------------------------------------------------------

    def parents(self, node: str) -> tuple[str, ...]:
        """The preset of a node (the paper's bullet-prefix notation)."""
        return self._parents[node]

    def children(self, node: str) -> tuple[str, ...]:
        """The postset of a node (the paper's bullet-suffix notation)."""
        return self._children[node]

    def is_transition(self, node: str) -> bool:
        return node in self.transitions

    def peers(self) -> frozenset[str]:
        return frozenset(self.peer.values())

    def transitions_of_peer(self, peer: str) -> tuple[str, ...]:
        return tuple(sorted(t for t in self.transitions if self.peer[t] == peer))

    def places_of_peer(self, peer: str) -> tuple[str, ...]:
        return tuple(sorted(s for s in self.places if self.peer[s] == peer))

    def grandparent_transitions(self, transition: str) -> frozenset[str]:
        """Transitions producing a parent place of ``transition``."""
        out: set[str] = set()
        for place in self.parents(transition):
            out.update(self.parents(place))
        return frozenset(out)

    def neighbors(self, peer: str) -> frozenset[str]:
        """The paper's ``Neighb(p)``: peers holding a grandparent transition
        of some transition of ``p``."""
        out: set[str] = set()
        for transition in self.transitions_of_peer(peer):
            for grandparent in self.grandparent_transitions(transition):
                out.add(self.peer[grandparent])
        return frozenset(out)

    def mates(self, peer: str) -> frozenset[str]:
        """The paper's ``Mates(p)``: peers holding a transition that is the
        grandparent of a grandchild of some transition of ``p``."""
        out: set[str] = set()
        for transition in self.transitions_of_peer(peer):
            for place in self.children(transition):
                for grandchild in self.children(place):
                    for grandparent in self.grandparent_transitions(grandchild):
                        out.add(self.peer[grandparent])
        return frozenset(out)

    def __repr__(self) -> str:
        return (f"Net({len(self.places)} places, {len(self.transitions)} transitions, "
                f"{len(self.edges)} edges, {len(self.peers())} peers)")


class PetriNet:
    """A net plus its initial marking (Definition 2).

    The paper assumes *safe* nets: if a transition is enabled in a
    reachable marking, its postset is unmarked (except for the consumed
    places).  Firing checks this dynamically; :func:`repro.petri.marking.is_safe`
    checks it globally by exploring the reachable state space.
    """

    def __init__(self, net: Net, marking: Iterable[str]) -> None:
        self.net = net
        self.marking = frozenset(marking)
        unknown = self.marking - net.places
        if unknown:
            raise PetriNetError(f"marked nodes are not places: {sorted(unknown)}")

    @classmethod
    def build(cls, *, places: Mapping[str, str], transitions: Mapping[str, tuple[str, str]],
              edges: Iterable[tuple[str, str]], marking: Iterable[str]) -> "PetriNet":
        """Convenience constructor.

        ``places`` maps place id to peer; ``transitions`` maps transition
        id to ``(alarm, peer)``.
        """
        peer = dict(places)
        alarm = {}
        for tid, (alarm_symbol, peer_name) in transitions.items():
            alarm[tid] = alarm_symbol
            peer[tid] = peer_name
        net = Net(places=places.keys(), transitions=transitions.keys(),
                  edges=edges, alarm=alarm, peer=peer)
        return cls(net, marking)

    def __repr__(self) -> str:
        return f"PetriNet({self.net!r}, |M|={len(self.marking)})"
