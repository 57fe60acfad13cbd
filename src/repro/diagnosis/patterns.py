"""Alarm patterns as regular languages (Section 4.4).

"Rather than analyzing one particular alarm sequence, we may seek
explanation of a pattern described by some regular language, e.g.
``alpha.beta*.alpha``."  We provide a small regular-expression AST over
alarm symbols, a Thompson construction to an NFA, and a subset
construction to a DFA that converts into a per-peer
:class:`~repro.petri.product.Observer`.

An :class:`ObservationSpec` is what the supervisor knows in general: one
observer per watched peer, the transitions that are never reported
("hidden transitions"), and an event budget.  A concrete alarm sequence
is the instance whose observers are linear chains
(:meth:`ObservationSpec.from_alarms`); "sequences of alarms not
containing some known patterns" are observed through the *complement*
automaton (:func:`totalize_and_complement`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.diagnosis.alarms import AlarmSequence
from repro.errors import DiagnosisError, EncodingError
from repro.petri.net import Net
from repro.petri.product import Observer, ObserverEdge


class AlarmPattern:
    """A regular expression over alarm symbols.

    Construct with the combinators: ``AlarmPattern.symbol("a")``,
    ``p.then(q)``, ``p.alt(q)``, ``p.star()``, ``AlarmPattern.epsilon()``.
    """

    def __init__(self, kind: str, children: tuple["AlarmPattern", ...] = (),
                 symbol: str | None = None) -> None:
        self.kind = kind
        self.children = children
        self.symbol = symbol

    # -- combinators ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "AlarmPattern":
        """Parse a compact regex syntax: ``a.b*.(c|d)`` etc.

        ``.`` concatenates, ``|`` alternates, ``*``/``+`` repeat, and
        parentheses group; alarm symbols are alphanumeric words (with
        ``-``/``_``).  This is the notation of the paper's
        ``alpha.beta*.alpha`` example.
        """
        parser = _PatternParser(text)
        pattern = parser.parse_alternation()
        parser.expect_end()
        return pattern

    @classmethod
    def symbol(cls, name: str) -> "AlarmPattern":
        return cls("symbol", symbol=name)

    @classmethod
    def epsilon(cls) -> "AlarmPattern":
        return cls("epsilon")

    @classmethod
    def sequence(cls, symbols: Iterable[str]) -> "AlarmPattern":
        out = cls.epsilon()
        for name in symbols:
            out = out.then(cls.symbol(name))
        return out

    def then(self, other: "AlarmPattern") -> "AlarmPattern":
        return AlarmPattern("concat", (self, other))

    def alt(self, other: "AlarmPattern") -> "AlarmPattern":
        return AlarmPattern("alt", (self, other))

    def star(self) -> "AlarmPattern":
        return AlarmPattern("star", (self,))

    def plus(self) -> "AlarmPattern":
        return self.then(self.star())

    # -- language membership (reference implementation for tests) ---------------

    def matches(self, word: Iterable[str]) -> bool:
        dfa = self.to_dfa()
        state = dfa.initial
        for symbol in word:
            state = dfa.delta.get((state, symbol))
            if state is None:
                return False
        return state in dfa.accepting

    # -- automata ---------------------------------------------------------------

    def to_nfa(self) -> "_Nfa":
        counter = [0]

        def fresh() -> int:
            counter[0] += 1
            return counter[0] - 1

        def build(node: "AlarmPattern") -> tuple[int, int, list, list]:
            """Returns (start, end, edges, eps_edges)."""
            if node.kind == "symbol":
                s, e = fresh(), fresh()
                return s, e, [(s, node.symbol, e)], []
            if node.kind == "epsilon":
                s, e = fresh(), fresh()
                return s, e, [], [(s, e)]
            if node.kind == "concat":
                s1, e1, ed1, ep1 = build(node.children[0])
                s2, e2, ed2, ep2 = build(node.children[1])
                return s1, e2, ed1 + ed2, ep1 + ep2 + [(e1, s2)]
            if node.kind == "alt":
                s, e = fresh(), fresh()
                s1, e1, ed1, ep1 = build(node.children[0])
                s2, e2, ed2, ep2 = build(node.children[1])
                eps = ep1 + ep2 + [(s, s1), (s, s2), (e1, e), (e2, e)]
                return s, e, ed1 + ed2, eps
            if node.kind == "star":
                s, e = fresh(), fresh()
                s1, e1, ed1, ep1 = build(node.children[0])
                eps = ep1 + [(s, e), (s, s1), (e1, s1), (e1, e)]
                return s, e, ed1, eps
            raise DiagnosisError(f"unknown pattern kind {node.kind}")

        start, end, edges, eps = build(self)
        return _Nfa(start=start, accepting=end, edges=tuple(edges),
                    epsilon=tuple(eps), states=counter[0])

    def to_dfa(self) -> "_Dfa":
        return self.to_nfa().determinize()

    def to_observer(self, peer: str) -> Observer:
        """Convert to a per-peer observer for the product construction."""
        dfa = self.to_dfa()
        states = tuple(f"q{i}" for i in range(dfa.states))
        edges = tuple(ObserverEdge(f"q{source}", symbol, f"q{target}")
                      for (source, symbol), target in sorted(dfa.delta.items()))
        return Observer(peer=peer, states=states, initial=f"q{dfa.initial}",
                        accepting=frozenset(f"q{s}" for s in dfa.accepting),
                        edges=edges)


class _PatternParser:
    """Recursive-descent parser for the compact pattern syntax."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.position = 0

    def _peek(self) -> str | None:
        while self.position < len(self.text) and self.text[self.position] == " ":
            self.position += 1
        if self.position < len(self.text):
            return self.text[self.position]
        return None

    def parse_alternation(self) -> AlarmPattern:
        left = self.parse_concatenation()
        while self._peek() == "|":
            self.position += 1
            left = left.alt(self.parse_concatenation())
        return left

    def parse_concatenation(self) -> AlarmPattern:
        left = self.parse_repetition()
        while True:
            char = self._peek()
            if char == ".":
                self.position += 1
                left = left.then(self.parse_repetition())
            elif char is not None and (char.isalnum() or char in "(_-"):
                # Juxtaposition also concatenates (e.g. "ab*").
                left = left.then(self.parse_repetition())
            else:
                return left

    def parse_repetition(self) -> AlarmPattern:
        atom = self.parse_atom()
        while self._peek() in ("*", "+"):
            if self._peek() == "*":
                atom = atom.star()
            else:
                atom = atom.plus()
            self.position += 1
        return atom

    def parse_atom(self) -> AlarmPattern:
        char = self._peek()
        if char == "(":
            self.position += 1
            inner = self.parse_alternation()
            if self._peek() != ")":
                raise DiagnosisError(f"unbalanced parenthesis in {self.text!r}")
            self.position += 1
            return inner
        if char is not None and (char.isalnum() or char in "_-"):
            start = self.position
            while (self.position < len(self.text)
                   and (self.text[self.position].isalnum()
                        or self.text[self.position] in "_-")):
                self.position += 1
            return AlarmPattern.symbol(self.text[start:self.position])
        raise DiagnosisError(
            f"unexpected character at {self.position} in pattern {self.text!r}")

    def expect_end(self) -> None:
        if self._peek() is not None:
            raise DiagnosisError(
                f"trailing input at {self.position} in pattern {self.text!r}")


@dataclass(frozen=True)
class _Nfa:
    start: int
    accepting: int
    edges: tuple[tuple[int, str, int], ...]
    epsilon: tuple[tuple[int, int], ...]
    states: int

    def _closure(self, states: frozenset[int]) -> frozenset[int]:
        out = set(states)
        changed = True
        while changed:
            changed = False
            for source, target in self.epsilon:
                if source in out and target not in out:
                    out.add(target)
                    changed = True
        return frozenset(out)

    def determinize(self) -> "_Dfa":
        alphabet = sorted({symbol for _s, symbol, _t in self.edges})
        initial = self._closure(frozenset({self.start}))
        index: dict[frozenset[int], int] = {initial: 0}
        agenda = [initial]
        delta: dict[tuple[int, str], int] = {}
        while agenda:
            current = agenda.pop()
            for symbol in alphabet:
                target = frozenset(t for (s, sym, t) in self.edges
                                   if sym == symbol and s in current)
                if not target:
                    continue
                closed = self._closure(target)
                if closed not in index:
                    index[closed] = len(index)
                    agenda.append(closed)
                delta[(index[current], symbol)] = index[closed]
        accepting = frozenset(i for subset, i in index.items()
                              if self.accepting in subset)
        return _Dfa(initial=0, accepting=accepting, delta=delta,
                    states=len(index))


@dataclass(frozen=True)
class _Dfa:
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, str], int]
    states: int


def totalize_and_complement(observer: Observer, alphabet: tuple[str, ...]) -> Observer:
    """The complement observer: accepts exactly the words the original
    rejects (used for "blocked pattern" diagnosis)."""
    sink = "q-sink"
    states = tuple(observer.states) + (sink,)
    edges = list(observer.edges)
    defined = {(edge.source, edge.alarm) for edge in observer.edges}
    for state in states:
        for symbol in alphabet:
            if (state, symbol) not in defined:
                edges.append(ObserverEdge(state, symbol, sink))
    accepting = frozenset(s for s in states if s not in observer.accepting)
    return Observer(peer=observer.peer, states=states, initial=observer.initial,
                    accepting=accepting, edges=tuple(edges))


@dataclass
class ObservationSpec:
    """What the supervisor knows: per-peer observers, hidden transitions,
    and the event budget that bounds the search.  It is the one question
    every solver behind :func:`repro.diagnose` is asked.

    A peer without an observer is unobserved: all its transitions fire
    unseen.  A peer whose observer has no edges is silent: none of its
    visible transitions may fire.
    """

    observers: dict[str, Observer]
    hidden: frozenset[str] = frozenset()
    #: the most events an explanation may contain; ``None`` leaves it to
    #: the observers, where they bound it (:meth:`event_bound`)
    max_events: int | None = None
    #: the order the alarms reached the supervisor, when the observation
    #: was one sequence (:meth:`from_alarms`).  It says nothing about the
    #: asynchronous system, so it is not part of the question; a windowed
    #: online run forgets by it.
    arrival: AlarmSequence | None = field(default=None, compare=False,
                                          repr=False)

    @classmethod
    def from_patterns(cls, patterns: dict[str, AlarmPattern],
                      hidden: frozenset[str] = frozenset(),
                      max_events: int | None = None) -> "ObservationSpec":
        observers = {peer: pattern.to_observer(peer)
                     for peer, pattern in patterns.items()}
        return cls(observers=observers, hidden=hidden, max_events=max_events)

    @classmethod
    def from_alarms(cls, alarms: AlarmSequence, peers: Iterable[str],
                    hidden: frozenset[str] = frozenset(),
                    hidden_budget: int = 0) -> "ObservationSpec":
        """The Section-4.2 problem as an observation: one chain observer
        per peer of the net (an empty chain where the peer sent nothing),
        and at most ``hidden_budget`` events beyond the alarms."""
        by_peer = alarms.by_peer()
        observers = {peer: Observer.chain(peer, by_peer.get(peer, ()))
                     for peer in sorted({*peers, *by_peer})}
        return cls(observers=observers, hidden=hidden,
                   max_events=len(alarms) + hidden_budget, arrival=alarms)

    @classmethod
    def coerce(cls, observation: "AlarmSequence | ObservationSpec",
               net: Net) -> "ObservationSpec":
        """``observation`` as a spec, checked against ``net``: an alarm
        sequence becomes its chain observers, and naming a peer or a
        transition the net does not have is an error whoever asks."""
        if isinstance(observation, AlarmSequence):
            observation = cls.from_alarms(observation, net.peers())
        for kind, unknown in (
                ("peers", observation.observers.keys() - net.peers()),
                ("hidden transitions", observation.hidden - net.transitions)):
            if unknown:
                raise EncodingError(
                    f"observation of unknown {kind}: {sorted(unknown)}")
        return observation

    def as_alarms(self, net: Net) -> AlarmSequence | None:
        """The inverse of :meth:`from_alarms`: the alarm sequence that asks
        the same question, ``None`` when there is none.  It is
        :attr:`arrival` where that still spells the observers, peer after
        peer otherwise."""
        if self.event_bound(net)[1]:
            return None
        by_peer = AlarmSequence((edge.alarm, peer)
                                for peer, observer in self.observers.items()
                                for edge in observer.edges)
        for alarms in (self.arrival, by_peer):
            if alarms is not None and self.observers == ObservationSpec.from_alarms(
                    alarms, net.peers()).observers:
                return alarms
        return None

    def unreported(self, net: Net) -> frozenset[str]:
        """The transitions that fire without moving an observer: the
        hidden ones and all those of an unobserved peer."""
        return frozenset(t for t in net.transitions
                         if t in self.hidden or net.peer[t] not in self.observers)

    def event_bound(self, net: Net) -> tuple[int, bool]:
        """``(bound, enforced)``: the most events an explanation may
        contain, and whether a solver has to enforce it (the paper's
        termination gadget) because the observers alone do not.  They do
        when every transition is reported and no observer has a cycle:
        their longest words together are then the bound.  Otherwise it is
        ``max_events``, and leaving that out is an error, not a default.
        """
        unreported = self.unreported(net)
        longest = sum(o.longest_word() for o in self.observers.values())
        why = None
        if unreported & self.hidden:
            why = f"transitions {sorted(unreported & self.hidden)} are hidden"
        elif unreported:
            why = f"peers {sorted({net.peer[t] for t in unreported})} are unobserved"
        elif longest == math.inf:
            why = "an observer has a cycle"
        if why is None and (self.max_events is None
                            or longest <= self.max_events):
            return int(longest), False
        if self.max_events is None:
            raise DiagnosisError(
                f"ObservationSpec.max_events is required: {why}")
        return self.max_events, True
