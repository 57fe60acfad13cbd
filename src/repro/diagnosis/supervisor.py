"""The Section-4.2 / 4.4 encoding: diagnosis rules at the supervisor.

The supervisor ``p0`` knows an *observation*: per peer, a finite
automaton over that peer's alarms
(:class:`~repro.diagnosis.patterns.ObservationSpec`).  A concrete alarm
sequence is the instance whose automata are linear chains -- "the
structure of the alarm sequences of interest can be easily described by
a regular automaton whose allowed transitions can be encoded in the
alarmSeq relation" (Section 4.4).  For increasingly larger prefixes the
supervisor builds the configurations that explain them:

* ``alarmSeq@p0(i, a, p, i')`` -- base facts, the automaton edges:
  consuming alarm ``a`` of peer ``p`` moves that peer's index from ``i``
  to ``i'``;
* ``configPrefixes@p0(id, id', x, I1..Ik[, G])`` -- configuration ``id``
  extends ``id'`` with event ``x``, the k-ary index recording each
  watched peer's automaton state (the paper's multi-peer
  generalization);
* ``transInConf@p0(id, x)`` -- membership of events in configurations;
* ``notParent@p0(id, m)`` -- place instance ``m`` not yet consumed in
  ``id`` (built monotonically, "in the style of notCausal");
* ``diag@p0(id, x)`` -- the answer relation (the paper's ``q``).

What Section 4.4 adds is emitted only when the observation needs it:

* transitions nobody reports (hidden ones, and all transitions of a peer
  without an observer) are described by ``hiddenNet{1,2}@p`` instead of
  ``petriNet{1,2}@p`` and extend configurations without an ``alarmSeq``
  step;
* when configurations are not bounded by the observation itself (some
  transition is unreported, some automaton has a cycle, or the automata
  admit more events than ``max_events``), a *gas* dimension ``G``
  and a ``gasStep@p0(g, g')`` body atom realize the paper's termination
  gadget ("bounding the depth of the unfolding");
* an automaton with several accepting states is checked by an
  ``accepting<i>@p0`` atom in the ``diag`` rule; a single accepting
  state is pinned there as a constant.

A chain observation therefore yields exactly the Section-4.2 program.

Crucially, the supervisor's rules are written from its local view only:
the observation plus the public ``petriNet``/``trans``/``map``/
``places`` relations of the peers; dQSQ delegates the per-peer joins to
the peers that own them.

Correction relative to the paper (documented in DESIGN.md): the
configPrefixes rule additionally pins ``map@p(x, t)`` -- without it, an
instance of a *different* transition sharing both parent places could be
attached to the wrong alarm.
"""

from __future__ import annotations

from repro.datalog.atom import Atom, Inequality
from repro.datalog.rule import Rule
from repro.datalog.term import Const, Func, Term, Var
from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.encoding import (PETRINET1, PETRINET2, PLACES, ROOT,
                                      TRANS1, TRANS2, UnfoldingEncoder, g_term)
from repro.diagnosis.patterns import ObservationSpec
from repro.distributed.ddatalog import DDatalogProgram
from repro.errors import EncodingError
from repro.petri.net import PetriNet

#: default supervisor peer name (the paper's p0)
SUPERVISOR = "supervisor"

ALARMSEQ = "alarmSeq"
CONFIGPREFIXES = "configPrefixes"
TRANSINCONF = "transInConf"
NOTPARENT = "notParent"
DIAG = "diag"
GASSTEP = "gasStep"
ACCEPTING = "accepting"
HIDDENNET1, HIDDENNET2 = "hiddenNet1", "hiddenNet2"


def h_root() -> Func:
    """The id of the empty configuration: ``h(r)``."""
    return Func("h", [ROOT])


def h_extend(config: Term, event: Term) -> Func:
    """The id of ``config`` extended with ``event``: ``h(z, x)``."""
    return Func("h", [config, event])


def _without_alarm(fact: Rule) -> Rule:
    """An unreported transition's ``petriNet`` fact as a ``hiddenNet`` fact
    (the same description minus the alarm): no alarm is attributed to it."""
    transition, _alarm, *places = fact.head.args
    return Rule(Atom(HIDDENNET1 if len(places) == 1 else HIDDENNET2,
                     [transition, *places], fact.head.peer))


class SupervisorEncoder:
    """Generates the supervisor's diagnosis rules for an observation: an
    :class:`AlarmSequence` or an :class:`ObservationSpec`."""

    def __init__(self, petri: PetriNet,
                 observation: AlarmSequence | ObservationSpec,
                 supervisor: str = SUPERVISOR) -> None:
        net = petri.net
        if supervisor in net.peers():
            raise EncodingError(
                f"supervisor name {supervisor!r} collides with a net peer; "
                f"pass DatalogDiagnosisEngine(supervisor=...) another name")
        observation = ObservationSpec.coerce(observation, net)
        self.petri = petri
        self.spec = observation
        self.supervisor = supervisor
        observers = observation.observers
        #: the index dimensions, one per watched peer.  An observer that
        #: cannot move and already accepts says only that none of its
        #: peer's visible transitions fires: no dimension, no rule.
        self.peers = tuple(
            peer for peer in sorted(observers)
            if observers[peer].edges
            or observers[peer].initial not in observers[peer].accepting)
        #: transitions that extend a configuration without an alarmSeq step
        self.unreported = observation.unreported(net)
        #: peer -> parent counts of its transitions: one extension rule
        #: each, advancing the peer's observer (reported) or not
        self._reported: dict[str, set[int]] = {peer: set() for peer in self.peers}
        self._unreported: dict[str, set[int]] = {}
        for transition in net.transitions:
            peer, arity = net.peer[transition], len(net.parents(transition))
            if transition in self.unreported:
                self._unreported.setdefault(peer, set()).add(arity)
            elif peer in self._reported:
                self._reported[peer].add(arity)
        #: the most events a configuration may have, and whether
        #: configPrefixes carries the gas dimension that enforces it: only
        #: when the observation does not bound configuration size by itself
        self.max_events, self.needs_gas = observation.event_bound(net)
        self._position = {peer: {state: position for position, state
                                 in enumerate(observers[peer].states)}
                          for peer in self.peers}
        self._encoder = UnfoldingEncoder(petri)

    # -- the index ----------------------------------------------------------------

    def _state(self, peer: str, state: str) -> Const:
        """A state is named by its position in the observer, so a chain's
        constants are the prefix lengths of Section 4.2."""
        return Const(f"i[{peer}]{self._position[peer][state]}")

    def _gas(self, amount: int) -> Const:
        return Const(f"gas{amount}")

    def _index_vars(self) -> list[Var]:
        indices = [Var(f"I{i}_") for i in range(len(self.peers))]
        if self.needs_gas:
            indices.append(Var("G_"))
        return indices

    # -- facts ------------------------------------------------------------------

    def alarm_facts(self) -> list[Rule]:
        """The observers' edges, plus their accepting states where the
        ``diag`` rule cannot pin a single one."""
        sup = self.supervisor
        out: list[Rule] = []
        for peer in self.peers:
            for edge in self.spec.observers[peer].edges:
                out.append(Rule(Atom(ALARMSEQ,
                                     [self._state(peer, edge.source),
                                      Const(edge.alarm), Const(peer),
                                      self._state(peer, edge.target)], sup)))
        for position, peer in enumerate(self.peers):
            accepting = self.spec.observers[peer].accepting
            if len(accepting) != 1:
                out.extend(Rule(Atom(f"{ACCEPTING}{position}",
                                     [self._state(peer, state)], sup))
                           for state in sorted(accepting))
        return out

    def seed_facts(self) -> list[Rule]:
        """The empty configuration at the initial index, and the gas
        ladder when the index has a gas dimension."""
        sup = self.supervisor
        root = h_root()
        initial = [self._state(peer, self.spec.observers[peer].initial)
                   for peer in self.peers]
        out: list[Rule] = []
        if self.needs_gas:
            initial.append(self._gas(self.max_events))
            out.extend(Rule(Atom(GASSTEP, [self._gas(amount),
                                           self._gas(amount - 1)], sup))
                       for amount in range(1, self.max_events + 1))
        out.append(Rule(Atom(CONFIGPREFIXES, [root, root, ROOT, *initial], sup)))
        out.append(Rule(Atom(TRANSINCONF, [root, ROOT], sup)))
        return out

    # -- rules ------------------------------------------------------------------

    def config_prefix_rules(self) -> list[Rule]:
        """One extension rule per (peer, transition arity), for the
        transitions that advance the peer's observer and for those that
        fire unreported."""
        out = [self._extension_rule(peer, arity, position)
               for position, peer in enumerate(self.peers)
               for arity in sorted(self._reported[peer])]
        out.extend(self._extension_rule(peer, arity, None)
                   for peer in sorted(self._unreported)
                   for arity in sorted(self._unreported[peer]))
        return out

    def _extension_rule(self, peer: str, arity: int,
                        position: int | None) -> Rule:
        """Extend configuration ``Z`` by an event of ``peer``; ``position``
        is the peer's index dimension, ``None`` for an unreported event."""
        sup = self.supervisor
        z, w, y, t, a = Var("Z"), Var("W"), Var("Y"), Var("T"), Var("A")
        u, v, c1, c2 = Var("U"), Var("V"), Var("C1"), Var("C2")
        body_indices = self._index_vars()
        head_indices = list(body_indices)
        places = [c1] if arity == 1 else [c1, c2]
        if position is None:
            observe = [Atom(HIDDENNET1 if arity == 1 else HIDDENNET2,
                            [t, *places], peer)]
        else:
            previous, advanced = Var("IP_"), Var("IN_")
            body_indices[position] = previous
            head_indices[position] = advanced
            observe = [Atom(PETRINET1 if arity == 1 else PETRINET2,
                            [t, a, *places], peer),
                       Atom(ALARMSEQ, [previous, a, Const(peer), advanced], sup)]
        gas = []
        if self.needs_gas:
            body_indices[-1], head_indices[-1] = Var("GP_"), Var("GN_")
            gas = [Atom(GASSTEP, [Var("GP_"), Var("GN_")], sup)]
        # The new event is demanded by its full Skolem id
        # f(t, g(u,c1)[, g(v,c2)]): the Petri transition t is part
        # of the term, so the demand pins the transition (not just
        # the parent places) and the materialized prefix matches
        # the dedicated algorithm's exactly (Theorem 4).
        parents = [g_term(producer, place)
                   for producer, place in zip((u, v), places)]
        event = Func("f", [t, *parents])
        body = [
            *observe,
            Atom(CONFIGPREFIXES, [z, w, y, *body_indices], sup),
            *gas,
            *(Atom(TRANSINCONF, [z, producer], sup)
              for producer in (u, v)[:arity]),
            *(Atom(NOTPARENT, [z, parent], sup) for parent in parents),
            Atom(TRANS1 if arity == 1 else TRANS2, [event, *parents], peer),
        ]
        head = Atom(CONFIGPREFIXES,
                    [h_extend(z, event), z, event, *head_indices], sup)
        return Rule(head, body)

    def trans_in_conf_rules(self) -> list[Rule]:
        sup = self.supervisor
        z, w, x, y = Var("Z"), Var("W"), Var("X"), Var("Y")
        indices = self._index_vars()
        return [
            Rule(Atom(TRANSINCONF, [z, x], sup),
                 [Atom(CONFIGPREFIXES, [z, w, x, *indices], sup)]),
            Rule(Atom(TRANSINCONF, [z, x], sup),
                 [Atom(CONFIGPREFIXES, [z, w, y, *indices], sup),
                  Atom(TRANSINCONF, [w, x], sup)]),
        ]

    def not_parent_rules(self) -> list[Rule]:
        """Monotone construction of "place m is unconsumed in config z":
        one recursion rule per extension rule's (peer, arity)."""
        sup = self.supervisor
        out: list[Rule] = []
        z, w, y, m = Var("Z"), Var("W"), Var("Y"), Var("M")
        indices = self._index_vars()
        for peer in sorted({*self._reported, *self._unreported}):
            arities = (self._reported.get(peer, set())
                       | self._unreported.get(peer, set()))
            for arity in sorted(arities):
                u, v = Var("U"), Var("V")
                if arity == 1:
                    trans_atom = Atom(TRANS1, [y, u], peer)
                    inequalities = [Inequality(m, u)]
                else:
                    trans_atom = Atom(TRANS2, [y, u, v], peer)
                    inequalities = [Inequality(m, u), Inequality(m, v)]
                out.append(Rule(
                    Atom(NOTPARENT, [z, m], sup),
                    [Atom(CONFIGPREFIXES, [z, w, y, *indices], sup),
                     trans_atom,
                     Atom(NOTPARENT, [w, m], sup)],
                    inequalities))
        # Base: nothing is consumed in the empty configuration; m must be
        # a place instance (one locator rule per place-home peer).
        for home in self._encoder.place_home_peers():
            out.append(Rule(Atom(NOTPARENT, [h_root(), m], sup),
                            [Atom(PLACES, [m, Var("P_")], home)]))
        return out

    def query_rules(self) -> list[Rule]:
        """``diag``: the members of every configuration whose index is
        accepting in each dimension, whatever gas is left."""
        sup = self.supervisor
        z, w, y, x = Var("Z"), Var("W"), Var("Y"), Var("X")
        indices: list[Term] = list(self._index_vars())
        accept: list[Atom] = []
        for position, peer in enumerate(self.peers):
            accepting = self.spec.observers[peer].accepting
            if len(accepting) == 1:
                (state,) = accepting
                indices[position] = self._state(peer, state)
            else:
                accept.append(Atom(f"{ACCEPTING}{position}",
                                   [indices[position]], sup))
        return [Rule(Atom(DIAG, [z, x], sup),
                     [*accept,
                      Atom(CONFIGPREFIXES, [z, w, y, *indices], sup),
                      Atom(TRANSINCONF, [z, x], sup)])]

    def rules(self) -> list[Rule]:
        return (self.alarm_facts() + self.seed_facts()
                + self.config_prefix_rules() + self.trans_in_conf_rules()
                + self.not_parent_rules() + self.query_rules())

    def program(self) -> DDatalogProgram:
        """The complete diagnosis program: unfolding rules + supervisor
        rules."""
        program = self._encoder.program()
        if self.unreported:
            unreported = {Const(transition) for transition in self.unreported}
            program = DDatalogProgram(
                _without_alarm(rule)
                if rule.head.relation in (PETRINET1, PETRINET2)
                and rule.head.args[0] in unreported else rule
                for rule in program)
        for rule in self.rules():
            program.add(rule)
        return program

    def query_atom(self) -> Atom:
        """The diagnosis query ``diag@p0(?, ?)``."""
        return Atom(DIAG, [Var("Z"), Var("X")], self.supervisor)
