"""The Section-4.1 encoding: Petri-net unfolding as dDatalog rules.

Each peer's rules are generated from its *local view* of the net: its
own transitions, their parent/child places, and the peers that may have
created instances of those parent places (the paper's ``Neighb`` /
``Mates`` neighbourhoods).  Node identifiers are Skolem terms: an event
is ``f(c, u, v)`` for Petri transition ``c`` and parent-place instances
``u, v``; a place instance is ``g(x, c')`` for its creating event ``x``
(or the virtual root ``r``).

Relations (and where their facts live):

* ``trans1@p(x, u)`` / ``trans2@p(x, u, v)`` -- event instances of the
  1-/2-parent transitions of peer ``p`` (the paper's single ``trans``,
  split by arity: its "straightforward" generalization);
* ``places@h(s, t)`` -- place instance ``s`` created by event ``t`` (or
  ``r``); homed at the *creator's* peer ``h``;
* ``map@h(x, c)`` -- the homomorphism to Petri-net nodes;
* ``causal@p(x, y)`` -- ``y <= x``, homed at ``x``'s peer;
* ``notCausal@p(x, y)`` -- ``not (y <= x)``;
* ``notConf@p(x, z, y)`` -- ``not (z # y)`` as observed by ``x``;
* ``transTree1/2@p(x, w, ...)``, ``placesTree@p(x, s, t)`` -- local
  copies of the ancestor tree of ``x``, keeping ``notConf`` local.

Corrections relative to the paper's rule sketches (see DESIGN.md):

* the virtual-root base cases (``notCausal@p(r, x)`` etc.) are realized
  by *generation-time specialization*: every rule that reads a place
  instance's producer is emitted in one variant per possible creator
  (each neighbour peer, plus "root" for initially marked places); in
  root variants the producer is the constant ``r`` and the vacuously
  true conjuncts are dropped;
* the ancestor-tree recursions copy through **both** parents;
* ``notConf``'s decomposition gets explicit root variants via
  ``placesTree(x, u, r)`` patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.datalog.atom import Atom, Inequality
from repro.datalog.rule import Rule
from repro.datalog.term import Const, Func, Term, Var
from repro.distributed.ddatalog import DDatalogProgram
from repro.errors import EncodingError
from repro.petri.net import PetriNet

#: the paper's virtual transition node feeding unfolding roots
ROOT = Const("r")

TRANS1, TRANS2 = "trans1", "trans2"
PLACES, MAP = "places", "map"
CAUSAL, NOTCAUSAL, NOTCONF = "causal", "notCausal", "notConf"
TRANSTREE1, TRANSTREE2, PLACESTREE = "transTree1", "transTree2", "placesTree"
PETRINET1, PETRINET2 = "petriNet1", "petriNet2"


@dataclass(frozen=True)
class CreatorSpec:
    """One possible origin of an instance of a Petri place.

    ``kind == "root"``: the initially marked instance, homed at the
    place's own peer, with producer ``r``.  ``kind == "trans"``: created
    by some transition at ``peer``.
    """

    kind: str   # "root" | "trans"
    peer: str


def f_term(transition: str, parents: Sequence[Term]) -> Func:
    return Func("f", [Const(transition), *parents])


def g_term(producer: Term, place: str | Term) -> Func:
    """Place-instance id ``g(producer, place)``; ``place`` may be a Petri
    place id (wrapped as a constant) or an already-built term (the
    supervisor rules pass variables)."""
    place_term: Term = place if isinstance(place, (Const, Var, Func)) else Const(place)
    return Func("g", [producer, place_term])


def node_id_of_term(term: Term) -> str:
    """Canonical string id of a node term; matches the direct unfolder's
    ids (``f(i,g(r,1),g(r,7))`` etc.), enabling Theorem-2/4 comparisons."""
    if isinstance(term, Func):
        # A node id nests its whole causal past; terms are hash-consed, so
        # each is spelled once and shared by every id that contains it.
        spelled = term._node_id
        if spelled is None:
            inner = ",".join(node_id_of_term(a) for a in term.args)
            spelled = term._node_id = f"{term.name}({inner})"
        return spelled
    if isinstance(term, Const):
        return str(term.value)
    raise EncodingError(f"node term {term} contains variables")


class UnfoldingEncoder:
    """Generates the per-peer unfolding rules for a Petri net."""

    def __init__(self, petri: PetriNet) -> None:
        self.petri = petri
        net = petri.net
        for transition in net.transitions:
            arity = len(net.parents(transition))
            if arity not in (1, 2):
                raise EncodingError(
                    f"transition {transition} has {arity} parents; the encoding "
                    f"supports 1 or 2 (normalize the net first)")
        if "r" in net.places or "r" in net.transitions:
            raise EncodingError('node id "r" collides with the virtual root')

    # -- neighbourhood helpers ----------------------------------------------------

    def creators(self, place: str) -> list[CreatorSpec]:
        """The possible origins of instances of ``place`` (deduplicated)."""
        net = self.petri.net
        specs: list[CreatorSpec] = []
        seen: set[CreatorSpec] = set()
        if place in self.petri.marking:
            spec = CreatorSpec("root", net.peer[place])
            seen.add(spec)
            specs.append(spec)
        for producer in net.parents(place):
            spec = CreatorSpec("trans", net.peer[producer])
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
        return specs

    def parent_creator_specs(self, peer: str) -> list[CreatorSpec]:
        """All creator specs of parent places of ``peer``'s transitions."""
        specs: list[CreatorSpec] = []
        seen: set[CreatorSpec] = set()
        for transition in self.petri.net.transitions_of_peer(peer):
            for place in self.petri.net.parents(transition):
                for spec in self.creators(place):
                    if spec not in seen:
                        seen.add(spec)
                        specs.append(spec)
        return specs

    def place_home_peers(self) -> list[str]:
        """Peers that home place instances (creators' peers + root homes).

        Used to bind the ``y`` argument of notCausal rules whose other
        conjuncts are all vacuous (both parents are roots): ``y`` is
        always a place instance, located at one of these peers.
        """
        net = self.petri.net
        out: set[str] = set()
        for place in self.petri.marking:
            out.add(net.peer[place])
        for transition in net.transitions:
            if net.children(transition):
                out.add(net.peer[transition])
        return sorted(out)

    def mates(self, peer: str) -> list[str]:
        """Peers that may hold the ``y`` argument of notConf demands at
        ``peer`` (the paper's Mates set, closed under the recursion:
        demands keep ``y`` fixed while ``x`` walks up its ancestry, and
        ``x``-side demands are forwarded via notConf@p(x, u', y) with the
        same peer, so the union over ancestor peers is needed)."""
        net = self.petri.net
        out: set[str] = set()
        # y is a producer of a parent place of a transition anywhere in
        # the net whose sibling-parent producer chain reaches `peer`.
        # The safe over-approximation used here: all peers producing
        # parent places of any transition (small sets in practice).
        for place in net.places:
            for producer in net.parents(place):
                out.add(net.peer[producer])
        return sorted(out)

    # -- program generation -----------------------------------------------------------

    def program(self) -> DDatalogProgram:
        """All peers' unfolding rules plus the root and petriNet facts."""
        program = DDatalogProgram()
        for rule in self.root_facts():
            program.add(rule)
        for rule in self.petrinet_facts():
            program.add(rule)
        for peer in sorted(self.petri.net.peers()):
            for rule in self.peer_rules(peer):
                program.add(rule)
        return program

    def root_facts(self) -> list[Rule]:
        """``places@p(g(r, cr), r)`` and its map fact, per marked place."""
        out: list[Rule] = []
        net = self.petri.net
        for place in sorted(self.petri.marking):
            peer = net.peer[place]
            node = g_term(ROOT, place)
            out.append(Rule(Atom(PLACES, [node, ROOT], peer)))
            out.append(Rule(Atom(MAP, [node, Const(place)], peer)))
        return out

    def petrinet_facts(self) -> list[Rule]:
        """``petriNet{1,2}@p(c, alpha(c), parents...)`` -- the base
        description each peer provides to the supervisor (Section 4.2)."""
        out: list[Rule] = []
        net = self.petri.net
        for transition in sorted(net.transitions):
            peer = net.peer[transition]
            parents = net.parents(transition)
            alarm = Const(net.alarm[transition])
            if len(parents) == 1:
                out.append(Rule(Atom(PETRINET1,
                                     [Const(transition), alarm, Const(parents[0])],
                                     peer)))
            else:
                out.append(Rule(Atom(PETRINET2,
                                     [Const(transition), alarm,
                                      Const(parents[0]), Const(parents[1])],
                                     peer)))
        return out

    def peer_rules(self, peer: str) -> list[Rule]:
        out: list[Rule] = []
        for transition in self.petri.net.transitions_of_peer(peer):
            out.extend(self._event_rules(transition))
            out.extend(self._place_rules(transition))
        out.extend(self._causal_rules(peer))
        out.extend(self._not_causal_rules(peer))
        out.extend(self._tree_rules(peer))
        out.extend(self._not_conf_rules(peer))
        return out

    # -- event / place creation (the trans, places, map rules) ------------------------

    def _event_rules(self, transition: str) -> list[Rule]:
        net = self.petri.net
        peer = net.peer[transition]
        parents = net.parents(transition)
        out: list[Rule] = []
        if len(parents) == 1:
            (c1,) = parents
            u = Var("U")
            for spec in self.creators(c1):
                body, _producer = self._parent_atoms(u, c1, spec, "U0")
                head = Atom(TRANS1, [f_term(transition, [u]), u], peer)
                out.append(Rule(head, body))
                out.append(Rule(Atom(MAP, [f_term(transition, [u]),
                                           Const(transition)], peer),
                                body))
            return out

        c1, c2 = parents
        u, v = Var("U"), Var("V")
        for spec1 in self.creators(c1):
            for spec2 in self.creators(c2):
                body1, producer1 = self._parent_atoms(u, c1, spec1, "U0")
                body2, producer2 = self._parent_atoms(v, c2, spec2, "V0")
                body = body1 + body2
                # Concurrency conditions; vacuous for root producers.
                if producer1 is not None:
                    body.append(Atom(NOTCAUSAL, [producer1, v], spec1.peer))
                if producer2 is not None:
                    body.append(Atom(NOTCAUSAL, [producer2, u], spec2.peer))
                if producer1 is not None and producer2 is not None:
                    body.append(Atom(NOTCONF, [producer1, producer1, producer2],
                                     spec1.peer))
                node = f_term(transition, [u, v])
                out.append(Rule(Atom(TRANS2, [node, u, v], peer), body))
                out.append(Rule(Atom(MAP, [node, Const(transition)], peer), body))
        return out

    def _parent_atoms(self, var: Var, place: str, spec: CreatorSpec,
                      producer_name: str) -> tuple[list[Atom], Var | None]:
        """Atoms locating one parent-place instance; returns the producer
        variable (None for root variants, whose producer is ``r``)."""
        if spec.kind == "root":
            return ([Atom(MAP, [var, Const(place)], spec.peer),
                     Atom(PLACES, [var, ROOT], spec.peer)], None)
        producer = Var(producer_name)
        return ([Atom(MAP, [var, Const(place)], spec.peer),
                 Atom(PLACES, [var, producer], spec.peer)], producer)

    def _place_rules(self, transition: str) -> list[Rule]:
        """``places@p(g(x, d), x), map@p(g(x, d), d) :- map(x, c), trans(x, ..)``."""
        net = self.petri.net
        peer = net.peer[transition]
        x = Var("X")
        trans_atom = self._trans_atom(transition, x)
        body = [Atom(MAP, [x, Const(transition)], peer), trans_atom]
        out: list[Rule] = []
        for child in net.children(transition):
            node = g_term(x, child)
            out.append(Rule(Atom(PLACES, [node, x], peer), body))
            out.append(Rule(Atom(MAP, [node, Const(child)], peer), body))
        return out

    def _trans_atom(self, transition: str, x: Var) -> Atom:
        net = self.petri.net
        peer = net.peer[transition]
        if len(net.parents(transition)) == 1:
            return Atom(TRANS1, [x, Var("P1_")], peer)
        return Atom(TRANS2, [x, Var("P1_"), Var("P2_")], peer)

    # -- causal -----------------------------------------------------------------------

    def _causal_rules(self, peer: str) -> list[Rule]:
        """``causal@p(x, y)``: y is an ancestor of x (reflexive on events)."""
        out: list[Rule] = []
        x, y = Var("X"), Var("Y")
        for arity, trans_rel, parent_vars in self._arities(peer):
            trans_atom = Atom(trans_rel, [x, *parent_vars], peer)
            out.append(Rule(Atom(CAUSAL, [x, x], peer), [trans_atom]))
            for parent_var in parent_vars:
                for spec in self._specs_trans_only(peer):
                    # direct: the producer of a parent place is an ancestor
                    out.append(Rule(
                        Atom(CAUSAL, [x, y], peer),
                        [trans_atom, Atom(PLACES, [parent_var, y], spec.peer)]))
                    # transitive: ancestors of the producer
                    producer = Var("W")
                    out.append(Rule(
                        Atom(CAUSAL, [x, y], peer),
                        [trans_atom,
                         Atom(PLACES, [parent_var, producer], spec.peer),
                         Atom(CAUSAL, [producer, y], spec.peer)]))
        return out

    # -- notCausal ----------------------------------------------------------------------

    def _not_causal_rules(self, peer: str) -> list[Rule]:
        """``notCausal@p(x, y)``: no path from y to event x.

        Decomposes x's parents; root producers contribute vacuous
        conjuncts (generation-time specialization of the paper's
        ``notCausal@p(r, x)`` base case).
        """
        out: list[Rule] = []
        net = self.petri.net
        x, y = Var("X"), Var("Y")
        for transition in net.transitions_of_peer(peer):
            parents = net.parents(transition)
            if len(parents) == 1:
                (c1,) = parents
                u = Var("U")
                trans_atom = Atom(TRANS1, [f_term(transition, [u]), u], peer)
                for spec in self.creators(c1):
                    body: list[Atom] = [trans_atom]
                    inequalities = [Inequality(u, y),
                                    Inequality(f_term(transition, [u]), y)]
                    self._not_causal_parent(body, u, c1, spec, "U0", y)
                    out.extend(self._emit_not_causal(
                        Atom(NOTCAUSAL, [f_term(transition, [u]), y], peer),
                        body, inequalities, y))
                continue
            c1, c2 = parents
            u, v = Var("U"), Var("V")
            node = f_term(transition, [u, v])
            trans_atom = Atom(TRANS2, [node, u, v], peer)
            for spec1 in self.creators(c1):
                for spec2 in self.creators(c2):
                    body = [trans_atom]
                    self._not_causal_parent(body, u, c1, spec1, "U0", y)
                    self._not_causal_parent(body, v, c2, spec2, "V0", y)
                    inequalities = [Inequality(u, y), Inequality(v, y),
                                    Inequality(node, y)]
                    out.extend(self._emit_not_causal(
                        Atom(NOTCAUSAL, [node, y], peer), body, inequalities, y))
        return out

    def _emit_not_causal(self, head: Atom, body: list[Atom],
                         inequalities: list[Inequality], y: Var) -> list[Rule]:
        """Emit a notCausal variant, binding ``y`` when every parent-side
        conjunct was vacuous (all parents are roots): the paper's base
        case needs a nodehood check, realized as one rule per peer that
        can home the place instance ``y``."""
        body_vars: set[Var] = set()
        for atom in body:
            body_vars.update(atom.variables())
        if y in body_vars:
            return [Rule(head, body, inequalities)]
        out: list[Rule] = []
        for home in self.place_home_peers():
            locator = Atom(PLACES, [y, Var("YP_")], home)
            out.append(Rule(head, body + [locator], inequalities))
        return out

    def _not_causal_parent(self, body: list[Atom], var: Var, place: str,
                           spec: CreatorSpec, producer_name: str,
                           y: Var) -> Var | None:
        """Append the parent-side conjuncts of a notCausal variant."""
        if spec.kind == "root":
            body.append(Atom(PLACES, [var, ROOT], spec.peer))
            return None
        producer = Var(producer_name)
        body.append(Atom(PLACES, [var, producer], spec.peer))
        body.append(Atom(NOTCAUSAL, [producer, y], spec.peer))
        return producer

    # -- ancestor trees --------------------------------------------------------------------

    def _arities(self, peer: str) -> list[tuple[int, str, list[Var]]]:
        """Which trans relations exist at this peer (by transition arity)."""
        net = self.petri.net
        arities = {len(net.parents(t)) for t in net.transitions_of_peer(peer)}
        out: list[tuple[int, str, list[Var]]] = []
        if 1 in arities:
            out.append((1, TRANS1, [Var("U")]))
        if 2 in arities:
            out.append((2, TRANS2, [Var("U"), Var("V")]))
        return out

    def _specs_trans_only(self, peer: str) -> list[CreatorSpec]:
        return [s for s in self.parent_creator_specs(peer) if s.kind == "trans"]

    def _all_specs(self, peer: str) -> list[CreatorSpec]:
        return self.parent_creator_specs(peer)

    def _tree_rules(self, peer: str) -> list[Rule]:
        """Local ancestor-tree copies: transTree1/2 and placesTree."""
        out: list[Rule] = []
        x, w = Var("X"), Var("W")
        w1, w2 = Var("W1"), Var("W2")
        z, z0 = Var("Z"), Var("Z0")
        for arity, trans_rel, parent_vars in self._arities(peer):
            trans_atom = Atom(trans_rel, [x, *parent_vars], peer)
            # Base: a node's own trans fact is in its tree.
            tree_rel = TRANSTREE1 if arity == 1 else TRANSTREE2
            out.append(Rule(Atom(tree_rel, [x, x, *parent_vars], peer),
                            [trans_atom]))
            for parent_var in parent_vars:
                for spec in self._all_specs(peer):
                    producer = Var("U0")
                    if spec.kind == "root":
                        # Root parents: record the producer r, no recursion.
                        out.append(Rule(
                            Atom(PLACESTREE, [x, parent_var, ROOT], peer),
                            [trans_atom,
                             Atom(PLACES, [parent_var, ROOT], spec.peer)]))
                        continue
                    places_atom = Atom(PLACES, [parent_var, producer], spec.peer)
                    # Direct parent edge.
                    out.append(Rule(
                        Atom(PLACESTREE, [x, parent_var, producer], peer),
                        [trans_atom, places_atom]))
                    # Copy the producer's trees (both shapes).
                    out.append(Rule(
                        Atom(TRANSTREE1, [x, w, w1], peer),
                        [trans_atom, places_atom,
                         Atom(TRANSTREE1, [producer, w, w1], spec.peer)]))
                    out.append(Rule(
                        Atom(TRANSTREE2, [x, w, w1, w2], peer),
                        [trans_atom, places_atom,
                         Atom(TRANSTREE2, [producer, w, w1, w2], spec.peer)]))
                    out.append(Rule(
                        Atom(PLACESTREE, [x, z, z0], peer),
                        [trans_atom, places_atom,
                         Atom(PLACESTREE, [producer, z, z0], spec.peer)]))
        return out

    # -- notConf ------------------------------------------------------------------------------

    def _not_conf_rules(self, peer: str) -> list[Rule]:
        """``notConf@p(x, z, y)``: z and y are conflict-free, decided from
        x's local ancestor tree.  Two rule families (paper): (a) neither
        of z's parent places is consumed below y; (b) z is an ancestor of
        y.  Each family is emitted per z-arity and per root-ness of z's
        parents' producers."""
        out: list[Rule] = []
        x, y, z = Var("X"), Var("Y"), Var("Z")
        mates = self.mates(peer)
        for z_arity in (1, 2):
            tree_rel = TRANSTREE1 if z_arity == 1 else TRANSTREE2
            parent_vars = [Var("U")] if z_arity == 1 else [Var("U"), Var("V")]
            tree_atom = Atom(tree_rel, [x, z, *parent_vars], peer)
            for root_flags in _boolean_vectors(z_arity):
                producers: list[Var | None] = []
                common: list[Atom] = [tree_atom]
                for index, (parent_var, is_root) in enumerate(
                        zip(parent_vars, root_flags)):
                    if is_root:
                        common.append(Atom(PLACESTREE, [x, parent_var, ROOT],
                                           peer))
                        producers.append(None)
                    else:
                        producer = Var(f"P{index}_")
                        common.append(Atom(PLACESTREE,
                                           [x, parent_var, producer], peer))
                        common.append(Atom(NOTCONF, [x, producer, y], peer))
                        producers.append(producer)
                for mate in mates:
                    # (a) y does not consume z's parent places.
                    body_a = list(common)
                    for parent_var in parent_vars:
                        body_a.append(Atom(NOTCAUSAL, [y, parent_var], mate))
                    out.append(Rule(Atom(NOTCONF, [x, z, y], peer), body_a))
                    # (b) z is an ancestor of y: causality excludes conflict.
                    body_b = list(common) + [Atom(CAUSAL, [y, z], mate)]
                    out.append(Rule(Atom(NOTCONF, [x, z, y], peer), body_b))
        return out


def _boolean_vectors(length: int) -> list[tuple[bool, ...]]:
    out: list[tuple[bool, ...]] = []
    for mask in range(1 << length):
        out.append(tuple(bool(mask & (1 << i)) for i in range(length)))
    return out
