"""dDatalog programs and their global-Datalog semantics (Section 3).

A dDatalog program distributes rules over peers: "the rules at site p
are the rules where p is the site of the head".  Its semantics is given
by the canonical *global translation*: every n-ary ``R@p(t1..tn)``
becomes ``Rg(t1..tn, p)`` and the minimal model of the translated
program defines the model of the distributed one.  The engines in this
package are checked against that reference semantics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.datalog.atom import Atom
from repro.datalog.database import Database, Fact
from repro.datalog.rule import Program, Rule
from repro.datalog.term import Const
from repro.errors import ValidationError

GLOBAL_SUFFIX = "_g"


class DDatalogProgram:
    """A program whose every atom is located at a peer."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self.program = Program()
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        if rule.head.peer is None:
            raise ValidationError(f"dDatalog rule head has no peer: {rule}")
        for atom in tuple(rule.body) + tuple(rule.negated):
            if atom.peer is None:
                raise ValidationError(f"dDatalog body atom has no peer: {atom} in {rule}")
        self.program.add(rule)

    def peers(self) -> tuple[str, ...]:
        return tuple(sorted(self.program.peers()))

    def rules_at(self, peer: str) -> list[Rule]:
        """The rules held by ``peer``: those whose head is located at it."""
        return [rule for rule in self.program if rule.head.peer == peer]

    def local_version(self) -> Program:
        """The paper's ``P_local``: peer names dropped, relations renamed
        apart first so that distinct peers' relations stay distinct
        (footnote 2)."""
        return self.program.qualify_relations().strip_peers()

    def __len__(self) -> int:
        return len(self.program)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.program)

    def __str__(self) -> str:
        return str(self.program)


def global_translation(ddatalog: DDatalogProgram) -> Program:
    """The canonical translation ``P -> P^g`` of Section 3.

    Each ``R@p(t1..tn)`` becomes ``R_g(t1..tn, p)`` with the peer as an
    extra constant argument.
    """
    def translate(atom: Atom) -> Atom:
        return Atom(atom.relation + GLOBAL_SUFFIX,
                    tuple(atom.args) + (Const(atom.peer),), None)

    out = Program()
    for rule in ddatalog.program:
        out.add(Rule(translate(rule.head),
                     [translate(a) for a in rule.body],
                     rule.inequalities,
                     [translate(a) for a in rule.negated]))
    return out


def globalize_database(db: Database) -> Database:
    """Translate a located fact store to the global representation."""
    out = Database()
    for key in db.relations():
        relation, peer = key
        if peer is None:
            raise ValidationError(f"relation {relation} is not located")
        for fact in db.facts(key):
            out.add((relation + GLOBAL_SUFFIX, None), tuple(fact) + (Const(peer),))
    return out


def localize_facts(db: Database) -> dict[tuple[str, str], set[Fact]]:
    """Group a global database's facts back by (relation, peer)."""
    out: dict[tuple[str, str], set[Fact]] = defaultdict(set)
    for key in db.relations():
        relation, _ = key
        if not relation.endswith(GLOBAL_SUFFIX):
            continue
        base = relation[: -len(GLOBAL_SUFFIX)]
        for fact in db.facts(key):
            *args, peer = fact
            if not isinstance(peer, Const):
                raise ValidationError(f"malformed global fact {fact}")
            out[(base, str(peer.value))].add(tuple(args))
    return dict(out)
