"""Rules, programs and queries.

A rule is ``a0 :- a1, ..., an, x1 != y1, ..., xm != ym`` (Section 3).
Facts are rules with an empty body and a ground head.  A *program* is a
finite set of rules; a program is *local* when no atom carries a peer.

Range restriction is enforced as in the paper: every head variable must
occur in a (positive) body atom.  Variables appearing only in
inequalities are rejected too, since an inequality cannot bind.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Sequence

from repro.datalog.atom import Atom, Inequality
from repro.datalog.term import Term, Var
from repro.errors import ValidationError


class Rule:
    """A definite rule with optional inequality constraints and negated atoms.

    ``negated`` is empty in the paper's core language; it is used only by
    the stratified-negation extension (Remark 4).
    """

    #: ``__weakref__``: the plan table (:mod:`repro.datalog.plan`) is
    #: weak on its rules
    __slots__ = ("head", "body", "inequalities", "negated", "_hash",
                 "__weakref__")

    def __init__(self, head: Atom, body: Iterable[Atom] = (),
                 inequalities: Iterable[Inequality] = (),
                 negated: Iterable[Atom] = (), check: bool = True) -> None:
        self.head = head
        self.body = tuple(body)
        self.inequalities = tuple(inequalities)
        self.negated = tuple(negated)
        self._hash = hash(("Rule", head, self.body, self.inequalities, self.negated))
        # ``check=False`` admits unsafe rules so that the static analyzer
        # (repro.datalog.analysis) can inspect them and report structured
        # diagnostics instead of a construction-time exception.
        if check:
            self._validate()

    def _validate(self) -> None:
        body_vars = set()
        for atom in self.body:
            body_vars.update(atom.variables())
        for var in self.head.variables():
            if var not in body_vars:
                raise ValidationError(
                    f"head variable {var} of rule {self} does not occur in the body")
        for ineq in self.inequalities:
            for var in ineq.variables():
                if var not in body_vars:
                    raise ValidationError(
                        f"inequality variable {var} of rule {self} does not occur "
                        f"in a positive body atom")
        for atom in self.negated:
            for var in atom.variables():
                if var not in body_vars:
                    raise ValidationError(
                        f"negated-atom variable {var} of rule {self} does not occur "
                        f"in a positive body atom (safety)")

    def is_fact(self) -> bool:
        return not self.body and not self.negated and self.head.is_ground()

    def variables(self) -> set[Var]:
        out = set(self.head.variables())
        for atom in self.body:
            out.update(atom.variables())
        for atom in self.negated:
            out.update(atom.variables())
        return out

    def substitute(self, binding: Mapping[Var, Term]) -> "Rule":
        # Substitution preserves (un)safety, so re-validation is skipped.
        return Rule(self.head.substitute(binding),
                    (a.substitute(binding) for a in self.body),
                    (c.substitute(binding) for c in self.inequalities),
                    (a.substitute(binding) for a in self.negated), check=False)

    def rename_apart(self, suffix: str) -> "Rule":
        """Rename every variable by appending ``suffix`` (for unification)."""
        binding = {v: Var(v.name + suffix) for v in self.variables()}
        return self.substitute(binding)

    def body_relations(self) -> set[tuple[str, str | None]]:
        return {a.key() for a in self.body} | {a.key() for a in self.negated}

    def __eq__(self, other: object) -> bool:
        # identity first: the plan table's weak keys compare their
        # referents with ``==``, which has no identity shortcut of its own
        return self is other or (
            isinstance(other, Rule) and self._hash == other._hash
            and self.head == other.head and self.body == other.body
            and self.inequalities == other.inequalities
            and self.negated == other.negated)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Rule({self!s})"

    def __str__(self) -> str:
        if not self.body and not self.inequalities and not self.negated:
            return f"{self.head}."
        parts = [str(a) for a in self.body]
        parts += [f"not {a}" for a in self.negated]
        parts += [str(c) for c in self.inequalities]
        return f"{self.head} :- {', '.join(parts)}."


class Program:
    """A finite set of rules, in insertion order (duplicates dropped).

    The extensional relations (EDB) are those that never occur in a rule
    head with a non-empty body and are either declared via facts or listed
    explicitly by the caller.
    """

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: list[Rule] = []
        self._seen: set[Rule] = set()
        self._by_head: dict[tuple[str, str | None], list[Rule]] = defaultdict(list)
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> bool:
        """Add a rule; returns False if it was already present."""
        if rule in self._seen:
            return False
        self._seen.add(rule)
        self._rules.append(rule)
        self._by_head[rule.head.key()].append(rule)
        return True

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    @property
    def rules(self) -> Sequence[Rule]:
        return tuple(self._rules)

    def rules_for(self, relation: str, peer: str | None = None) -> Sequence[Rule]:
        return tuple(self._by_head.get((relation, peer), ()))

    def idb_relations(self) -> set[tuple[str, str | None]]:
        """Relations defined by at least one rule with a non-empty body."""
        return {r.head.key() for r in self._rules if r.body or r.negated}

    def edb_relations(self) -> set[tuple[str, str | None]]:
        """Relations that occur in bodies but are never derived by a proper rule."""
        idb = self.idb_relations()
        out: set[tuple[str, str | None]] = set()
        for rule in self._rules:
            for key in rule.body_relations():
                if key not in idb:
                    out.add(key)
        return out

    def all_relations(self) -> set[tuple[str, str | None]]:
        out: set[tuple[str, str | None]] = set()
        for rule in self._rules:
            out.add(rule.head.key())
            out.update(rule.body_relations())
        return out

    def peers(self) -> set[str]:
        """All peer names mentioned anywhere in the program."""
        out: set[str] = set()
        for rule in self._rules:
            if rule.head.peer is not None:
                out.add(rule.head.peer)
            for atom in rule.body:
                if atom.peer is not None:
                    out.add(atom.peer)
            for atom in rule.negated:
                if atom.peer is not None:
                    out.add(atom.peer)
        return out

    def is_local(self) -> bool:
        """True when no atom carries a peer name (a "local program")."""
        return not self.peers()

    def facts(self) -> Iterator[Rule]:
        return (r for r in self._rules if r.is_fact())

    def proper_rules(self) -> Iterator[Rule]:
        return (r for r in self._rules if not r.is_fact())

    def strip_peers(self) -> "Program":
        """The paper's ``P_local``: the same program ignoring peer names.

        Relations of distinct peers are assumed distinct (Theorem 1's
        w.l.o.g.); callers that violate this should first rename, e.g.
        with :meth:`qualify_relations`.
        """
        out = Program()
        for rule in self._rules:
            out.add(Rule(rule.head.with_peer(None),
                         (a.with_peer(None) for a in rule.body),
                         rule.inequalities,
                         (a.with_peer(None) for a in rule.negated), check=False))
        return out

    def qualify_relations(self) -> "Program":
        """Concatenate peer names into relation names (footnote 2 of the paper)."""
        def requalify(atom: Atom) -> Atom:
            if atom.peer is None:
                return atom
            return Atom(f"{atom.relation}@{atom.peer}", atom.args, atom.peer)
        out = Program()
        for rule in self._rules:
            out.add(Rule(requalify(rule.head), (requalify(a) for a in rule.body),
                         rule.inequalities, (requalify(a) for a in rule.negated),
                         check=False))
        return out

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self._seen

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._rules)

    def __repr__(self) -> str:
        return f"Program({len(self._rules)} rules)"


class Query:
    """A query is an atom whose constants mark the bound positions.

    The paper writes queries as rules, e.g. ``Q@r(y) :- R@r("1", y)``; the
    engines accept the body atom directly (here ``R@r("1", y)``) and
    return the matching facts.
    """

    __slots__ = ("atom",)

    def __init__(self, atom: Atom) -> None:
        self.atom = atom

    def bound_positions(self) -> tuple[int, ...]:
        from repro.datalog.term import is_ground
        return tuple(i for i, a in enumerate(self.atom.args) if is_ground(a))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Query) and self.atom == other.atom

    def __hash__(self) -> int:
        return hash(("Query", self.atom))

    def __repr__(self) -> str:
        return f"Query({self.atom!s})"

    def __str__(self) -> str:
        return f"?- {self.atom}."
