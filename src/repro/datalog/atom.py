"""Atoms and inequality constraints.

An atom has the form ``R@p(e1, ..., en)`` where ``p`` is a peer-name
constant (Section 3, "Syntax").  For *local* programs the peer is omitted
(``peer is None``) -- the paper's shorthand ``R(e1, ..., en)``.

Rule bodies may also carry inequality constraints ``x != y`` between
variables/constants of the body; the diagnosis encoding uses them (e.g.
``u != y, v != y, x != y`` in the ``notCausal`` rules).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.datalog.term import Term, Var, is_ground, substitute, variables_of


class Atom:
    """An atom ``relation@peer(args)``; ``peer`` is ``None`` in local programs.

    ``key()``, ``variables()`` and ``is_ground()`` are computed once at
    construction: the join kernel asks for them on every rule firing, and
    groundness of the (interned) argument terms is O(1) per argument.
    """

    __slots__ = ("relation", "args", "peer", "_hash", "_key", "_vars")

    def __init__(self, relation: str, args: Iterable[Term], peer: str | None = None) -> None:
        self.relation = relation
        self.args = tuple(args)
        self.peer = peer
        self._hash = hash(("Atom", relation, self.args, peer))
        self._key = (relation, peer)
        variables: list[Var] = []
        for arg in self.args:
            if not arg._ground:
                variables.extend(variables_of(arg))
        self._vars = tuple(variables)

    @property
    def arity(self) -> int:
        return len(self.args)

    def key(self) -> tuple[str, str | None]:
        """Identity of the relation this atom refers to: (name, peer)."""
        return self._key

    def is_ground(self) -> bool:
        return not self._vars

    def variables(self) -> tuple[Var, ...]:
        """The variables of the argument terms, left to right, with repetitions."""
        return self._vars

    def substitute(self, binding: Mapping[Var, Term]) -> "Atom":
        return Atom(self.relation, (substitute(a, binding) for a in self.args), self.peer)

    def with_peer(self, peer: str | None) -> "Atom":
        return Atom(self.relation, self.args, peer)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Atom) and self._hash == other._hash
                and self.relation == other.relation and self.args == other.args
                and self.peer == other.peer)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self!s})"

    def __str__(self) -> str:
        location = f"@{self.peer}" if self.peer is not None else ""
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.relation}{location}({inner})"


class Inequality:
    """A constraint ``left != right`` attached to a rule body."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Term, right: Term) -> None:
        self.left = left
        self.right = right
        self._hash = hash(("Inequality", left, right))

    def variables(self) -> Iterator[Var]:
        yield from variables_of(self.left)
        yield from variables_of(self.right)

    def substitute(self, binding: Mapping[Var, Term]) -> "Inequality":
        return Inequality(substitute(self.left, binding), substitute(self.right, binding))

    def holds(self, binding: Mapping[Var, Term]) -> bool:
        """Evaluate under a binding; both sides must come out ground."""
        left = substitute(self.left, binding)
        right = substitute(self.right, binding)
        if not (is_ground(left) and is_ground(right)):
            raise ValueError(f"inequality {self} not ground under binding")
        return left != right

    def is_decidable(self, binding: Mapping[Var, Term]) -> bool:
        """True when both sides are ground under ``binding``."""
        return (is_ground(substitute(self.left, binding))
                and is_ground(substitute(self.right, binding)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Inequality)
                and self.left == other.left and self.right == other.right)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Inequality({self!s})"

    def __str__(self) -> str:
        return f"{self.left} != {self.right}"
