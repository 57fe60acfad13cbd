"""Binding patterns (adornments) and sideways information passing.

For each relation, *adorned versions* ``R^bf``, ``R^bb``, ... record which
argument positions are bound (Section 3.1, "Binding Patterns").  The
top-down, left-to-right reading of a rule determines how bindings
propagate: a position is bound when every variable of its argument term
is already bound (constants and ground function terms are always bound).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.datalog.atom import Atom
from repro.datalog.term import Term, Var, variables_of


class Adornment:
    """An immutable string of ``'b'``/``'f'`` flags, one per argument."""

    __slots__ = ("pattern",)

    def __init__(self, pattern: str) -> None:
        if any(c not in "bf" for c in pattern):
            raise ValueError(f"adornment must consist of 'b'/'f', got {pattern!r}")
        self.pattern = pattern

    @classmethod
    def from_atom(cls, atom: Atom, bound_vars: Iterable[Var] = ()) -> "Adornment":
        """Adorn ``atom`` given the set of already-bound variables."""
        bound = set(bound_vars)
        flags = []
        for arg in atom.args:
            arg_vars = set(variables_of(arg))
            flags.append("b" if arg_vars <= bound else "f")
        return cls("".join(flags))

    @property
    def arity(self) -> int:
        return len(self.pattern)

    def bound_positions(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.pattern) if c == "b")

    def free_positions(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.pattern) if c == "f")

    def select_bound(self, args: Sequence[Term]) -> tuple[Term, ...]:
        """Project an argument list onto the bound positions."""
        return tuple(args[i] for i in self.bound_positions())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Adornment) and self.pattern == other.pattern

    def __hash__(self) -> int:
        return hash(("Adornment", self.pattern))

    def __repr__(self) -> str:
        return f"Adornment({self.pattern!r})"

    def __str__(self) -> str:
        return self.pattern


def adorned_name(relation: str, adornment: Adornment) -> str:
    """Name of the adorned copy of a relation, e.g. ``R^bf``.

    ``^`` cannot occur in parsed relation names, so generated names never
    collide with user relations.
    """
    return f"{relation}^{adornment}"


def input_name(relation: str, adornment: Adornment) -> str:
    """Name of the demand ("input") relation, the paper's ``in-R^bf``."""
    return f"in-{relation}^{adornment}"
