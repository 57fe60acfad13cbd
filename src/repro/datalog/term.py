"""Terms of dDatalog: constants, variables and function terms.

The paper departs from classical Datalog by allowing function symbols
(Section 3, "Syntax"): they are needed to create the node identifiers of
the Petri-net unfolding (the Skolem functions ``f``, ``g`` of Section 4.1
and ``h`` of Section 4.2).  Terms are immutable, hashable and
**hash-consed**: constructing a term returns the canonical instance for
its structure, so structurally equal terms are always the *same* object.
Evaluation manipulates very large numbers of terms, and interning turns
the equality checks in the join kernel into (mostly) pointer comparisons
and makes repeated Skolem-term construction a cache lookup instead of a
re-hash of the whole subterm tree.

The intern tables hold weak references: terms that are no longer
reachable from any database or binding are garbage-collected normally.
Pickling round-trips through the constructors (``__reduce__``), so
unpickled terms -- e.g. tuples shipped over the dQSQ transport -- are
re-interned on arrival and identity-comparable with locally built ones.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union
from weakref import WeakValueDictionary

Term = Union["Const", "Var", "Func"]


class Const:
    """A constant, e.g. ``"p1"`` or a Petri-net node id.

    The payload is an arbitrary hashable Python value; the library uses
    strings and ints.
    """

    __slots__ = ("value", "_hash", "__weakref__")

    #: groundness/depth are structural and cached per class/instance (hot path)
    _ground = True
    _depth = 0

    _intern: "WeakValueDictionary[object, Const]" = WeakValueDictionary()

    def __new__(cls, value: object) -> "Const":
        self = cls._intern.get(value)
        if self is None:
            self = object.__new__(cls)
            self.value = value
            self._hash = hash(("Const", value))
            cls._intern[value] = self
        return self

    def __eq__(self, other: object) -> bool:
        # Interning makes equality identity in practice; the structural
        # fallback keeps the class robust against exotic construction.
        return self is other or (isinstance(other, Const) and self.value == other.value)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Const, (self.value,))

    def __repr__(self) -> str:
        return f"Const({self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


class Var:
    """A variable, written with a leading uppercase letter in the surface syntax."""

    __slots__ = ("name", "_hash", "__weakref__")

    _ground = False
    _depth = 0

    _intern: "WeakValueDictionary[str, Var]" = WeakValueDictionary()

    def __new__(cls, name: str) -> "Var":
        self = cls._intern.get(name)
        if self is None:
            self = object.__new__(cls)
            self.name = name
            self._hash = hash(("Var", name))
            cls._intern[name] = self
        return self

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Var) and self.name == other.name)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Func:
    """A function term ``f(t1, ..., tn)``.

    Function terms serve as Skolem ids: the unfolding rules create node
    ids ``f(c, u, v)`` / ``g(x, c')`` and the supervisor creates
    configuration ids ``h(z, x)``.
    """

    __slots__ = ("name", "args", "_hash", "_ground", "_depth", "_node_id",
                 "__weakref__")

    _intern: "WeakValueDictionary[tuple, Func]" = WeakValueDictionary()

    #: unfolding-node spelling, filled on first use by
    #: repro.diagnosis.encoding.node_id_of_term; it dies with the term
    _node_id: str | None

    def __new__(cls, name: str, args: Iterable[Term]) -> "Func":
        args = tuple(args)
        key = (name, args)
        self = cls._intern.get(key)
        if self is None:
            self = object.__new__(cls)
            self.name = name
            self.args = args
            self._hash = hash(("Func", name, args))
            self._ground = all(a._ground for a in args)
            self._depth = 1 + max((a._depth for a in args), default=0)
            self._node_id = None
            cls._intern[key] = self
        return self

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Func) and self._hash == other._hash
            and self.name == other.name and self.args == other.args)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Func, (self.name, self.args))

    def __repr__(self) -> str:
        return f"Func({self.name!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


def is_ground(term: Term) -> bool:
    """Return True iff ``term`` contains no variables (O(1): cached)."""
    return term._ground


def term_depth(term: Term) -> int:
    """Nesting depth of a term; constants and variables have depth 0.

    Used by evaluation budgets: bounding term depth bounds the depth of
    the unfolding constructed by the Section-4.1 rules (the paper's
    Section 4.4 mentions exactly this gadget).  Depth is computed once at
    intern time, so this is an O(1) attribute read.
    """
    return term._depth


def variables_of(term: Term) -> Iterator[Var]:
    """Yield the variables of ``term``, left to right, with repetitions."""
    if isinstance(term, Var):
        yield term
    elif isinstance(term, Func):
        for arg in term.args:
            yield from variables_of(arg)


def substitute(term: Term, binding: Mapping[Var, Term]) -> Term:
    """Apply a substitution to ``term`` (non-recursive on bindings).

    The binding is applied once; bound values are assumed already fully
    substituted (the convention maintained by :mod:`repro.datalog.unify`).
    """
    if isinstance(term, Var):
        return binding.get(term, term)
    if isinstance(term, Func):
        if not term.args:
            return term
        return Func(term.name, (substitute(a, binding) for a in term.args))
    return term


def constants_of(term: Term) -> Iterator[Const]:
    """Yield the constants occurring in ``term``."""
    if isinstance(term, Const):
        yield term
    elif isinstance(term, Func):
        for arg in term.args:
            yield from constants_of(arg)
