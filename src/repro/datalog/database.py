"""An indexed fact store.

Facts are tuples of ground terms stored per relation key ``(name, peer)``.
Secondary hash indices are built lazily per (relation, bound-positions)
pattern and maintained incrementally, which keeps the semi-naive and QSQ
evaluators' joins near-linear.
"""

from __future__ import annotations

from collections import defaultdict
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from repro.datalog.atom import Atom
from repro.datalog.rule import Program
from repro.datalog.term import Term, Var, is_ground
from repro.datalog.unify import match_tuple

Fact = tuple[Term, ...]
RelationKey = tuple[str, str | None]

_EMPTY_FACTS: frozenset[Fact] = frozenset()


class Database:
    """A mutable set of ground facts with per-relation indices."""

    def __init__(self) -> None:
        self._facts: dict[RelationKey, set[Fact]] = defaultdict(set)
        self._ordered: dict[RelationKey, list[Fact]] = defaultdict(list)
        #: per-relation registry of (positions, index) pairs so that
        #: inserts only touch the affected relation's indices
        self._indices: dict[RelationKey,
                            dict[tuple[int, ...],
                                 dict[tuple[Term, ...], list[Fact]]]] = {}
        #: append-only log of keys that received a new fact; incremental
        #: consumers (evaluator frontiers, dQSQ dispatch) keep cursors
        #: into it instead of scanning every relation
        self._change_log: list[RelationKey] = []
        self._size = 0
        #: how many lazy secondary indices have been built (observability)
        self.index_builds = 0

    # -- mutation ---------------------------------------------------------

    def add(self, key: RelationKey, fact: Sequence[Term]) -> bool:
        """Insert a ground fact; returns True when it was new."""
        tup = tuple(fact)
        if not all(is_ground(t) for t in tup):
            raise ValueError(f"fact {tup} for {key} is not ground")
        return self.add_ground(key, tup)

    def add_ground(self, key: RelationKey, tup: Fact) -> bool:
        """Insert a fact the caller guarantees is an already-ground tuple.

        Join plans build head tuples from ground slot values, so
        re-validating each term would only re-walk terms known ground;
        this is the trusted fast path (the validating :meth:`add` wraps it).
        """
        store = self._facts[key]
        if tup in store:
            return False
        store.add(tup)
        self._ordered[key].append(tup)
        self._change_log.append(key)
        self._size += 1
        registry = self._indices.get(key)
        if registry:
            for positions, index in registry.items():
                index_key = tuple(tup[i] for i in positions)
                index.setdefault(index_key, []).append(tup)
        return True

    def add_atom(self, atom: Atom) -> bool:
        """Insert a ground atom as a fact."""
        if not atom.is_ground():
            raise ValueError(f"atom {atom} is not ground")
        return self.add_ground(atom.key(), atom.args)

    def add_all(self, key: RelationKey, facts: Iterable[Sequence[Term]],
                assume_ground: bool = False) -> int:
        """Insert many facts; returns how many were new.

        With ``assume_ground=True`` per-fact groundness validation is
        skipped (the :meth:`copy` trick): the caller vouches that every
        tuple is already ground, as with tuples arriving from a remote
        peer's store via the reliable transport.
        """
        if not assume_ground:
            return sum(1 for f in facts if self.add(key, f))
        return len(self.add_batch(key, facts))

    def add_batch(self, key: RelationKey,
                  rows: Iterable[Sequence[Term]]) -> list[Fact]:
        """Bulk-insert already-ground rows; returns the new facts in order.

        One call inserts a whole derived block (indices and the change
        log maintained incrementally, exactly as :meth:`add_ground`
        would) and hands back the *genuinely new* facts -- which is the
        next semi-naive delta.  Each row is hashed once: it is new when
        adding it grew the set.
        """
        store = self._facts[key]
        fresh: list[Fact] = []
        add, keep = store.add, fresh.append
        size = len(store)
        for row in rows:
            tup = tuple(row)
            add(tup)
            if len(store) > size:
                size += 1
                keep(tup)
        if not fresh:
            return fresh
        self._ordered[key].extend(fresh)
        self._change_log.extend([key] * len(fresh))
        self._size += len(fresh)
        for positions, index in self._indices.get(key, {}).items():
            setdefault = index.setdefault
            if len(positions) == 1:
                position = positions[0]
                for tup in fresh:
                    setdefault((tup[position],), []).append(tup)
            else:
                for tup in fresh:
                    setdefault(tuple([tup[i] for i in positions]), []).append(tup)
        return fresh

    # -- lookup -----------------------------------------------------------

    def facts(self, key: RelationKey) -> Sequence[Fact]:
        """All facts of a relation, in insertion order."""
        return self._ordered.get(key, ())

    def contains(self, key: RelationKey, fact: Sequence[Term]) -> bool:
        return tuple(fact) in self._facts.get(key, ())

    def contains_atom(self, atom: Atom) -> bool:
        return self.contains(atom.key(), atom.args)

    def count(self, key: RelationKey) -> int:
        return len(self._facts.get(key, ()))

    def total_facts(self) -> int:
        return self._size

    def change_log(self) -> Sequence[RelationKey]:
        """Append-only log of keys that gained a fact, in insertion order.

        Incremental consumers remember a position and read the suffix;
        duplicates mean "several facts arrived for this key".
        """
        return self._change_log

    def relations(self) -> Iterator[RelationKey]:
        return iter(self._facts.keys())

    def candidates(self, key: RelationKey, pattern: Sequence[Term],
                   binding: Mapping[Var, Term]) -> Sequence[Fact]:
        """Facts of ``key`` that can possibly match ``pattern`` under ``binding``.

        Uses a hash index over the positions whose pattern argument is
        ground (either a constant/ground function term, or a variable
        bound to one).  Falls back to a full scan when nothing is bound.
        """
        positions: list[int] = []
        values: list[Term] = []
        for i, arg in enumerate(pattern):
            if isinstance(arg, Var):
                bound = binding.get(arg)
                if bound is not None:
                    positions.append(i)
                    values.append(bound)
            elif is_ground(arg):
                positions.append(i)
                values.append(arg)
        if not positions:
            return self.facts(key)
        return self.index_lookup(key, tuple(positions), tuple(values))

    def index_lookup(self, key: RelationKey, positions: tuple[int, ...],
                     values: tuple[Term, ...]) -> Sequence[Fact]:
        """Facts of ``key`` whose projection on ``positions`` equals ``values``.

        This is the raw index probe used by compiled join plans, which
        precompute ``positions`` at rule-compile time instead of
        re-deriving the bound positions on every call.
        """
        return self._index(key, positions).get(values, ())

    def index_map(self, key: RelationKey, positions: tuple[int, ...],
                  ) -> dict[tuple[Term, ...], list[Fact]]:
        """The live hash index over ``positions`` (built on first use).

        Exposed for the generated join kernels, which bind the returned
        dict's ``.get`` once per firing -- one hash-table acquisition per
        (relation, key-positions) pair -- instead of going through
        :meth:`index_lookup` per probe.  The dict is maintained
        incrementally by inserts, so callers must not mutate it.
        """
        return self._index(key, positions)

    def fact_set(self, key: RelationKey) -> AbstractSet[Fact]:
        """The relation's fact set (shared, read-only; empty if absent).

        Generated kernels hoist this once per firing for negated-atom
        membership tests (``contains`` per binding would re-pay the
        method call and the defaultdict lookup).
        """
        facts = self._facts.get(key)
        return facts if facts is not None else _EMPTY_FACTS

    def _index(self, key: RelationKey,
               positions: tuple[int, ...]) -> dict[tuple[Term, ...], list[Fact]]:
        registry = self._indices.setdefault(key, {})
        index = registry.get(positions)
        if index is None:
            index = {}
            for fact in self._ordered.get(key, ()):
                index_key = tuple(fact[i] for i in positions)
                index.setdefault(index_key, []).append(fact)
            registry[positions] = index
            self.index_builds += 1
        return index

    # -- misc ---------------------------------------------------------------

    def snapshot_counts(self) -> dict[RelationKey, int]:
        return {key: len(facts) for key, facts in self._facts.items() if facts}

    def copy(self) -> "Database":
        """Bulk-copy the store (hot path in dQSQ peer setup).

        Facts in ``self`` are already validated ground tuples, so the
        copy clones the ordered lists and hash sets directly instead of
        re-validating fact-by-fact through :meth:`add`.  Lazy secondary
        indices are not copied; they rebuild on demand.  The change log
        is reconstructed with one entry per fact (grouped by relation),
        which is what per-fact insertion would have produced.
        """
        out = Database()
        for key, facts in self._ordered.items():
            if not facts:
                continue
            out._ordered[key] = list(facts)
            out._facts[key] = set(self._facts[key])
            out._change_log.extend([key] * len(facts))
        out._size = self._size
        return out

    def __len__(self) -> int:
        return self.total_facts()

    def __repr__(self) -> str:
        return f"Database({self.total_facts()} facts, {len(self._facts)} relations)"


def select(db: Database, pattern: Atom) -> set[Fact]:
    """All facts of ``pattern``'s relation matching its argument patterns."""
    out: set[Fact] = set()
    for fact in db.candidates(pattern.key(), pattern.args, {}):
        binding: dict = {}
        if match_tuple(pattern.args, fact, binding):
            out.add(fact)
    return out


def load_facts(program: Program, db: Database | None = None) -> Database:
    """Load the program's fact-rules into a database (creating one if needed)."""
    db = db if db is not None else Database()
    for fact in program.facts():
        db.add_atom(fact.head)
    return db
