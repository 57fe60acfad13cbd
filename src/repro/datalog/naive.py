"""Naive bottom-up evaluation, "continuous flow" style (Section 3.1).

The paper revisits naive evaluation as an activation process: the query
relation is activated; activating a relation activates its rules;
activating a rule activates the relations of its body.  Rules then
continuously consume tuples and produce tuples until no new rule or
relation can be activated and no new fact can be derived.

Only the activated portion of the program runs, which already prunes
rules unreachable from the query -- but, unlike QSQ, naive evaluation
propagates no *bindings*, so it materializes whole relations.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.datalog.atom import Atom
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.seminaive import EvaluationBudget, RuleFirer
from repro.datalog.unify import match_tuple
from repro.errors import BudgetExceeded


class NaiveEvaluator(RuleFirer):
    """Evaluates a program bottom-up, restricted to query-reachable rules."""

    def __init__(self, program: Program,
                 budget: EvaluationBudget | None = None,
                 check: bool = True) -> None:
        super().__init__(budget)
        self.program = program
        if check:
            from repro.datalog.analysis import check_program
            check_program(program, context="naive",
                          depth_bounded=self.budget.max_term_depth is not None,
                          counters=self.counters)

    def run(self, db: Database, query: Query | None = None) -> Database:
        """Evaluate to fixpoint in place; returns ``db`` for convenience.

        When ``query`` is given, only rules transitively reachable from
        the query relation are activated (the paper's activation
        semantics); otherwise the whole program runs.
        """
        rules = self._activated_rules(query)
        self.counters.add("rules_activated", len(rules))
        iterations = 0
        changed = True
        while changed:
            iterations += 1
            if iterations > self.budget.max_iterations:
                raise BudgetExceeded("iterations", self.budget.max_iterations)
            changed = False
            for rule in rules:
                if self._derive(rule, db):
                    changed = True
        self.counters.add("iterations", iterations)
        self.flush_stats()
        return db

    def answers(self, db: Database, query: Query) -> set[Fact]:
        """Evaluate and return the facts matching the query atom."""
        self.run(db, query)
        return select(db, query.atom)

    def _activated_rules(self, query: Query | None) -> Sequence[Rule]:
        if query is None:
            return list(self.program.proper_rules())
        activated_relations: set[RelationKey] = set()
        activated_rules: list[Rule] = []
        agenda: deque[RelationKey] = deque([query.atom.key()])
        while agenda:
            key = agenda.popleft()
            if key in activated_relations:
                continue
            activated_relations.add(key)
            self.counters.add("relations_activated")
            for rule in self.program.rules_for(*key):
                if rule.is_fact():
                    continue
                activated_rules.append(rule)
                for body_key in rule.body_relations():
                    if body_key not in activated_relations:
                        agenda.append(body_key)
        return activated_rules


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
