"""QSQR: the iterative *recursive* Query-Sub-Query evaluation.

The paper presents QSQ as a rewriting (Figure 4); the original
formulation (Vieille [34]) is an evaluation strategy that manages
demand and answer tables directly.  This module implements the
iterative QSQR variant: a global worklist of demands ``(R^ad, bound
tuple)``, per-adorned-relation answer tables, and repeated passes until
no new answer or demand appears.  That scheduling is all that is QSQR
here: each rule's join is a :class:`~repro.datalog.plan.JoinPlan`
compiled with the demand's variables bound, like every engine's.

It computes exactly the same answers as the rewriting-based
:func:`repro.datalog.qsq.qsq_evaluate` (a property the tests check on
every program in the suite) while materializing only answer and demand
tables -- no supplementary relations.  Comparing the two is ablation
A5: the rewriting trades sup-tuple storage for join reuse; QSQR redoes
prefix joins on every pass but stores less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.datalog.adornment import Adornment
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.plan import (JoinPlan, JoinStep, PlanStats, compile_builder,
                                compile_term_match, run_builder,
                                run_term_match)
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.seminaive import EvaluationBudget
from repro.datalog.term import Term, Var, variables_of
from repro.datalog.unify import match_tuple
from repro.errors import BudgetExceeded
from repro.utils.counters import Counters

AdornedKey = tuple[str, str | None, str]


@dataclass
class QsqrResult:
    """Answers plus the table sizes (the QSQR materialization measure)."""

    answers: set[Fact]
    counters: Counters
    answer_tables: dict[AdornedKey, set[Fact]] = field(repr=False,
                                                       default_factory=dict)
    demand_tables: dict[AdornedKey, set[tuple[Term, ...]]] = field(
        repr=False, default_factory=dict)


class _DemandPlan(NamedTuple):
    """One rule compiled for one demand adornment."""

    #: match programs of the bound head positions: run against a demand
    #: tuple they fill the slots ``join`` was told are bound
    head_ops: tuple
    join: JoinPlan
    #: the per-step source handed to ``join.bindings``
    source: Callable


class QsqrEvaluator:
    """Iterative QSQR over a program and an EDB store."""

    def __init__(self, program: Program,
                 budget: EvaluationBudget | None = None,
                 check: bool = True) -> None:
        self.program = program
        self.budget = budget or EvaluationBudget()
        self.counters = Counters()
        if check:
            from repro.datalog.analysis import check_program
            check_program(program, context="qsqr",
                          depth_bounded=self.budget.max_term_depth is not None,
                          counters=self.counters)
        self._idb: set[RelationKey] = program.idb_relations()
        #: compiled per (rule id, bound head positions); evaluator-lifetime
        self._plans: dict[tuple[int, tuple[int, ...]], _DemandPlan] = {}
        self._plan_stats = PlanStats()
        #: the current query's answer and demand tables -- insertion-ordered
        #: (``dict[..., None]``), so that the order demands are replayed in,
        #: and with it the pass count, is a function of the program and not
        #: of PYTHONHASHSEED -- and their running sizes (the ``max_facts``
        #: check and the pass loop's convergence test read these instead of
        #: re-summing every table)
        self._answers: dict[AdornedKey, dict[Fact, None]] = {}
        self._demands: dict[AdornedKey, dict[tuple[Term, ...], None]] = {}
        self._answer_total = 0
        self._demand_total = 0

    def query(self, query: Query, db: Database) -> QsqrResult:
        """Evaluate ``query`` against ``db`` (program facts included)."""
        for fact in self.program.facts():
            if fact.head.key() not in self._idb:
                db.add_atom(fact.head)

        atom = query.atom
        if atom.key() not in self._idb:
            answers = {f for f in db.facts(atom.key())
                       if match_tuple(atom.args, f, {})}
            return QsqrResult(answers=answers, counters=self.counters)

        adornment = Adornment.from_atom(atom)
        seed_key = (atom.relation, atom.peer, adornment.pattern)
        seed_tuple = adornment.select_bound(atom.args)

        answers = self._answers = {}
        demands = self._demands = {seed_key: {seed_tuple: None}}
        self._answer_total, self._demand_total = 0, 1

        # Iterate to a global fixpoint: every pass replays every demand
        # against the current answer tables.
        passes = 0
        while True:
            passes += 1
            if passes > self.budget.max_iterations:
                raise BudgetExceeded("iterations", self.budget.max_iterations)
            before = (self._answer_total, self._demand_total)
            for key in list(demands):
                for bound in list(demands[key]):
                    self._process_demand(key, bound, db)
            if (self._answer_total, self._demand_total) == before:
                break
        self.counters.add("qsqr_passes", passes)
        self.counters.add("qsqr_answer_tuples", self._answer_total)
        self.counters.add("qsqr_demand_tuples", self._demand_total)
        self._plan_stats.flush_into(self.counters)

        final = {f for f in answers.get(seed_key, ())
                 if match_tuple(atom.args, f, {})}
        return QsqrResult(
            answers=final, counters=self.counters,
            answer_tables={key: set(table) for key, table in answers.items()},
            demand_tables={key: set(table) for key, table in demands.items()})

    def flush_stats(self) -> None:
        """Flush pending plan counters into :attr:`counters` (idempotent)."""
        self._plan_stats.flush_into(self.counters)

    # -- demand processing ---------------------------------------------------------

    def _process_demand(self, key: AdornedKey, bound: tuple[Term, ...],
                        db: Database) -> None:
        relation, peer, pattern = key
        bound_positions = Adornment(pattern).bound_positions()
        for rule in self.program.rules_for(relation, peer):
            # id-keyed: skips Rule.__eq__ on the per-demand hot path;
            # the plan holds the rule strongly, pinning its id.
            cache_key = (id(rule), bound_positions)
            plan = self._plans.get(cache_key)
            if plan is None:
                plan = self._plans[cache_key] = self._compile(rule,
                                                              bound_positions)
                self._plan_stats.cache_misses += 1
            else:
                self._plan_stats.cache_hits += 1
            self._run_plan(plan, bound, db, key)

    def _compile(self, rule: Rule,
                 bound_positions: tuple[int, ...]) -> _DemandPlan:
        head_args = [rule.head.args[p] for p in bound_positions]
        bound = {v for arg in head_args for v in variables_of(arg)}
        # Written order, never reordered: the demands QSQR generates, and
        # with them its termination on function-symbol programs, depend
        # on left-to-right sideways information passing.
        join = JoinPlan(rule, order=range(len(rule.body)), bound=bound)
        slot_of = join.var_slots
        seen: set[Var] = set()
        head_ops = tuple(compile_term_match(arg, slot_of, seen)
                         for arg in head_args)
        #: per IDB body position: the sub-demand's table key and the
        #: builders of its bound arguments
        sub_demands: dict[int, tuple[AdornedKey, tuple]] = {}
        for position, atom in enumerate(rule.body):
            if atom.key() in self._idb:
                adornment = Adornment.from_atom(atom, bound)
                sub_demands[position] = (
                    (atom.relation, atom.peer, adornment.pattern),
                    tuple(compile_builder(atom.args[p], slot_of)
                          for p in adornment.bound_positions()))
            bound.update(atom.variables())

        def source(step: JoinStep, db: Database, delta_facts: None,
                   slots: list, stats: PlanStats) -> tuple:
            sub_demand = sub_demands.get(step.position)
            if sub_demand is None:
                return join._source(step, db, delta_facts, slots, stats)
            # Register the sub-demand, then join against a snapshot of
            # the answer table (recursive rules extend it mid-join;
            # additions are picked up on the next global pass).
            sub_key, builders = sub_demand
            demand = tuple(run_builder(b, slots) for b in builders)
            table = self._demands.setdefault(sub_key, {})
            if demand not in table:
                table[demand] = None
                self._demand_total += 1
            snapshot = list(self._answers.get(sub_key, ()))
            stats.bindings_explored += len(snapshot)
            return iter(snapshot), step.scan_ops

        return _DemandPlan(head_ops, join, source)

    def _run_plan(self, plan: _DemandPlan, bound: tuple[Term, ...],
                  db: Database, target: AdornedKey) -> None:
        """Run one compiled rule for one ground demand tuple."""
        join = plan.join
        slots: list = [None] * join.nslots
        for op, value in zip(plan.head_ops, bound):
            if not run_term_match(op, value, slots):
                return
        for binding in join.bindings(db, stats=self._plan_stats, slots=slots,
                                     source=plan.source):
            self._emit_answer(join.head_args(binding), target)

    def _emit_answer(self, args: Fact, target: AdornedKey) -> None:
        if self.budget.prunes_fact(args):
            self.counters.add("pruned_deep_facts")
            return
        table = self._answers.setdefault(target, {})
        if args not in table:
            table[args] = None
            self.counters.add("facts_materialized")
            self._answer_total += 1
            if self._answer_total > self.budget.max_facts:
                raise BudgetExceeded("facts", self.budget.max_facts)


def qsqr_evaluate(program: Program, query: Query, db: Database | None = None,
                  budget: EvaluationBudget | None = None,
                  check: bool = True) -> QsqrResult:
    """Convenience wrapper mirroring :func:`repro.datalog.qsq.qsq_evaluate`."""
    work_db = db.copy() if db is not None else Database()
    evaluator = QsqrEvaluator(program, budget, check=check)
    return evaluator.query(query, work_db)
