"""QSQR: the iterative *recursive* Query-Sub-Query evaluation.

The paper presents QSQ as a rewriting (Figure 4); the original
formulation (Vieille [34]) is an evaluation strategy that manages
demand and answer tables directly.  This module implements the
iterative QSQR variant: a global worklist of demands ``(R^ad, bound
tuple)``, per-adorned-relation answer tables, and repeated passes until
no new answer or demand appears.

It computes exactly the same answers as the rewriting-based
:func:`repro.datalog.qsq.qsq_evaluate` (a property the tests check on
every program in the suite) while materializing only answer and demand
tables -- no supplementary relations.  Comparing the two is ablation
A5: the rewriting trades sup-tuple storage for join reuse; QSQR redoes
prefix joins on every pass but stores less.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datalog.adornment import Adornment
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.plan import (PlanStats, QsqrRulePlan, QsqrStep,
                                ineqs_hold, run_builder, run_fact_ops)
from repro.datalog.rule import Program, Query
from repro.datalog.seminaive import EvaluationBudget
from repro.datalog.term import Term
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
        self._plans: dict[tuple[int, tuple[int, ...]], QsqrRulePlan] = {}
        self._plan_stats = PlanStats()
        #: running sizes of the current query's answer and demand tables
        #: (the ``max_facts`` check and the pass loop's convergence test
        #: read these instead of re-summing every table)
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

        answers: dict[AdornedKey, set[Fact]] = {}
        demands: dict[AdornedKey, set[tuple[Term, ...]]] = {seed_key: {seed_tuple}}
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
                    self._process_demand(key, bound, db, answers, demands)
            if (self._answer_total, self._demand_total) == before:
                break
        self.counters.add("qsqr_passes", passes)
        self.counters.add("qsqr_answer_tuples", self._answer_total)
        self.counters.add("qsqr_demand_tuples", self._demand_total)
        self._plan_stats.flush_into(self.counters)

        final = {f for f in answers.get(seed_key, set())
                 if match_tuple(atom.args, f, {})}
        return QsqrResult(answers=final, counters=self.counters,
                          answer_tables=answers, demand_tables=demands)

    def flush_stats(self) -> None:
        """Flush pending plan counters into :attr:`counters` (idempotent)."""
        self._plan_stats.flush_into(self.counters)

    # -- demand processing ---------------------------------------------------------

    def _process_demand(self, key: AdornedKey, bound: tuple[Term, ...],
                        db: Database, answers: dict, demands: dict) -> None:
        relation, peer, pattern = key
        bound_positions = Adornment(pattern).bound_positions()
        for rule in self.program.rules_for(relation, peer):
            # id-keyed: skips Rule.__eq__ on the per-demand hot path;
            # the plan holds the rule strongly, pinning its id.
            cache_key = (id(rule), bound_positions)
            plan = self._plans.get(cache_key)
            if plan is None:
                plan = QsqrRulePlan(rule, bound_positions, self._idb)
                self._plans[cache_key] = plan
                self._plan_stats.cache_misses += 1
            else:
                self._plan_stats.cache_hits += 1
            self._run_plan(plan, bound, db, answers, demands, key)

    def _run_plan(self, plan: QsqrRulePlan, bound: tuple[Term, ...],
                  db: Database, answers: dict, demands: dict,
                  target: AdornedKey) -> None:
        """Run one compiled rule plan for one ground demand tuple.

        The join runs over slot arrays with the demand keys, index
        positions and inequality schedule baked in at compile time, and
        an explicit iterator stack instead of recursion.
        """
        slots: list = [None] * plan.nslots
        if not plan.match_demand(bound, slots):
            return
        steps = plan.steps
        n = len(steps)
        if n == 0:
            self._emit_answer(plan, slots, answers, target)
            return
        iterators: list = [None] * n
        ops_at: list = [None] * n
        depth = 0
        iterators[0], ops_at[0] = self._source(steps[0], db, slots,
                                               answers, demands)
        while True:
            step = steps[depth]
            ops = ops_at[depth]
            matched = False
            for fact in iterators[depth]:
                if not run_fact_ops(ops, fact, slots):
                    continue
                if step.ineqs and not ineqs_hold(step.ineqs, slots):
                    continue
                matched = True
                break
            if not matched:
                depth -= 1
                if depth < 0:
                    return
                continue
            if depth + 1 == n:
                self._emit_answer(plan, slots, answers, target)
                continue
            depth += 1
            iterators[depth], ops_at[depth] = self._source(
                steps[depth], db, slots, answers, demands)

    def _source(self, step: QsqrStep, db: Database, slots: list,
                answers: dict, demands: dict) -> tuple:
        stats = self._plan_stats
        if step.is_idb:
            # Register the sub-demand, then join against a snapshot of
            # the answer table (recursive rules extend it mid-join;
            # additions are picked up on the next global pass).
            demand = tuple(run_builder(b, slots) for b in step.demand_builders)
            table = demands.setdefault(step.sub_key, set())
            if demand not in table:
                table.add(demand)
                self._demand_total += 1
            source = list(answers.get(step.sub_key, ()))
            stats.bindings_explored += len(source)
            return iter(source), step.scan_ops
        if step.index_positions:
            if step.single_slot is not None:
                values = (slots[step.single_slot],)
            else:
                values = tuple(run_builder(b, slots) for b in step.index_values)
            bucket = db.index_lookup(step.key, step.index_positions, values)
            if bucket:
                stats.index_hits += 1
            else:
                stats.index_misses += 1
            stats.bindings_explored += len(bucket)
            return iter(bucket), step.residual_ops
        facts = db.facts(step.key)
        stats.full_scans += 1
        stats.bindings_explored += len(facts)
        return iter(facts), step.scan_ops

    def _emit_answer(self, plan: QsqrRulePlan, slots: list, answers: dict,
                     target: AdornedKey) -> None:
        args = plan.head_args(slots)
        if self.budget.prunes_fact(args):
            self.counters.add("pruned_deep_facts")
            return
        table = answers.setdefault(target, set())
        if args not in table:
            table.add(args)
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
