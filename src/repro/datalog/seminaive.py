"""Semi-naive bottom-up evaluation with resource budgets.

Semi-naive evaluation restricts each join so that at least one body
atom is matched against facts its rule has not consumed yet (the
*delta*), avoiding rediscovery.  It computes the program's minimal model
(property-tested against the reference interpreter in
``tests/reference.py``) and is the one fixpoint of the package: the
paper's Figure-4 program is itself a Datalog program, and evaluating it
semi-naively *is* the QSQ evaluation.

Because dDatalog has function symbols, fixpoints may be infinite; the
:class:`EvaluationBudget` makes every run either terminate, raise
:class:`~repro.errors.BudgetExceeded`, or -- in ``prune_depth`` mode --
terminate with an explicitly truncated model (the Section-4.4 gadget
"bounding the depth of the unfolding").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.datalog.database import Database, Fact, RelationKey, select
from repro.datalog.plan import JoinPlan, PlanStats, compile_join_plan
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.term import Term, term_depth
from repro.errors import BudgetExceeded
from repro.utils.counters import Counters


@dataclass(frozen=True)
class EvaluationBudget:
    """Resource limits for a bottom-up run.

    ``max_term_depth`` bounds the nesting depth of derived head terms.
    With ``prune_depth=False`` (default) exceeding it raises
    :class:`BudgetExceeded`; with ``prune_depth=True`` too-deep facts are
    silently dropped, yielding a depth-bounded model (the unfolding-depth
    gadget of Section 4.4).

    ``max_facts`` is checked once per rule firing, after the firing's
    rows are inserted: when it raises, the store holds the whole firing
    that crossed the limit, not ``max_facts + 1`` facts.
    """

    max_iterations: int = 10_000
    max_facts: int = 2_000_000
    max_term_depth: int | None = None
    prune_depth: bool = False

    def prunes_fact(self, args: Sequence[Term]) -> bool:
        """True when the argument tuple is over-deep and pruning mode is on."""
        if self.max_term_depth is None:
            return False
        depth = max((term_depth(a) for a in args), default=0)
        if depth <= self.max_term_depth:
            return False
        if self.prune_depth:
            return True
        raise BudgetExceeded("term_depth", self.max_term_depth)


class IncrementalEvaluator:
    """Semi-naive evaluation with a persistent frontier: the one scheduler.

    Section 3.1's continuous flow, started (Remark 2) before the program
    is complete: a peer's rule set *grows* over time (lazy rewriting
    installs fragments; delegations arrive) and its store receives
    external tuples between fixpoints.  Rules "consume tuples and produce
    tuples": each positive body atom of an installed rule is a consumer
    with its own cursor into its relation's (append-only) fact list, and
    every firing is a delta firing -- the facts beyond one cursor joined
    against the full store.  Repeated calls to :meth:`run` therefore cost
    time proportional to the *new* work.

    A delta that arrives while another body relation of its rule is
    empty joins nothing, so the consumer moves its cursor past it
    without firing or compiling: when that relation fills, its own
    consumer joins the new facts against the full store, skipped facts
    included.
    """

    def __init__(self, db: Database | None = None,
                 budget: EvaluationBudget | None = None) -> None:
        self.budget = budget or EvaluationBudget()
        self._counters = Counters()
        self._plan_stats = PlanStats()
        if db is not None:  # None: the owner calls bind() before add_rule()
            self.bind(db)

    @property
    def counters(self) -> Counters:
        """The evaluator's counters, plan counters flushed in."""
        self.flush_stats()
        return self._counters

    def bind(self, db: Database) -> None:
        """Schedule over ``db`` with no rule installed; counters are kept
        (a peer restore rebinds: recovery work is real work)."""
        self.db = db
        self._seen_rules: set[Rule] = set()
        self._pending_rules: list[Rule] = []
        #: per relation, its consumers ``[rule, position, cursor, partners,
        #: plan]``: ``facts[cursor:]`` is what the rule has not joined at
        #: that atom, ``partners`` the rule's other body relations (a delta
        #: is skipped while one is empty) and ``plan`` the delta plan,
        #: resolved at the first firing
        self._consumers: dict[RelationKey, list[list]] = defaultdict(list)
        self._log_position = len(db.change_log())

    def add_rule(self, rule: Rule) -> bool:
        """Register a rule; facts go straight to the store (a stored
        fact rule is not a materialized fact: only firings count)."""
        if rule in self._seen_rules:
            return False
        self._seen_rules.add(rule)
        if rule.is_fact():
            self.db.add_atom(rule.head)
            return True
        self._pending_rules.append(rule)
        return True

    def flush_stats(self) -> None:
        """Flush pending plan counters into :attr:`counters` (idempotent).

        A fixpoint does not flush: reading :attr:`counters` does, and the
        transports call this at collection time, so plan work done since
        the last read (e.g. a run aborted by ``BudgetExceeded``) still
        lands in the per-peer counters instead of dying with the worker.
        """
        self._plan_stats.flush_into(self._counters)

    def _plan(self, consumer: list) -> JoinPlan:
        """The consumer's delta plan, resolved (and kept) on first use."""
        consumer[4] = compile_join_plan(consumer[0], consumer[1],
                                        self._plan_stats)
        return consumer[4]

    def _derive(self, plan: JoinPlan, db: Database,
                delta_rows: Sequence[Fact] | None = None) -> None:
        """Fire ``plan`` once against ``db`` and store what is new.

        Derived heads are inserted only after the join completes:
        inserting mid-join would extend the very fact lists being
        iterated and make a single firing run away on recursive rules
        with function symbols.
        """
        stats = self._plan_stats
        rows = plan.fire(db, delta_rows, stats=stats)
        stats.firings += 1
        if not rows:
            stats.empty_firings += 1
            return
        counters, budget = self._counters, self.budget
        counters.add("derivations", len(rows))
        if budget.max_term_depth is not None:
            kept = [args for args in rows if not budget.prunes_fact(args)]
            if len(kept) < len(rows):
                counters.add("pruned_deep_facts", len(rows) - len(kept))
            rows = kept
        fresh = db.add_batch(plan.head_key, rows)
        if fresh:
            counters.add("facts_materialized", len(fresh))
            if db.total_facts() > budget.max_facts:
                raise BudgetExceeded("facts", budget.max_facts)

    def run(self) -> None:
        """Process pending rules and unprocessed facts to a fixpoint."""
        db = self.db
        facts_of = db.facts
        derive = self._derive
        consumers = self._consumers
        for _ in range(self.budget.max_iterations):
            pending, self._pending_rules = self._pending_rules, []
            for rule in pending:
                # One more consumer per body atom, at the end of its relation;
                # what the store holds now is joined by one delta firing over
                # the whole of the smallest body relation (leftmost on ties),
                # which fires and compiles nothing while that one is empty.
                keys = [atom.key() for atom in rule.body]
                counts = [len(facts_of(key)) for key in keys]
                distinct = dict.fromkeys(keys)
                entering: list[list] = []
                for position, key in enumerate(keys):
                    partners = tuple(k for k in distinct if k != key)
                    consumer = [rule, position, counts[position], partners, None]
                    entering.append(consumer)
                    consumers[key].append(consumer)
                if not counts:
                    derive(compile_join_plan(rule, None, self._plan_stats), db)
                elif smallest := min(counts):
                    first = counts.index(smallest)
                    derive(self._plan(entering[first]), db, facts_of(keys[first])[:])
            # Only relations named in the change-log suffix can have new
            # facts: no full scan over the (large) relation space.
            log = db.change_log()
            touched = dict.fromkeys(log[self._log_position:])
            self._log_position = len(log)
            if not pending and not touched:
                return
            for key in touched:
                facts = facts_of(key)
                end = len(facts)
                slices: dict[int, Sequence[Fact]] = {}  # one per distinct cursor
                for consumer in consumers.get(key, ()):
                    start = consumer[2]
                    if start >= end:
                        continue
                    consumer[2] = end
                    for partner in consumer[3]:
                        if not facts_of(partner):
                            break  # the join is empty: skip, compile nothing
                    else:
                        if start not in slices:
                            slices[start] = facts[start:end]
                        derive(consumer[4] or self._plan(consumer), db, slices[start])
        raise BudgetExceeded("iterations", self.budget.max_iterations)


class SemiNaiveEvaluator:
    """Semi-naive fixpoint of a whole program: the program-at-once front
    of :class:`IncrementalEvaluator`, a peer with nothing left to arrive.

    Counters are that scheduler's and outlive a :meth:`run`; the plans
    live in the plan table as long as the program's rules do.
    """

    def __init__(self, program: Program,
                 budget: EvaluationBudget | None = None,
                 check: bool = True, *,
                 compiled: object = None) -> None:
        # ``compiled`` is accepted and ignored: the frozen benchmark
        # (benchmarks/e2e/probes.py::_centralized_run) still passes it and a
        # TypeError there is a failed op; the next benchmark PR drops it.
        self.program = program
        self._scheduler = IncrementalEvaluator(None, budget)
        self.budget = self._scheduler.budget
        self.counters = self._scheduler.counters
        self.flush_stats = self._scheduler.flush_stats
        if check:
            from repro.datalog.analysis import check_program
            check_program(program, context="seminaive", counters=self.counters,
                          depth_bounded=self.budget.max_term_depth is not None)

    def run(self, db: Database) -> Database:
        """Evaluate to fixpoint in place; returns ``db``."""
        self._scheduler.bind(db)
        for rule in self.program:  # facts go straight to the store
            self._scheduler.add_rule(rule)
        self._scheduler.run()
        self.flush_stats()
        return db

    def answers(self, db: Database, query: Query) -> set[Fact]:
        """Evaluate and return the facts matching the query atom."""
        self.run(db)
        return select(db, query.atom)
