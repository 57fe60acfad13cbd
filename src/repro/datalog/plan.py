"""Join plans: the one join IR of every engine.

Semi-naive, QSQ (the rewriting evaluated semi-naively), dQSQ
(incremental evaluators at each peer) and stratified evaluation all
funnel through one join, so each :class:`Rule` is compiled once into a
:class:`JoinPlan`:

* variables get integer **slots**; a binding is a flat list, extended in
  place (no copying: a slot written at step *k* is only ever read at
  steps >= *k*, so re-running step *k* overwrites before any read);
* each body atom becomes a :class:`JoinStep` with the **index positions
  precomputed** (constants, already-bound variables, and function terms
  whose variables are all bound);
* the body is **reordered most-bound-first** (greedy, ties broken by the
  written order); the semi-naive delta atom is pinned first;
* the **inequality schedule is baked in** at compile time (the earliest
  step after which both sides are ground), as are the negated-atom
  checks and the head-tuple builders.

Engines differ in what they schedule, never in how a join runs.  They
all call :meth:`JoinPlan.fire`: a plan starts on the
tuple-at-a-time step interpreter (:meth:`JoinPlan.bindings`) and, once
the delta rows it has scanned plus the rows it has produced reach
:data:`KERNEL_AFTER_ROWS`, gets its specialized kernel
(:mod:`repro.datalog.batch`, compiled once per kernel shape) and runs on
that from then on.  Both executors return the same rows in the same
order and increment :class:`PlanStats` identically; the reference
interpreter they are tested against lives in ``tests/reference.py``.

Plans are cached per ``(rule, delta_position)``; :class:`PlanStats`
exposes index hit/miss, bindings-explored and promotion counts
(``plan.*`` counters).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.datalog.batch import compile_batched_kernel
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.rule import Rule
from repro.datalog.term import Func, Term, Var, variables_of
from repro.utils.counters import Counters

if TYPE_CHECKING:
    from repro.datalog.batch import Kernel

#: Rows a plan handles on the step interpreter -- delta rows scanned
#: plus head rows produced -- before :meth:`JoinPlan.fire` gives it a
#: kernel.  Counting scanned rows promotes the plans fired over and over
#: with deltas that join nothing, which never produce a row but pay the
#: interpreter's per-firing cost every time.  See docs/datalog.md
#: "Executor choice" for the sweep behind the value.
KERNEL_AFTER_ROWS = 64


# -- term-level compilation ------------------------------------------------------
#
# Match programs are nested tuples interpreted against a slot array:
#   ("c", term)                  ground term: value must equal it
#   ("s", slot)                  value must equal the bound slot
#   ("w", slot)                  first occurrence: write value into slot
#   ("f", name, arity, subops)   destructure a non-ground function term
#
# Builders construct ground terms from slots:
#   ("c", term) | ("s", slot) | ("f", name, subbuilders)


def compile_term_match(term: Term, slot_of: dict[Var, int],
                       seen: set[Var]) -> tuple:
    """Compile ``term`` into a match program; ``seen`` tracks bound vars."""
    if isinstance(term, Var):
        slot = slot_of[term]
        if term in seen:
            return ("s", slot)
        seen.add(term)
        return ("w", slot)
    if term._ground:
        return ("c", term)
    # a non-ground function term
    return ("f", term.name, len(term.args),
            tuple(compile_term_match(a, slot_of, seen) for a in term.args))


def run_term_match(op: tuple, value: Term, slots: list) -> bool:
    """Run a compiled match program against a ground ``value``."""
    kind = op[0]
    if kind == "w":
        slots[op[1]] = value
        return True
    if kind == "s":
        bound = slots[op[1]]
        return bound is value or bound == value
    if kind == "c":
        expected = op[1]
        return expected is value or expected == value
    # "f"
    if type(value) is not Func or value.name != op[1] or len(value.args) != op[2]:
        return False
    for sub, arg in zip(op[3], value.args):
        if not run_term_match(sub, arg, slots):
            return False
    return True


def compile_builder(term: Term, slot_of: dict[Var, int]) -> tuple:
    """Compile ``term`` into a ground-term builder over slots."""
    if isinstance(term, Var):
        return ("s", slot_of[term])
    if term._ground:
        return ("c", term)
    return ("f", term.name, tuple(compile_builder(a, slot_of) for a in term.args))


def run_builder(builder: tuple, slots: list) -> Term:
    """Build a ground term from slots (interned Func construction)."""
    kind = builder[0]
    if kind == "s":
        return slots[builder[1]]
    if kind == "c":
        return builder[1]
    return Func(builder[1], tuple(run_builder(b, slots) for b in builder[2]))


def run_fact_ops(ops: tuple, fact: Fact, slots: list) -> bool:
    """Run per-position ops -- ("store"/"check"/"const"/"match", pos, ...)."""
    for op in ops:
        kind = op[0]
        if kind == "store":
            slots[op[2]] = fact[op[1]]
        elif kind == "check":
            bound = slots[op[2]]
            value = fact[op[1]]
            if bound is not value and bound != value:
                return False
        elif kind == "const":
            expected = op[2]
            value = fact[op[1]]
            if expected is not value and expected != value:
                return False
        elif not run_term_match(op[2], fact[op[1]], slots):  # "match"
            return False
    return True


def ineqs_hold(checks: tuple, slots: list) -> bool:
    for left, right in checks:
        if run_builder(left, slots) == run_builder(right, slots):
            return False
    return True


# -- plan structure --------------------------------------------------------------


class PlanStats:
    """Cheap per-evaluator accumulators, flushed into a Counters bag.

    Attribute increments keep the join loop free of dict lookups; the
    evaluator flushes the deltas under ``plan.*`` counter names.
    """

    _FIELDS = ("bindings_explored", "index_hits", "index_misses",
               "full_scans", "delta_scans", "cache_hits", "cache_misses",
               "cache_evictions", "promotions", "firings", "empty_firings")
    __slots__ = _FIELDS + ("_flushed",)

    def __init__(self) -> None:
        self.bindings_explored = 0
        self.index_hits = 0
        self.index_misses = 0
        self.full_scans = 0
        self.delta_scans = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: plans whose kernel this evaluator's firing generated
        self.promotions = 0
        #: rule firings (one plan.fire call each) and how many of them
        #: returned no row: a delta probing a rule that had nothing to join
        self.firings = 0
        self.empty_firings = 0
        self._flushed: dict[str, int] = {}

    def flush_into(self, counters: Counters) -> None:
        """Add the not-yet-flushed deltas to ``counters`` (idempotent)."""
        for name in self._FIELDS:
            value = getattr(self, name)
            previous = self._flushed.get(name, 0)
            if value > previous:
                counters.add("plan." + name, value - previous)
                self._flushed[name] = value


class JoinStep:
    """One body atom, compiled: source selection plus match programs."""

    __slots__ = ("position", "key", "use_delta", "scan_ops", "residual_ops",
                 "index_positions", "index_values", "single_slot", "ineqs")

    def __init__(self, position: int, key: RelationKey, use_delta: bool,
                 scan_ops: tuple, residual_ops: tuple,
                 index_positions: tuple[int, ...], index_values: tuple,
                 ineqs: tuple) -> None:
        self.position = position
        self.key = key
        self.use_delta = use_delta
        self.scan_ops = scan_ops
        self.residual_ops = residual_ops
        self.index_positions = index_positions
        self.index_values = index_values
        #: fast path for the overwhelmingly common probe shape -- a single
        #: index position fed by one bound slot (no builder allocation)
        self.single_slot = (index_values[0][1]
                            if len(index_values) == 1 and index_values[0][0] == "s"
                            else None)
        self.ineqs = ineqs


class JoinPlan:
    """A rule's body join, compiled (optionally delta-restricted)."""

    __slots__ = ("rule", "delta_position", "nslots", "var_slots", "steps",
                 "pre_checks", "negated", "head_key", "head_builders",
                 "rows", "kernel")

    def __init__(self, rule: Rule, delta_position: int | None = None) -> None:
        self.rule = rule
        self.delta_position = delta_position
        #: rows scanned from deltas plus rows produced on the step
        #: interpreter so far, and the kernel generated once that count
        #: reached KERNEL_AFTER_ROWS.  Both live on the plan, so the
        #: shared cache amortizes codegen across runs exactly as it
        #: amortizes compilation, and evicting the plan evicts its kernel.
        self.rows = 0
        self.kernel: Kernel | None = None
        order = _order_body(rule, delta_position)
        self.var_slots = _assign_slots(rule, order)
        self.nslots = len(self.var_slots)
        slot_of = self.var_slots

        # Schedule inequalities at the earliest execution step where both
        # sides are ground; the variable-free ones run once up front.
        seen: set[Var] = set()
        pre = [c for c in rule.inequalities if not set(c.variables())]
        remaining = [c for c in rule.inequalities if c not in pre]
        self.pre_checks = tuple(
            (compile_builder(c.left, slot_of), compile_builder(c.right, slot_of))
            for c in pre)

        steps: list[JoinStep] = []
        for position in order:
            atom = rule.body[position]
            use_delta = (position == delta_position)
            entry_bound = set(seen)
            scan_ops: list[tuple] = []
            indexable: dict[int, tuple] = {}
            for i, arg in enumerate(atom.args):
                op = compile_term_match(arg, slot_of, seen)
                kind = op[0]
                if kind == "w":
                    scan_ops.append(("store", i, op[1]))
                elif kind == "s":
                    scan_ops.append(("check", i, op[1]))
                elif kind == "c":
                    scan_ops.append(("const", i, op[1]))
                else:
                    scan_ops.append(("match", i, op))
                # A position is usable for the index probe only when its
                # value is computable *before* iterating this atom's
                # facts: ground, or built from variables bound by earlier
                # steps.  A variable's repeat occurrence within the same
                # atom does NOT qualify -- its slot is written by the very
                # fact being probed for.
                if _arg_bound(arg, entry_bound):
                    indexable[i] = compile_builder(arg, slot_of)
            if use_delta or not indexable:
                index_positions: tuple[int, ...] = ()
                index_values: tuple = ()
                residual_ops = tuple(scan_ops)
            else:
                index_positions = tuple(sorted(indexable))
                index_values = tuple(indexable[i] for i in index_positions)
                residual_ops = tuple(op for op in scan_ops
                                     if op[1] not in indexable)
            here = [c for c in remaining if set(c.variables()) <= seen]
            remaining = [c for c in remaining if c not in here]
            steps.append(JoinStep(
                position=position, key=atom.key(), use_delta=use_delta,
                scan_ops=tuple(scan_ops), residual_ops=residual_ops,
                index_positions=index_positions, index_values=index_values,
                ineqs=tuple((compile_builder(c.left, slot_of),
                             compile_builder(c.right, slot_of)) for c in here)))
        # Rule validation guarantees ``remaining`` is empty here.
        self.steps = tuple(steps)

        self.negated = tuple(
            (atom.key(), tuple(compile_builder(a, slot_of) for a in atom.args))
            for atom in rule.negated)
        self.head_key = rule.head.key()
        self.head_builders = tuple(compile_builder(a, slot_of)
                                   for a in rule.head.args)

    # -- execution ------------------------------------------------------------

    def fire(self, db: Database, delta_rows: Sequence[Fact] | None = None, *,
             neg_db: Database | None = None,
             stats: PlanStats | None = None) -> list[Fact]:
        """Every head tuple the rule derives from ``db``, in join order.

        ``delta_rows`` feeds the delta step of a delta-restricted plan.
        Duplicates are included and nothing is inserted: the caller owns
        deduplication, budget pruning and insertion.  The plan picks its
        own executor (see :data:`KERNEL_AFTER_ROWS`); the choice changes
        neither the rows, their order, nor the ``stats`` increments.
        """
        if self.delta_position is not None and not delta_rows:
            return []
        kernel = self.kernel
        if kernel is None and self.rows >= KERNEL_AFTER_ROWS:
            kernel = self.kernel = compile_batched_kernel(self)
            if stats is not None:
                stats.promotions += 1
        if kernel is None:
            head_args = self.head_args
            out = [head_args(slots) for slots in
                   self.bindings(db, delta_rows, neg_db, stats)]
            self.rows += len(out) + (len(delta_rows) if delta_rows else 0)
            return out
        out = []
        explored, hits, misses, fulls, deltas = kernel(
            db, delta_rows, neg_db if neg_db is not None else db, out.append)
        if stats is not None:
            stats.bindings_explored += explored
            stats.index_hits += hits
            stats.index_misses += misses
            stats.full_scans += fulls
            stats.delta_scans += deltas
        return out

    def bindings(self, db: Database,
                 delta_facts: Sequence[Fact] | None = None,
                 neg_db: Database | None = None,
                 stats: PlanStats | None = None) -> Iterator[list]:
        """Yield the slot array for every complete body binding.

        The *same* list object is yielded each time and mutated in place
        between yields; consumers must read (e.g. build the head tuple)
        before advancing the iterator.
        """
        slots: list = [None] * self.nslots
        if self.pre_checks and not ineqs_hold(self.pre_checks, slots):
            return
        neg = neg_db if neg_db is not None else db
        steps = self.steps
        n = len(steps)
        if n == 0:
            if self._negated_ok(neg, slots):
                yield slots
            return
        iterators: list = [None] * n
        ops_at: list = [None] * n
        depth = 0
        iterators[0], ops_at[0] = self._source(steps[0], db, delta_facts,
                                               slots, stats)
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
                if self._negated_ok(neg, slots):
                    yield slots
                continue
            depth += 1
            iterators[depth], ops_at[depth] = self._source(
                steps[depth], db, delta_facts, slots, stats)

    def head_args(self, slots: list) -> Fact:
        """Instantiate the head argument tuple under a complete binding."""
        return tuple(run_builder(b, slots) for b in self.head_builders)

    def _negated_ok(self, neg_db: Database, slots: list) -> bool:
        for key, builders in self.negated:
            ground = tuple(run_builder(b, slots) for b in builders)
            if neg_db.contains(key, ground):
                return False
        return True

    def _source(self, step: JoinStep, db: Database,
                delta_facts: Sequence[Fact] | None, slots: list,
                stats: PlanStats | None) -> tuple:
        if step.use_delta:
            facts: Sequence[Fact] = delta_facts or ()
            if stats is not None:
                stats.delta_scans += 1
                stats.bindings_explored += len(facts)
            return iter(facts), step.scan_ops
        if step.index_positions:
            if step.single_slot is not None:
                values = (slots[step.single_slot],)
            else:
                values = tuple(run_builder(b, slots) for b in step.index_values)
            bucket = db.index_lookup(step.key, step.index_positions, values)
            if stats is not None:
                if bucket:
                    stats.index_hits += 1
                else:
                    stats.index_misses += 1
                stats.bindings_explored += len(bucket)
            return iter(bucket), step.residual_ops
        facts = db.facts(step.key)
        if stats is not None:
            stats.full_scans += 1
            stats.bindings_explored += len(facts)
        return iter(facts), step.scan_ops

    def __repr__(self) -> str:
        order = [s.position for s in self.steps]
        return (f"JoinPlan({self.rule!s}, order={order}, "
                f"delta={self.delta_position})")


# -- compilation helpers ---------------------------------------------------------


def _arg_bound(arg: Term, bound: set[Var]) -> bool:
    """Whether an argument is usable for an index probe given bound vars."""
    if isinstance(arg, Var):
        return arg in bound
    if arg._ground:
        return True
    return all(v in bound for v in variables_of(arg))


def _order_body(rule: Rule, delta_position: int | None) -> list[int]:
    """Most-bound-first greedy body order; the delta atom is pinned first.

    The score of a candidate atom is the number of argument positions an
    index probe could use; ties fall back to the written order (the
    paper's sideways-information-passing reading).
    """
    remaining = list(range(len(rule.body)))
    order: list[int] = []
    bound: set[Var] = set()
    if delta_position is not None:
        order.append(delta_position)
        remaining.remove(delta_position)
        bound.update(rule.body[delta_position].variables())
    while remaining:
        best = remaining[0]
        best_score = -1
        for position in remaining:
            atom = rule.body[position]
            score = sum(1 for arg in atom.args if _arg_bound(arg, bound))
            if score > best_score:
                best, best_score = position, score
        order.append(best)
        remaining.remove(best)
        bound.update(rule.body[best].variables())
    return order


def _assign_slots(rule: Rule, order: Sequence[int]) -> dict[Var, int]:
    """Slot numbers for every rule variable, in execution-order occurrence."""
    slot_of: dict[Var, int] = {}
    for position in order:
        for var in rule.body[position].variables():
            if var not in slot_of:
                slot_of[var] = len(slot_of)
    for var in rule.variables():
        if var not in slot_of:
            slot_of[var] = len(slot_of)
    return slot_of


# -- the plan cache --------------------------------------------------------------

#: plans per (rule, delta_position), a bounded LRU.  Rewritten rules
#: are repeatable -- the Figure-4 rewriting names its supplementary
#: relations ``sup_{rule}_{j}``, (d)QSQ ``sup[peer.relation.adornment.index]k``
#: -- so running one program again hits.  What grows in a long-running
#: process is the number of *different* programs (every net and
#: observation brings its own rules), while hot plans (recursive rules
#: fired every round) stay resident
_PLAN_CACHE: OrderedDict[tuple[Rule, int | None], JoinPlan] = OrderedDict()
_PLAN_CACHE_MAX = 16384
_PLAN_CACHE_EVICTIONS = 0
#: ``clear`` of each table that keeps plans or the rules that key them
#: beyond this cache (the prepared diagnoses of
#: :mod:`repro.diagnosis.engine`, the peer rewritings of
#: :mod:`repro.distributed.dqsq`), so a cleared plan cache leaves no
#: plan or rewriting warm anywhere
_PLAN_HOLDERS: list[Callable[[], None]] = []


def compile_join_plan(rule: Rule, delta_position: int | None = None,
                      counters: Counters | None = None,
                      stats: PlanStats | None = None) -> JoinPlan:
    """The cached compiled plan for ``rule`` (optionally delta-restricted).

    Hits refresh the entry's LRU position; a miss that overflows the
    capacity evicts the least-recently-used plan (recorded under
    ``plan.cache_evictions``).  Eviction only ever costs recompilation:
    plans are pure functions of ``(rule, delta_position)``, so answers
    are unaffected (a regression-tested invariant).
    """
    global _PLAN_CACHE_EVICTIONS
    key = (rule, delta_position)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = JoinPlan(rule, delta_position)
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
            _PLAN_CACHE_EVICTIONS += 1
            if stats is not None:
                stats.cache_evictions += 1
            if counters is not None:
                counters.add("plan.cache_evictions")
        _PLAN_CACHE[key] = plan
        if counters is not None:
            counters.add("plan.cache_misses")
    else:
        _PLAN_CACHE.move_to_end(key)
        if counters is not None:
            counters.add("plan.cache_hits")
    return plan


def plan_for(cache: dict, stats: PlanStats, rule: Rule,
             delta_position: int | None) -> JoinPlan:
    """Two-level plan lookup for an evaluator's fire loop.

    ``cache`` is the evaluator's own dict keyed by ``(id(rule),
    delta_position)``: identity keys skip the deep ``Rule.__eq__`` chains
    a per-fire equality lookup would pay.  Misses fall through to the
    shared equality-keyed cache, so structurally equal rules from
    repeated rewritings still share one compilation.  The plan (which
    holds the rule strongly) pins the id for the cache's lifetime.
    """
    key = (id(rule), delta_position)
    plan = cache.get(key)
    if plan is None:
        plan = compile_join_plan(rule, delta_position, stats=stats)
        cache[key] = plan
        stats.cache_misses += 1
    else:
        stats.cache_hits += 1
    return plan


def plan_cache_size() -> int:
    return len(_PLAN_CACHE)


def plan_cache_evictions() -> int:
    """Process-lifetime LRU evictions from the shared plan cache."""
    return _PLAN_CACHE_EVICTIONS


def set_plan_cache_limit(limit: int) -> int:
    """Set the shared cache's LRU capacity; returns the previous limit.

    Mainly a test hook (the eviction regression suite shrinks the cache
    to force churn); shrinking evicts immediately, oldest first.
    """
    global _PLAN_CACHE_MAX, _PLAN_CACHE_EVICTIONS
    previous = _PLAN_CACHE_MAX
    _PLAN_CACHE_MAX = max(1, limit)
    while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_CACHE_EVICTIONS += 1
    return previous


def hold_plans(clear: Callable[[], None]) -> None:
    """Register a table that keeps plans: :func:`clear_plan_cache` calls
    ``clear`` too."""
    _PLAN_HOLDERS.append(clear)


def clear_plan_cache() -> None:
    """Drop every compiled plan: this cache's and every holder's."""
    _PLAN_CACHE.clear()
    for clear in _PLAN_HOLDERS:
        clear()
