"""Static cost and cardinality analysis (the DD8xx family).

The DD101-DD703 passes in :mod:`repro.datalog.analysis` prove
*correctness* properties; this module predicts *expense*.  It is an
abstract interpretation over the shared :class:`DependencyGraph`: every
relation gets an abstract cardinality (:class:`Card`) -- an estimated
tuple count plus a polynomial growth degree in the instance size --
propagated SCC-by-SCC in dependency order:

* EDB relations take their measured size from a :class:`Database`
  (per-position distinct counts feed System-R style selectivities), or
  the symbolic size ``n`` when no database is supplied;
* non-recursive IDB relations take the union of their rules' join
  estimates, capped by the active-domain universe ``D^arity``;
* recursive SCCs take the fixpoint bound ``D^arity`` outright -- the
  classic polynomial bound for function-free Datalog -- and SCCs that
  grow function terms (the DD301 shape) are unbounded unless a
  Section-4.4 depth bound is declared, in which case a depth-discounted
  term universe stands in for ``D``.

:func:`estimate_rule` walks a join order exactly like
:class:`repro.datalog.plan.JoinPlan` executes one (same binding
propagation, same indexability rule), so its per-step ``cost`` predicts
the ``plan.bindings_explored`` counter -- the quantity the benchmark
gate checks predictions against.  On top of the estimator sit the
:class:`PlanAdvisor` (DD805's search for a cheaper join order) and the
DD801-DD805 diagnostics (:func:`check_cost`).  No run is admitted or
refused on these figures: docs/cost.md records the measurement that
ruled a static admission gate out.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.datalog.adornment import adorn_program
from repro.datalog.analysis import (DependencyGraph, Diagnostic, RelationKey,
                                    make_diagnostic)
from repro.datalog.plan import _arg_bound, _order_body
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.term import Func, Term, Var, variables_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.datalog.database import Database

#: symbolic instance size when no database statistics are available
DEFAULT_SYMBOLIC_N = 1000.0
#: nominal unfolding depth assumed by ``depth_bounded=True`` without a
#: concrete :class:`~repro.datalog.seminaive.EvaluationBudget` depth
DEFAULT_DEPTH_BOUND = 4

_INF = float("inf")


@dataclass(frozen=True)
class Card:
    """An abstract cardinality: estimated count plus growth degree.

    ``count`` is the expected number of tuples (``inf`` = unbounded);
    ``degree`` is the exponent of the bound as a polynomial in the
    instance-size parameter (EDB relations are degree 1, the
    transitive-closure fixpoint is degree 2, and so on).  The two travel
    together because measured counts answer "how expensive *now*" while
    degrees answer "how does it scale" -- DD802/DD804 gate on degrees,
    DD801/DD803/DD805 on counts.
    """

    count: float
    degree: float

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.count)

    def times(self, other: "Card") -> "Card":
        """Product bound (join): counts multiply, degrees add."""
        if self.count == 0.0 or other.count == 0.0:
            return Card(0.0, 0.0)
        return Card(self.count * other.count, self.degree + other.degree)

    def plus(self, other: "Card") -> "Card":
        """Union bound: counts add, degrees take the max."""
        return Card(self.count + other.count, max(self.degree, other.degree))

    def cap(self, other: "Card") -> "Card":
        """The tighter of two bounds, component-wise."""
        return Card(min(self.count, other.count),
                    min(self.degree, other.degree))

    def render(self, symbolic: bool = False) -> str:
        if self.unbounded:
            return "unbounded"
        if symbolic:
            if self.degree <= 0:
                return "O(1)"
            exponent = (f"{self.degree:g}" if self.degree != 1 else "")
            return f"O(n{'^' + exponent if exponent else ''})"
        return f"~{self.count:.3g}"

    def __str__(self) -> str:
        return self.render()


ZERO = Card(0.0, 0.0)
ONE = Card(1.0, 0.0)
UNBOUNDED = Card(_INF, _INF)


@dataclass(frozen=True)
class RelationStats:
    """Measured EDB statistics: fact count + per-position distributions."""

    count: int
    distinct: tuple[int, ...]
    #: heaviest value frequency per position (1 when perfectly uniform
    #: spread over ``distinct`` values; ``count`` when one value repeats)
    heavy: tuple[int, ...] = ()


@dataclass(frozen=True)
class StepEstimate:
    """Predicted behaviour of one join step under a given order."""

    #: index of the atom in ``rule.body`` (written position)
    position: int
    key: RelationKey
    #: argument positions an index probe can use (plan's ``_arg_bound``)
    indexable: tuple[int, ...]
    #: size bound of the scanned relation
    relation: Card
    #: partial bindings entering this step
    inputs: Card
    #: expected matches per probe after bound-position selectivities
    matches: Card
    #: rows read per probe: the index bucket, or the full relation
    scanned: Card
    #: total rows read at this step (inputs x scanned); the step's
    #: predicted share of ``plan.bindings_explored``
    cost: Card


@dataclass(frozen=True)
class RuleEstimate:
    """Cost estimate for one rule under one join order."""

    rule: Rule
    order: tuple[int, ...]
    steps: tuple[StepEstimate, ...]
    #: complete body bindings (the rule's predicted ``derivations``)
    bindings: Card
    #: distinct head tuples (bindings capped by the head universe)
    output: Card
    #: total predicted rows read (predicted ``plan.bindings_explored``)
    cost: Card


def _grows_terms(rule: Rule, graph: DependencyGraph, component: int) -> bool:
    """The DD301 shape: head nests an in-SCC variable inside a function."""
    in_scc: set[Var] = set()
    for atom in rule.body:
        if graph.component_of.get(atom.key()) == component:
            in_scc.update(atom.variables())
    if not in_scc:
        return False
    for arg in rule.head.args:
        if isinstance(arg, Func) and any(v in in_scc
                                         for v in variables_of(arg)):
            return True
    return False


def _function_names(program: Program) -> set[str]:
    names: set[str] = set()

    def visit(term: Term) -> None:
        if isinstance(term, Func):
            names.add(term.name)
            for sub in term.args:
                visit(sub)

    for rule in program:
        for atom in (rule.head, *rule.body, *rule.negated):
            for arg in atom.args:
                visit(arg)
    return names


class CostModel:
    """Per-relation cardinality bounds for a program.

    Construct with a :class:`Database` for measured EDB statistics, with
    ``symbolic_n`` alone for symbolic ``n^k`` bounds, or via
    :meth:`from_program` to seed the statistics from the program's own
    facts (what ``repro lint --cost`` does for ``.dl`` files).
    ``max_term_depth`` declares a Section-4.4 depth bound, making
    function-growing SCCs finite (a depth-discounted term universe).

    ``measured=True`` declares the database to be a *materialized
    fixpoint* rather than an EDB: every relation with facts in it --
    IDB included -- is anchored at its measured count instead of a
    derived bound.  That is the post-hoc validation mode the benchmark
    runner uses to compare predicted rule costs against observed
    ``plan.*`` counters.
    """

    def __init__(self, program: Program, *,
                 database: "Database | None" = None,
                 symbolic_n: float = DEFAULT_SYMBOLIC_N,
                 max_term_depth: int | None = None,
                 measured: bool = False,
                 graph: DependencyGraph | None = None) -> None:
        self.program = program
        self.graph = graph if graph is not None else DependencyGraph(program)
        self.symbolic = database is None
        self.size_param = float(symbolic_n)
        self.max_term_depth = max_term_depth
        self.measured = measured and database is not None
        self._stats: dict[RelationKey, RelationStats] = {}
        self._arity: dict[RelationKey, int] = {}
        for rule in program:
            for atom in (rule.head, *rule.body, *rule.negated):
                self._arity.setdefault(atom.key(), atom.arity)
        if database is not None:
            constants: set[Term] = set()
            for key in database.relations():
                facts = database.facts(key)
                if not facts:
                    continue
                arity = len(facts[0])
                distinct = tuple(len({f[i] for f in facts})
                                 for i in range(arity))
                heavy = tuple(max(Counter(f[i] for f in facts).values())
                              for i in range(arity))
                self._stats[key] = RelationStats(len(facts), distinct, heavy)
                for fact in facts:
                    constants.update(fact)
            self.domain = float(max(2, len(constants)))
        else:
            self.domain = self.size_param
        self._functions = len(_function_names(program))
        self._cards: dict[RelationKey, Card] = {}
        self._recursive = self.graph.recursive_relations()
        self._build()

    @classmethod
    def from_program(cls, program: Program, *,
                     symbolic_n: float = DEFAULT_SYMBOLIC_N,
                     max_term_depth: int | None = None,
                     graph: DependencyGraph | None = None) -> "CostModel":
        """Statistics from the program's own facts; symbolic if it has none."""
        from repro.datalog.database import Database
        db = Database()
        have_facts = False
        for fact in program.facts():
            db.add_atom(fact.head)
            have_facts = True
        return cls(program, database=db if have_facts else None,
                   symbolic_n=symbolic_n, max_term_depth=max_term_depth,
                   graph=graph)

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        idb = self.graph.idb
        for index, component in enumerate(self.graph.components):
            node = component[0]
            recursive = (len(component) > 1
                         or node in self.graph.successors(node))
            if not recursive:
                for key in component:
                    if self.measured and key in self._stats:
                        self._cards[key] = self._edb_card(key)
                    elif key in idb:
                        self._cards[key] = self._nonrecursive_card(key)
                    else:
                        self._cards[key] = self._edb_card(key)
                continue
            growing = any(
                _grows_terms(rule, self.graph, index)
                for key in component
                for rule in self.program.rules_for(*key)
                if not rule.is_fact())
            for key in component:
                if self.measured and key in self._stats:
                    self._cards[key] = self._edb_card(key)
                else:
                    self._cards[key] = self._fixpoint_cap(key, growing)

    def _edb_card(self, key: RelationKey) -> Card:
        if self.symbolic:
            return Card(self.size_param, 1.0)
        stats = self._stats.get(key)
        if stats is None or stats.count == 0:
            return ZERO
        return Card(float(stats.count), 1.0)

    def _nonrecursive_card(self, key: RelationKey) -> Card:
        total = self._edb_card(key)
        capped = True
        for rule in self.program.rules_for(*key):
            if rule.is_fact():
                continue
            estimate = estimate_rule(rule, self)
            total = total.plus(estimate.output)
            if _head_builds_terms(rule):
                capped = False
        if capped:
            total = total.cap(self.universe(self._arity.get(key, 0)))
        return total

    def _fixpoint_cap(self, key: RelationKey, growing: bool) -> Card:
        arity = self._arity.get(key, 0)
        if not growing:
            return self.universe(arity)
        if self.max_term_depth is None:
            return UNBOUNDED
        # Depth-discounted term universe: with s function symbols and a
        # depth bound d, D * (s + 1)^d stands in for the active domain.
        # A deliberate under-count of the true depth-d term universe
        # (which is doubly exponential); what the DD8xx passes need is a
        # finite figure monotone in the instance, not a tight bound.
        terms = self.domain * float(self._functions + 1) ** self.max_term_depth
        return Card(terms ** max(1, arity), float(max(1, arity)))

    # -- queries -----------------------------------------------------------

    def card(self, key: RelationKey) -> Card:
        got = self._cards.get(key)
        if got is not None:
            return got
        return self._edb_card(key)

    def distinct(self, key: RelationKey, position: int) -> float:
        """Distinct values at an argument position (selectivity divisor)."""
        stats = self._stats.get(key)
        if stats is not None and position < len(stats.distinct):
            return float(max(1, stats.distinct[position]))
        card = self.card(key)
        if card.unbounded:
            return self.domain
        return max(1.0, min(card.count, self.domain))

    def bucket(self, key: RelationKey, position: int) -> float:
        """Expected index-bucket size when probing ``position``.

        The geometric mean of the average bucket (``count / distinct``,
        the uniformity assumption) and the heaviest bucket: probe values
        arrive from joins, which are biased toward heavy hitters, so on
        skewed positions the average alone under-predicts.  On uniform
        data the two coincide and this reduces to ``count / distinct``.
        """
        stats = self._stats.get(key)
        if stats is None:
            return max(1.0, self.card(key).count / self.distinct(key,
                                                                 position))
        average = stats.count / max(1, stats.distinct[position])
        heaviest = float(stats.heavy[position]
                         if position < len(stats.heavy) else average)
        return max(1.0, math.sqrt(average * heaviest))

    def universe(self, arity: int) -> Card:
        """The active-domain universe ``D^arity``."""
        if arity <= 0:
            return ONE
        return Card(self.domain ** arity, float(arity))

    def recursive(self, key: RelationKey) -> bool:
        return key in self._recursive

    def total_facts(self) -> Card:
        """Fixpoint-size bound: every relation's bound summed."""
        total = ZERO
        for card in self._cards.values():
            total = total.plus(card)
        return total


def _head_builds_terms(rule: Rule) -> bool:
    """Whether the head constructs function terms (escapes the universe)."""
    return any(isinstance(arg, Func) for arg in rule.head.args)


def estimate_rule(rule: Rule, model: CostModel, *,
                  order: tuple[int, ...] | None = None,
                  delta_position: int | None = None) -> RuleEstimate:
    """Estimate one rule's join under ``order`` (default: the plan order).

    Mirrors :meth:`JoinPlan.bindings` step by step: per step, the rows
    read per probe are the index bucket (bound positions divide by their
    distinct counts) or the full relation when nothing is bound; the
    step's cost is that times the partial bindings entering it, which is
    exactly what ``plan.bindings_explored`` accumulates.

    Multi-position probes use exponential backoff rather than full
    independence: selectivities are applied most-selective-first with
    exponents 1, 1/2, 1/4, ... -- pure multiplication badly
    under-predicts matches when bound positions are correlated (in the
    diagnosis encoding they almost always are: the unfolding-node id
    determines its place and its configuration).
    """
    body = rule.body
    if order is None:
        order = tuple(_order_body(rule, delta_position))
    bound: set[Var] = set()
    bindings = ONE
    total = ZERO
    steps: list[StepEstimate] = []
    for position in order:
        atom = body[position]
        key = atom.key()
        relation = model.card(key)
        indexable = tuple(i for i, arg in enumerate(atom.args)
                          if _arg_bound(arg, bound))
        if relation.count == 0.0:
            matches = ZERO
        elif relation.unbounded:
            matches = Card(_INF, max(0.0, relation.degree - len(indexable)))
        else:
            fractions = sorted(min(1.0, model.bucket(key, i)
                                   / relation.count)
                               for i in indexable)
            selectivity = 1.0
            for rank, fraction in enumerate(fractions):
                selectivity *= fraction ** (0.5 ** rank)
            matches = Card(relation.count * selectivity,
                           max(0.0, relation.degree - len(indexable)))
        is_delta = position == delta_position
        scanned = matches if (indexable and not is_delta) else relation
        cost = bindings.times(scanned)
        steps.append(StepEstimate(
            position=position, key=key, indexable=indexable,
            relation=relation, inputs=bindings, matches=matches,
            scanned=scanned, cost=cost))
        total = total.plus(cost)
        bindings = bindings.times(matches)
        bound |= set(atom.variables())
    output = bindings
    if not _head_builds_terms(rule):
        output = output.cap(model.universe(rule.head.arity))
    return RuleEstimate(rule=rule, order=order, steps=tuple(steps),
                        bindings=bindings, output=output, cost=total)


# -- the plan advisor --------------------------------------------------------


@dataclass(frozen=True)
class PlanChoice:
    """The advisor's verdict for one ``(rule, delta_position)``."""

    order: tuple[int, ...]
    #: True when the cost-based order differs from the greedy default
    reordered: bool
    #: estimate under :attr:`order`
    predicted: RuleEstimate
    #: estimate under the greedy most-bound-first default order
    default: RuleEstimate


class PlanAdvisor:
    """The cost-based join order of a rule: DD805's search.

    Advice for the author, not a seam of the evaluators: a
    :class:`~repro.datalog.plan.JoinPlan` takes the advised order as
    ``order=``.  For bodies of up to :attr:`MAX_EXHAUSTIVE` atoms the
    search is exhaustive over permutations (the delta atom stays pinned
    first, semi-naive correctness); larger bodies fall back to a greedy
    cheapest-next-step construction.  The default greedy order wins ties
    so the advisor never reorders without a predicted strict win.
    """

    MAX_EXHAUSTIVE = 6

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self._choices: dict[tuple[Rule, int | None], PlanChoice] = {}

    def choice(self, rule: Rule, delta_position: int | None = None) -> PlanChoice:
        key = (rule, delta_position)
        got = self._choices.get(key)
        if got is None:
            got = self._search(rule, delta_position)
            self._choices[key] = got
        return got

    def _search(self, rule: Rule, delta_position: int | None) -> PlanChoice:
        default_order = tuple(_order_body(rule, delta_position))
        default = estimate_rule(rule, self.model, order=default_order,
                                delta_position=delta_position)
        free = [p for p in range(len(rule.body)) if p != delta_position]
        best_order, best = default_order, default
        if len(free) <= 1:
            return PlanChoice(order=default_order, reordered=False,
                              predicted=default, default=default)
        for order in self._candidates(free, delta_position, rule):
            if order == default_order:
                continue
            estimate = estimate_rule(rule, self.model, order=order,
                                     delta_position=delta_position)
            if estimate.cost.count < best.cost.count:
                best_order, best = order, estimate
        return PlanChoice(order=best_order, reordered=best_order != default_order,
                          predicted=best, default=default)

    def _candidates(self, free: list[int], delta_position: int | None,
                    rule: Rule) -> Iterator[tuple[int, ...]]:
        prefix = () if delta_position is None else (delta_position,)
        if len(free) <= self.MAX_EXHAUSTIVE:
            for perm in itertools.permutations(free):
                yield prefix + perm
            return
        yield prefix + self._greedy_by_cost(rule, free, delta_position)

    def _greedy_by_cost(self, rule: Rule, free: list[int],
                        delta_position: int | None) -> tuple[int, ...]:
        """Cheapest-next-step order for bodies too wide to enumerate."""
        bound: set[Var] = set()
        if delta_position is not None:
            bound.update(rule.body[delta_position].variables())
        remaining = list(free)
        order: list[int] = []
        while remaining:
            best_position = remaining[0]
            best_cost = _INF
            for position in remaining:
                atom = rule.body[position]
                key = atom.key()
                relation = self.model.card(key)
                indexable = [i for i, arg in enumerate(atom.args)
                             if _arg_bound(arg, bound)]
                if relation.count == 0.0:
                    cost = 0.0
                elif indexable and not relation.unbounded:
                    cost = relation.count
                    for i in indexable:
                        cost /= self.model.distinct(key, i)
                else:
                    cost = relation.count
                if cost < best_cost:
                    best_position, best_cost = position, cost
            order.append(best_position)
            remaining.remove(best_position)
            bound.update(rule.body[best_position].variables())
        return tuple(order)


# -- DD801-DD805 --------------------------------------------------------------


@dataclass(frozen=True)
class CostThresholds:
    """Tunable trip points for the DD8xx diagnostics."""

    #: DD801: matches per probe at a non-first step
    fanout: float = 8.0
    #: DD801: ignore relations smaller than this (noise floor)
    fanout_min_relation: float = 8.0
    #: DD802: SCC fixpoint degree that counts as quadratic-or-worse
    scc_degree: float = 2.0
    #: DD803: absolute shipped-tuple floor for a located rule
    broadcast_min: float = 16.0
    #: DD803: shipped tuples vs the rule's answers
    broadcast_ratio: float = 4.0
    #: DD804: degree of an all-free-demanded recursive relation
    demand_degree: float = 2.0
    #: DD805: default-order cost vs advised-order cost
    mismatch_factor: float = 4.0
    #: DD805: absolute default-order cost floor
    mismatch_min: float = 64.0


def _check_join_blowup(model: CostModel,
                       thresholds: CostThresholds) -> list[Diagnostic]:
    """DD801: a join step whose estimated fan-out multiplies bindings."""
    out: list[Diagnostic] = []
    for rule in model.program.proper_rules():
        if len(rule.body) < 2:
            continue
        estimate = estimate_rule(rule, model)
        for index, step in enumerate(estimate.steps):
            if index == 0 or step.inputs.count == 0.0:
                continue
            if not step.matches.unbounded and (
                    step.matches.count < thresholds.fanout
                    or step.relation.count < thresholds.fanout_min_relation):
                continue
            atom = rule.body[step.position]
            fanout = ("unbounded" if step.matches.unbounded
                      else f"~{step.matches.count:.3g}")
            out.append(make_diagnostic(
                "DD801",
                f"join step {index + 1} ({atom}) is estimated to match "
                f"{fanout} facts per probe (relation "
                f"{step.relation.render(model.symbolic)}): the join "
                f"multiplies the bindings reaching it by that factor",
                rule=rule,
                suggestion="join through a more selective shared variable, "
                           "or filter the relation before this step"))
            break
    return out


def _check_scc_bounds(model: CostModel,
                      thresholds: CostThresholds) -> list[Diagnostic]:
    """DD802: a recursive SCC with a quadratic-or-worse fixpoint bound."""
    out: list[Diagnostic] = []
    graph = model.graph
    for component in graph.components:
        node = component[0]
        if len(component) == 1 and node not in graph.successors(node):
            continue
        members = sorted(component, key=str)
        card = ZERO
        for key in members:
            card = card.plus(model.card(key))
        if not card.unbounded and card.degree < thresholds.scc_degree:
            continue
        anchor: Rule | None = None
        for key in members:
            for rule in model.program.rules_for(*key):
                if not rule.is_fact():
                    anchor = rule
                    break
            if anchor is not None:
                break
        names = ", ".join(k[0] if k[1] is None else f"{k[0]}@{k[1]}"
                          for k in members)
        if card.unbounded:
            detail = ("unbounded (function-term growth with no depth "
                      "bound; see DD301)")
            fix = ("evaluate demand-driven or declare a Section-4.4 depth "
                   "bound (EvaluationBudget(max_term_depth=...))")
        else:
            detail = (f"{card.render(True)}"
                      + ("" if model.symbolic
                         else f", {card.render(False)} on these statistics"))
            fix = ("expected for transitive-closure-shaped recursion; "
                   "bound the query (see DD804) if the full fixpoint is "
                   "not needed")
        out.append(make_diagnostic(
            "DD802",
            f"recursive SCC {{{names}}} has fixpoint-size bound {detail}",
            rule=anchor, suggestion=fix))
    return out


def _check_demand(model: CostModel, query: Query,
                  thresholds: CostThresholds) -> list[Diagnostic]:
    """DD804: the query demands a recursive relation with no bindings."""
    out: list[Diagnostic] = []
    seen: set[RelationKey] = set()
    for relation, peer, adornment in adorn_program(model.program, query.atom):
        key = (relation, peer)
        if key in seen or not adornment.is_all_free():
            continue
        if not model.recursive(key):
            continue
        card = model.card(key)
        if not card.unbounded and card.degree < thresholds.demand_degree:
            continue
        seen.add(key)
        rules = [r for r in model.program.rules_for(relation, peer)
                 if not r.is_fact()]
        name = relation if peer is None else f"{relation}@{peer}"
        out.append(make_diagnostic(
            "DD804",
            f"the query reaches recursive relation {name} with an all-free "
            f"binding pattern ({adornment}): demand-driven evaluation "
            f"(QSQ/magic) gets no restriction there and materializes the "
            f"full fixpoint ({card.render(model.symbolic)})",
            rule=rules[0] if rules else None,
            suggestion="bind at least one argument on the path to "
                       f"{name} in the query, or evaluate bottom-up where "
                       "the full fixpoint is wanted"))
    return out


def _check_order_mismatch(model: CostModel,
                          thresholds: CostThresholds) -> list[Diagnostic]:
    """DD805: cost-based order beats the structural greedy order."""
    out: list[Diagnostic] = []
    advisor = PlanAdvisor(model)
    for rule in model.program.proper_rules():
        if len(rule.body) < 2:
            continue
        choice = advisor.choice(rule, None)
        if not choice.reordered:
            continue
        default_cost = choice.default.cost.count
        best_cost = choice.predicted.cost.count
        if math.isinf(default_cost) and math.isinf(best_cost):
            continue
        if not math.isinf(default_cost):
            if default_cost < thresholds.mismatch_min:
                continue
            if default_cost < thresholds.mismatch_factor * max(best_cost, 1.0):
                continue
        advised = ", ".join(str(rule.body[p]) for p in choice.order)
        ratio = ("inf" if math.isinf(default_cost)
                 else f"~{default_cost / max(best_cost, 1.0):.0f}x")
        out.append(make_diagnostic(
            "DD805",
            f"the default most-bound-first join order is predicted {ratio} "
            f"more expensive than the cost-based order ({advised}): the "
            f"structural heuristic disagrees with the cardinality "
            f"estimates",
            rule=rule,
            suggestion="reorder the body atoms as advised"))
    return out


def check_cost(program: Program, query: Query | None = None, *,
               database: "Database | None" = None,
               symbolic_n: float = DEFAULT_SYMBOLIC_N,
               depth_bounded: bool = False,
               max_term_depth: int | None = None,
               thresholds: CostThresholds | None = None,
               graph: DependencyGraph | None = None) -> list[Diagnostic]:
    """Run the cost passes; returns DD801-DD805 diagnostics.

    With ``database=None`` the model seeds EDB statistics from the
    program's own facts, falling back to symbolic ``n^k`` bounds when it
    has none.  ``depth_bounded`` (without an explicit
    ``max_term_depth``) assumes the nominal
    :data:`DEFAULT_DEPTH_BOUND`.
    """
    thresholds = thresholds or CostThresholds()
    if max_term_depth is None and depth_bounded:
        max_term_depth = DEFAULT_DEPTH_BOUND
    if database is None:
        model = CostModel.from_program(program, symbolic_n=symbolic_n,
                                       max_term_depth=max_term_depth,
                                       graph=graph)
    else:
        model = CostModel(program, database=database, symbolic_n=symbolic_n,
                          max_term_depth=max_term_depth, graph=graph)
    out: list[Diagnostic] = []
    out += _check_join_blowup(model, thresholds)
    out += _check_scc_bounds(model, thresholds)
    if program.peers():
        # The located-rule pass lives with the distributed layer, like
        # check_locality; the lazy import keeps repro.datalog cycle-free.
        from repro.distributed.analysis import check_broadcast
        out += check_broadcast(program, model, thresholds)
    if query is not None:
        out += _check_demand(model, query, thresholds)
    out += _check_order_mismatch(model, thresholds)
    return out

