"""Query-Sub-Query as a program rewriting (Figure 4 of the paper).

The crux of QSQ is to minimize the number of tuples derived by rewriting
the program, given a query, around *binding propagation*:

* for each adorned IDB relation ``R^ad`` an input relation ``in-R^ad``
  accumulates the demands (bound-argument tuples);
* for each rule and body position a *supplementary relation* ``sup_i_j``
  accumulates the variable bindings relevant at that position;
* each IDB body atom contributes a demand rule feeding the callee's input
  relation, and a join rule extending the supplementary relation.

Evaluating the rewritten program semi-naively *is* the QSQ evaluation:
it computes the correct answers while materializing only the demanded
portion of each relation, and -- unlike plain Datalog -- stays finite on
function-symbol programs whenever the demanded portion is finite
(Proposition 1 instantiates this for the diagnosis program).

The construction below generalizes the textbook one to function terms in
heads and bodies: a bound head position whose argument is a function term
binds all the term's variables (the demand tuple is ground, so matching
it against the pattern instantiates them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datalog.adornment import Adornment, adorned_name, input_name
from repro.datalog.atom import Atom, Inequality
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.naive import select
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.seminaive import EvaluationBudget, SemiNaiveEvaluator
from repro.datalog.term import Var, variables_of
from repro.utils.counters import Counters

AdornedKey = tuple[str, str | None, Adornment]


@dataclass
class QsqRewriting:
    """The result of rewriting a program for a query."""

    original: Program
    query: Query
    program: Program
    answer_atom: Atom
    seed: Atom | None
    adorned_relations: list[AdornedKey] = field(default_factory=list)
    sup_index: dict[str, tuple[Rule, Adornment, int]] = field(default_factory=dict)

    def sup_relation_names(self) -> list[str]:
        return sorted(self.sup_index)

    def relation_kinds(self) -> dict[str, str]:
        """Classify every rewritten relation: 'sup', 'input', 'adorned' or 'edb'."""
        kinds: dict[str, str] = {}
        for relation, peer, adornment in self.adorned_relations:
            kinds[adorned_name(relation, adornment)] = "adorned"
            kinds[input_name(relation, adornment)] = "input"
        for name in self.sup_index:
            kinds[name] = "sup"
        for relation, _peer in self.program.all_relations():
            kinds.setdefault(relation, "edb")
        return kinds


def qsq_rewrite(program: Program, query: Query) -> QsqRewriting:
    """Rewrite ``program`` for ``query`` following the QSQ construction."""
    idb = program.idb_relations()
    out = Program()
    rewriting = QsqRewriting(original=program, query=query, program=out,
                             answer_atom=query.atom, seed=None)

    query_key = (query.atom.relation, query.atom.peer)
    if query_key not in idb:
        # The query targets an EDB relation: nothing to rewrite.  Keep the
        # EDB fact rules so evaluation can still load them.
        for fact in program.facts():
            out.add(fact)
        return rewriting

    query_adornment = Adornment.from_atom(query.atom)
    rewriting.answer_atom = Atom(adorned_name(query.atom.relation, query_adornment),
                                 query.atom.args, query.atom.peer)
    seed_args = query_adornment.select_bound(query.atom.args)
    rewriting.seed = Atom(input_name(query.atom.relation, query_adornment),
                          seed_args, query.atom.peer)

    # Keep EDB facts available.
    for fact in program.facts():
        if fact.head.key() not in idb:
            out.add(fact)

    seen: set[AdornedKey] = set()
    agenda: list[AdornedKey] = [(query.atom.relation, query.atom.peer, query_adornment)]
    rule_counter = 0
    while agenda:
        entry = agenda.pop()
        if entry in seen:
            continue
        seen.add(entry)
        rewriting.adorned_relations.append(entry)
        relation, peer, adornment = entry
        for rule in program.rules_for(relation, peer):
            rule_counter += 1
            demands = _rewrite_rule(rule, adornment, rule_counter, idb, out, rewriting)
            for demanded in demands:
                if demanded not in seen:
                    agenda.append(demanded)
    return rewriting


def _rewrite_rule(rule: Rule, adornment: Adornment, rule_id: int, idb: set[RelationKey],
                  out: Program, rewriting: QsqRewriting) -> list[AdornedKey]:
    """Emit the rewritten rules for one (rule, adornment) pair.

    Returns the adorned IDB relations demanded by the rule body.
    """
    head = rule.head
    in_atom_args = adornment.select_bound(head.args)
    in_rel = input_name(head.relation, adornment)
    ans_rel = adorned_name(head.relation, adornment)

    if not rule.body:
        # An IDB fact (e.g. the unfolding-roots rules of Section 4.1):
        # answer the demand directly.
        out.add(Rule(Atom(ans_rel, head.args, head.peer),
                     [Atom(in_rel, in_atom_args, head.peer)]))
        return []

    demanded: list[AdornedKey] = []
    bound: set[Var] = set()
    for position in adornment.bound_positions():
        bound.update(variables_of(head.args[position]))

    order = _occurrence_order(rule)
    head_vars = set(head.variables())
    ineq_position = _inequality_positions(rule, bound)

    def sup_name(j: int) -> str:
        return f"sup_{rule_id}_{j}"

    def sup_args(available: set[Var], j: int) -> tuple[Var, ...]:
        needed = set(head_vars)
        for later_atom in rule.body[j:]:
            needed.update(later_atom.variables())
        for pos, constraints in ineq_position.items():
            if pos >= j:
                for constraint in constraints:
                    needed.update(constraint.variables())
        keep = available & needed
        return tuple(v for v in order if v in keep)

    # sup_0  <-  the demand.
    sup0_args = sup_args(bound, 0)
    out.add(Rule(Atom(sup_name(0), sup0_args),
                 [Atom(in_rel, in_atom_args, head.peer)],
                 ineq_position.get(-1, ())))
    rewriting.sup_index[sup_name(0)] = (rule, adornment, 0)

    available = set(bound)
    previous = Atom(sup_name(0), sup0_args)
    for j, body_atom in enumerate(rule.body, start=1):
        body_adornment = Adornment.from_atom(body_atom, available)
        if body_atom.key() in idb:
            # Demand rule: feed the callee's input relation.
            demand_args = body_adornment.select_bound(body_atom.args)
            out.add(Rule(Atom(input_name(body_atom.relation, body_adornment),
                              demand_args, body_atom.peer),
                         [previous]))
            demanded.append((body_atom.relation, body_atom.peer, body_adornment))
            join_atom = Atom(adorned_name(body_atom.relation, body_adornment),
                             body_atom.args, body_atom.peer)
        else:
            join_atom = body_atom
        available |= set(body_atom.variables())
        current = Atom(sup_name(j), sup_args(available, j))
        out.add(Rule(current, [previous, join_atom], ineq_position.get(j - 1, ())))
        rewriting.sup_index[sup_name(j)] = (rule, adornment, j)
        previous = current

    out.add(Rule(Atom(ans_rel, head.args, head.peer), [previous]))
    return demanded


def _occurrence_order(rule: Rule) -> list[Var]:
    """Variables of the rule in first-occurrence order (head, then body)."""
    order: list[Var] = []
    seen: set[Var] = set()
    for var in rule.head.variables():
        if var not in seen:
            seen.add(var)
            order.append(var)
    for atom in rule.body:
        for var in atom.variables():
            if var not in seen:
                seen.add(var)
                order.append(var)
    return order


def _inequality_positions(rule: Rule,
                          initially_bound: set[Var]) -> dict[int, tuple[Inequality, ...]]:
    """Attach each inequality to the earliest body position where it is ground.

    Position ``-1`` means "decidable from the demand alone" (attached to
    the sup_0 rule); position ``j`` (0-based) means "after matching body
    atom j" (attached to the sup_{j+1} join rule).
    """
    placement: dict[int, list[Inequality]] = {}
    remaining = list(rule.inequalities)
    available = set(initially_bound)
    here = [c for c in remaining if set(c.variables()) <= available]
    if here:
        placement[-1] = here
        remaining = [c for c in remaining if c not in here]
    for j, atom in enumerate(rule.body):
        available |= set(atom.variables())
        here = [c for c in remaining if set(c.variables()) <= available]
        if here:
            placement[j] = here
            remaining = [c for c in remaining if c not in here]
    return {k: tuple(v) for k, v in placement.items()}


@dataclass
class QsqResult:
    """Answers plus instrumentation from a QSQ evaluation."""

    answers: set[Fact]
    rewriting: QsqRewriting
    database: Database
    counters: Counters

    def materialized_by_kind(self) -> dict[str, int]:
        """Facts materialized, grouped by relation kind (sup/input/adorned/edb)."""
        kinds = self.rewriting.relation_kinds()
        totals: dict[str, int] = {}
        for (relation, _peer), count in self.database.snapshot_counts().items():
            kind = kinds.get(relation, "edb")
            totals[kind] = totals.get(kind, 0) + count
        return totals


def qsq_evaluate(program: Program, query: Query, db: Database | None = None,
                 budget: EvaluationBudget | None = None,
                 in_place: bool = False, check: bool = True) -> QsqResult:
    """Rewrite ``program`` for ``query`` and evaluate semi-naively.

    ``db`` holds the EDB facts (program fact-rules are loaded too).  By
    default the database is copied so the caller's store is untouched.
    """
    if check:
        from repro.datalog.analysis import check_program
        check_program(program, query, context="qsq",
                      depth_bounded=(budget is not None
                                     and budget.max_term_depth is not None))
    rewriting = qsq_rewrite(program, query)
    work_db = db if (db is not None and in_place) else (db.copy() if db is not None else Database())
    if rewriting.seed is not None:
        work_db.add_atom(rewriting.seed)
    # The rewriting is machine-generated from an already-checked program.
    evaluator = SemiNaiveEvaluator(rewriting.program, budget, check=False)
    evaluator.run(work_db)
    answers = select(work_db, rewriting.answer_atom)
    counters = Counters()
    counters.merge(evaluator.counters)
    counters.add("qsq_rewritten_rules", len(rewriting.program.rules))
    counters.add("qsq_adorned_relations", len(rewriting.adorned_relations))
    return QsqResult(answers=answers, rewriting=rewriting, database=work_db,
                     counters=counters)
