"""Magic Sets rewriting (Bancilhon–Maier–Sagiv–Ullman, PODS 1986).

The paper names Magic Sets as the sibling of QSQ ("two main, closely
related, optimization techniques ... that both aim at minimizing the
quantity of data that is materialized").  We implement the classical
variant *without* supplementary relations: each rule is guarded by a
magic predicate over its bound head variables, and each IDB body atom
gets a magic rule re-joining the prefix of the body.  Compared with the
supplementary-relation form (our QSQ), prefix joins are recomputed per
body atom -- the ablation A4 in DESIGN.md measures the difference.
"""

from __future__ import annotations

from repro.datalog.adornment import Adornment, adorned_name
from repro.datalog.atom import Atom
from repro.datalog.database import Database, Fact
from repro.datalog.qsq import (AdornedKey, DemandRewriting,
                               _inequality_positions, demand_rewrite,
                               evaluate_rewriting)
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.seminaive import EvaluationBudget
from repro.datalog.term import Var, variables_of
from repro.utils.counters import Counters


def magic_name(relation: str, adornment: Adornment) -> str:
    """Name of the magic (demand) relation for an adorned relation."""
    return f"magic-{relation}^{adornment}"


def magic_rewrite(program: Program, query: Query) -> DemandRewriting:
    """Rewrite ``program`` for ``query`` with classical Magic Sets."""
    return demand_rewrite(
        DemandRewriting(program, query, Program(), query.atom, None),
        magic_name, _rewrite_rule)


def _rewrite_rule(rule: Rule, adornment: Adornment, _rule_id: int, idb: set,
                  rewriting: DemandRewriting) -> list[AdornedKey]:
    out = rewriting.program
    head = rule.head
    magic_atom = Atom(magic_name(head.relation, adornment),
                      adornment.select_bound(head.args), head.peer)

    bound: set[Var] = set()
    for position in adornment.bound_positions():
        bound.update(variables_of(head.args[position]))

    if not rule.body:
        out.add(Rule(Atom(adorned_name(head.relation, adornment), head.args, head.peer),
                     [magic_atom]))
        return []

    demanded: list[AdornedKey] = []
    ineq_position = _inequality_positions(rule.body, rule.inequalities, bound)

    # The guarded answer rule: magic guard + adorned body.
    available = set(bound)
    guarded_body: list[Atom] = [magic_atom]
    for body_atom in rule.body:
        body_adornment = Adornment.from_atom(body_atom, available)
        if body_atom.key() in idb:
            guarded_body.append(Atom(adorned_name(body_atom.relation, body_adornment),
                                     body_atom.args, body_atom.peer))
        else:
            guarded_body.append(body_atom)
        available |= set(body_atom.variables())
    out.add(Rule(Atom(adorned_name(head.relation, adornment), head.args, head.peer),
                 guarded_body, rule.inequalities))

    # One magic rule per IDB body atom: magic of callee from guard + prefix.
    available = set(bound)
    prefix: list[Atom] = [magic_atom]
    for j, body_atom in enumerate(rule.body):
        body_adornment = Adornment.from_atom(body_atom, available)
        if body_atom.key() in idb:
            demand_args = body_adornment.select_bound(body_atom.args)
            prefix_inequalities = [c for pos, constraints in ineq_position.items()
                                   if -1 <= pos < j for c in constraints]
            out.add(Rule(Atom(magic_name(body_atom.relation, body_adornment),
                              demand_args, body_atom.peer),
                         list(prefix), prefix_inequalities))
            demanded.append((body_atom.relation, body_atom.peer, body_adornment))
            prefix.append(Atom(adorned_name(body_atom.relation, body_adornment),
                               body_atom.args, body_atom.peer))
        else:
            prefix.append(body_atom)
        available |= set(body_atom.variables())
    return demanded


def magic_evaluate(program: Program, query: Query, db: Database | None = None,
                   budget: EvaluationBudget | None = None,
                   check: bool = True) -> tuple[set[Fact], Counters, Database]:
    """Rewrite with Magic Sets and evaluate semi-naively; returns answers."""
    _rewriting, answers, work_db, counters = evaluate_rewriting(
        magic_rewrite, "magic", program, query, db, budget, check)
    return answers, counters, work_db
