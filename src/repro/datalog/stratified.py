"""Stratified negation (the paper's Remark 4 extension).

The diagnosis program defines ``causal`` and ``notCausal`` positively,
noting that one of the two could be saved by using negation "with a
stratified flavor".  This module provides the machinery: stratification
of a program with negated body atoms, which
:class:`~repro.datalog.seminaive.SemiNaiveEvaluator` runs stratum by
stratum on its one scheduler.  The ablation A2 of DESIGN.md evaluates
the diagnosis encoding in both styles.

Stratifiability itself is a property of the predicate dependency graph,
so :func:`stratify` delegates to the analyzer's shared
:class:`repro.datalog.analysis.DependencyGraph` — one graph
implementation, and a non-stratifiable program is rejected with the
*full* negative cycle path, not just the offending edge.
"""

from __future__ import annotations

from repro.datalog.analysis import DependencyGraph, check_stratification
from repro.datalog.database import RelationKey
from repro.datalog.rule import Program
from repro.errors import ProgramAnalysisError


def stratify(program: Program) -> list[Program]:
    """Split ``program`` into strata; raises if not stratifiable.

    Each stratum is a sub-program whose negated body atoms refer only to
    relations fully defined in earlier strata.  Facts of EDB relations
    are placed in the first stratum.  Non-stratifiable programs raise
    :class:`ProgramAnalysisError` carrying the DD201 diagnostics, whose
    message traces the whole negative cycle.
    """
    graph = DependencyGraph(program)
    violations = check_stratification(program, graph)
    if violations:
        rendered = "\n".join(d.render() for d in violations)
        raise ProgramAnalysisError(
            f"program is not stratifiable:\n{rendered}", tuple(violations))

    # Stratum number = longest chain of negative edges below (computed by
    # fixpoint over components; Tarjan returns reverse topological order,
    # so dependencies come first).  EDB relations sit in the graph as
    # sink nodes and land harmlessly at level 0.
    stratum_of: dict[RelationKey, int] = {}
    for component in graph.components:
        level = 0
        for relation in component:
            for target in graph.positive.get(relation, ()):
                if target in stratum_of:
                    level = max(level, stratum_of[target])
            for target in graph.negative.get(relation, ()):
                if target in stratum_of:
                    level = max(level, stratum_of[target] + 1)
        for relation in component:
            stratum_of[relation] = level

    idb = program.idb_relations()
    highest = max((stratum_of[r] for r in idb), default=0)
    strata = [Program() for _ in range(highest + 1)]
    for fact in program.facts():
        target = stratum_of.get(fact.head.key(), 0)
        strata[target].add(fact)
    for rule in program.proper_rules():
        strata[stratum_of[rule.head.key()]].add(rule)
    return strata


def has_negation(program: Program) -> bool:
    """True when any rule carries a negated body atom."""
    return any(rule.negated for rule in program)
