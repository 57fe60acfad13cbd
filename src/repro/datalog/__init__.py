"""dDatalog: Datalog with function symbols and located (``R@peer``) atoms.

This package implements the deductive-database substrate of the paper
(Section 3): terms with function symbols, rules with inequality
constraints, one semi-naive bottom-up fixpoint, adornments, and the
Query-Sub-Query rewriting of Figure 4, which that fixpoint evaluates.
Stratified negation (Remark 4) runs the same fixpoint stratum by
stratum.  The distributed extensions (dDatalog programs spread over
peers, dQSQ) live in :mod:`repro.distributed`.
"""

from repro.datalog.term import Const, Var, Func, Term
from repro.datalog.atom import Atom, Inequality
from repro.datalog.rule import Rule, Program, Query
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_rule, parse_atom, parse_term
from repro.datalog.seminaive import SemiNaiveEvaluator, EvaluationBudget
from repro.datalog.adornment import Adornment
from repro.datalog.qsq import QsqRewriting, qsq_rewrite, qsq_evaluate
from repro.datalog.plan import (JoinPlan, compile_join_plan, clear_plan_cache,
                                plan_cache_size)
from repro.datalog.analysis import (AnalysisReport, DependencyGraph, Diagnostic,
                                    analyze, check_program)
from repro.datalog.stratified import StratifiedEvaluator, has_negation, stratify

__all__ = [
    "Const", "Var", "Func", "Term",
    "Atom", "Inequality",
    "Rule", "Program", "Query",
    "Database",
    "parse_program", "parse_rule", "parse_atom", "parse_term",
    "SemiNaiveEvaluator", "EvaluationBudget",
    "Adornment",
    "QsqRewriting", "qsq_rewrite", "qsq_evaluate",
    "JoinPlan", "compile_join_plan", "clear_plan_cache", "plan_cache_size",
    "AnalysisReport", "DependencyGraph", "Diagnostic",
    "analyze", "check_program",
    "StratifiedEvaluator", "has_negation", "stratify",
]
