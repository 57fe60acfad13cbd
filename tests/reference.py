"""The reference interpreter: the oracle the join plans are tested against.

A rule body is matched left to right (the paper's sideways-information
passing order) with a fresh ``dict`` binding per candidate fact and
generic term matching; inequalities are checked as soon as both sides
are ground, and negated atoms once all their variables are bound.  It
shares no code with :mod:`repro.datalog.plan` or
:mod:`repro.datalog.batch` beyond the term and fact store types, which
is the point: :func:`reference_model` is a stratified naive fixpoint
over it, slow and obviously right.

Also here: :func:`methods_that_answer`, the cross-solver check of
``repro.diagnose`` against the brute-force diagnoser.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import pytest

import repro
from repro.api import DiagnosisOutcome
from repro.datalog import plan
from repro.datalog.atom import Atom, Inequality
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.rule import Program, Rule
from repro.datalog.seminaive import EvaluationBudget
from repro.datalog.stratified import stratify
from repro.datalog.term import Term, Var
from repro.datalog.unify import match_tuple
from repro.diagnosis import AlarmSequence, ObservationSpec
from repro.errors import DiagnosisError
from repro.petri.net import PetriNet


def iter_rule_bindings(rule: Rule, db: Database,
                       initial: Mapping[Var, Term] | None = None,
                       delta_position: int | None = None,
                       delta_facts: Sequence[Fact] | None = None,
                       negation_db: Database | None = None) -> Iterator[dict[Var, Term]]:
    """Yield all bindings of ``rule``'s body variables against ``db``.

    When ``delta_position`` is given, the atom at that body position is
    matched only against ``delta_facts`` (semi-naive restriction); all
    other atoms are matched against the full ``db``.

    Negated atoms are checked against ``negation_db`` (default ``db``)
    after the positive body is fully matched -- valid because stratified
    evaluation guarantees the negated relations are already complete.
    """
    pending = _order_inequalities(rule)
    neg_db = negation_db if negation_db is not None else db

    def recurse(position: int, binding: dict[Var, Term]) -> Iterator[dict[Var, Term]]:
        if position == len(rule.body):
            for atom in rule.negated:
                ground = atom.substitute(binding)
                if neg_db.contains_atom(ground):
                    return
            yield binding
            return
        atom = rule.body[position]
        if delta_position is not None and position == delta_position:
            source: Sequence[Fact] = delta_facts or ()
        else:
            source = db.candidates(atom.key(), atom.args, binding)
        for fact in source:
            extended = dict(binding)
            if not match_tuple(atom.args, fact, extended):
                continue
            if not _inequalities_hold(pending.get(position, ()), extended):
                continue
            yield from recurse(position + 1, extended)

    start = dict(initial) if initial else {}
    if not _inequalities_hold(pending.get(-1, ()), start):
        return
    yield from recurse(0, start)


def _order_inequalities(rule: Rule) -> dict[int, tuple[Inequality, ...]]:
    """Assign each inequality to the earliest body position binding its vars.

    Position ``-1`` holds constraints that are ground from the start (or
    become ground via the initial binding -- checked opportunistically).
    """
    seen: set[Var] = set()
    placement: dict[int, list[Inequality]] = {}
    remaining = list(rule.inequalities)
    ground_now = [c for c in remaining if not set(c.variables())]
    if ground_now:
        placement[-1] = ground_now
        remaining = [c for c in remaining if set(c.variables())]
    for position, atom in enumerate(rule.body):
        seen.update(atom.variables())
        here = [c for c in remaining if set(c.variables()) <= seen]
        if here:
            placement[position] = here
            remaining = [c for c in remaining if c not in here]
    # Anything left mentions variables not in the body; Rule validation
    # rejects that, so ``remaining`` is empty here.
    return {k: tuple(v) for k, v in placement.items()}


def _inequalities_hold(constraints: Sequence[Inequality],
                       binding: Mapping[Var, Term]) -> bool:
    for constraint in constraints:
        if constraint.is_decidable(binding) and not constraint.holds(binding):
            return False
    return True


def derive_head(rule: Rule, binding: Mapping[Var, Term]) -> Atom:
    """Instantiate the rule head under a complete body binding."""
    return rule.head.substitute(binding)


def reference_model(program: Program, db: Database | None = None,
                    budget: EvaluationBudget | None = None) -> Database:
    """The program's model over ``db``, stratum by stratum, naively.

    Every rule of a stratum is re-fired against the whole store until a
    full pass adds nothing.  ``budget`` contributes only its depth
    bound (``prune_depth`` drops over-deep heads, as the engines do).
    """
    db = db.copy() if db is not None else Database()
    budget = budget or EvaluationBudget()
    for stratum in stratify(program):
        for fact in stratum.facts():
            db.add_atom(fact.head)
        rules = list(stratum.proper_rules())
        changed = True
        while changed:
            changed = False
            for rule in rules:
                heads = [derive_head(rule, binding)
                         for binding in iter_rule_bindings(rule, db)]
                for head in heads:
                    if budget.prunes_fact(head.args):
                        continue
                    if db.add_atom(head):
                        changed = True
    return db


def snapshot(db: Database) -> dict[RelationKey, frozenset[Fact]]:
    """The non-empty relations of ``db`` as comparable fact sets."""
    return {key: frozenset(db.facts(key)) for key in db.relations()
            if db.facts(key)}


# -- forcing a side of JoinPlan.fire's executor choice ----------------------------

#: the two extremes (never / always the generated kernel), then the
#: shipped constant
EXECUTOR_SETTINGS = {"interpreter": sys.maxsize, "kernel": 0,
                     "default": plan.KERNEL_AFTER_ROWS}

T = TypeVar("T")


@contextmanager
def pinned_executor(threshold: int) -> Iterator[None]:
    """Pin ``plan.KERNEL_AFTER_ROWS`` -- the only way to force a side.

    Promotion state lives on the plans in the shared cache, so the cache
    is cleared on the way in (a plan promoted earlier would keep its
    kernel whatever the constant says) and on the way out.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plan, "KERNEL_AFTER_ROWS", threshold)
        plan.clear_plan_cache()
        try:
            yield
        finally:
            plan.clear_plan_cache()


def at_each_setting(run: Callable[[], T]) -> T:
    """Run ``run()`` at every executor setting; all results must agree."""
    results = {}
    for name, threshold in EXECUTOR_SETTINGS.items():
        with pinned_executor(threshold):
            results[name] = run()
    assert results["interpreter"] == results["kernel"], "executors diverge"
    assert results["default"] == results["kernel"], "default diverges"
    return results["default"]


def ordered_snapshot(db: Database) -> dict[RelationKey, tuple[Fact, ...]]:
    """Like :func:`snapshot`, keeping insertion order: the simulator's
    schedule follows it, so the executors must agree on it too."""
    return {key: tuple(db.facts(key)) for key in db.relations()
            if db.facts(key)}


def unordered(ordered: dict[RelationKey, tuple[Fact, ...]],
              ) -> dict[RelationKey, frozenset[Fact]]:
    """An :func:`ordered_snapshot` in :func:`snapshot` form."""
    return {key: frozenset(rows) for key, rows in ordered.items()}


def methods_that_answer(petri: PetriNet,
                        observation: AlarmSequence | ObservationSpec,
                        ) -> dict[str, DiagnosisOutcome]:
    """Ask every :class:`~repro.api.DiagnosisMethod` the one question.

    A method either answers -- then completely, and with brute force's
    diagnosis set (the oracle that shares nothing with the product
    construction or the Datalog encoding) -- or refuses with
    :class:`~repro.errors.DiagnosisError`.  Returns who answered what.

    ``bottomup`` builds the unfolding breadth-first and stops only at a
    term-depth bound, so it gets the one the observation's event bound
    implies (an ``f``/``g`` level pair per causal ancestor).
    """
    spec = ObservationSpec.coerce(observation, petri.net)
    depth = 2 * spec.event_bound(petri.net)[0] + 2
    bounded = repro.RunConfig(budget=EvaluationBudget(
        max_term_depth=depth, prune_depth=True))
    expected = repro.diagnose(petri, observation, method="bruteforce").diagnoses
    answered = {}
    for method in repro.DiagnosisMethod:
        config = bounded if method is repro.DiagnosisMethod.BOTTOMUP else None
        try:
            outcome = repro.diagnose(petri, observation, method=method,
                                     config=config)
        except DiagnosisError:
            continue
        assert outcome.diagnoses == expected, method.value
        assert outcome.partial is False, method.value
        answered[method.value] = outcome
    return answered
