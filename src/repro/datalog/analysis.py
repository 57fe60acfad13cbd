"""Static analysis of (d)Datalog programs.

The paper's correctness claims rest on static properties of the
diagnosis program: safety / range restriction (Lemma 1), stratifiability
of the Remark-4 negation, peer-locality of the ``R@peer`` atoms that
makes dQSQ remainder delegation sound (Section 3.2), and the depth-bound
gadget of Section 4.4 that tames function-symbol recursion.  This module
checks those properties *before* evaluation and reports structured
:class:`Diagnostic` records instead of letting a malformed program fail
deep inside an engine with an opaque error.

Diagnostic codes (see docs/datalog.md for minimal examples and fixes)::

    DD101 unsafe-variable               head var unbound by the positive body
    DD102 unbound-inequality-variable   inequality var unbound
    DD103 arity-mismatch                relation used at several arities
    DD104 function-arity-mismatch       function symbol used at several arities
    DD105 unbound-negation-variable     negated-atom var unbound
    DD201 unstratified-negation         negation through recursion (full cycle)
    DD301 unbounded-term-growth         function growth around a recursive SCC
    DD401 mixed-locality                located and unlocated atoms in one rule
    DD402 unknown-peer                  atom located at an undeclared peer
    DD403 non-delegable-negation        negated atom in a located rule
    DD501 unreachable-rule              rule unreachable from the query
    DD601 cross-product-join            join step with no shared bindings
    DD602 unindexable-join              probe that can never use an index
    DD701 non-confluent-rule-pair       a rule pair whose firings do not commute
    DD702 order-sensitive-remainder     located rule negatively depending cross-peer
    DD703 racy-negation-delegation      negated atom located at a remote peer
    DD901 non-diagnosable-fault         ambiguous cycle/deadlock in the twin plant
    DD902 bounded-diagnosability-verdict verdict only certified up to a bound
    DD903 silent-unobservable-fault     fault with no observable causal future
    DD904 locally-undiagnosable-fault   fault a peer can only diagnose by communicating

There is no static cost family: the DD8xx cardinality estimates were
measured against the rules that do the work and deleted
(docs/datalog.md, "Why there is no cost lint").

The DD9xx family analyzes *models* rather than programs -- it is the
static diagnosability verifier of :mod:`repro.diagnosability`, reported
through the same machinery (``repro diagnosability``, ``repro lint
--registered``).

The engines run :func:`check_program` fail-fast at construction: errors
raise :class:`~repro.errors.ProgramAnalysisError` with the rendered
diagnostics; warnings are routed to counters and logging.  ``repro lint``
renders the full report for humans.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.datalog.atom import Atom
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.term import Func, Term, Var, variables_of
from repro.errors import ProgramAnalysisError
from repro.utils.counters import Counters
from repro.utils.orders import strongly_connected_components

logger = logging.getLogger(__name__)

RelationKey = tuple[str, str | None]

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}

#: code -> (slug, default severity); the single registry of diagnostics.
CODES: dict[str, tuple[str, str]] = {
    "DD101": ("unsafe-variable", ERROR),
    "DD102": ("unbound-inequality-variable", ERROR),
    "DD103": ("arity-mismatch", ERROR),
    "DD104": ("function-arity-mismatch", INFO),
    "DD105": ("unbound-negation-variable", ERROR),
    "DD201": ("unstratified-negation", ERROR),
    "DD301": ("unbounded-term-growth", WARNING),
    "DD401": ("mixed-locality", ERROR),
    "DD402": ("unknown-peer", WARNING),
    "DD403": ("non-delegable-negation", WARNING),
    "DD501": ("unreachable-rule", WARNING),
    "DD601": ("cross-product-join", WARNING),
    "DD602": ("unindexable-join", WARNING),
    "DD701": ("non-confluent-rule-pair", WARNING),
    "DD702": ("order-sensitive-remainder", WARNING),
    "DD703": ("racy-negation-delegation", WARNING),
    "DD901": ("non-diagnosable-fault", WARNING),
    "DD902": ("bounded-diagnosability-verdict", WARNING),
    "DD903": ("silent-unobservable-fault", WARNING),
    "DD904": ("locally-undiagnosable-fault", INFO),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    severity: str
    message: str
    rule: Rule | None = None
    #: (line, column) of the rule in its source text, when parsed with spans
    span: tuple[int, int] | None = None
    suggestion: str | None = None

    @property
    def slug(self) -> str:
        return CODES[self.code][0]

    def render(self, show_rule: bool = True) -> str:
        location = f" (line {self.span[0]})" if self.span else ""
        lines = [f"{self.code} {self.slug} [{self.severity}]{location}: "
                 f"{self.message}"]
        if show_rule and self.rule is not None:
            lines.append(f"    rule: {self.rule}")
        if self.suggestion:
            lines.append(f"    fix: {self.suggestion}")
        return "\n".join(lines)


def make_diagnostic(code: str, message: str, rule: Rule | None = None,
                    suggestion: str | None = None,
                    severity: str | None = None) -> Diagnostic:
    """Build a diagnostic with the code's default severity (overridable)."""
    return Diagnostic(code=code, severity=severity or CODES[code][1],
                      message=message,
                      rule=rule, suggestion=suggestion)


@dataclass(frozen=True)
class AnalysisReport:
    """All diagnostics for one program, ordered errors-first."""

    program: Program
    diagnostics: tuple[Diagnostic, ...]

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == INFO)

    @property
    def ok(self) -> bool:
        """True when the program has no analyzer *errors* (warnings allowed)."""
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    def render(self) -> str:
        if not self.diagnostics:
            return "no findings"
        out = [d.render() for d in self.diagnostics]
        out.append(f"{len(self.errors)} error(s), {len(self.warnings)} "
                   f"warning(s), {len(self.infos)} info(s)")
        return "\n".join(out)


class DependencyGraph:
    """The predicate dependency graph of a program.

    Nodes are relation keys ``(name, peer)``; an edge ``head -> body``
    exists for every IDB body atom, labelled positive or negative.  The
    strongly connected components (Tarjan, reverse topological order)
    expose recursion; a negative edge inside one component is exactly a
    violation of stratifiability (Remark 4).  This is the *single* graph
    implementation: :func:`repro.datalog.stratified.stratify` delegates
    to it.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.idb: set[RelationKey] = program.idb_relations()
        self.nodes: list[RelationKey] = sorted(program.all_relations(), key=str)
        self.positive: dict[RelationKey, set[RelationKey]] = defaultdict(set)
        self.negative: dict[RelationKey, set[RelationKey]] = defaultdict(set)
        #: (head, target) -> rules inducing that edge (positively or not)
        self.edge_rules: dict[tuple[RelationKey, RelationKey], list[Rule]] = \
            defaultdict(list)
        for rule in program.proper_rules():
            head = rule.head.key()
            for atom in rule.body:
                if atom.key() in self.idb:
                    self.positive[head].add(atom.key())
                    self.edge_rules[(head, atom.key())].append(rule)
            for atom in rule.negated:
                if atom.key() in self.idb:
                    self.negative[head].add(atom.key())
                    self.edge_rules[(head, atom.key())].append(rule)
        successors = {n: self.positive.get(n, set()) | self.negative.get(n, set())
                      for n in self.nodes}
        #: SCCs in reverse topological order (dependencies first)
        self.components: list[tuple[RelationKey, ...]] = [
            tuple(c) for c in strongly_connected_components(self.nodes, successors)]
        self.component_of: dict[RelationKey, int] = {}
        for index, component in enumerate(self.components):
            for relation in component:
                self.component_of[relation] = index

    def successors(self, node: RelationKey) -> set[RelationKey]:
        return self.positive.get(node, set()) | self.negative.get(node, set())

    def recursive_relations(self) -> set[RelationKey]:
        """Relations on a cycle: in a component of size > 1 or self-looping."""
        out: set[RelationKey] = set()
        for component in self.components:
            if len(component) > 1:
                out.update(component)
            else:
                node = component[0]
                if node in self.successors(node):
                    out.add(node)
        return out

    def negative_intra_component_edges(self) -> list[tuple[RelationKey, RelationKey]]:
        """Negative edges whose endpoints share a component, sorted."""
        edges = []
        for head in sorted(self.negative, key=str):
            for target in sorted(self.negative[head], key=str):
                if self.component_of.get(head) == self.component_of.get(target):
                    edges.append((head, target))
        return edges

    def negative_cycle(self) -> list[tuple[RelationKey, RelationKey, bool]] | None:
        """A full cycle witnessing non-stratifiability, or ``None``.

        Returned as edges ``(src, dst, is_negative)``; the first edge is
        the offending negative dependency, the rest close the cycle back
        to its source inside the same component.
        """
        offending = self.negative_intra_component_edges()
        if not offending:
            return None
        head, target = offending[0]
        path = self._path_within_component(target, head)
        edges: list[tuple[RelationKey, RelationKey, bool]] = [(head, target, True)]
        for src, dst in zip(path, path[1:]):
            edges.append((src, dst, dst in self.negative.get(src, ())))
        return edges

    def _path_within_component(self, start: RelationKey,
                               end: RelationKey) -> list[RelationKey]:
        """Shortest path start -> end using only edges inside one component."""
        if start == end:
            return [start]
        component = self.component_of[start]
        frontier = [start]
        parents: dict[RelationKey, RelationKey] = {start: start}
        while frontier:
            nxt: list[RelationKey] = []
            for node in frontier:
                for succ in sorted(self.successors(node), key=str):
                    if self.component_of.get(succ) != component or succ in parents:
                        continue
                    parents[succ] = node
                    if succ == end:
                        path = [end]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    nxt.append(succ)
            frontier = nxt
        # Unreachable for genuine SCC members; defensive fallback.
        return [start, end]


def render_cycle(edges: Sequence[tuple[RelationKey, RelationKey, bool]]) -> str:
    """``notConf -not-> causal -> confConc -> notConf`` style cycle path."""
    def name(key: RelationKey) -> str:
        relation, peer = key
        return f"{relation}@{peer}" if peer is not None else relation

    parts = [name(edges[0][0])]
    for _src, dst, negative in edges:
        parts.append("-not->" if negative else "->")
        parts.append(name(dst))
    return " ".join(parts)


# -- individual passes --------------------------------------------------------


def check_safety(program: Program) -> list[Diagnostic]:
    """Range restriction per rule (Lemma 1): DD101 / DD102 / DD105."""
    out: list[Diagnostic] = []
    for rule in program:
        body_vars: set[Var] = set()
        for atom in rule.body:
            body_vars.update(atom.variables())
        negated_vars: set[Var] = set()
        for atom in rule.negated:
            negated_vars.update(atom.variables())
        inequality_vars: set[Var] = set()
        for constraint in rule.inequalities:
            inequality_vars.update(constraint.variables())
        for var in dict.fromkeys(rule.head.variables()):
            if var in body_vars:
                continue
            if var in negated_vars:
                detail = " (it occurs only under negation, which cannot bind)"
            elif var in inequality_vars:
                detail = " (it occurs only in inequalities, which cannot bind)"
            else:
                detail = ""
            out.append(make_diagnostic(
                "DD101",
                f"head variable {var} does not occur in a positive body "
                f"atom{detail}",
                rule=rule,
                suggestion=f"bind {var} in a positive body atom or replace it "
                           f"with a constant"))
        for var in sorted(inequality_vars - body_vars, key=str):
            out.append(make_diagnostic(
                "DD102",
                f"inequality variable {var} does not occur in a positive "
                f"body atom",
                rule=rule,
                suggestion=f"add a positive body atom binding {var}"))
        for var in sorted(negated_vars - body_vars, key=str):
            out.append(make_diagnostic(
                "DD105",
                f"negated-atom variable {var} does not occur in a positive "
                f"body atom (negation is unsafe)",
                rule=rule,
                suggestion=f"add a positive body atom binding {var}"))
    return out


def _function_arities(term: Term, into: dict[str, dict[int, Term]]) -> None:
    if isinstance(term, Func):
        into.setdefault(term.name, {}).setdefault(len(term.args), term)
        for arg in term.args:
            _function_arities(arg, into)


def check_arities(program: Program,
                  query: Query | None = None) -> list[Diagnostic]:
    """Arity consistency: DD103 (relations, error) / DD104 (functions, info).

    Function-symbol overloading is deliberate in the paper's encoding
    (the Skolem ``f`` builds both 2- and 3-ary node ids, ``h`` both
    roots and extensions), so DD104 is informational only.
    """
    out: list[Diagnostic] = []
    relation_arities: dict[RelationKey, dict[int, Rule]] = {}
    functions: dict[str, dict[int, Term]] = {}

    def visit(atom: Atom, rule: Rule) -> None:
        relation_arities.setdefault(atom.key(), {}).setdefault(atom.arity, rule)
        for arg in atom.args:
            _function_arities(arg, functions)

    for rule in program:
        visit(rule.head, rule)
        for atom in rule.body:
            visit(atom, rule)
        for atom in rule.negated:
            visit(atom, rule)
    if query is not None:
        key = query.atom.key()
        if key in relation_arities and \
                query.atom.arity not in relation_arities[key]:
            relation = key[0] if key[1] is None else f"{key[0]}@{key[1]}"
            arities = sorted(relation_arities[key])
            out.append(make_diagnostic(
                "DD103",
                f"query uses {relation} with arity {query.atom.arity} but the "
                f"program uses arity {arities[0]}",
                suggestion="match the query's argument count to the program"))
    for key in sorted(relation_arities, key=str):
        arities = relation_arities[key]
        if len(arities) > 1:
            relation = key[0] if key[1] is None else f"{key[0]}@{key[1]}"
            listing = ", ".join(str(a) for a in sorted(arities))
            first = arities[sorted(arities)[0]]
            out.append(make_diagnostic(
                "DD103",
                f"relation {relation} is used with {len(arities)} different "
                f"arities ({listing})",
                rule=arities[sorted(arities)[1]],
                suggestion=f"give every use of {relation} the same number of "
                           f"arguments (first use: {first})"))
    for name in sorted(functions):
        arities2 = functions[name]
        if len(arities2) > 1:
            listing = ", ".join(str(a) for a in sorted(arities2))
            samples = " vs ".join(str(arities2[a]) for a in sorted(arities2))
            out.append(make_diagnostic(
                "DD104",
                f"function symbol {name} is used with {len(arities2)} "
                f"different arities ({listing}): {samples}",
                suggestion="intended for Skolem overloading? distinct ids "
                           "never clash; rename otherwise"))
    return out


def check_stratification(program: Program,
                         graph: DependencyGraph) -> list[Diagnostic]:
    """Negation through recursion, with the full cycle path: DD201."""
    out: list[Diagnostic] = []
    reported: set[tuple[RelationKey, RelationKey]] = set()
    for head, target in graph.negative_intra_component_edges():
        if (head, target) in reported:
            continue
        reported.add((head, target))
        path = graph._path_within_component(target, head)
        edges: list[tuple[RelationKey, RelationKey, bool]] = [(head, target, True)]
        for src, dst in zip(path, path[1:]):
            edges.append((src, dst, dst in graph.negative.get(src, ())))
        inducing = graph.edge_rules.get((head, target), [None])
        out.append(make_diagnostic(
            "DD201",
            f"program is not stratifiable: negation through recursion along "
            f"the cycle {render_cycle(edges)}",
            rule=inducing[0],
            suggestion="break the cycle (define the negated relation in an "
                       "earlier stratum) or define the complement positively "
                       "as the paper does for notCausal/notConf"))
    return out


def check_termination(program: Program, graph: DependencyGraph,
                      depth_bounded: bool = False) -> list[Diagnostic]:
    """Function-symbol growth around a recursive SCC: DD301.

    A recursive rule whose head nests a variable of an in-SCC body atom
    inside a function term makes each round derive strictly deeper
    terms, so bottom-up evaluation diverges (the unfolding rules
    ``transTree``/``placesTree`` are the paper's example).  With a
    Section-4.4 depth-bound gadget in place (``depth_bounded=True``,
    i.e. an :class:`EvaluationBudget` with ``max_term_depth``) the
    growth is guarded and the finding is informational.
    """
    out: list[Diagnostic] = []
    recursive = graph.recursive_relations()
    for rule in program.proper_rules():
        head_key = rule.head.key()
        if head_key not in recursive:
            continue
        component = graph.component_of.get(head_key)
        in_scc_vars: set[Var] = set()
        for atom in rule.body:
            if graph.component_of.get(atom.key()) == component:
                in_scc_vars.update(atom.variables())
        if not in_scc_vars:
            continue
        for arg in rule.head.args:
            if not isinstance(arg, Func):
                continue
            if any(v in in_scc_vars for v in variables_of(arg)):
                if depth_bounded:
                    out.append(make_diagnostic(
                        "DD301",
                        f"recursive rule grows function-term depth in the "
                        f"head ({arg}); guarded by the configured depth "
                        f"bound (Section 4.4 gadget)",
                        rule=rule, severity=INFO))
                else:
                    out.append(make_diagnostic(
                        "DD301",
                        f"recursive rule grows function-term depth in the "
                        f"head ({arg}): bottom-up evaluation diverges on it",
                        rule=rule,
                        suggestion="evaluate demand-driven (QSQ/dQSQ) or set "
                                   "EvaluationBudget(max_term_depth=...) -- "
                                   "the Section-4.4 depth-bound gadget"))
                break
    return out


def check_reachability(program: Program, query: Query) -> list[Diagnostic]:
    """Rules unreachable from the query (dead code): DD501."""
    reached: set[RelationKey] = set()
    agenda: list[RelationKey] = [query.atom.key()]
    while agenda:
        key = agenda.pop()
        if key in reached:
            continue
        reached.add(key)
        for rule in program.rules_for(*key):
            for body_key in rule.body_relations():
                if body_key not in reached:
                    agenda.append(body_key)
    out: list[Diagnostic] = []
    by_head: dict[RelationKey, list[Rule]] = defaultdict(list)
    for rule in program.proper_rules():
        by_head[rule.head.key()].append(rule)
    for key in sorted(by_head, key=str):
        if key in reached:
            continue
        relation = key[0] if key[1] is None else f"{key[0]}@{key[1]}"
        rules = by_head[key]
        out.append(make_diagnostic(
            "DD501",
            f"relation {relation} ({len(rules)} rule(s)) is unreachable from "
            f"the query {query.atom}",
            rule=rules[0],
            suggestion="dead code: remove the rules or query a relation that "
                       "depends on them"))
    return out


def check_plans(program: Program,
                skip: Iterable[Rule] = ()) -> list[Diagnostic]:
    """Plan-level join warnings via the compiled plans: DD601 / DD602.

    Reuses :func:`repro.datalog.plan.compile_join_plan`: a non-first
    step with no usable index positions is a full scan.  If the step
    still constrains the scanned facts (a residual ``check``/``match``
    op), the probe exists but can never use an index -- typically a
    partially bound function term (DD602).  With no constraint at all
    the step is a plain cross product (DD601).
    """
    from repro.datalog.plan import compile_join_plan

    excluded = set(skip)
    out: list[Diagnostic] = []
    for rule in program.proper_rules():
        if rule in excluded or len(rule.body) < 2:
            continue
        try:
            plan = compile_join_plan(rule, None)
        except Exception:  # pragma: no cover - unsafe rules are pre-filtered
            continue
        for index, step in enumerate(plan.steps):
            if index == 0 or step.index_positions:
                continue
            atom = rule.body[step.position]
            constraining = [op for op in step.scan_ops if op[0] != "store"]
            if constraining:
                out.append(make_diagnostic(
                    "DD602",
                    f"join step {index + 1} ({atom}) can never probe an "
                    f"index: its bound argument positions are function terms "
                    f"with free variables, forcing a full scan with residual "
                    f"matching",
                    rule=rule,
                    suggestion="expose the bound variables as top-level "
                               "argument positions of the relation"))
            else:
                out.append(make_diagnostic(
                    "DD601",
                    f"join step {index + 1} ({atom}) shares no bound "
                    f"variable with the preceding steps: cross-product join",
                    rule=rule,
                    suggestion="reorder or connect the body atoms through a "
                               "shared variable"))
    return out


# -- confluence / commutation analysis ----------------------------------------
#
# Positive Datalog is monotone, so the order in which a peer installs
# incoming facts never changes the fixpoint (Theorem 2's confluence).
# Stratified negation breaks that: the distributed engines check ``not S``
# against the database *at fire time*, so a delivery that grows ``S``
# races against any delivery that triggers the negating rule.
# :func:`check_confluence` reports those hazards, purely statically, as
# DD701/DD702/DD703; the campaign runner behind ``repro race`` and
# ``repro chaos`` (repro.distributed.chaos) attaches them to the seeded
# schedules it runs.
# A program with none of them is positive and needs no run-time check.


def _relation_name(key: RelationKey) -> str:
    return key[0] if key[1] is None else f"{key[0]}@{key[1]}"


def _dependency_edges(
        program: Program) -> tuple[dict[RelationKey, set[RelationKey]],
                                   dict[RelationKey, set[RelationKey]]]:
    """Head -> body edges over *all* relation keys, EDB targets included.

    :class:`DependencyGraph` keeps only IDB edges (all it needs for
    stratification); commutation must also see negated EDB relations --
    a fact-only relation negated by a rule is exactly the racy case a
    replica delivery can flip.
    """
    positive: dict[RelationKey, set[RelationKey]] = defaultdict(set)
    negative: dict[RelationKey, set[RelationKey]] = defaultdict(set)
    for rule in program.proper_rules():
        head = rule.head.key()
        for atom in rule.body:
            positive[head].add(atom.key())
        for atom in rule.negated:
            negative[head].add(atom.key())
    return positive, negative


def _downward_closure(program: Program) -> dict[RelationKey, set[RelationKey]]:
    """``down[K]`` = {K} ∪ every relation K transitively depends on.

    Read operationally: a delivery writing relation ``X`` can trigger new
    derivations of ``K`` exactly when ``X ∈ down[K]``.
    """
    positive, negative = _dependency_edges(program)
    keys = set(program.all_relations())
    keys.update(positive)
    keys.update(negative)
    down: dict[RelationKey, set[RelationKey]] = {k: {k} for k in keys}
    changed = True
    while changed:
        changed = False
        for key in keys:
            closure = down[key]
            before = len(closure)
            for succ in positive.get(key, set()) | negative.get(key, set()):
                closure.update(down.get(succ, {succ}))
            if len(closure) != before:
                changed = True
    return down


def negative_reach(program: Program) -> dict[RelationKey, set[RelationKey]]:
    """Relations reachable from each key through ≥1 negative edge.

    ``negative_reach(R)`` answers "which relations can influence R's
    content *non-monotonically*?" -- the fixpoint of::

        negreach(R) = ∪_{S ∈ neg(R)} ({S} ∪ down(S))
                    ∪ ∪_{S ∈ pos(R)} negreach(S)

    over head -> body edges including EDB targets.
    """
    positive, negative = _dependency_edges(program)
    down = _downward_closure(program)
    keys = set(down)
    out: dict[RelationKey, set[RelationKey]] = {k: set() for k in keys}
    for key in keys:
        for succ in negative.get(key, ()):
            out[key].add(succ)
            out[key].update(down.get(succ, {succ}))
    changed = True
    while changed:
        changed = False
        for key in keys:
            reach = out[key]
            before = len(reach)
            for succ in positive.get(key, ()):
                reach.update(out.get(succ, ()))
            if len(reach) != before:
                changed = True
    return out


def check_confluence(program: Program) -> list[Diagnostic]:
    """Order-sensitivity of distributed evaluation: DD701 / DD702 / DD703.

    DD701 (warning): a rule pair that does not commute -- one rule (or
    program fact) writes relation ``N`` while another negates ``N``;
    delivering their derivations in either order yields different
    databases, so the run is only schedule-independent if something else
    serializes them.

    DD702 (warning): a located rule whose head transitively depends,
    through at least one negative edge, on a relation located at a
    *different* peer: the remainder dQSQ delegates for this rule embeds
    an order-sensitive subcomputation (the paper's Theorems 2-4 assume
    the monotone fragment).

    DD703 (warning): the direct form -- a located rule negating an atom
    that lives on a remote peer.  The negation check races against the
    network delivering that peer's facts.
    """
    out: list[Diagnostic] = []
    negreach = negative_reach(program)
    writers: dict[RelationKey, list[Rule]] = defaultdict(list)
    for rule in program:
        writers[rule.head.key()].append(rule)
    for rule in program.proper_rules():
        head_key = rule.head.key()
        head_peer = rule.head.peer
        for neg_atom in rule.negated:
            neg_key = neg_atom.key()
            racing = [w for w in writers.get(neg_key, []) if w is not rule]
            if racing:
                witness = racing[0]
                kind = "fact" if witness.is_fact() else "rule"
                out.append(make_diagnostic(
                    "DD701",
                    f"rule pair does not commute: this rule negates "
                    f"{_relation_name(neg_key)} while the {kind} `{witness}` "
                    f"writes it; the delivery order of their derivations "
                    f"changes the result",
                    rule=rule,
                    suggestion="serialize the pair into strata evaluated in "
                               "order, or define the complement positively "
                               "as the paper does for notCausal/notConf"))
            if head_peer is not None and neg_atom.peer is not None \
                    and neg_atom.peer != head_peer:
                out.append(make_diagnostic(
                    "DD703",
                    f"negated atom {neg_atom} lives at remote peer "
                    f"{neg_atom.peer!r}: the fire-time negation check races "
                    f"against the network delivering that peer's facts",
                    rule=rule,
                    suggestion="negate only relations local to the rule's "
                               "peer, replicated before evaluation starts"))
        if head_peer is not None:
            remote = sorted(
                (key for key in negreach.get(head_key, ())
                 if key[1] is not None and key[1] != head_peer), key=str)
            if remote:
                out.append(make_diagnostic(
                    "DD702",
                    f"remainder for {_relation_name(head_key)} is "
                    f"order-sensitive: it depends through negation on "
                    f"{', '.join(_relation_name(k) for k in remote)} at "
                    f"other peer(s), so delegated evaluation is not "
                    f"confluent under message reordering",
                    rule=rule,
                    suggestion="keep cross-peer dependencies monotone; "
                               "`repro race` can search for a schedule that "
                               "exhibits the divergence"))
    return out


def index_spans(program: Program) -> dict[Rule, tuple[int, int]]:
    """Synthetic (rule-index, column-1) spans for Python-built programs.

    Programs registered from Python never pass through the parser, so
    they have no source spans and ``repro lint --registered`` used to
    print diagnostics without locations.  The rule's 1-based position in
    the program is the next best clickable anchor: ``label:3:1`` means
    "third rule of the registered program".
    """
    return {rule: (index + 1, 1) for index, rule in enumerate(program)}


# -- the analyzer entry points ------------------------------------------------


def analyze(program: Program, query: Query | None = None, *,
            known_peers: Iterable[str] | None = None,
            depth_bounded: bool = False,
            plan_warnings: bool = True,
            spans: Mapping[Rule, tuple[int, int]] | None = None) -> AnalysisReport:
    """Run every analysis pass over ``program``; returns the full report.

    ``query`` enables dead-rule detection (DD501); ``known_peers``
    enables unknown-peer detection (DD402); ``depth_bounded`` declares a
    Section-4.4 depth-bound gadget, downgrading DD301 to informational;
    ``plan_warnings`` controls the (lint-oriented) DD601/DD602 pass;
    ``spans`` maps rules to source (line, column) as produced by
    :func:`repro.datalog.parser.parse_program`.
    """
    graph = DependencyGraph(program)
    diagnostics: list[Diagnostic] = []
    safety = check_safety(program)
    diagnostics += safety
    diagnostics += check_arities(program, query)
    diagnostics += check_stratification(program, graph)
    diagnostics += check_termination(program, graph, depth_bounded)
    if program.peers():
        # Located-atom passes live with the distributed layer; the import
        # is deferred to keep repro.datalog free of package cycles.
        from repro.distributed.analysis import check_locality
        diagnostics += check_locality(program, known_peers)
        diagnostics += check_confluence(program)
    if query is not None:
        diagnostics += check_reachability(program, query)
    if plan_warnings:
        unsafe = {d.rule for d in safety if d.rule is not None}
        diagnostics += check_plans(program, skip=unsafe)
    if spans:
        diagnostics = [replace(d, span=spans.get(d.rule)) if d.rule is not None
                       else d for d in diagnostics]
    diagnostics.sort(key=lambda d: (_SEVERITY_RANK.get(d.severity, 3), d.code))
    return AnalysisReport(program=program, diagnostics=tuple(diagnostics))


def check_program(program: Program, query: Query | None = None, *,
                  context: str = "engine",
                  known_peers: Iterable[str] | None = None,
                  depth_bounded: bool = False,
                  escalate: Iterable[str] = (),
                  counters: Counters | None = None) -> AnalysisReport:
    """Fail-fast analysis for the engine constructors.

    Raises :class:`ProgramAnalysisError` when the report contains errors
    (or any diagnostic whose code is listed in ``escalate``); warnings
    are added to ``counters`` (``analysis.*``) and logged.  The
    plan-warning pass is skipped here: it is lint-level advice, not a
    correctness property.
    """
    report = analyze(program, query, known_peers=known_peers,
                     depth_bounded=depth_bounded, plan_warnings=False)
    escalated = set(escalate)
    fatal = [d for d in report.diagnostics
             if d.severity == ERROR or d.code in escalated]
    if fatal:
        rendered = "\n".join(d.render() for d in fatal)
        raise ProgramAnalysisError(
            f"program analysis found {len(fatal)} error(s) ({context}):\n"
            f"{rendered}", tuple(fatal))
    if counters is not None:
        counters.add("analysis.programs_checked")
        for diagnostic in report.diagnostics:
            counters.add(f"analysis.{diagnostic.severity}s")
    if report.warnings:
        logger.info("%s: static analysis reported %d warning(s)",
                    context, len(report.warnings))
        for diagnostic in report.warnings:
            logger.debug("%s: %s", context, diagnostic.render(show_rule=False))
    return report
