"""Query-Sub-Query as a program rewriting (Figure 4 of the paper).

The crux of QSQ is to minimize the number of tuples derived by rewriting
the program, given a query, around *binding propagation*:

* for each adorned IDB relation ``R^ad`` an input relation ``in-R^ad``
  accumulates the demands (bound-argument tuples);
* for each rule and interior body position a *supplementary relation*
  ``sup_i_j`` accumulates the variable bindings relevant at that position;
* each IDB body atom contributes a demand rule feeding the callee's input
  relation, and each body atom a join rule extending the chain -- from
  the demand itself at the first atom, into the answer at the last
  (:func:`rewrite_segment`, shared with dQSQ).

:func:`qsq_rewrite` builds the whole rewriting at once (for the static
analyzer, E2 and the tests' reference evaluation); :func:`qsq_evaluate`
is dQSQ with the program at one peer, which rewrites lazily, per demand,
through the same :func:`rewrite_segment` (Theorem 1: same answers, same
materialization).  Either computes the correct answers while
materializing only the demanded portion of each relation, and -- unlike
plain Datalog -- stays finite on function-symbol programs whenever the
demanded portion is finite (Proposition 1 instantiates this for the
diagnosis program).  Neither evaluates negated atoms: both refuse them.

The construction below generalizes the textbook one to function terms in
heads and bodies: a bound head position whose argument is a function term
binds all the term's variables (the demand tuple is ground, so matching
it against the pattern instantiates them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.datalog.adornment import Adornment, adorned_name, input_name
from repro.datalog.atom import Atom, Inequality
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.seminaive import EvaluationBudget
from repro.datalog.term import Var
from repro.errors import ValidationError
from repro.utils.counters import Counters

AdornedKey = tuple[str, str | None, Adornment]


@dataclass
class QsqRewriting:
    """A program rewritten around the demands of one query (Figure 4)."""

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
    """Rewrite ``program`` for ``query`` following the QSQ construction.

    Walks the adorned relations the query reaches and emits each reached
    rule's supplementary chain.  Rules are numbered in the order the LIFO
    agenda reaches them.
    """
    for rule in program:
        if rule.negated:
            raise ValidationError(
                f"QSQ rewrites positive rules only: {rule} negates "
                f"{rule.negated[0]}")
    atom = query.atom
    rewriting = QsqRewriting(query, Program(), atom, None)
    idb = program.idb_relations()
    # Keep the EDB facts so evaluation can still load them; a query on an
    # EDB relation needs nothing else.
    for fact in program.facts():
        if fact.head.key() not in idb:
            rewriting.program.add(fact)
    if atom.key() not in idb:
        return rewriting

    query_adornment = Adornment.from_atom(atom)
    rewriting.answer_atom = Atom(adorned_name(atom.relation, query_adornment),
                                 atom.args, atom.peer)
    rewriting.seed = Atom(input_name(atom.relation, query_adornment),
                          query_adornment.select_bound(atom.args), atom.peer)

    seen: set[AdornedKey] = set()
    agenda: list[AdornedKey] = [(atom.relation, atom.peer, query_adornment)]
    rule_id = 0
    while agenda:
        entry = agenda.pop()
        if entry in seen:
            continue
        seen.add(entry)
        rewriting.adorned_relations.append(entry)
        relation, peer, adornment = entry
        for rule in program.rules_for(relation, peer):
            rule_id += 1
            for demanded in _rewrite_rule(rule, adornment, rule_id, idb,
                                          rewriting):
                if demanded not in seen:
                    agenda.append(demanded)
    return rewriting


def _rewrite_rule(rule: Rule, adornment: Adornment, rule_id: int,
                  idb: set[RelationKey],
                  rewriting: QsqRewriting) -> list[AdornedKey]:
    """Emit the rewritten rules for one (rule, adornment) pair.

    Returns the adorned IDB relations demanded by the rule body.
    """
    head = rule.head
    incoming = Atom(input_name(head.relation, adornment),
                    adornment.select_bound(head.args), head.peer)
    answer = Atom(adorned_name(head.relation, adornment), head.args, head.peer)
    segment = rewrite_segment(
        incoming, rule.body, rule.inequalities, answer,
        sup_atom=lambda j, args: Atom(f"sup_{rule_id}_{j}", args),
        is_idb=lambda atom: atom.key() in idb)
    for rewritten in segment.rules:
        rewriting.program.add(rewritten)
    for j, sup in segment.sups:
        rewriting.sup_index[sup.relation] = (rule, adornment, j)
    return segment.demanded


@dataclass
class Segment:
    """What :func:`rewrite_segment` emitted for one run of body atoms."""

    rules: list[Rule] = field(default_factory=list)
    demanded: list[AdornedKey] = field(default_factory=list)
    #: (atoms consumed, atom) of every supplementary relation defined here
    sups: list[tuple[int, Atom]] = field(default_factory=list)
    #: set when the run stopped at a remote atom: its offset in ``atoms``,
    #: the relation to ship there, and the inequalities still undecided
    cut: tuple[int, Atom, tuple[Inequality, ...]] | None = None


def rewrite_segment(incoming: Atom, atoms: Sequence[Atom],
                    inequalities: Sequence[Inequality], head: Atom, *,
                    sup_atom: Callable[[int, tuple[Var, ...]], Atom],
                    is_idb: Callable[[Atom], bool],
                    is_local: Callable[[Atom], bool] = lambda atom: True
                    ) -> Segment:
    """The supplementary chain of Figures 4 and 5, for one run of atoms.

    ``incoming`` holds the bindings the run starts from: the demand
    ``in-R^ad(pattern)`` at the start of a rule, or the supplementary
    relation a delegation shipped.  Each IDB atom gets a demand rule off
    the current relation; each atom gets a join rule into
    ``sup_atom(k, schema)`` (``k`` = atoms of the run consumed so far),
    except the last, whose join derives ``head`` itself.  The run stops
    at the first atom ``is_local`` rejects and reports the cut; the
    caller delegates from there.

    Departure from the literal figures: the demand is joined directly (no
    ``sup_0`` copy of it) and the last join writes the answer (no
    ``sup_n`` plus copy rule).  A ``sup_0`` survives in two cases only:
    inequalities decidable from the demand alone must filter before the
    first sub-demand is issued, and a rule whose first atom is remote
    ships its projected demand to that atom's peer.  Neither arises on a
    delegated run: its inequalities were undecided at the cut and its
    first atom is local by construction.
    """
    segment = Segment()
    if not atoms:
        # An IDB fact (e.g. the unfolding-roots rules of Section 4.1):
        # answer the demand directly.
        segment.rules.append(Rule(head, [incoming]))
        return segment

    available = set(incoming.variables())
    order = _occurrence_order(incoming, atoms)
    placement = _inequality_positions(atoms, inequalities, available)
    head_vars = set(head.variables())

    def schema(consumed: int) -> tuple[Var, ...]:
        """Available variables still needed after ``consumed`` atoms."""
        needed = set(head_vars)
        for later_atom in atoms[consumed:]:
            needed.update(later_atom.variables())
        for at, constraints in placement.items():
            if at >= consumed:
                for constraint in constraints:
                    needed.update(constraint.variables())
        return tuple(v for v in order if v in available and v in needed)

    def define_sup(consumed: int) -> Atom:
        sup = sup_atom(consumed, schema(consumed))
        segment.sups.append((consumed, sup))
        return sup

    current = incoming
    if -1 in placement or not is_local(atoms[0]):
        current = define_sup(0)
        segment.rules.append(Rule(current, [incoming], placement.get(-1, ())))

    for offset, atom in enumerate(atoms):
        if not is_local(atom):
            pending = tuple(c for at in sorted(placement) if at >= offset
                            for c in placement[at])
            segment.cut = (offset, current, pending)
            return segment
        atom_adornment = Adornment.from_atom(atom, available)
        if is_idb(atom):
            segment.rules.append(Rule(
                Atom(input_name(atom.relation, atom_adornment),
                     atom_adornment.select_bound(atom.args), atom.peer),
                [current]))
            segment.demanded.append((atom.relation, atom.peer, atom_adornment))
            join_atom = Atom(adorned_name(atom.relation, atom_adornment),
                             atom.args, atom.peer)
        else:
            join_atom = atom
        available |= set(atom.variables())
        target = head if offset == len(atoms) - 1 else define_sup(offset + 1)
        segment.rules.append(Rule(target, [current, join_atom],
                                  placement.get(offset, ())))
        current = target
    return segment


def _occurrence_order(incoming: Atom, atoms: Iterable[Atom]) -> list[Var]:
    """Variables in first-occurrence order (incoming relation, then body)."""
    order: dict[Var, None] = dict.fromkeys(incoming.variables())
    for atom in atoms:
        order.update(dict.fromkeys(atom.variables()))
    return list(order)


def _inequality_positions(atoms: Sequence[Atom], inequalities: Iterable[Inequality],
                          initially_bound: set[Var]) -> dict[int, tuple[Inequality, ...]]:
    """Attach each inequality to the earliest body position where it is ground.

    Position ``-1`` means "decidable from the incoming bindings alone";
    position ``j`` (0-based) means "after matching ``atoms[j]``" (attached
    to that atom's join rule).
    """
    placement: dict[int, tuple[Inequality, ...]] = {}
    remaining = list(inequalities)
    available = set(initially_bound)
    for j in range(-1, len(atoms)):
        if j >= 0:
            available |= set(atoms[j].variables())
        here = tuple(c for c in remaining if set(c.variables()) <= available)
        if here:
            placement[j] = here
            remaining = [c for c in remaining if c not in here]
    return placement


@dataclass
class QsqResult:
    """Answers plus instrumentation from a QSQ evaluation."""

    answers: set[Fact]
    database: Database
    counters: Counters

    def materialized_by_kind(self) -> dict[str, int]:
        """Facts materialized, grouped by relation kind (sup/input/adorned/edb),
        read off each relation's name."""
        totals: dict[str, int] = {}
        for (relation, _peer), count in self.database.snapshot_counts().items():
            kind = ("input" if relation.startswith("in-") else
                    "sup" if relation.startswith("sup[") else
                    "adorned" if "^" in relation else "edb")
            totals[kind] = totals.get(kind, 0) + count
        return totals


#: the peer a :func:`qsq_evaluate` run places its program at
_LOCAL_PEER = "local"


def qsq_evaluate(program: Program, query: Query, db: Database | None = None,
                 budget: EvaluationBudget | None = None,
                 check: bool = True) -> QsqResult:
    """Check ``program`` and answer ``query`` by dQSQ with the program at
    one peer (:func:`repro.distributed.ddatalog.place`).

    ``db`` holds the EDB facts (program fact-rules are loaded too); the
    caller's store is untouched.  The check sees the query (its arity)
    and, as :class:`~repro.distributed.dqsq.DqsqEngine`'s does, escalates
    DD403: the rewriting would drop a negated atom.
    """
    from repro.datalog.analysis import check_program
    from repro.distributed.ddatalog import place, placed_at
    from repro.distributed.dqsq import DqsqEngine

    placed = place(program, _LOCAL_PEER)
    placed_query = Query(placed_at(query.atom, _LOCAL_PEER))
    if check:
        check_program(placed.program, placed_query, context="qsq",
                      escalate=("DD403",))
    edb = Database()
    if db is not None:
        for key in db.relations():
            edb.add_all(placed_at(Atom(key[0], (), key[1]), _LOCAL_PEER).key(),
                        db.facts(key), assume_ground=True)
    result = DqsqEngine(placed, edb, budget=budget,
                        check=False).query(placed_query)
    return QsqResult(answers=result.answers,
                     database=result.databases[_LOCAL_PEER],
                     counters=result.counters)
