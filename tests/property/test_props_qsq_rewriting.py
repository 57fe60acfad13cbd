"""Property-based check of the QSQ rewriting against the reference oracle.

Random function-free programs (random rule bodies over three IDB and
two EDB relations on top of one EDB-fed rule per IDB relation, constants
in heads and bodies, inequalities that may be decidable from the demand
alone) and random queries (any binding
pattern):

* the rewritten program means what the engine computes: the reference
  interpreter's model of it (``tests/reference.py``, a naive fixpoint
  sharing no code with the planner) equals the store of its semi-naive
  evaluation (``figure4_qsq``), relation by relation -- supplementary,
  input and adorned alike;
* the rewriting preserves the query: its answers, and those of the lazy
  ``qsq_evaluate``, equal the reference model of the *original* program
  restricted to the query atom.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import Database, Query, qsq_evaluate
from repro.datalog.atom import Atom, Inequality
from repro.datalog.database import select
from repro.datalog.rule import Program, Rule
from repro.datalog.term import Const, Var
from tests.reference import figure4_qsq, reference_model, snapshot

NODES = [Const(f"n{i}") for i in range(3)]
VARS = [Var(name) for name in "XYZW"]
IDB = ["p", "q", "r"]
EDB = ["e", "f"]

variables = st.sampled_from(VARS)
constants = st.sampled_from(NODES)
body_terms = st.one_of(*[variables] * 5, constants)


@st.composite
def rules(draw):
    body = [Atom(draw(st.sampled_from(IDB + EDB + EDB)),
                 (draw(body_terms), draw(body_terms)))
            for _ in range(draw(st.integers(1, 3)))]
    bound = sorted({v for atom in body for v in atom.variables()},
                   key=lambda v: v.name)
    head_terms = st.one_of(constants, *([st.sampled_from(bound)] * 3 if bound else []))
    head = Atom(draw(st.sampled_from(IDB)), (draw(head_terms), draw(head_terms)))
    inequalities = []
    if bound and draw(st.booleans()):
        inequalities.append(Inequality(
            draw(st.sampled_from(bound)),
            draw(st.one_of(constants, st.sampled_from(bound)))))
    return Rule(head, body, inequalities)


@st.composite
def queries(draw):
    free = iter(VARS)
    args = tuple(draw(constants) if draw(st.booleans()) else next(free)
                 for _ in range(2))
    return Query(Atom(draw(st.sampled_from(IDB)), args))


#: one EDB-fed rule per IDB relation, so the random rules on top of them
#: (recursion included) have something to join
X, Y = VARS[:2]
BASE_RULES = [Rule(Atom("p", (X, Y)), [Atom("e", (X, Y))]),
              Rule(Atom("q", (X, Y)), [Atom("f", (X, Y))]),
              Rule(Atom("r", (X, Y)), [Atom("e", (Y, X))])]

edb_facts = st.lists(st.tuples(st.sampled_from(EDB), constants, constants),
                     min_size=4, max_size=14)


def database_from(facts):
    db = Database()
    for relation, left, right in facts:
        db.add((relation, None), (left, right))
    return db


class TestRewritingAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(rules(), min_size=1, max_size=5), edb_facts, queries())
    def test_rewritten_model_is_the_store_and_answers_are_the_query(
            self, rule_list, facts, query):
        program = Program(BASE_RULES + rule_list)
        db = database_from(facts)
        result = figure4_qsq(program, query, db)

        seeded = db.copy()
        if result.rewriting.seed is not None:
            seeded.add_atom(result.rewriting.seed)
        assert (snapshot(reference_model(result.rewriting.program, seeded))
                == snapshot(result.database))
        expected = select(reference_model(program, db), query.atom)
        assert result.answers == expected
        assert qsq_evaluate(program, query, db).answers == expected
