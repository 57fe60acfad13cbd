"""dDatalog and dQSQ on the paper's Figure-3 program.

Reproduces Section 3 end to end: the three-peer program of Figure 3,
its centralized QSQ rewriting (Figure 4), the distributed dQSQ run
(Figure 5) with its delegations and handoffs, and the Theorem-1
equivalence between the two.  Also runs the distributed *naive*
evaluation to show what dQSQ saves.

Run:  python examples/distributed_qsq.py
"""

from repro.datalog import Query, parse_atom, parse_program, qsq_rewrite, qsq_evaluate
from repro.datalog.atom import Atom
from repro.datalog.database import Database, load_facts
from repro.datalog.pretty import program_by_relation
from repro.distributed import DDatalogProgram, DistributedNaiveEngine, DqsqEngine

FIGURE3 = """
% Figure 3: a dDatalog program over peers r, s and t.
r@r(X, Y) :- a@r(X, Y).
r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
t@t(X, Y) :- c@t(X, Y).
a@r("1", "2").
a@r("2", "3").
b@s("2", "x").
b@s("3", "x").
c@t("2", "4").
c@t("3", "5").
c@t("4", "6").
"""


def main() -> None:
    program = DDatalogProgram(parse_program(FIGURE3))
    edb = load_facts(parse_program(FIGURE3))
    query = Query(parse_atom('r@r("1", Y)'))
    print(f"Query: {query}")
    print()

    print("Centralized QSQ rewriting of P_local (Figure 4):")
    local = program.local_version()
    local_query = Query(Atom("r@r", query.atom.args, None))
    rewriting = qsq_rewrite(local, local_query)
    print(program_by_relation(rewriting.program))
    print()

    qsq = qsq_evaluate(local, local_query, _localized(edb))
    print(f"QSQ answers: {sorted(str(f[1]) for f in qsq.answers)}")
    print(f"QSQ materialization by kind: {qsq.materialized_by_kind()}")
    print()

    print("dQSQ run over the simulated network (Figure 5):")
    dqsq = DqsqEngine(program, edb).query(query)
    print(f"  answers              : {sorted(str(f[1]) for f in dqsq.answers)}")
    print(f"  messages             : {dqsq.counters['messages_sent']}")
    print(f"  tuples shipped       : {dqsq.counters['tuples_shipped']}")
    print(f"  delegations          : {dqsq.counters['delegations_sent']}")
    print("  supplementary relations per peer (the Figure-5 handoffs):")
    for key, count in sorted(dqsq.homed_fact_counts().items()):
        if key[0].startswith("sup["):
            print(f"    {key[0]:28s} @ {key[1]}  ({count} tuples)")
    assert dqsq.answers == qsq.answers, "Theorem 1: dQSQ == QSQ"
    print("  Theorem 1 check: dQSQ answers == QSQ answers  [ok]")
    print()

    naive = DistributedNaiveEngine(program, edb).query(query)
    print("Distributed naive evaluation (no binding propagation):")
    print(f"  answers match        : {naive.answers == dqsq.answers}")
    print(f"  global facts         : {naive.counters['facts_materialized_global']}")
    print(f"  tuples shipped       : {naive.counters['tuples_shipped']}")


def _localized(edb: Database) -> Database:
    out = Database()
    for key in edb.relations():
        relation, peer = key
        for fact in edb.facts(key):
            out.add((f"{relation}@{peer}", None), fact)
    return out


if __name__ == "__main__":
    main()
