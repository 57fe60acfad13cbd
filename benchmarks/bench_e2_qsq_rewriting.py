"""E2 (Figures 3-4): QSQ rewriting and its materialization advantage."""

import pytest

from repro.datalog import (NaiveEvaluator, Query, SemiNaiveEvaluator,
                           parse_atom, qsq_evaluate, qsq_rewrite)
from repro.datalog.atom import Atom
from repro.datalog.database import Database
from repro.datalog.magic import magic_evaluate


@pytest.fixture()
def local_setup(figure3_program, figure3_edb):
    local = figure3_program.local_version()
    edb = Database()
    for key in figure3_edb.relations():
        relation, peer = key
        for fact in figure3_edb.facts(key):
            edb.add((f"{relation}@{peer}", None), fact)
    query = Query(Atom("r@r", parse_atom('q("1", Y)').args, None))
    return local, edb, query


def test_qsq_rewrite(benchmark, local_setup):
    local, _edb, query = local_setup
    rewriting = benchmark(lambda: qsq_rewrite(local, query))
    kinds = rewriting.relation_kinds()
    adorned = {name for name, kind in kinds.items() if kind == "adorned"}
    # Figure 4's adorned relations.
    assert adorned == {"r@r^bf", "s@s^bf", "t@t^bf"}
    # One interior relation per two-atom rule; the sup_0 / sup_n bookends
    # Figure 4 draws (10 relations in all) are not emitted.
    assert len(rewriting.sup_relation_names()) == 2


def test_qsq_evaluation(benchmark, local_setup):
    local, edb, query = local_setup
    result = benchmark(lambda: qsq_evaluate(local, query, edb))
    assert len(result.answers) == 2
    benchmark.extra_info["materialized"] = result.materialized_by_kind()


def test_seminaive_evaluation(benchmark, local_setup):
    local, edb, query = local_setup

    def run():
        evaluator = SemiNaiveEvaluator(local)
        return evaluator.answers(edb.copy(), query), evaluator

    (answers, evaluator) = benchmark(run)
    assert len(answers) == 2
    benchmark.extra_info["facts"] = evaluator.counters["facts_materialized"]


def test_magic_evaluation(benchmark, local_setup):
    local, edb, query = local_setup
    answers, counters, _db = benchmark(lambda: magic_evaluate(local, query, edb))
    assert len(answers) == 2
    benchmark.extra_info["facts"] = counters["facts_materialized"]


def test_shape_qsq_beats_bottom_up_on_partitioned_graph(benchmark):
    # The claim that matters: with bindings, QSQ ignores the irrelevant
    # component entirely.
    from repro.datalog import parse_program
    from repro.datalog.naive import load_facts
    edges = "\n".join(f'edge("a{i}", "a{i+1}").' for i in range(40))
    edges += "\n" + "\n".join(f'edge("z{i}", "z{i+1}").' for i in range(40))
    text = ("path(X, Y) :- edge(X, Y).\n"
            "path(X, Y) :- edge(X, Z), path(Z, Y).\n" + edges)
    program = parse_program(text)
    db = load_facts(program)
    query = Query(parse_atom('path("a38", Y)'))

    result = benchmark(lambda: qsq_evaluate(program, query, db))

    semi = SemiNaiveEvaluator(program)
    semi.run(db.copy())
    qsq_total = result.counters["facts_materialized"]
    bottom_up_total = semi.counters["facts_materialized"]
    assert qsq_total * 10 < bottom_up_total
