"""Regression tests for :meth:`IncrementalEvaluator.reset`.

The distributed peers' ``restore()`` path reuses one evaluator across a
crash.  The evaluator's compiled-plan cache is keyed by ``id(rule)``
(:func:`repro.datalog.plan.plan_for`): if restore kept the cache while
re-installing freshly allocated rule objects, an id recycled by the
allocator would silently hand a rule another rule's join plan.  These
tests pin the invalidation contract and demonstrate the hazard it
prevents.
"""

from repro.datalog.database import Database, load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.plan import PlanStats, plan_for
from repro.datalog.rule import Query
from repro.datalog.seminaive import IncrementalEvaluator
from repro.datalog.term import Const
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.dqsq import DqsqEngine
from repro.distributed.network import NetworkOptions, PeerFaultPlan
from repro.workloads.scenarios import FIGURE3_TEXT


def _rule(text: str):
    return next(parse_program(text, check=False).proper_rules())


class TestReset:
    def test_reset_clears_plans_rules_and_cursors(self):
        db = Database()
        evaluator = IncrementalEvaluator(db)
        rule = _rule("p(X) :- q(X).")
        evaluator.add_rule(rule)
        db.add(("q", None), (Const("a"),))
        evaluator.run()
        assert evaluator._plans
        [(_, position, cursor, partners, plan)] = evaluator._consumers[("q", None)]
        assert (position, cursor, partners) == (0, 1, ())
        # the consumer holds the plan the id-keyed map resolved for it
        assert plan is evaluator._plans[(id(rule), 0)]

        fresh = Database()
        evaluator.reset(fresh)
        assert evaluator.db is fresh
        assert not evaluator._plans
        assert not evaluator._seen_rules
        assert not evaluator._consumers

    def test_reset_keeps_counters(self):
        db = Database()
        evaluator = IncrementalEvaluator(db)
        evaluator.add_rule(_rule("p(X) :- q(X)."))
        db.add(("q", None), (Const("a"),))
        evaluator.run()
        derived = evaluator.counters["facts_materialized"]
        assert derived >= 1
        evaluator.reset(Database())
        assert evaluator.counters["facts_materialized"] == derived

    def test_rules_reinstall_after_reset(self):
        db = Database()
        evaluator = IncrementalEvaluator(db)
        rule_text = "p(X) :- q(X)."
        evaluator.add_rule(_rule(rule_text))
        db.add(("q", None), (Const("a"),))
        evaluator.run()
        assert db.facts(("p", None))

        fresh = Database()
        evaluator.reset(fresh)
        # add_rule must accept the (structurally equal) rule again: the
        # seen-set was dropped with everything else
        assert evaluator.add_rule(_rule(rule_text))
        fresh.add(("q", None), (Const("b"),))
        evaluator.run()
        assert list(fresh.facts(("p", None))) == [(Const("b"),)]


class TestStalePlanHazard:
    def test_aliased_cache_entry_misfires_and_reset_heals_it(self):
        # Emulate the allocator recycling an id: pre-seed the cache so
        # the key for rule_r points at the plan compiled for rule_p.
        rule_p = _rule("p(X) :- q(X).")
        rule_r = _rule("r(X) :- s(X).")
        db = Database()
        evaluator = IncrementalEvaluator(db)
        # plans are cached per (id, delta_position) and every firing of a
        # one-atom rule is a delta firing at position 0
        evaluator._plans[(id(rule_r), 0)] = plan_for({}, PlanStats(),
                                                     rule_p, 0)

        db.add(("q", None), (Const("a"),))
        db.add(("s", None), (Const("z"),))
        evaluator.add_rule(rule_r)
        evaluator.run()
        # the aliased plans fired p from q instead of r from s
        assert db.facts(("p", None))
        assert not db.facts(("r", None))

        # reset() drops the poisoned cache; the same rule now compiles
        # its own plan and derives the right relation
        fresh = Database()
        evaluator.reset(fresh)
        assert not evaluator._plans
        evaluator.add_rule(rule_r)
        fresh.add(("s", None), (Const("z"),))
        evaluator.run()
        assert list(fresh.facts(("r", None))) == [(Const("z"),)]
        assert not fresh.facts(("p", None))


class TestRestoreInvalidatesPlans:
    def test_crash_restart_run_matches_oracle_with_compiled_plans(self):
        parsed = parse_program(FIGURE3_TEXT)
        program = DDatalogProgram(parsed)
        edb = load_facts(parsed)
        query = Query(parse_atom('r@r("1", Y)'))
        oracle = DqsqEngine(program, edb).query(query).answers
        for victim in sorted(program.peers()):
            options = NetworkOptions(seed=9, peer_fault=PeerFaultPlan(
                crash_at={victim: (2,)}, restart_after_deliveries=8))
            result = DqsqEngine(program, edb, options=options).query(query)
            assert result.answers == oracle
            assert result.counters["net.recovery.restores"] >= 1
