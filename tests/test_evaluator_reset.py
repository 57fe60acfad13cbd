"""The plan table across peer restores and program lifetimes.

Join plans are kept per rule, by equality and weakly
(:func:`repro.datalog.plan.compile_join_plan`): a rule equal to one
that compiled a plan gets that plan, and a plan dies with the rule
object that keys it.  A restored peer re-installs *unpickled* rules --
new objects, equal to the old ones -- so it finds its plans again
without compiling, and nothing about a recycled ``id()`` can reach a
lookup.
"""

import gc
import pickle

from repro.datalog.database import Database, load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.plan import clear_plan_cache, plan_cache_size
from repro.datalog.rule import Query
from repro.datalog.seminaive import EvaluationBudget, SemiNaiveEvaluator
from repro.datalog.term import Const
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.dqsq import DqsqEngine
from repro.distributed.network import Message, NetworkOptions, PeerFaultPlan
from repro.distributed.peer import Peer
from repro.workloads.scenarios import FIGURE3_TEXT

TC = """
edge(1, 2). edge(2, 3). edge(3, 4).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


class _Installer(Peer):
    """A request installs the rule it carries."""

    KIND_FACTS = "facts"

    def handle(self, message, transport):
        self.install(message.payload)


class _Outbox:
    def send(self, sender, recipient, kind, payload):
        pass


def _run(program):
    evaluator = SemiNaiveEvaluator(program, check=False)
    evaluator.run(Database())
    return evaluator.counters


class TestPlanTable:
    def test_restored_peer_resolves_the_same_plans(self):
        rule = next(parse_program("p(X) :- q(X).").proper_rules())
        peer = _Installer("home", (), EvaluationBudget(),
                          facts={("q", None): [(Const("a"),)]})
        peer.on_messages([Message("a", "home", "install", rule)], _Outbox())
        [(_, _, _, _, plan)] = peer.evaluator._consumers[("q", None)]
        assert plan is not None
        compiled = peer.evaluator.counters["plan.cache_misses"]

        # the checkpoint travels pickled, as the network stores it
        peer.restore(pickle.loads(pickle.dumps(peer.checkpoint())))
        [(reinstalled, _, _, _, replan)] = \
            peer.evaluator._consumers[("q", None)]
        assert reinstalled == rule and reinstalled is not rule
        assert replan is plan
        assert peer.evaluator.counters["plan.cache_misses"] == compiled
        assert list(peer.db.facts(("p", None))) == [(Const("a"),)]

    def test_plans_die_with_their_program(self):
        clear_plan_cache()
        gc.collect()
        before = plan_cache_size()
        program = parse_program(TC)
        _run(program)
        assert plan_cache_size() > before
        del program
        gc.collect()
        assert plan_cache_size() == before

    def test_clear_plan_cache_recompiles_a_held_program(self):
        program = parse_program(TC)
        clear_plan_cache()
        compiled = _run(program)["plan.cache_misses"]
        assert compiled > 0
        warm = _run(program)
        assert warm["plan.cache_misses"] == 0
        assert warm["plan.cache_hits"] > 0
        clear_plan_cache()
        assert _run(program)["plan.cache_misses"] == compiled


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
