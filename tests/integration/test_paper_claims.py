"""The paper's claims as one executable checklist.

Each test cites the claim it certifies; the detailed per-module tests
live elsewhere -- this module is the audit trail linking paper text to
behaviour.  Everything here runs the real engines end to end.
"""

import pytest

from repro.datalog import (Database, EvaluationBudget, Query,
                           SemiNaiveEvaluator, parse_atom, parse_program,
                           qsq_evaluate)
from repro.datalog.atom import Atom
from repro.diagnosis import (AlarmSequence, DatalogDiagnosisEngine,
                             DedicatedDiagnoser, bruteforce_diagnosis)
from repro.distributed import (DDatalogProgram, DqsqEngine, FaultPlan,
                               NetworkOptions)
from repro.errors import BudgetExceeded
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.petri.generators import random_safe_net
from repro.workloads.alarmgen import simulate_alarms

FIGURE3 = """
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


class TestSection2:
    def test_running_example_diagnosis_statement(self):
        """Section 2: "the set of shaded nodes in Figure 2 is a diagnosis
        for the alarm sequence (b,p1),(a,p2),(c,p1).  The same set of
        nodes is also a diagnosis for (b,p1),(c,p1),(a,p2), but not for
        (c,p1),(b,p1),(a,p2)."""
        petri = figure1_net()
        scenarios = figure1_alarm_scenarios()
        bac = bruteforce_diagnosis(petri, AlarmSequence(scenarios["bac"])).diagnoses
        bca = bruteforce_diagnosis(petri, AlarmSequence(scenarios["bca"])).diagnoses
        cba = bruteforce_diagnosis(petri, AlarmSequence(scenarios["cba"])).diagnoses
        assert bac == bca and len(bac) == 1
        assert cba == frozenset()


class TestTheorem1:
    def test_dqsq_equals_qsq_on_figure3(self):
        """Theorem 1: dQSQ computes the same facts (up to zeta) as QSQ on
        P_local and terminates on P iff QSQ does on P_local."""
        program = DDatalogProgram(parse_program(FIGURE3))
        from repro.datalog.database import load_facts
        edb = load_facts(parse_program(FIGURE3))
        query = Query(parse_atom('r@r("1", Y)'))
        dqsq = DqsqEngine(program, edb).query(query)

        local = program.local_version()
        local_edb = Database()
        for key in edb.relations():
            relation, peer = key
            for fact in edb.facts(key):
                local_edb.add((f"{relation}@{peer}", None), fact)
        qsq = qsq_evaluate(local, Query(Atom("r@r", query.atom.args, None)),
                           local_edb)
        assert dqsq.answers == qsq.answers


class TestTheorem2:
    def test_program_constructs_the_unfolding(self):
        """Theorem 2: a bijection between Unfold(N, M) and the node set
        constructed by Prog(N, M)."""
        from repro.diagnosis.encoding import (TRANS1, TRANS2,
                                              UnfoldingEncoder,
                                              node_id_of_term)
        from repro.petri.unfolding import unfold
        petri = figure1_net()
        db = Database()
        SemiNaiveEvaluator(UnfoldingEncoder(petri).program().program,
                           EvaluationBudget(max_facts=500_000)).run(db)
        events = set()
        for key in db.relations():
            if key[0] in (TRANS1, TRANS2):
                events |= {node_id_of_term(f[0]) for f in db.facts(key)}
        assert events == set(unfold(petri).events)


class TestTheorem3:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conf_is_exactly_the_diagnosis_set(self, seed):
        """Theorem 3: Conf(N, M, A) is precisely the set of all possible
        configurations of A in Unfold(N, M)."""
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=4, seed=seed)
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        got = DatalogDiagnosisEngine(petri, mode="qsq").diagnose(alarms)
        assert got.diagnoses == expected


class TestProposition1:
    def test_dqsq_terminates_where_bottom_up_cannot(self):
        """Proposition 1: on input q@p0(?, ?), dQSQ terminates -- even
        though the program has function symbols and the unfolding of a
        cyclic net is infinite."""
        petri = random_safe_net(0)
        alarms = simulate_alarms(petri, steps=3, seed=0)
        result = DatalogDiagnosisEngine(petri, mode="dqsq").diagnose(alarms)
        assert isinstance(result.diagnoses, frozenset)
        with pytest.raises(BudgetExceeded):
            DatalogDiagnosisEngine(
                petri, mode="bottomup",
                budget=EvaluationBudget(max_facts=20_000, max_iterations=50)
            ).diagnose(alarms)


class TestTheorem4:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generic_dqsq_matches_dedicated_reduction(self, seed):
        """Theorem 4: a bijection between the prefix materialized by the
        dedicated algorithm of [8] and the nodes constructed under dQSQ."""
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=4, seed=seed)
        dedicated = DedicatedDiagnoser(petri).diagnose(alarms)
        datalog = DatalogDiagnosisEngine(petri, mode="dqsq").diagnose(alarms)
        assert datalog.materialized_events == dedicated.projected_events
        assert datalog.diagnoses == dedicated.diagnoses


class TestSection32:
    def test_bindings_pay_on_the_diagnosis_program_itself(self):
        """Section 3.2 / 4.3, why bindings matter (experiment E6c): on an
        acyclic net, where the un-optimized distributed evaluation
        terminates at all, it ships the whole unfolding between the
        peers while dQSQ ships the demanded prefix -- same answers, a
        fraction of the tuples, and the gap grows with the net."""
        from repro.diagnosis.supervisor import SupervisorEncoder
        from repro.distributed import DistributedNaiveEngine
        from repro.petri.generators import acyclic_pipeline_net
        petri = acyclic_pipeline_net(stages=3, peers=2, branching=0.8,
                                     joins=0.5, seed=3)
        encoder = SupervisorEncoder(petri, simulate_alarms(petri, steps=2, seed=3))
        program, query = encoder.program(), Query(encoder.query_atom())
        naive = DistributedNaiveEngine(program).query(query)
        dqsq = DqsqEngine(program).query(query)
        assert naive.answers == dqsq.answers
        assert (dqsq.counters["tuples_shipped"] * 3
                < naive.counters["tuples_shipped"])


class TestRemark2:
    def test_results_flow_before_rewriting_completes(self):
        """Remark 2: computation and result generation may start before
        the (distributed) rewriting is complete -- delegations and tuples
        interleave on the network, under any schedule."""
        program = DDatalogProgram(parse_program(FIGURE3))
        from repro.datalog.database import load_facts
        edb = load_facts(parse_program(FIGURE3))
        query = Query(parse_atom('r@r("1", Y)'))
        baseline = None
        for seed in range(5):
            result = DqsqEngine(program, edb,
                                options=NetworkOptions(seed=seed)).query(query)
            if baseline is None:
                baseline = result.answers
            assert result.answers == baseline


class TestFailureInjection:
    @pytest.mark.parametrize("seed", range(4))
    def test_diagnosis_schedule_independent(self, seed):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        expected = bruteforce_diagnosis(petri, alarms).diagnoses
        engine = DatalogDiagnosisEngine(petri, mode="dqsq",
                                        options=NetworkOptions(seed=seed))
        assert engine.diagnose(alarms).diagnoses == expected

    def test_a_drop_costs_a_retransmission_not_an_answer(self):
        """Lossy channels (experiment E9): under 20% loss every dropped
        frame is paid for by exactly one retransmission from the head of
        its channel, and the diagnosis is the zero-loss one."""
        from repro.workloads import get_scenario
        petri, alarms = get_scenario("telecom-small").instantiate()
        lossy = DatalogDiagnosisEngine(
            petri, mode="dqsq", options=NetworkOptions(seed=1, fault=FaultPlan(
                drop_probability=0.2, delay_distribution=(0, 3)))).diagnose(alarms)
        assert not lossy.partial
        assert lossy.diagnoses == bruteforce_diagnosis(petri, alarms).diagnoses
        dropped = lossy.counters["net.dropped"]
        assert dropped > 0
        assert lossy.counters["net.retransmits"] == dropped
