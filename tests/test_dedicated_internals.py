"""Unit tests for the dedicated diagnoser's internals and the reference interpreter."""

import pytest

from repro.datalog import Database, parse_program, parse_rule
from repro.datalog.database import load_facts
from repro.datalog.term import Const, Var
from repro.diagnosis import (AlarmSequence, DedicatedDiagnoser,
                             ObservationSpec)
from repro.diagnosis.dedicated import _Projector
from repro.petri import Observer, product_with_observers, unfold
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.workloads import get_scenario
from tests.reference import iter_rule_bindings


class TestProjector:
    def setup_method(self):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        observers = [Observer.chain(p, list(s))
                     for p, s in sorted(alarms.by_peer().items())]
        self.product = product_with_observers(petri, observers)
        self.bp = unfold(self.product.petri)
        self.projector = _Projector(self.bp, self.product)

    def test_observer_conditions_vanish(self):
        observer_cids = [cid for cid, c in self.bp.conditions.items()
                         if c.place in self.product.observer_places]
        assert observer_cids
        for cid in observer_cids:
            assert self.projector.project_condition(cid) is None

    def test_system_roots_keep_canonical_ids(self):
        for cid in self.bp.roots:
            condition = self.bp.conditions[cid]
            if condition.place in self.product.observer_places:
                continue
            assert self.projector.project_condition(cid) == f"g(r,{condition.place})"

    def test_projected_events_are_unfolding_events(self):
        full = unfold(figure1_net())
        assert self.projector.event_ids() <= frozenset(full.events)

    def test_projection_is_memoized_and_stable(self):
        first = self.projector.event_ids()
        second = self.projector.event_ids()
        assert first == second

    def test_condition_ids_subset_of_unfolding(self):
        full = unfold(figure1_net())
        assert self.projector.condition_ids() <= frozenset(full.conditions)


class TestDedicatedCounters:
    def test_counters_populated(self):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        result = DedicatedDiagnoser(petri).diagnose(alarms)
        assert result.counters["product_events"] >= result.counters["projected_events"]
        assert result.counters["projected_events"] == len(result.projected_events)


class TestOneQuestion:
    """An alarm sequence is its chain ObservationSpec: same diagnoses,
    same materialized prefix, whichever way it is spelled."""

    @pytest.mark.parametrize("instance", ["figure1-bac", "telecom-small"])
    def test_alarms_and_their_spec_unfold_the_same_product(self, instance):
        petri, alarms = get_scenario(instance).instantiate()
        spec = ObservationSpec.from_alarms(alarms, petri.net.peers())
        diagnoser = DedicatedDiagnoser(petri)
        spelled, asked = diagnoser.diagnose(alarms), diagnoser.diagnose(spec)
        assert len(spelled.diagnoses) >= 1
        assert asked.diagnoses == spelled.diagnoses
        assert asked.projected_events == spelled.projected_events
        assert asked.projected_conditions == spelled.projected_conditions

    def test_an_observation_has_a_prefix_too(self):
        """Section-4.4 observations used to get a bare diagnosis set from
        a free function; now they materialize a prefix like any other."""
        petri = figure1_net()
        spec = ObservationSpec.from_alarms(
            AlarmSequence([("b", "p1"), ("c", "p1")]), petri.net.peers(),
            hidden=frozenset({"v"}), hidden_budget=1)
        result = DedicatedDiagnoser(petri).diagnose(spec)
        assert len(result.diagnoses) == 2
        assert result.projected_events == {
            event for diagnosis in result.diagnoses for event in diagnosis}


class TestIterRuleBindings:
    def test_inequality_checked_at_earliest_position(self):
        # X != Y is decidable after the second atom; a failing pair must
        # prune before the third atom is joined.
        program = parse_program("""
        a("1"). a("2").
        b("1"). b("2").
        c("x").
        """)
        db = load_facts(program)
        rule = parse_rule("out(X, Y) :- a(X), b(Y), c(Z), X != Y.")
        bindings = list(iter_rule_bindings(rule, db))
        pairs = {(b[Var("X")].value, b[Var("Y")].value) for b in bindings}
        assert pairs == {("1", "2"), ("2", "1")}

    def test_initial_binding_restricts(self):
        program = parse_program('e("1", "a"). e("2", "b").')
        db = load_facts(program)
        rule = parse_rule("out(X, Y) :- e(X, Y).")
        bindings = list(iter_rule_bindings(rule, db,
                                           initial={Var("X"): Const("1")}))
        assert len(bindings) == 1
        assert bindings[0][Var("Y")] == Const("a")

    def test_ground_inequality_prunes_whole_rule(self):
        program = parse_program('e("1").')
        db = load_facts(program)
        rule = parse_rule('out(X) :- e(X), "a" != "a".')
        assert list(iter_rule_bindings(rule, db)) == []

    def test_negated_atom_filters(self):
        program = parse_program("""
        e("1"). e("2").
        blocked("2").
        """)
        db = load_facts(program)
        rule = parse_rule("out(X) :- e(X), not blocked(X).")
        bindings = list(iter_rule_bindings(rule, db))
        assert {b[Var("X")].value for b in bindings} == {"1"}

    def test_delta_restriction(self):
        program = parse_program('e("1"). e("2").')
        db = load_facts(program)
        rule = parse_rule("out(X) :- e(X).")
        delta = [(Const("2"),)]
        bindings = list(iter_rule_bindings(rule, db, delta_position=0,
                                           delta_facts=delta))
        assert [b[Var("X")].value for b in bindings] == ["2"]
