"""Tests for the distributed-run sanitizer stack.

Three layers under test: the vector-clocked trace recorder
(:mod:`repro.distributed.trace`), the static commutation oracle and the
DD701/DD702/DD703 confluence passes (:mod:`repro.datalog.analysis`), and
the happens-before race detector itself
(:mod:`repro.distributed.sanitizer`).
"""

from dataclasses import replace

import pytest

from repro.datalog.analysis import analyze, non_commuting_pairs
from repro.datalog.database import Database, load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rule import Query
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.dqsq import DqsqEngine
from repro.distributed.naive_dist import DistributedNaiveEngine
from repro.distributed.network import NetworkOptions
from repro.distributed.race import RACY_TEXT
from repro.distributed.sanitizer import sanitize
from repro.distributed.trace import TraceRecorder, vc_concurrent, vc_leq
from repro.workloads.scenarios import FIGURE3_TEXT


def _run_figure3(seed: int = 0) -> tuple[TraceRecorder, object]:
    parsed = parse_program(FIGURE3_TEXT)
    recorder = TraceRecorder()
    engine = DqsqEngine(DDatalogProgram(parsed), load_facts(parsed),
                        options=NetworkOptions(seed=seed, tracer=recorder))
    result = engine.query(Query(parse_atom('r@r("1", Y)')))
    return recorder, result


def _run_racy(seed: int = 7):
    parsed = parse_program(RACY_TEXT, check=False)
    recorder = TraceRecorder()
    engine = DistributedNaiveEngine(
        DDatalogProgram(parsed), load_facts(parsed),
        options=NetworkOptions(seed=seed, tracer=recorder),
        check=False, unsafe_negation=True)
    result = engine.query(Query(parse_atom("verdict@s(X)")))
    return parsed, recorder, result


class TestVectorClocks:
    def test_leq_is_componentwise(self):
        assert vc_leq({"a": 1}, {"a": 1, "b": 2})
        assert not vc_leq({"a": 2}, {"a": 1, "b": 2})
        assert vc_leq({}, {"a": 1})

    def test_concurrent_iff_incomparable(self):
        assert vc_concurrent({"a": 1}, {"b": 1})
        assert not vc_concurrent({"a": 1}, {"a": 2})
        assert not vc_concurrent({"a": 1}, {"a": 1})


class TestTraceRecorder:
    def test_deliveries_carry_clocks_and_writes(self):
        recorder, result = _run_figure3()
        assert result.answers
        deliveries = recorder.deliveries()
        assert deliveries
        for event in deliveries:
            assert event.kind == "deliver"
            assert event.sender is not None
            assert event.send_clock is not None
            # the delivery happens after its own send
            assert vc_leq(event.send_clock, event.clock)
            assert event.pick_index is not None

    def test_send_happens_before_causally_later_send(self):
        recorder, _ = _run_figure3()
        deliveries = recorder.deliveries()
        # per-peer delivery clocks are totally ordered (one peer is
        # sequential): a later delivery at the same peer dominates
        by_peer: dict[str, list] = {}
        for event in deliveries:
            by_peer.setdefault(event.peer, []).append(event)
        for events in by_peer.values():
            for earlier, later in zip(events, events[1:]):
                assert vc_leq(earlier.clock, later.clock)

    def test_demand_and_checkpoint_markers_recorded(self):
        recorder, _ = _run_figure3()
        kinds = {event.kind for event in recorder.events}
        assert "demand" in kinds
        assert "send" in kinds


class TestCommutationOracle:
    def test_positive_program_has_no_pairs(self):
        assert non_commuting_pairs(parse_program(FIGURE3_TEXT)) == set()

    def test_negation_yields_cross_peer_pair(self):
        pairs = non_commuting_pairs(parse_program(RACY_TEXT, check=False))
        assert frozenset({("alarm", "p1"), ("suspect", "p2")}) in pairs


class TestAnalyzerRaceCodes:
    def test_racy_program_flagged(self):
        report = analyze(parse_program(RACY_TEXT, check=False))
        codes = {d.code for d in report.diagnostics}
        assert {"DD701", "DD702", "DD703"} <= codes
        dd701 = [d for d in report.diagnostics if d.code == "DD701"]
        assert any("suspect@p2" in d.message for d in dd701)

    def test_positive_program_clean(self):
        report = analyze(parse_program(FIGURE3_TEXT))
        codes = {d.code for d in report.diagnostics}
        assert not codes & {"DD701", "DD702", "DD703"}


class TestSanitizer:
    def test_racy_run_reports_conflict(self):
        parsed, recorder, _ = _run_racy(seed=7)
        report = sanitize(recorder, parsed)
        assert not report.schedule_independent
        assert report.conflicts
        conflict = report.conflicts[0]
        assert conflict.peer == "s"
        assert frozenset({("alarm", "p1"), ("suspect", "p2")}) \
            in conflict.relations
        assert "alarm@p1" in conflict.describe()
        assert report.counters["sanitizer.conflicts"] >= 1

    def test_positive_run_is_schedule_independent(self):
        parsed = parse_program(FIGURE3_TEXT)
        for seed in range(3):
            recorder, _ = _run_figure3(seed)
            report = sanitize(recorder, parsed)
            assert report.schedule_independent, report.render()
            assert len(report.benign) == report.pairs_pruned_commuting

    def test_positive_concurrency_pruned_as_benign(self):
        # the naive engine streams whole relations over many channels,
        # so its schedules actually contain concurrent pairs -- all of
        # which must be pruned by the commutation oracle
        parsed = parse_program(FIGURE3_TEXT)
        recorder = TraceRecorder()
        DistributedNaiveEngine(
            DDatalogProgram(parsed), load_facts(parsed),
            options=NetworkOptions(seed=0, tracer=recorder),
            check=False).query(Query(parse_atom('r@r("1", Y)')))
        report = sanitize(recorder, parsed)
        assert report.pairs_concurrent > 0
        assert report.schedule_independent, report.render()
        assert report.benign

    def test_counters_are_namespaced(self):
        _, recorder, _ = _run_racy()
        parsed = parse_program(RACY_TEXT, check=False)
        report = sanitize(recorder, parsed)
        assert all(name.startswith("sanitizer.")
                   for name in report.counters)

    def test_same_sender_pairs_exempt(self):
        # the two alarm deliveries p1->s ride one FIFO channel: they are
        # never reported, however the suspect delivery interleaves
        _, recorder, _ = _run_racy()
        parsed = parse_program(RACY_TEXT, check=False)
        report = sanitize(recorder, parsed)
        for conflict in report.conflicts:
            assert conflict.first.sender != conflict.second.sender


class TestChaosExplanation:
    def test_race_free_schedule_blames_recovery(self):
        from repro.distributed.chaos import (ChaosConfig, _explain_violation,
                                             _make_problem, make_schedule)
        problem = _make_problem("figure3")
        schedule = make_schedule(ChaosConfig(seed=3), 0, problem.peers)
        explanation = _explain_violation(problem, schedule)
        assert "race-free" in explanation or "race at" in explanation

    def test_outcome_has_explanation_field(self):
        from repro.distributed.chaos import ScheduleOutcome
        outcome = ScheduleOutcome(index=0, status="completed", equal=True,
                                  subset=True, violation=None,
                                  description="x")
        assert outcome.explanation is None


class TestTracerOverheadIsOptIn:
    def test_no_tracer_no_events(self):
        parsed = parse_program(FIGURE3_TEXT)
        engine = DqsqEngine(DDatalogProgram(parsed), load_facts(parsed),
                            options=NetworkOptions(seed=0))
        result = engine.query(Query(parse_atom('r@r("1", Y)')))
        assert result.answers

    def test_tracer_does_not_change_answers(self):
        recorder, traced = _run_figure3(seed=4)
        parsed = parse_program(FIGURE3_TEXT)
        plain = DqsqEngine(DDatalogProgram(parsed), load_facts(parsed),
                           options=NetworkOptions(seed=4)) \
            .query(Query(parse_atom('r@r("1", Y)')))
        assert traced.answers == plain.answers
