"""Tests for ``repro race``: the seeded schedule source of the campaign
runner in :mod:`repro.distributed.chaos`."""

from dataclasses import replace
from pathlib import Path

import pytest

import repro.distributed.transport as transport_module
from repro.cli import main
from repro.datalog.analysis import analyze
from repro.distributed.chaos import file_problem, get_problem, run_race
from repro.distributed.network import Network
from repro.errors import DistributedError, ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent
RACY = REPO_ROOT / "examples" / "racy.dl"

_RACE_CODES = {"DD701", "DD702", "DD703"}


class TestExplore:
    def test_racy_scenario_detects_divergence(self):
        report = run_race(get_problem("racy"), budget=10, seed=7)
        assert not report.ok()
        diverged = report.violations()[0]
        assert diverged.status == "completed"
        assert diverged.answers != report.reference
        # the static verdict rides along with the dynamic witness
        codes = {d.code for d in report.diagnostics}
        assert _RACE_CODES <= codes
        text = report.render()
        assert "VIOLATION" in text
        assert f"seed(s) {diverged.index}" in text
        assert "statically predicted by:" in text

    def test_divergence_replays_from_its_seed(self):
        problem = get_problem("racy")
        diverged = run_race(problem, budget=10, seed=7).violations()[0]
        replay = run_race(problem, budget=1, seed=diverged.index)
        assert replay.reference == diverged.answers

    def test_racy_diverges_from_seed_zero(self):
        assert not run_race(get_problem("racy"), seed=0).ok()

    def test_figure3_is_confluent(self):
        report = run_race(get_problem("figure3"), budget=10, seed=0)
        assert report.ok()
        assert not report.diagnostics
        assert len(report.answer_sets()) == 1
        assert "invariants held" in report.render()

    def test_budget_bounds_runs(self):
        problem = get_problem("racy")
        calls = []
        counted = replace(problem, run=lambda options: (
            calls.append(options.seed) or problem.run(options)))
        report = run_race(counted, budget=1, seed=7)
        assert not report.outcomes
        assert calls == [7]
        calls.clear()
        report = run_race(counted, budget=4, seed=7)
        assert [o.index for o in report.outcomes] == [8, 9, 10]
        assert calls == [7, 8, 9, 10]
        with pytest.raises(DistributedError):
            run_race(problem, budget=0)

    def test_file_scenario_matches_builtin(self):
        problem = file_problem(str(RACY), "verdict@s(X)",
                               unsafe_negation=True)
        report = run_race(problem, budget=10, seed=7)
        builtin = run_race(get_problem("racy"), budget=10, seed=7)
        assert not report.ok()
        assert report.answer_sets() == builtin.answer_sets()

    @pytest.mark.parametrize("unsafe_negation", [False, True])
    def test_file_scenario_rejects_undefined_query_relation(
            self, unsafe_negation):
        # No rule or fact writes nope@s: every schedule would answer the
        # empty set, so "no divergence" would be vacuous.
        with pytest.raises(ReproError, match="nope@s"):
            file_problem(str(RACY), "nope@s(X)",
                         unsafe_negation=unsafe_negation)


def _delivery_orders(monkeypatch, problem, seeds):
    """Run ``problem`` once per seed; return (answer sets, orders).

    An order is the (sender, recipient, kind) sequence of handler
    deliveries of every network the run built, seen through
    :meth:`Network.add_monitor`.
    """
    current: list = []

    class MonitoredNetwork(Network):
        def __init__(self, options=None):
            super().__init__(options)
            self.add_monitor(lambda message: current.append(
                (message.sender, message.recipient, message.kind)))

    monkeypatch.setattr(transport_module, "Network", MonitoredNetwork)
    answers, orders = set(), set()
    for seed in seeds:
        current.clear()
        run_answers, partial, _attributed, _counters = problem.run(
            replace(problem.base_options, seed=seed))
        assert not partial
        answers.add(run_answers)
        orders.add(tuple(current))
    return answers, orders


class TestSeededConfluence:
    """A positive program gives one model under every delivery order
    (CALM); the DD70x verdict is what licenses that."""

    @pytest.mark.parametrize("name", ["figure3", "figure1-bac",
                                      "figure3-crash"])
    def test_seeded_schedules_agree(self, monkeypatch, name):
        answers, orders = _delivery_orders(monkeypatch, get_problem(name),
                                           range(7, 17))
        assert len(answers) == 1
        assert len(orders) >= 2

    @pytest.mark.parametrize("problem", ["figure3", "figure1-bac"])
    def test_chaos_problem_is_statically_confluent(self, problem):
        codes = {d.code for d in analyze(get_problem(problem).program)
                 .diagnostics}
        assert not codes & _RACE_CODES


class TestRaceCli:
    def test_expect_race_succeeds_on_racy(self, capsys):
        assert main(["race", "--scenario", "racy", "--seed", "7",
                     "--expect-race"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "DD701" in out

    def test_race_found_fails_without_expect(self, capsys):
        assert main(["race", "--scenario", "racy", "--seed", "7"]) == 1

    def test_confluent_scenario_exits_zero(self, capsys):
        assert main(["race", "--scenario", "figure3", "--seed", "0"]) == 0
        assert "invariants held" in capsys.readouterr().out

    def test_unknown_scenario_errors(self, capsys):
        assert main(["race", "--scenario", "nope"]) == 2
        assert "unknown chaos problem 'nope'" in capsys.readouterr().err

    def test_program_file_mode(self, capsys):
        assert main(["race", "--program", str(RACY), "--query",
                     "verdict@s(X)", "--unsafe-negation", "--seed", "7",
                     "--expect-race"]) == 0
        out = capsys.readouterr().out
        for code in sorted(_RACE_CODES):
            assert code in out

    def test_program_requires_query(self, capsys):
        assert main(["race", "--program", str(RACY)]) == 2

    def test_undefined_query_relation_errors(self, capsys):
        assert main(["race", "--program", str(RACY), "--query", "nope@s(X)",
                     "--unsafe-negation"]) == 2
        assert "nope@s" in capsys.readouterr().err
