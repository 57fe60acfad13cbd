"""Tests for the seeded schedule explorer and the ``repro race`` CLI."""

from dataclasses import replace
from pathlib import Path

import pytest

import repro.distributed.transport as transport_module
from repro.cli import main
from repro.datalog.analysis import analyze
from repro.diagnosis.supervisor import SupervisorEncoder
from repro.distributed.network import Network
from repro.distributed.race import builtin_scenarios, explore, file_scenario
from repro.errors import DistributedError, ReproError
from repro.workloads.scenarios import figure3, get_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
RACY = REPO_ROOT / "examples" / "racy.dl"

_RACE_CODES = {"DD701", "DD702", "DD703"}


class TestExplore:
    def test_racy_scenario_detects_divergence(self):
        report = explore(builtin_scenarios()["racy"], budget=10, seed=7)
        assert report.race_detected
        diverged = report.divergences[0]
        assert diverged.outcome != report.baseline.outcome
        # the static verdict rides along with the dynamic witness
        codes = {d.code for d in report.diagnostics}
        assert _RACE_CODES <= codes
        text = report.render()
        assert "RACE" in text
        assert f"seed(s) {diverged.seed}" in text

    def test_divergence_replays_from_its_seed(self):
        scenario = builtin_scenarios()["racy"]
        diverged = explore(scenario, budget=10, seed=7).divergences[0]
        replay = explore(scenario, budget=1, seed=diverged.seed)
        assert replay.baseline.outcome == diverged.outcome

    def test_racy_diverges_from_seed_zero(self):
        assert explore(builtin_scenarios()["racy"], seed=0).race_detected

    def test_figure3_is_confluent(self):
        report = explore(builtin_scenarios()["figure3"], budget=10, seed=0)
        assert not report.race_detected
        assert not report.diagnostics
        assert "no divergence" in report.render()

    def test_budget_bounds_runs(self):
        scenario = builtin_scenarios()["racy"]
        report = explore(scenario, budget=1, seed=7)
        assert not report.runs
        assert report.counters["race.runs"] == 1
        report = explore(scenario, budget=4, seed=7)
        assert [run.seed for run in report.runs] == [8, 9, 10]
        assert report.counters["race.runs"] == 4
        with pytest.raises(DistributedError):
            explore(scenario, budget=0)

    def test_counters_are_namespaced(self):
        report = explore(builtin_scenarios()["racy"], budget=10, seed=7)
        assert report.counters["race.runs"] == 10
        assert report.counters["race.divergences"] == len(report.divergences)
        assert report.counters["race.answer_sets"] == 2
        for name in report.counters:
            assert name.startswith("race.")

    def test_file_scenario_matches_builtin(self):
        scenario = file_scenario(str(RACY), "verdict@s(X)",
                                 unsafe_negation=True)
        report = explore(scenario, budget=10, seed=7)
        assert report.race_detected

    @pytest.mark.parametrize("unsafe_negation", [False, True])
    def test_file_scenario_rejects_undefined_query_relation(
            self, unsafe_negation):
        # No rule or fact writes nope@s: every schedule would answer the
        # empty set, so "no divergence" would be vacuous.
        with pytest.raises(ReproError, match="nope@s"):
            file_scenario(str(RACY), "nope@s(X)",
                          unsafe_negation=unsafe_negation)


def _delivery_orders(monkeypatch, scenario, seeds):
    """Run ``scenario`` once per seed; return (answer sets, orders).

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
        answers.add(scenario.run(replace(scenario.base_options, seed=seed)))
        orders.add(tuple(current))
    return answers, orders


class TestSeededConfluence:
    """A positive program gives one model under every delivery order
    (CALM); the DD70x verdict is what licenses that."""

    @pytest.mark.parametrize("name", ["figure3", "e6", "e9"])
    def test_seeded_schedules_agree(self, monkeypatch, name):
        scenario = builtin_scenarios()[name]
        answers, orders = _delivery_orders(monkeypatch, scenario,
                                           range(7, 17))
        assert len(answers) == 1
        assert len(orders) >= 2

    @pytest.mark.parametrize("problem", ["figure3", "figure1-bac"])
    def test_chaos_problem_is_statically_confluent(self, problem):
        if problem == "figure3":
            program = figure3()[0].program
        else:
            petri, alarms = get_scenario(problem).instantiate()
            program = SupervisorEncoder(petri, alarms).program().program
        codes = {d.code for d in analyze(program).diagnostics}
        assert not codes & _RACE_CODES


class TestRaceCli:
    def test_expect_race_succeeds_on_racy(self, capsys):
        assert main(["race", "--scenario", "racy", "--seed", "7",
                     "--expect-race"]) == 0
        out = capsys.readouterr().out
        assert "RACE" in out
        assert "DD701" in out

    def test_race_found_fails_without_expect(self, capsys):
        assert main(["race", "--scenario", "racy", "--seed", "7"]) == 1

    def test_confluent_scenario_exits_zero(self, capsys):
        assert main(["race", "--scenario", "figure3", "--seed", "0"]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_unknown_scenario_errors(self, capsys):
        assert main(["race", "--scenario", "nope"]) == 2
        assert "unknown race scenario" in capsys.readouterr().err

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
