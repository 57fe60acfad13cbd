"""Tests for the DPOR-style schedule explorer and the ``repro race`` CLI."""

import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.datalog.database import load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rule import Query
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.dqsq import DqsqEngine
from repro.distributed.network import NetworkOptions
from repro.distributed.race import (FlipChooser, RecordingChooser,
                                    builtin_scenarios, explore, file_scenario)
from repro.errors import DistributedError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIGURE3 = REPO_ROOT / "examples" / "figure3.dl"
RACY = REPO_ROOT / "examples" / "racy.dl"


class TestRecordingChooser:
    def test_draws_like_default_scheduler(self):
        # a run under the RecordingChooser must be bit-identical to an
        # unobserved run with the same seed
        parsed = parse_program(FIGURE3.read_text())
        query = Query(parse_atom('r@r("1", Y)'))
        plain = DqsqEngine(DDatalogProgram(parsed), load_facts(parsed),
                           options=NetworkOptions(seed=5)).query(query)
        chooser = RecordingChooser()
        recorded = DqsqEngine(
            DDatalogProgram(parsed), load_facts(parsed),
            options=NetworkOptions(seed=5, chooser=chooser)).query(query)
        assert recorded.answers == plain.answers
        assert chooser.picks

    def test_replay_is_deterministic(self):
        parsed = parse_program(FIGURE3.read_text())
        query = Query(parse_atom('r@r("1", Y)'))
        picks = []
        for _ in range(2):
            chooser = RecordingChooser()
            DqsqEngine(DDatalogProgram(parsed), load_facts(parsed),
                       options=NetworkOptions(seed=5, chooser=chooser)) \
                .query(query)
            picks.append(tuple(chooser.picks))
        assert picks[0] == picks[1]


class TestFlipChooser:
    def test_replays_prefix_then_prefers(self):
        baseline = [("a", "s"), ("b", "s"), ("a", "s")]
        chooser = FlipChooser(baseline, flip_at=2, avoid=("b", "s"),
                              prefer=("c", "s"))
        rng = random.Random(0)
        eligible = [("a", "s"), ("b", "s"), ("c", "s")]
        assert chooser.choose(eligible, rng) == ("a", "s")   # replayed
        assert chooser.choose(eligible, rng) == ("c", "s")   # flipped
        # after the flip the avoided channel is allowed again
        picks = {chooser.choose(eligible, rng) for _ in range(20)}
        assert ("b", "s") in picks

    def test_avoids_first_channel_until_flip_done(self):
        chooser = FlipChooser([], flip_at=1, avoid=("b", "s"),
                              prefer=("c", "s"))
        rng = random.Random(0)
        # prefer not yet eligible: must dodge the avoided channel
        for _ in range(10):
            assert chooser.choose([("a", "s"), ("b", "s")], rng) == ("a", "s")
        assert chooser.choose([("b", "s"), ("c", "s")], rng) == ("c", "s")

    def test_gives_up_when_only_avoid_is_eligible(self):
        chooser = FlipChooser([], flip_at=1, avoid=("b", "s"),
                              prefer=("c", "s"))
        rng = random.Random(0)
        assert chooser.choose([("b", "s")], rng) == ("b", "s")
        assert chooser.prefer_remaining == 0

    def test_shared_channel_rejected(self):
        with pytest.raises(DistributedError):
            FlipChooser([], flip_at=1, avoid=("a", "s"), prefer=("a", "s"))


class TestExplore:
    def test_racy_scenario_detects_divergence(self):
        report = explore(builtin_scenarios()["racy"], budget=10, seed=7)
        assert report.race_detected
        assert report.schedules_explored >= 2
        diverged = report.divergences[0]
        assert diverged.outcome != report.baseline.outcome
        # the static prediction rides along with the dynamic witness
        codes = {d.code for d in report.diagnostics}
        assert "DD701" in codes and "DD702" in codes
        assert "RACE" in report.render()

    def test_figure3_is_confluent(self):
        report = explore(builtin_scenarios()["figure3"], budget=10, seed=0)
        assert not report.race_detected
        assert not report.sanitizer.conflicts

    def test_e6_explores_inequivalent_schedules_without_divergence(self):
        report = explore(builtin_scenarios()["e6"], budget=5, seed=7)
        assert report.schedules_explored >= 2
        assert not report.race_detected
        assert report.sanitizer.schedule_independent

    def test_budget_bounds_runs(self):
        report = explore(builtin_scenarios()["racy"], budget=1, seed=7)
        assert not report.runs
        assert report.counters["race.runs"] == 1
        with pytest.raises(DistributedError):
            explore(builtin_scenarios()["racy"], budget=0)

    def test_counters_are_namespaced(self):
        report = explore(builtin_scenarios()["racy"], budget=10, seed=7)
        assert report.counters["race.runs"] >= 2
        assert report.counters["race.divergences"] >= 1
        assert report.counters["race.schedules_explored"] >= 2
        for name in report.counters:
            assert name.startswith(("race.", "sanitizer."))

    def test_file_scenario_matches_builtin(self):
        scenario = file_scenario(str(RACY), "verdict@s(X)",
                                 unsafe_negation=True)
        report = explore(scenario, budget=10, seed=7)
        assert report.race_detected


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

    def test_program_requires_query(self, capsys):
        assert main(["race", "--program", str(RACY)]) == 2
