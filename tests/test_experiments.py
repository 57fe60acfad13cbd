"""Tests for the experiment harness (fast experiments only)."""

import functools
import re
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, run_all
from repro.experiments.harness import ExperimentResult, write_report

#: every experiment whose section has no timing cell (E5, E6b and E6c
#: print wall-clock times); the shape tests run the first five anyway
NO_CLOCK = ("E1", "E2", "E3", "E4", "A3",
            "E6a", "E7", "E8", "E9", "E10", "A1", "A2")

REPORT = Path(__file__).parents[1].joinpath("EXPERIMENTS.md")


@functools.cache
def fresh(experiment_id):
    """One run per experiment, shared by the shape and report tests."""
    return EXPERIMENTS[experiment_id]()


class TestRegistry:
    def test_all_ids_present(self):
        for experiment_id in ("E1", "E2", "E3", "E4", "E5", "E6a", "E6b",
                              "E7", "A1", "A2", "A3"):
            assert experiment_id in EXPERIMENTS

    def test_e1_shape(self):
        result = fresh("E1")
        assert result.experiment_id == "E1"
        assert len(result.rows) == 3
        # Every solver agrees on every scenario.
        for row in result.rows:
            assert row[-1] is True and row[-2] is True

    def test_e2_shape(self):
        result = fresh("E2")
        assert "answers agree (QSQ = semi-naive): True" in result.notes
        rows = {row[0]: row for row in result.rows}
        detail = rows["QSQ (all rewritten rels)"][2]
        adorned = int(detail.removeprefix("adorned answers only: "))
        # QSQ's answers are no more than the whole model semi-naive builds
        assert 0 < adorned <= rows["semi-naive"][1]

    def test_e3_shape(self):
        result = fresh("E3")
        assert any("Theorem 1" in note and "True" in note for note in result.notes)

    def test_e4_shape(self):
        result = fresh("E4")
        for row in result.rows:
            assert row[-1] is True and row[-2] is True

    def test_a3_shape(self):
        result = fresh("A3")
        (_run, basic, acks, fired), = result.rows
        assert basic > 0 and acks > 0
        assert fired is True


class TestCommittedReport:
    @pytest.mark.parametrize("experiment_id", NO_CLOCK)
    def test_section_equals_a_fresh_run(self, experiment_id):
        # EXPERIMENTS.md is generated; a change that moves a count must
        # regenerate it (python -m repro.experiments) in the same commit.
        section = fresh(experiment_id).to_markdown()
        assert section[:section.rindex("_Runtime:")] in REPORT.read_text()

    def test_sections_are_the_registry_in_order(self):
        ids = re.findall(r"^### (\S+) — ", REPORT.read_text(), re.MULTILINE)
        assert ids == list(EXPERIMENTS)


class TestHarness:
    def test_run_all_subset(self, capsys):
        results = run_all(only=["E1"], verbose=True)
        assert len(results) == 1
        assert "E1" in capsys.readouterr().out

    def test_markdown_and_text_rendering(self):
        result = ExperimentResult("X1", "demo", "none", ["a"], [[1]],
                                  notes=["hello"])
        assert "X1" in result.to_text()
        markdown = result.to_markdown()
        assert markdown.startswith("### X1")
        assert "| a |" in markdown

    def test_write_report(self, tmp_path):
        result = ExperimentResult("X1", "demo", "none", ["a"], [[1]])
        path = tmp_path / "report.md"
        write_report(str(path), [result])
        content = path.read_text()
        assert "X1" in content and content.startswith("# EXPERIMENTS")
