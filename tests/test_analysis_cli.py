"""Tests for the `repro lint` CLI subcommand."""

import pathlib

import pytest

from repro.cli import main

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def write_program(tmp_path, text, name="prog.dl"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write_program(tmp_path, """
            t(X, Y) :- e(X, Y).
            t(X, Z) :- e(X, Y), t(Y, Z).
            e("a", "b").
        """)
        assert main(["lint", path]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_unsafe_variable_fails_with_code_and_span(self, tmp_path, capsys):
        path = write_program(tmp_path, 'p(X, Y) :- q(X).\nq("a").\n')
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "DD101 unsafe-variable" in out
        # span points at the offending rule's source line
        assert f"{path}:1:1" in out

    def test_unstratified_negation_fails(self, tmp_path, capsys):
        path = write_program(tmp_path, """
            win(X) :- move(X, Y), not win(Y).
            move("a", "b").
        """)
        assert main(["lint", path]) == 1
        assert "DD201 unstratified-negation" in capsys.readouterr().out

    def test_arity_clash_fails(self, tmp_path, capsys):
        path = write_program(tmp_path, """
            p(X) :- q(X).
            p(X, X) :- q(X).
            q("a").
        """)
        assert main(["lint", path]) == 1
        assert "DD103 arity-mismatch" in capsys.readouterr().out

    def test_non_localizable_rule_fails(self, tmp_path, capsys):
        path = write_program(tmp_path, """
            r@p(X) :- s@p(X), t(X).
            s@p("1").
            t("1").
        """)
        assert main(["lint", path]) == 1
        assert "DD401 mixed-locality" in capsys.readouterr().out

    def test_unguarded_depth_growth_warns(self, tmp_path, capsys):
        path = write_program(tmp_path, """
            tree(f(X, X)) :- tree(X).
            tree("leaf").
        """)
        # A warning, not an error: exit 0 but the code is reported.
        assert main(["lint", path]) == 0
        out = capsys.readouterr().out
        assert "DD301 unbounded-term-growth warning" in out

    def test_depth_bounded_flag_downgrades(self, tmp_path, capsys):
        path = write_program(tmp_path, """
            tree(f(X, X)) :- tree(X).
            tree("leaf").
        """)
        assert main(["lint", path, "--depth-bounded"]) == 0
        out = capsys.readouterr().out
        assert "DD301 unbounded-term-growth info" in out

    def test_query_enables_dead_rule_detection(self, tmp_path, capsys):
        path = write_program(tmp_path, """
            alive(X) :- e(X).
            dead(X) :- e(X).
            e("1").
        """)
        assert main(["lint", path, "--query", "alive(X)"]) == 0
        assert "DD501 unreachable-rule" in capsys.readouterr().out

    def test_peers_enables_unknown_peer_detection(self, tmp_path, capsys):
        path = write_program(tmp_path, """
            r@p(X) :- s@q(X).
            s@q("1").
        """)
        assert main(["lint", path, "--peers", "p"]) == 0
        assert "DD402 unknown-peer" in capsys.readouterr().out

    @pytest.mark.parametrize("peers", [",", " ", " , "])
    def test_peers_naming_no_peer_is_an_error(self, peers, capsys):
        assert main(["lint", str(EXAMPLES / "figure3.dl"),
                     "--peers", peers]) == 2
        captured = capsys.readouterr()
        assert "names no peer" in captured.err
        assert "DD402" not in captured.out

    def test_registered_programs_lint_clean(self, capsys):
        assert main(["lint", "--registered"]) == 0
        out = capsys.readouterr().out
        for name in ("figure1-diagnosis", "figure3", "figure4-qsq"):
            assert f"<registered:{name}>: 0 error(s)" in out

    def test_no_input_is_an_error(self, capsys):
        assert main(["lint"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, capsys):
        assert main(["lint", "/nonexistent/prog.dl"]) == 2

    def test_example_files_lint_clean(self, capsys):
        assert main(["lint", str(EXAMPLES / "figure3.dl"),
                     str(EXAMPLES / "transitive_closure.dl")]) == 0


class TestLintRegisteredSpans:
    def test_registered_reports_carry_rule_index_spans(self, capsys):
        # registered programs are built in memory: the analyzer is fed
        # synthetic rule-index spans so diagnostics still point somewhere
        main(["lint", "--registered"])
        out = capsys.readouterr().out
        # rule-level diagnostics (e.g. DD301) must carry a rule-index
        # span; only program-level ones (e.g. DD104 arity census, which
        # has no single offending rule) may stay span-less
        import re
        rule_level = [line for line in out.splitlines()
                      if line.startswith("<registered:") and " DD301 " in line]
        assert rule_level
        for line in rule_level:
            assert re.match(r"^<registered:[\w-]+>:\d+:\d+: DD301", line), line
        # the span-less fallback ("    rule: ...") is gone for them
        assert "    rule:" not in out

    def test_racy_example_flags_confluence_codes(self, capsys):
        assert main(["lint", str(EXAMPLES / "racy.dl"),
                     "--query", "verdict@s(X)"]) == 0
        out = capsys.readouterr().out
        for code in ("DD701", "DD702", "DD703"):
            assert code in out


class TestLintFormats:
    def test_json_output_round_trips(self, tmp_path, capsys):
        import json
        path = write_program(tmp_path, 'p(X, Y) :- q(X).\nq("a").\n')
        assert main(["lint", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        (run,) = payload["runs"]
        assert run["label"] == path
        assert run["errors"] >= 1
        codes = {d["code"] for d in run["diagnostics"]}
        assert "DD101" in codes
        dd101 = next(d for d in run["diagnostics"] if d["code"] == "DD101")
        assert dd101["severity"] == "error"
        assert dd101["line"] == 1 and dd101["column"] == 1
        assert dd101["slug"] == "unsafe-variable"

    def test_sarif_output_is_valid_sarif(self, tmp_path, capsys):
        import json
        path = write_program(tmp_path, 'p(X, Y) :- q(X).\nq("a").\n')
        assert main(["lint", path, "--format", "sarif"]) == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        result_ids = {r["ruleId"] for r in run["results"]}
        assert result_ids <= rule_ids
        dd101 = next(r for r in run["results"] if r["ruleId"] == "DD101")
        assert dd101["level"] == "error"
        region = dd101["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1

    def test_sarif_info_maps_to_note_level(self, tmp_path, capsys):
        import json
        path = write_program(tmp_path, """
            r(f(X)) :- q(X).
            s(f(X, X)) :- q(X).
            q("a").
        """)
        main(["lint", path, "--format", "sarif"])
        sarif = json.loads(capsys.readouterr().out)
        dd104 = [r for r in sarif["runs"][0]["results"]
                 if r["ruleId"] == "DD104"]
        assert dd104 and dd104[0]["level"] == "note"

    def test_json_covers_registered_programs(self, capsys):
        import json
        assert main(["lint", "--registered", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        labels = {run["label"] for run in payload["runs"]}
        assert any(label.startswith("<registered:") for label in labels)
