"""Tests for the `repro diagnosability` CLI and the shared emitters."""

import json

import pytest

from repro.cli import main
from repro.datalog.analysis import INFO, WARNING
from repro.diagnosability import (DiagnosabilitySpec, VerifierLimits,
                                  get_instance, model_diagnostics)
from repro.petri.io import petri_to_json


class TestDiagnosabilityCommand:
    def test_list_instances(self, capsys):
        assert main(["diagnosability", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("ambiguous-loop", "needs-communication", "silent-fault"):
            assert name in out

    def test_diagnosable_instance_exits_zero(self, capsys):
        assert main(["diagnosability", "diagnosable-chain"]) == 0
        out = capsys.readouterr().out
        assert "diagnosable" in out
        assert "DD9" not in out

    def test_non_diagnosable_instance_exits_one_with_witness(self, capsys):
        assert main(["diagnosability", "ambiguous-loop"]) == 1
        out = capsys.readouterr().out
        assert "DD901" in out
        assert "ambiguous cycle witness" in out
        assert "pump" in out

    def test_dd904_surfaces_in_text(self, capsys):
        assert main(["diagnosability", "needs-communication"]) == 0
        out = capsys.readouterr().out
        assert "DD904" in out
        assert "p0, p1" in out

    def test_skip_local_suppresses_dd904(self, capsys):
        assert main(["diagnosability", "needs-communication",
                     "--skip-local"]) == 0
        assert "DD904" not in capsys.readouterr().out

    def test_json_format_carries_witness_payload(self, capsys):
        assert main(["diagnosability", "silent-fault",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        assert run["label"] == "<model:silent-fault>"
        codes = {d["code"] for d in run["diagnostics"]}
        assert codes == {"DD901", "DD903"}
        (dd901,) = [d for d in run["diagnostics"] if d["code"] == "DD901"]
        assert dd901["fault_class"] == "fault"
        assert dd901["witness"]["kind"] == "deadlock"
        assert "fault" in dd901["witness"]["faulty_run"]

    def test_sarif_format_round_trips_with_properties(self, capsys):
        assert main(["diagnosability", "ambiguous-loop",
                     "needs-communication", "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert "DD901" in rules and "DD904" in rules
        assert rules["DD901"]["helpUri"].endswith("diagnosability.md")
        by_code = {r["ruleId"]: r for r in run["results"]}
        witness = by_code["DD901"]["properties"]["witness"]
        assert witness["cycle_faulty"]
        assert by_code["DD904"]["properties"]["faultClass"] == "fault"

    def test_unknown_instance_is_usage_error(self, capsys):
        assert main(["diagnosability", "no-such-model"]) == 2

    def test_no_models_is_usage_error(self, capsys):
        assert main(["diagnosability"]) == 2

    def test_net_file_with_fault_mask(self, tmp_path, capsys):
        petri, _spec = get_instance("ambiguous-loop").build()
        path = tmp_path / "net.json"
        path.write_text(petri_to_json(petri))
        # Defaults observe every non-fault transition, including the
        # silent "ok" choice -- which makes the loop diagnosable.
        assert main(["diagnosability", "--net", str(path),
                     "--faults", "fault"]) == 0
        assert "DD901" not in capsys.readouterr().out
        # Hiding the choice restores the paper's ambiguity.
        assert main(["diagnosability", "--net", str(path),
                     "--faults", "fault", "--unobservable", "ok"]) == 1
        assert "DD901" in capsys.readouterr().out

    def test_net_requires_faults(self, tmp_path, capsys):
        petri, _spec = get_instance("ambiguous-loop").build()
        path = tmp_path / "net.json"
        path.write_text(petri_to_json(petri))
        assert main(["diagnosability", "--net", str(path)]) == 2


class TestDepthBoundSeverity:
    """DD902: a declared bound downgrades the verdict to info."""

    def test_undeclared_truncation_is_warning(self):
        petri, spec = get_instance("diagnosable-chain").build()
        diags, _ = model_diagnostics(
            petri, spec, limits=VerifierLimits(max_depth=1),
            assume_bounded=False)
        (dd902,) = [d for d in diags if d.code == "DD902"]
        assert dd902.severity == WARNING

    def test_declared_bound_downgrades_to_info(self):
        petri, spec = get_instance("diagnosable-chain").build()
        diags, _ = model_diagnostics(
            petri, spec, limits=VerifierLimits(max_depth=1),
            assume_bounded=True)
        (dd902,) = [d for d in diags if d.code == "DD902"]
        assert dd902.severity == INFO

    def test_cli_depth_is_a_declared_bound(self, capsys):
        assert main(["diagnosability", "diagnosable-chain",
                     "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "DD902" in out
        assert "info" in out
        assert "diagnosable-up-to-bound" in out

    def test_cli_max_states_truncation_is_a_warning(self, capsys):
        petri, spec = get_instance("needs-communication").build()
        diags, _ = model_diagnostics(
            petri, spec, limits=VerifierLimits(max_states=3),
            assume_bounded=False, per_peer=False)
        (dd902,) = [d for d in diags if d.code == "DD902"]
        assert dd902.severity == WARNING


class TestLintIntegration:
    def test_registered_lint_includes_models(self, capsys):
        assert main(["lint", "--registered", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        labels = {run["label"] for run in payload["runs"]}
        assert "<model:needs-communication>" in labels
        assert any(label.startswith("<registered:") for label in labels)
        diags = [d for run in payload["runs"]
                 for d in run["diagnostics"]
                 if run["label"].startswith("<model:")]
        codes = {d["code"] for d in diags}
        assert {"DD901", "DD903", "DD904"} <= codes

    def test_registered_lint_text_shows_model_witness(self, capsys):
        assert main(["lint", "--registered"]) == 0
        out = capsys.readouterr().out
        assert "<model:ambiguous-loop>" in out
        assert "ambiguous cycle witness" in out

    def test_program_only_lint_unaffected(self, tmp_path, capsys):
        path = tmp_path / "p.dl"
        path.write_text('t(X, Y) :- e(X, Y).\ne("a", "b").\n')
        assert main(["lint", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        assert run["diagnostics"] == []
