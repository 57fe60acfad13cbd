"""Shared diagnostic report emitters: text, json, and SARIF 2.1.0.

Grew out of ``repro lint``'s private helpers; now also serves ``repro
diagnosability``, so every analysis surface emits the same three
formats with the same shapes.  A *run* is a ``(label, AnalysisReport)``
pair -- the label is a file path for linted programs, ``<registered:N>``
for in-memory paper programs, and ``<model:N>`` for diagnosability
models.

Model diagnostics (the DD9xx family) may carry structured payloads the
program diagnostics don't have: a ``fault_class`` and a replayable
ambiguous ``witness`` pair.  The json emitter inlines them; the SARIF
emitter attaches them as a result ``properties`` bag, which is where
SARIF puts tool-specific evidence.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.datalog.analysis import CODES, AnalysisReport

#: Diagnostic severity -> SARIF level.
SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}

_DOC_BASE = "https://example.invalid/docs"

Run = tuple[str, AnalysisReport]


def _help_uri(code: str) -> str:
    """DD9xx codes document the model analysis; the rest the program one."""
    page = "diagnosability.md" if code.startswith("DD9") else "datalog.md"
    return f"{_DOC_BASE}/{page}"


def _witness_payload(diagnostic: Any) -> dict[str, Any] | None:
    witness = getattr(diagnostic, "witness", None)
    if witness is None:
        return None
    payload: dict[str, Any] = witness.to_payload()
    return payload


def print_lint_report(label: str, report: AnalysisReport) -> bool:
    """Render one analysis report as text; returns True when it has errors."""
    for diagnostic in report.diagnostics:
        if diagnostic.span is not None:
            line, column = diagnostic.span
            location = f"{label}:{line}:{column}"
        else:
            location = label
        print(f"{location}: {diagnostic.code} {diagnostic.slug} "
              f"{diagnostic.severity}: {diagnostic.message}")
        if diagnostic.rule is not None and diagnostic.span is None:
            print(f"    rule: {diagnostic.rule}")
        witness = getattr(diagnostic, "witness", None)
        if witness is not None:
            print("    " + witness.render().replace("\n", "\n    "))
        if diagnostic.suggestion:
            print(f"    fix: {diagnostic.suggestion}")
    print(f"{label}: {len(report.errors)} error(s), "
          f"{len(report.warnings)} warning(s), {len(report.infos)} info(s)")
    return bool(report.errors)


def lint_json(runs: Iterable[Run]) -> str:
    """The ``--format json`` payload: one run object per analyzed unit."""
    payload: dict[str, Any] = {"version": 1, "runs": []}
    for label, report in runs:
        diagnostics = []
        for d in report.diagnostics:
            entry: dict[str, Any] = {
                "code": d.code,
                "slug": d.slug,
                "severity": d.severity,
                "message": d.message,
                "line": d.span[0] if d.span else None,
                "column": d.span[1] if d.span else None,
                "rule": str(d.rule) if d.rule is not None else None,
                "suggestion": d.suggestion,
            }
            fault_class = getattr(d, "fault_class", None)
            if fault_class is not None:
                entry["fault_class"] = fault_class
            witness = _witness_payload(d)
            if witness is not None:
                entry["witness"] = witness
            diagnostics.append(entry)
        payload["runs"].append({
            "label": label,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "infos": len(report.infos),
            "diagnostics": diagnostics,
        })
    return json.dumps(payload, indent=2)


def lint_sarif(runs: Iterable[Run]) -> str:
    """The ``--format sarif`` payload (SARIF 2.1.0, one run, all units).

    Each analyzed unit becomes an artifact; findings carry their DD code
    as ``ruleId`` so SARIF viewers (GitHub code scanning, editors) group
    and document them via the embedded rule catalog.  Model findings
    attach their fault class and witness as a ``properties`` bag.
    """
    runs = list(runs)
    used = {d.code for _label, report in runs for d in report.diagnostics}
    rules = [{
        "id": code,
        "name": CODES[code][0],
        "defaultConfiguration": {
            "level": SARIF_LEVELS.get(CODES[code][1], "warning")},
        "helpUri": _help_uri(code),
    } for code in sorted(used)]
    results = []
    for label, report in runs:
        for d in report.diagnostics:
            result: dict[str, Any] = {
                "ruleId": d.code,
                "level": SARIF_LEVELS.get(d.severity, "warning"),
                "message": {"text": d.message
                            + (f" (fix: {d.suggestion})" if d.suggestion
                               else "")},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": label},
                        **({"region": {"startLine": d.span[0],
                                       "startColumn": d.span[1]}}
                           if d.span else {}),
                    },
                }],
            }
            properties: dict[str, Any] = {}
            fault_class = getattr(d, "fault_class", None)
            if fault_class is not None:
                properties["faultClass"] = fault_class
            witness = _witness_payload(d)
            if witness is not None:
                properties["witness"] = witness
            if properties:
                result["properties"] = properties
            results.append(result)
    return json.dumps({
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": "repro-lint",
                                "informationUri": f"{_DOC_BASE}/datalog.md",
                                "rules": rules}},
            "results": results,
        }],
    }, indent=2)
