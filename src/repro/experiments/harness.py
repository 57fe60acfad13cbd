"""Runs the registered experiments and renders EXPERIMENTS.md.

Each experiment is a callable returning an :class:`ExperimentResult`;
the registry maps ids to callables.  ``python -m repro.experiments``
runs everything and rewrites EXPERIMENTS.md in the repository root.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ValidationError
from repro.utils.tables import render_markdown_table, render_table


@dataclass
class ExperimentResult:
    """One experiment's table plus commentary."""

    experiment_id: str
    title: str
    paper_artifact: str
    headers: Sequence[str]
    rows: list[Sequence[object]]
    notes: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_text(self) -> str:
        out = [render_table(self.headers, self.rows,
                            title=f"{self.experiment_id}: {self.title}")]
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)

    def to_markdown(self) -> str:
        lines = [f"### {self.experiment_id} — {self.title}",
                 "",
                 f"*Paper artifact: {self.paper_artifact}.*",
                 "",
                 render_markdown_table(self.headers, self.rows)]
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        lines.append("")
        lines.append(f"_Runtime: {self.elapsed_seconds:.1f}s._")
        return "\n".join(lines)


def run_all(only: Sequence[str] | None = None,
            verbose: bool = True) -> list[ExperimentResult]:
    """Run all (or the selected) experiments in registry order.

    An unknown id in ``only`` raises :class:`~repro.errors.ValidationError`
    before anything runs.  The registered paper programs are linted next:
    an analyzer error in any of them aborts the run before any experiment
    starts.
    """
    from repro.experiments.registry import EXPERIMENTS, lint_registered
    unknown = [i for i in only or () if i not in EXPERIMENTS]
    if unknown:
        raise ValidationError(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENTS)}")
    lint_registered()
    results = []
    for experiment_id, runner in EXPERIMENTS.items():
        if only and experiment_id not in only:
            continue
        start = time.perf_counter()
        result = runner()
        result.elapsed_seconds = time.perf_counter() - start
        results.append(result)
        if verbose:
            print(result.to_text())
            print()
    return results


REPORT_HEADER = """# EXPERIMENTS — paper vs. measured

Regenerate with `python -m repro.experiments` (rewrites this file); one
experiment prints with `python -m repro experiments <id>`.

The paper (PODS 2005) is a theory paper without numeric tables; its
evaluable artifacts are Figures 1-5, Theorems 1-4, Lemma 1 and
Proposition 1.  Each experiment below reproduces one artifact and
reports the *shape* the paper predicts (who materializes less, which
sets coincide, what terminates), alongside measured magnitudes from the
simulated substrate.
"""


def write_report(path: str, results: list[ExperimentResult]) -> None:
    sections = [REPORT_HEADER]
    for result in results:
        sections.append(result.to_markdown())
    with open(path, "w") as handle:
        handle.write("\n\n".join(sections) + "\n")
