"""Run all experiments and rewrite EXPERIMENTS.md.

Usage::

    python -m repro.experiments            # run everything
    python -m repro.experiments E1 E6a     # run a subset (no report write)
"""

from __future__ import annotations

import os
import sys

from repro.errors import ReproError
from repro.experiments.harness import run_all, write_report


def main(argv: list[str]) -> int:
    only = argv or None
    try:
        results = run_all(only=only)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not only:
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        path = os.path.join(root, "EXPERIMENTS.md")
        write_report(path, results)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
