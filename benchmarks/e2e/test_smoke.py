"""Shape and oracle check of the end-to-end benchmark (``--smoke``).

Not part of Tier 1 (``testpaths = ["tests"]``); run it explicitly with
``python -m pytest benchmarks/e2e``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_prints_every_metric_with_its_unit():
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert run.returncode == 0, run.stdout + run.stderr
    sections = re.split(r"^== ", run.stdout, flags=re.MULTILINE)[1:]
    assert [s.split()[0] for s in sections] == \
        [w["name"] for w in SPEC["workloads"]]
    for section in sections:
        printed = {}
        for line in section.splitlines()[1:]:
            fields = line.split()
            if len(fields) >= 3:
                printed[fields[0]] = (fields[1], fields[2])
        for metric in SPEC["end_to_end"]:
            value, unit = printed[metric["name"]]
            assert unit == metric["unit"]
            assert float(value) > 0  # end-to-end metrics are never null
        for metric in SPEC["per_layer"]:
            value, unit = printed[metric["name"]]
            assert unit == metric["unit"]
            assert value == "null" or float(value) == float(value)
        assert "failed 0 of" in section
