"""``python -m benchmarks.e2e`` -- same entry point as ``run.py``."""

import os
import sys

# The harness modules import each other by bare name so that ``run.py``
# and ``worker.py`` also work as plain scripts (what BENCHMARK.json runs).
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
