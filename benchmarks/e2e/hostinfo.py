"""Hardware fingerprint stamped into every output of the benchmark.

``host.spin_ms`` times a fixed pure-Python loop, so a slow host can be
told from a slow program when two result files are compared; the same
loop, sampled beside the timed ops, scales a run's timings to nominal
host speed.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SPIN_ITERATIONS = 100_000
#: what the loop takes on the host the bounds were set on; only the
#: scale of the speed-normalised metrics depends on it
NOMINAL_SPIN_MS = 4.5


def spin_ms() -> float:
    """One run of a fixed integer loop, in milliseconds."""
    start = time.perf_counter()
    total = 0
    for i in range(_SPIN_ITERATIONS):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def speed_factor(spins: list[float]) -> float:
    """Multiply a time by this to state it at nominal host speed.

    The sandbox's cores slow down by up to a third for seconds or
    minutes at a time (a busy neighbour).  The spin loop, sampled
    between timed ops, sees the slow part of that; scaling a run's
    timings by it takes out most of the difference between two runs of
    the same code (interquartile spread 14 % -> 4 % on ``deep-join``).
    """
    return NOMINAL_SPIN_MS / statistics.median(spins)


def cpu_count() -> int:
    """CPUs this process may run on (not the machine's total)."""
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly.

    The driver's checkout is not a git repository; ``git rev-parse``
    would walk up out of it, so no subprocess is used.
    """
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git_dir / head[5:]).read_text().strip()
    except OSError:
        return None


def fingerprint(spins: list[float]) -> dict:
    return {
        "cpus": cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "commit": git_commit(),
        "host.spin_ms": round(min(spins), 3),
    }
