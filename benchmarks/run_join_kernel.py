#!/usr/bin/env python
"""Join-kernel benchmark runner: the one join path, cold and warm.

Every bottom-up engine fires rules through
:meth:`repro.datalog.plan.JoinPlan.fire`, which starts a plan on the
step interpreter and promotes it to a generated kernel once it is hot.
This runner times that path and gates on its work counts; a full run's
report goes to ``BENCH_join_kernel.json``, a ``--smoke`` run's only to
``--out``.

Workloads:

* ``tc_chain``   -- transitive closure over a chain-with-shortcuts graph,
  pure semi-naive bottom-up (the join kernel with no rewriting overhead).
* ``e6_qsq``     -- the E6 telecom diagnosis scenario, centralized QSQ
  (thousands of tiny rewritten rules; stresses plan caching).
* ``e6_dqsq``    -- the same scenario under distributed dQSQ.

Each workload runs ``REPEATS`` rounds of one *cold* run (the shared plan
cache is cleared first, so the run pays plan compilation and the
promotion of its hot plans) and one *warm* run right after it (plans and
kernels cached); the report carries the median and the min-max spread
of each.  Timings
are reported but never gated; the runner exits non-zero only when a
derivation, fact, compiled-plan or promoted-plan count differs from the
recorded one -- with or without ``--smoke``.

Usage::

    PYTHONPATH=src python benchmarks/run_join_kernel.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from repro.datalog import Const, parse_program
from repro.datalog.database import Database
from repro.datalog.plan import (KERNEL_AFTER_ROWS, clear_plan_cache,
                                plan_cache_evictions, plan_cache_size)
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.diagnosis import DatalogDiagnosisEngine
from repro.petri.generators import TelecomSpec, telecom_net
from repro.utils.counters import Counters
from repro.workloads.alarmgen import simulate_alarms

TC_PROGRAM = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

EDGE = ("edge", None)
PATH = ("path", None)

REPEATS = 5

#: (derivations, facts materialized, plans compiled by the cold run and
#: by the warm run, plans promoted by the cold run and by the warm run)
#: per workload at full and smoke sizes.  Executor choice must not move
#: the first four.  A warm e6_qsq run compiles nothing: the diagnosis
#: engine keeps the rewriting and its plans per (net, observation),
#: so every lookup hits (e6_dqsq rewrites lazily at each peer, every run).
#: The promotions move only with the promotion policy (counting produced
#: rows alone, the full e6 rows promoted 37 / 30 and 42 / 31 plans; at smoke sizes no
#: e6 plan is promoted under either policy).  Every firing is a delta
#: firing: with a separate install firing per rule the
#: same facts took 32979 / 8337 / 8717 derivations and 3 / 3357 / 2766
#: plans (smoke 2054 / 463 / 486 and 3 / 2601 / 1243), so a count that
#: climbs back there means a second firing regime has returned.  A delta
#: over a rule whose other body relation is still empty is skipped
#: uncompiled; firing it anyway took the e6 rows to 1542 / 1346 plans
#: (smoke 785 / 511) at these derivations and facts.  The e6 rows are the
#: (d)QSQ rewriting without its bookend supplementary relations.
EXPECTED = {
    False: {"tc_chain": (32641, 28680, 2, 2, 1, 1),
            "e6_qsq": (8314, 4901, 1053, 0, 69, 72),
            "e6_dqsq": (8663, 5238, 1098, 1098, 71, 73)},
    True: {"tc_chain": (1974, 1770, 2, 2, 1, 1),
           "e6_qsq": (443, 315, 374, 0, 0, 0),
           "e6_dqsq": (480, 350, 387, 387, 0, 0)},
}


def _expected_runs(expected: tuple) -> set:
    """The (temperature, counts...) rows every round must reproduce."""
    derivations, facts, cold_plans, warm_plans, cold, warm = expected
    return {("cold", derivations, facts, cold_plans, cold),
            ("warm", derivations, facts, warm_plans, warm)}


def _tc_database(nodes: int) -> Database:
    """Chain 0->1->...->n plus shortcut edges every 7 nodes."""
    db = Database()
    for i in range(nodes - 1):
        db.add_ground(EDGE, (Const(i), Const(i + 1)))
    for i in range(0, nodes - 7, 7):
        db.add_ground(EDGE, (Const(i), Const(i + 7)))
    return db


def _summary(seconds: list[float]) -> dict:
    return {"median_s": round(statistics.median(seconds), 6),
            "min_s": round(min(seconds), 6),
            "max_s": round(max(seconds), 6)}


def tc_workload(nodes: int) -> tuple[str, dict, Callable[[], Counters]]:
    program = parse_program(TC_PROGRAM)

    def run_once():
        evaluator = SemiNaiveEvaluator(program)
        evaluator.run(_tc_database(nodes))
        return evaluator.counters
    return "tc_chain", {"nodes": nodes}, run_once


def e6_workload(mode: str, steps: int) -> tuple[str, dict,
                                                 Callable[[], Counters]]:
    spec = TelecomSpec(peers=2, ring_length=3, branching=0.3,
                       topology="chain", seed=21)
    petri = telecom_net(spec)
    alarms = simulate_alarms(petri, steps=steps, seed=21)

    def run_once():
        return DatalogDiagnosisEngine(petri, mode=mode).diagnose(
            alarms).counters
    return f"e6_{mode}", {"steps": steps, "alarms": len(alarms)}, run_once


def bench(workloads: list, smoke: bool) -> list:
    """``REPEATS`` rounds of, per workload, a cold run and a warm run."""
    times = {name: {"cold": [], "warm": []} for name, _, _ in workloads}
    counts = {name: set() for name, _, _ in workloads}
    cold_counters = {}
    for _ in range(REPEATS):
        for name, _params, run_once in workloads:
            clear_plan_cache()
            for temperature in ("cold", "warm"):
                t0 = time.perf_counter()
                counters = run_once()
                times[name][temperature].append(time.perf_counter() - t0)
                counts[name].add((temperature, counters["derivations"],
                                  counters["facts_materialized"],
                                  counters["plan.cache_misses"],
                                  counters["plan.promotions"]))
                if temperature == "cold":
                    cold_counters[name] = counters
    reports = []
    for name, params, _run_once in workloads:
        derivations = cold_counters[name]["derivations"]
        facts = cold_counters[name]["facts_materialized"]
        report = {
            "name": name, "params": params,
            "cold": _summary(times[name]["cold"]),
            "warm": _summary(times[name]["warm"]),
            "derivations": derivations, "facts_materialized": facts,
            "plan.compiled_plans": cold_counters[name]["plan.cache_misses"],
            "plan.promotions": cold_counters[name]["plan.promotions"],
            "counts_ok": counts[name] == _expected_runs(EXPECTED[smoke][name]),
        }
        warm = report["warm"]["median_s"]
        report["derivations_per_sec"] = round(derivations / warm, 1)
        status = ("OK" if report["counts_ok"]
                  else f"COUNT MISMATCH {sorted(counts[name])}")
        print(f"{name:12s} cold={report['cold']['median_s']:.3f}s "
              f"warm={warm:.3f}s derivs={derivations} facts={facts} "
              f"[{status}]")
        reports.append(report)
    return reports


def _fingerprint() -> dict:
    root = Path(__file__).resolve().parent.parent

    def git(*args: str) -> str | None:
        try:
            return subprocess.run(["git", *args], cwd=root, check=True,
                                  capture_output=True,
                                  text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": git("rev-parse", "HEAD"),
            # src/ as staged, so a run made before the commit still names
            # its code: equals `git rev-parse <that commit>:src`
            "src_tree": git("write-tree", "--prefix=src/"),
            # src/ files that differ from what src_tree names
            "unstaged": (git("ls-files", "--modified", "--others",
                             "--exclude-standard", "--", "src")
                         or "").split()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (shape check, not perf)")
    parser.add_argument("--out", help="output JSON path (default: "
                        "BENCH_join_kernel.json for a full run; a --smoke "
                        "run writes only where --out points)")
    args = parser.parse_args(argv)

    nodes = 60 if args.smoke else 240
    steps = 2 if args.smoke else 6

    workloads = bench([tc_workload(nodes), e6_workload("qsq", steps),
                       e6_workload("dqsq", steps)],
                      args.smoke)

    payload = {
        "benchmark": "join_kernel",
        "smoke": args.smoke,
        "fingerprint": _fingerprint(),
        "repeats": REPEATS,
        "kernel_after_rows": KERNEL_AFTER_ROWS,
        "plan_cache_size": plan_cache_size(),
        "plan_cache_evictions": plan_cache_evictions(),
        "workloads": workloads,
    }
    out = args.out or (None if args.smoke else "BENCH_join_kernel.json")
    if out is not None:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")

    failures = [w["name"] for w in workloads if not w["counts_ok"]]
    if failures:
        print(f"COUNT MISMATCH in: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
