#!/usr/bin/env python3
"""End-to-end benchmark of the diagnosis path; the command in BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                      # all workloads, both runs
    python3 benchmarks/e2e/run.py --workload deep-join --seed 3 --trace 0
    python3 benchmarks/e2e/run.py --smoke              # shapes and oracles, ~20 s
    python3 benchmarks/e2e/run.py --selfcheck          # two sets against the bounds

``--trace 0`` measures the end-to-end metrics with tracing off,
``--trace 1`` runs the staged replay for the per-layer metrics, and
without ``--trace`` a workload gets both.  Every workload runs in a
fresh ``worker.py`` subprocess.  With ``--workload`` the last line of
output is the one-object JSON result the driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: set-ups per e2e run; ``setup_s`` is their median
SETUPS = 3
#: the driver allows a run 180 s; a worker stuck past this is killed
WORKER_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, mode: str, seed: int, seconds: float) -> dict:
    """One ``worker.py`` subprocess; its last stdout line, parsed."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--mode", mode, "--seed", str(seed),
               "--seconds", str(seconds), "--layers", ",".join(PER_LAYER)]
    # a fixed hash seed, so that set order (and with it message batching
    # and allocation order) repeats from run to run; its own process
    # group, so that a timeout also reaches the mp transport's forked peers
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, start_new_session=True,
                               env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkerFailed(f"{workload} {mode}: no result within "
                           f"{WORKER_TIMEOUT_S} s") from None
    if process.returncode != 0:
        raise WorkerFailed(f"{workload} {mode}: worker exited with "
                           f"{process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int | None, smoke: bool = False) -> dict:
    """The merged report of one workload's e2e and/or traced run."""
    if smoke:
        return run_worker(workload, "smoke", seed, 0.0)
    report: dict = {}
    if trace in (None, 0):
        setups = [run_worker(workload, "setup", seed, 0.0)["setup_s"]
                  for _ in range(SETUPS - 1)]
        report = run_worker(workload, "e2e", seed, seconds)
        setups.append(report["setup_s"])
        report["setup_samples"] = setups
        report["metrics"]["setup_s"] = statistics.median(setups)
    if trace in (None, 1):
        traced = run_worker(workload, "trace", seed, 0.0)
        traced.pop("setup_s")
        report = {**traced, **report}
    return report


def failures_of(report: dict) -> list[dict]:
    return report.get("failures", []) + report.get("trace_failures", [])


def attempted_of(report: dict) -> int:
    return report.get("attempted", 0) + report.get("trace_attempted", 0)


# -- printing -------------------------------------------------------------------


def _number(value: float | None) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4f}"


def print_report(report: dict) -> None:
    head = f"== {report['workload']} (seed {report['seed']}"
    if "passes" in report:
        head += f", {report['passes']} passes, {report['samples']} samples"
    print(head + ") ==")
    for name, value in report.get("metrics", {}).items():
        spec = END_TO_END[name]
        note = f"bound {spec['bound']}"
        if name == "setup_s" and "setup_samples" in report:
            note += "  (median of " + " ".join(
                f"{value:.3f}" for value in report["setup_samples"]) + ")"
        elif name in report["raw"]:
            note += (f"  (as timed {_number(report['raw'][name])}, host speed "
                     f"factor {report['speed_factor']:.3f})")
        print(f"  {name:<34} {_number(value):>14} {spec['unit']:<6} {note}")
    for name, layer in report.get("layers", {}).items():
        note = "exact" if layer["exact"] else layer.get("reason", "")
        print(f"  {name:<34} {_number(layer['value']):>14} "
              f"{PER_LAYER[name]['unit']:<6} {note}")
    failures = failures_of(report)
    attempted = attempted_of(report)
    print(f"  failed {len(failures)} of {attempted} attempted "
          f"(failed_fraction {len(failures) / attempted:.4f})")
    for failure in failures[:20]:
        print(f"    FAILED {failure}")
    for name in report.get("missing_names", []):
        print(f"    missing name: {name}")
    if "trace_file" in report:
        print(f"  {report['spans']} spans in {report['trace_file']}")
    print(f"  fingerprint {json.dumps(report['fingerprint'])}")


def contract_line(report: dict) -> str:
    """The driver's result object.  It carries numbers only, so a layer
    the workload does not run (``null`` above, with its reason) is 0."""
    metrics = {
        name: {"value": value, "unit": END_TO_END[name]["unit"]}
        for name, value in report.get("metrics", {}).items()}
    for name, layer in report.get("layers", {}).items():
        metrics[name] = {"value": layer["value"] or 0,
                         "unit": PER_LAYER[name]["unit"]}
    failed = len(failures_of(report))
    return json.dumps({"correct": failed == 0,
                       "attempted": attempted_of(report),
                       "failed": failed, "metrics": metrics})


# -- whole-set modes ------------------------------------------------------------


def run_set(seed: int, seconds: float, trace: int | None,
            smoke: bool) -> dict[str, dict]:
    # measuring runs never share the machine; smoke only checks shapes
    # and answers, so its workers may run side by side
    with ThreadPoolExecutor(len(os.sched_getaffinity(0)) if smoke else 1) as pool:
        reports = dict(zip(WORKLOADS, pool.map(
            lambda w: run_workload(w, seed, seconds, trace, smoke),
            WORKLOADS)))
    for report in reports.values():
        print_report(report)
    return reports


def write_results(reports: dict[str, dict], name: str) -> None:
    """Results first, then what they may be compared on: this change
    defines the benchmark and claims no gain."""
    fingerprint = next(iter(reports.values()))["fingerprint"]
    for report in reports.values():
        report.pop("fingerprint")
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps({"results": reports, "claim": None,
                                "fingerprint": fingerprint}, indent=1) + "\n")
    print(f"wrote {path}")


def selfcheck(seed: int, seconds: float) -> int:
    """Two sets of runs of the same code, against the benchmark's bounds."""
    first = run_set(seed, seconds, None, smoke=False)
    second = run_set(seed, seconds, None, smoke=False)
    bad = 0
    print("== selfcheck: |second - first| / first, next to the bound ==")
    for workload in WORKLOADS:
        for name, spec in END_TO_END.items():
            a = first[workload]["metrics"][name]
            b = second[workload]["metrics"][name]
            difference = abs(b - a) / a
            verdict = "ok" if difference <= spec["bound"] else "EXCEEDS"
            bad += verdict != "ok"
            print(f"  {workload:<18} {name:<14} {difference:8.4f} "
                  f"bound {spec['bound']:<5} {verdict}")
        for name, layer in first[workload]["layers"].items():
            other = second[workload]["layers"][name]
            if layer["exact"] and layer["value"] != other["value"]:
                bad += 1
                print(f"  {workload:<18} {name}: exact count differs, "
                      f"{layer['value']} then {other['value']}")
    failed = sum(len(failures_of(r)) for r in (*first.values(),
                                               *second.values()))
    print(f"selfcheck: {bad} out of bounds, {failed} failed ops")
    return 1 if bad or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selfcheck:
            return selfcheck(args.seed, args.seconds)
        if args.workload is None:
            reports = run_set(args.seed, args.seconds, args.trace, args.smoke)
            failed = sum(len(failures_of(r)) for r in reports.values())
            write_results(reports, "smoke.json" if args.smoke
                          else "results.json")
            return 1 if failed else 0
        report = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.smoke)
    except WorkerFailed as err:
        print(f"benchmarks.e2e: {err}", file=sys.stderr)
        return 2
    print_report(report)
    print(contract_line(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
