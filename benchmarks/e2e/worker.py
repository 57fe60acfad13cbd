"""One workload in this fresh process: set up, measure, check, report.

``run.py`` starts this file as a subprocess, so each workload gets a
clean plan cache and intern table and its own peak RSS.  The last line
of standard output is one JSON object.

Modes: ``setup`` stops after set-up (``run.py`` repeats it to take a
median); ``e2e`` measures with tracing off; ``trace`` runs the staged
replay and the probes; ``smoke`` does ``e2e`` then ``trace`` at smoke
sizes.
"""

import time

T0 = time.perf_counter()  # set-up includes the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import hostinfo  # noqa: E402
from workloads import (WORKLOADS, BatchWorkload, build_scenarios,  # noqa: E402
                       build_streams, check_batch, run_service_pass, timed_op)

OUT = HERE / "out"
#: scenarios per traced run that also get the side probes
PROBE_SCENARIOS = 2


def peak_rss_mb(children: bool) -> float:
    """``ru_maxrss`` of this process; with ``children`` plus that of its
    largest waited-for child (the mp transport's forked peers)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024


def batch_pass(spec, scenarios, times, spins, failures) -> int:
    """One timed op per scenario; returns the alarms diagnosed."""
    alarms = 0
    for scenario in scenarios:
        try:
            elapsed, outcome = timed_op(spec, scenario)
            reason = check_batch(spec, scenario, outcome.diagnoses,
                                 outcome.materialized_events, outcome.partial)
        except Exception as err:  # a failed op is counted, never fatal
            traceback.print_exc()
            reason = f"{type(err).__name__}: {err}"
        else:
            times.append(elapsed)
            alarms += len(scenario.alarms)
        if reason is not None:
            failures.append({"scenario_seed": scenario.seed, "reason": reason})
        spins.append(hostinfo.spin_ms())
    return alarms


def measure_batch(spec, scenarios, seconds: float) -> dict:
    times: list[float] = []
    spins = [hostinfo.spin_ms()]
    failures: list[dict] = []
    alarms = passes = 0
    start = time.perf_counter()
    # whole passes only: every scenario is timed equally often, so the
    # median does not depend on how fast this host is
    while passes == 0 or time.perf_counter() - start < seconds:
        alarms += batch_pass(spec, scenarios, times, spins, failures)
        passes += 1
    factor = hostinfo.speed_factor(spins)
    raw = {"op_p50_ms": statistics.median(times) * 1e3 if times else None,
           "alarms_per_s": alarms / sum(times) if times else None}
    return {
        "attempted": passes * len(scenarios),
        "failures": failures,
        "samples": len(times),
        "passes": passes,
        "speed_factor": factor,
        "raw": raw,
        "metrics": {
            "op_p50_ms": raw["op_p50_ms"] and raw["op_p50_ms"] * factor,
            "alarms_per_s": raw["alarms_per_s"] and raw["alarms_per_s"] / factor,
        },
    }


#: spin samples taken before the first service pass and after each one
SPINS_PER_PASS = 3


def measure_service(spec, inputs, seconds: float) -> dict:
    """Each pass is scaled by the spins on either side of it and the run
    reports the median pass: a slow spell that hits two passes of seven
    then moves nothing (pooling all pushes spread 7 % where this
    spreads 6 %, with a quarter less range)."""
    latencies: list[float] = []
    p50s: list[float] = []
    rates: list[float] = []
    failures: list[dict] = []
    pushes = applied = passes = 0
    wall = 0.0
    spins = before = [hostinfo.spin_ms() for _ in range(SPINS_PER_PASS)]
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        result = run_service_pass(spec, inputs)
        after = [hostinfo.spin_ms() for _ in range(SPINS_PER_PASS)]
        factor = hostinfo.speed_factor(before + after)
        if result.latencies:
            p50s.append(statistics.median(result.latencies) * 1e3 * factor)
        done = result.counters.get("service.alarms_applied", 0)
        rates.append(done / result.wall / factor)
        before = after
        spins = spins + after
        latencies += result.latencies
        failures += [{"reason": reason} for reason in result.failures]
        pushes += result.pushes
        applied += done
        wall += result.wall
        passes += 1
    return {
        # every push and every session's final answer is one attempt
        "attempted": pushes + passes * len(inputs.streams),
        "failures": failures,
        "samples": len(latencies),
        "passes": passes,
        "speed_factor": hostinfo.speed_factor(spins),
        "raw": {
            "op_p50_ms": (statistics.median(latencies) * 1e3
                          if latencies else None),
            "alarms_per_s": applied / wall,
        },
        "metrics": {
            "op_p50_ms": statistics.median(p50s) if p50s else None,
            "alarms_per_s": statistics.median(rates),
        },
    }


def trace(spec, inputs, seed: int, smoke: bool, names: list[str]) -> dict:
    # imported here so that an e2e run never loads the tracing code
    from probes import Api, trace_batch, trace_service
    from spans import SpanRecorder

    api = Api()
    recorder = SpanRecorder()
    if isinstance(spec, BatchWorkload):
        layers, failures, attempted = trace_batch(
            api, spec, inputs[:1] if smoke else inputs, recorder,
            hostinfo.cpu_count(), names, PROBE_SCENARIOS)
    else:
        layers, failures, attempted = trace_service(
            api, spec, inputs, recorder, names, OUT / f"store-{spec.name}")
    path = OUT / f"trace-{spec.name}.json"
    recorder.write(path, {"workload": spec.name, "seed": seed,
                          "clock": "perf_counter seconds"})
    return {"layers": layers, "trace_failures": failures,
            "trace_attempted": attempted,
            "spans": len(recorder.spans), "trace_file": str(path),
            "missing_names": api.missing()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("setup", "e2e", "trace", "smoke"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--layers", default="",
                        help="comma-separated per-layer metric names")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    smoke = args.mode == "smoke"
    batch = isinstance(spec, BatchWorkload)

    spins = [hostinfo.spin_ms() for _ in range(3)]
    if batch:
        inputs = build_scenarios(spec, args.seed, smoke)
        if not spec.cold and not smoke:
            for scenario in inputs:  # warm-up: plan cache and intern table
                timed_op(spec, scenario)
                spins.append(hostinfo.spin_ms())
    else:
        inputs = build_streams(spec, args.seed, smoke)
    spins.append(hostinfo.spin_ms())
    setup_raw = time.perf_counter() - T0
    report = {"workload": spec.name, "seed": args.seed, "mode": args.mode,
              "setup_s": setup_raw * hostinfo.speed_factor(spins),
              "fingerprint": hostinfo.fingerprint(spins)}

    if args.mode in ("e2e", "smoke"):
        measure = measure_batch if batch else measure_service
        report.update(measure(spec, inputs, args.seconds))
        report["raw"]["setup_s"] = setup_raw
        report["metrics"]["setup_s"] = report["setup_s"]
        report["metrics"]["peak_rss_mb"] = peak_rss_mb(
            children=batch and spec.transport == "mp")
    if args.mode in ("trace", "smoke"):
        report.update(trace(spec, inputs, args.seed, smoke,
                            [n for n in args.layers.split(",") if n]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
