#!/usr/bin/env python3
"""Rebuild ``pools.json``: the frozen input pools the workloads draw from.

Not part of a benchmark run.  Run it (``python3
benchmarks/e2e/build_pools.py [--pool NAME]``) only to change a band or
a shape; afterwards every baseline has to be measured again, because
the inputs changed.

Why pools: at one shape (say 2 peers x 10 alarms) a scenario costs
between 5 k and 700 k derivations depending on its seed, and one alarm
stream in seven makes the windowed supervisor's state explode (a few
exhaust 16 GB).  A run that drew scenarios freely would time the draw.
A pool keeps the candidate seeds whose cost, counted once when the pool
was built, fell in one narrow band; ``--seed`` then picks among inputs
that cost about the same.

A batch pool is built in two stages.  The count stage keeps candidates
whose ``derivations`` counter is in the band (exactly reproducible).
Scenarios with equal derivations still differ by a factor of two in
time (messages, rules installed), so the timing stage times each of
them, alone in a fresh process, and keeps the ``size`` closest to their
median time; that choice depends on the host's noise and is recorded,
with the times, in the file (``--retime`` redoes only this stage).  The pool is frozen, so a later change to the program changes the
timings and not the inputs.

The scan of the two larger batch pools takes about an hour on two
cores; over-band candidates are cut short by a fact budget.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import repro  # noqa: E402
from repro.datalog.seminaive import EvaluationBudget  # noqa: E402
from repro.diagnosis.online import OnlineDiagnoser  # noqa: E402
from repro.errors import BudgetExceeded  # noqa: E402
from repro.workloads.alarmgen import simulate_alarms  # noqa: E402
from repro.workloads.scenarios import get_scenario  # noqa: E402

import hostinfo  # noqa: E402
from workloads import (SERVICE_SCENARIO, SESSION_CONFIG,  # noqa: E402
                       STREAM_ALARMS, WORKLOADS, Scenario, make_scenario,
                       timed_op)

#: batch pools: candidates are scenario seeds ``0 .. candidates-1``; the
#: band is on the ``derivations`` counter of one ``diagnose()`` call,
#: ``max_facts`` aborts candidates far above it, and ``size`` is how many
#: the timing stage keeps.  ``cold-start`` draws 12 of its 24.  The
#: other workloads time four scenarios a pass and keep exactly four:
#: scenarios that cost the same alone still differ by 18 % in each
#: other's company (heap, intern table), so there a run's seed decides
#: the order of the scenarios and not which ones run.
BATCH_POOLS = {
    "dqsq-2x5": dict(workload="cold-start", candidates=500,
                     band=(9_000, 11_000), max_facts=100_000, size=24),
    "qsq-2x10": dict(workload="deep-join", candidates=1000,
                     band=(82_000, 90_000), max_facts=60_000, size=4),
    "dqsq-3x6": dict(workload="fanout-sim", candidates=500,
                     band=(29_000, 33_500), max_facts=22_000, size=4),
}
#: timed ops per in-band candidate, after one that is thrown away
TIMED_REPEATS = 4

#: stream pool: candidates are ``simulate_alarms`` seeds on the service
#: net; the band is on the unfolding events the windowed supervisor has
#: materialized after the whole stream, and of the streams in band the
#: ``size`` whose pushes take closest to the median time are kept
STREAM_POOL = dict(candidates=600, band=(25, 40), size=48)
#: backstop for a candidate whose state explodes within one push
ADDRESS_SPACE_LIMIT = 3 << 30


def scan_batch(workload: str, candidates: int, band: tuple[int, int],
               max_facts: int, size: int) -> dict:
    """The count stage: candidate seeds whose derivations are in band."""
    spec = WORKLOADS[workload]
    config = repro.RunConfig(budget=EvaluationBudget(max_facts=max_facts))
    in_band = []
    for seed in range(candidates):
        scenario = make_scenario(spec.peers, spec.steps, seed)
        if scenario is None:
            continue
        try:
            outcome = repro.diagnose(*scenario, method=spec.method,
                                     config=config)
        except BudgetExceeded:
            continue
        count = outcome.counters["derivations"]
        if band[0] <= count <= band[1] and not outcome.partial:
            in_band.append([seed, count])
            print(f"  seed {seed}: {count} derivations", flush=True)
    return {"workload": workload, "candidates": candidates,
            "band": list(band), "size": size, "in_band": in_band}


def time_one(workload: str, seed: int) -> float:
    """Median op time of one scenario alone in this process, in ms at
    nominal host speed (the same scaling the benchmark applies)."""
    spec = WORKLOADS[workload]
    petri, alarms = make_scenario(spec.peers, spec.steps, seed)
    scenario = Scenario(seed, petri, alarms, oracle=None)
    timed_op(spec, scenario)
    times, spins = [], [hostinfo.spin_ms()]
    for _ in range(TIMED_REPEATS):
        times.append(timed_op(spec, scenario)[0])
        spins.append(hostinfo.spin_ms())
    return statistics.median(times) * 1e3 * hostinfo.speed_factor(spins)


def timing_stage(pool: dict) -> None:
    """Keep the ``size`` in-band candidates closest to the median time.

    Each candidate is timed in a process of its own: an op slows down as
    the heap left by earlier scenarios grows, so timing them in a row
    would rank them by position.
    """
    timed = []
    counts = set()
    for seed, count in pool["in_band"]:
        if count in counts:
            # equal to the last digit: the same scenario under other names
            print(f"  seed {seed}: duplicate of an earlier one", flush=True)
            continue
        counts.add(count)
        run = subprocess.run(
            [sys.executable, __file__, "--time-one", pool["workload"],
             str(seed)], capture_output=True, text=True, check=True)
        timed.append((seed, round(float(run.stdout.split()[-1]), 1)))
        print(f"  seed {seed}: {timed[-1][1]} ms", flush=True)
    middle = statistics.median(ms for _seed, ms in timed)
    kept = sorted(sorted(timed, key=lambda row: abs(row[1] - middle))
                  [:pool["size"]])
    pool["seeds"] = [seed for seed, _ms in kept]
    pool["ms_when_built"] = [ms for _seed, ms in kept]


def push_all_ms(petri, stream) -> float:
    """Best of five: pushing the whole stream through a fresh windowed
    supervisor, in ms at nominal host speed."""
    samples = []
    for _ in range(5):
        diagnoser = OnlineDiagnoser(petri, window=SESSION_CONFIG.window)
        spins = [hostinfo.spin_ms()]
        start = time.perf_counter()
        for alarm in stream:
            diagnoser.push(alarm)
        elapsed = time.perf_counter() - start
        spins.append(hostinfo.spin_ms())
        samples.append(elapsed * 1e3 * hostinfo.speed_factor(spins))
    return min(samples)


def scan_streams(candidates: int, band: tuple[int, int], size: int) -> dict:
    petri, _alarms = get_scenario(SERVICE_SCENARIO).instantiate()
    in_band = []
    for seed in range(candidates):
        stream = list(simulate_alarms(petri, steps=STREAM_ALARMS, seed=seed))
        if len(stream) < STREAM_ALARMS:
            continue
        diagnoser = OnlineDiagnoser(petri, window=SESSION_CONFIG.window)
        try:
            for alarm in stream:
                diagnoser.push(alarm)
                # events only accumulate: past the band is out for good,
                # which also stops most explosions early
                if len(diagnoser.materialized_events()) > band[1]:
                    break
        except MemoryError:
            print(f"  seed {seed}: state explosion, dropped", flush=True)
            continue
        count = len(diagnoser.materialized_events())
        if band[0] <= count <= band[1]:
            in_band.append((seed, count, push_all_ms(petri, stream)))
    middle = statistics.median(ms for _seed, _count, ms in in_band)
    kept = sorted(sorted(in_band, key=lambda row: abs(row[2] - middle))[:size])
    return {"scenario": SERVICE_SCENARIO, "alarms": STREAM_ALARMS,
            "window": SESSION_CONFIG.window, "candidates": candidates,
            "band": list(band), "in_band": len(in_band),
            "seeds": [seed for seed, _count, _ms in kept],
            "events": [count for _seed, count, _ms in kept],
            "ms_when_built": [round(ms, 2) for _seed, _count, ms in kept]}


def main(argv=None) -> int:
    names = [*BATCH_POOLS, "streams"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=names, action="append",
                        help="rebuild only this pool (repeatable)")
    parser.add_argument("--retime", action="store_true",
                        help="batch pools: keep the recorded count stage, "
                             "redo only the timing stage")
    parser.add_argument("--time-one", nargs=2, metavar=("WORKLOAD", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.time_one:
        print(time_one(args.time_one[0], int(args.time_one[1])))
        return 0
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    path = HERE / "pools.json"
    pools = json.loads(path.read_text()) if path.exists() else {}
    for name in args.pool or names:
        print(f"building {name}", flush=True)
        if name == "streams":
            pools[name] = scan_streams(**STREAM_POOL)
        else:
            if not args.retime:
                pools[name] = scan_batch(**BATCH_POOLS[name])
            timing_stage(pools[name])
        print(f"{name}: {len(pools[name]['seeds'])} seeds")
        path.write_text(json.dumps(pools, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
