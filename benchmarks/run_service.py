#!/usr/bin/env python
"""Service benchmark runner: the streaming diagnosis server under load.

Drives an in-process :class:`repro.service.DiagnosisService` (the very
``handle`` surface the TCP loop wraps) with a sweep of concurrent
sessions x pipelining depth, and writes ``BENCH_service.json`` (a
``--smoke`` run only ``--out``):

* **push latency** -- p50/p99 wall-clock per accepted alarm;
* **shed / degraded fractions** -- how much of the offered load each
  overload policy refused (``shed``) or answered with a tightened
  window (``degrade``), never an unbounded queue;
* **windowing** -- the compaction claim: with a window the supervisor's
  ``peak_table_vectors`` stays flat as streams grow, while the exact
  (no-window) baseline's peak keeps growing.  The runner exits non-zero
  if the windowed peak grows with stream length or the exact peak fails
  to.

Usage::

    PYTHONPATH=src python benchmarks/run_service.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from repro.diagnosis.online import OnlineDiagnoser
from repro.service import DiagnosisService, ServiceConfig, SessionConfig
from repro.workloads.alarmgen import simulate_alarms
from repro.workloads.scenarios import get_scenario

#: the net every benchmark session diagnoses against
SCENARIO = "telecom-small"


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


async def _client(service: DiagnosisService, session_id: str, alarms: list,
                  burst: int, latencies: list[float],
                  stats: dict[str, int]) -> None:
    """One tenant: pipelined bursts, at-least-once, resync by resume."""
    open_request = {"op": "open", "session": session_id,
                    "scenario": SCENARIO}
    response = await service.handle(open_request)
    assert response["ok"], response
    acked = 0

    async def send(request: dict) -> tuple[dict, float]:
        start = time.perf_counter()
        reply = await service.handle(request)
        return reply, time.perf_counter() - start

    while acked < len(alarms):
        count = min(burst, len(alarms) - acked)
        requests = [{"op": "alarm", "session": session_id,
                     "symbol": alarms[acked + i].symbol,
                     "peer": alarms[acked + i].peer,
                     "seq": acked + 1 + i} for i in range(count)]
        results = await asyncio.gather(*(send(r) for r in requests))
        for reply, elapsed in results:
            stats["attempts"] += 1
            if reply["ok"]:
                latencies.append(elapsed)
            elif reply["error"] == "overloaded":
                stats["shed"] += 1
            elif reply["error"] != "gap":
                raise RuntimeError(f"unexpected refusal: {reply}")
        response = await service.handle(open_request)
        acked = response["seq"]
    final = await service.handle({"op": "diagnoses", "session": session_id})
    assert final["ok"], final
    if final["degraded"]:
        stats["degraded_sessions"] += 1


def bench_point(sessions: int, burst: int, policy: str,
                alarms_per_session: int) -> dict:
    petri, _unused = get_scenario(SCENARIO).instantiate()
    streams = [list(simulate_alarms(petri, steps=alarms_per_session, seed=i))
               for i in range(sessions)]
    service = DiagnosisService(ServiceConfig(
        session=SessionConfig(window=8, degraded_window=2,
                              checkpoint_interval=5),
        max_resident=max(4, sessions // 2),  # keep eviction in the path
        session_queue_limit=2,
        global_queue_limit=max(4, sessions // 2),
        on_overload=policy))
    latencies: list[float] = []
    stats = {"attempts": 0, "shed": 0, "degraded_sessions": 0}

    async def drive() -> None:
        await asyncio.gather(*[
            _client(service, f"c{i}", streams[i], burst, latencies, stats)
            for i in range(sessions)])

    start = time.perf_counter()
    asyncio.run(drive())
    elapsed = time.perf_counter() - start

    applied = sum(len(s) for s in streams)
    report = {
        "sessions": sessions,
        "burst": burst,
        "policy": policy,
        "alarms_per_session": alarms_per_session,
        "alarms_applied": applied,
        "elapsed_s": round(elapsed, 4),
        "alarms_per_s": round(applied / elapsed, 1) if elapsed else None,
        "push_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 4),
        "push_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 4),
        "shed_fraction": round(stats["shed"] / stats["attempts"], 4),
        "degraded_fraction": round(stats["degraded_sessions"] / sessions, 4),
        "evictions": service.counters["service.evictions"],
        "peak_queue": service.counters["service.alarms_queued"],
    }
    print(f"sessions={sessions:3d} burst={burst} policy={policy:7s} "
          f"p50={report['push_p50_ms']:.2f}ms p99={report['push_p99_ms']:.2f}ms "
          f"shed={report['shed_fraction']:.1%} "
          f"degraded={report['degraded_fraction']:.1%} "
          f"rate={report['alarms_per_s']}/s")
    return report


def bench_windowing(short: int, long: int) -> dict:
    """Peak table size, exact vs windowed, at two stream lengths."""
    petri, _unused = get_scenario(SCENARIO).instantiate()
    rows = {}
    for window in (None, 4):
        peaks = []
        for steps in (short, long):
            diagnoser = OnlineDiagnoser(petri, window=window)
            diagnoser.push_all(simulate_alarms(petri, steps=steps, seed=42))
            peaks.append(diagnoser.counters["peak_table_vectors"])
        rows["exact" if window is None else f"window{window}"] = {
            "steps": [short, long], "peak_table_vectors": peaks}
    exact = rows["exact"]["peak_table_vectors"]
    windowed = rows["window4"]["peak_table_vectors"]
    result = {
        "bounded": windowed[1] <= windowed[0] * 2 and windowed[1] < exact[1],
        "exact_grows": exact[1] > exact[0],
        **rows,
    }
    print(f"windowing: exact peak {exact[0]} -> {exact[1]}, "
          f"window=4 peak {windowed[0]} -> {windowed[1]} "
          f"[{'OK' if result['bounded'] and result['exact_grows'] else 'FAIL'}]")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (shape check, not perf)")
    parser.add_argument("--out", help="output JSON path (default: "
                        "BENCH_service.json for a full run; a --smoke "
                        "run writes only where --out points)")
    args = parser.parse_args(argv)

    if args.smoke:
        sweep = [(4, 1), (8, 4)]
        alarms_per_session = 10
        window_steps = (16, 32)
    else:
        sweep = [(4, 1), (16, 1), (16, 4), (64, 4)]
        alarms_per_session = 30
        window_steps = (30, 90)

    points = [bench_point(sessions, burst, policy, alarms_per_session)
              for sessions, burst in sweep
              for policy in ("shed", "degrade")]
    windowing = bench_windowing(*window_steps)

    payload = {
        "benchmark": "service",
        "smoke": args.smoke,
        "scenario": SCENARIO,
        "sweep": points,
        "windowing": windowing,
    }
    out = args.out or (None if args.smoke else "BENCH_service.json")
    if out is not None:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")

    if not windowing["bounded"] or not windowing["exact_grows"]:
        print("WINDOWING GATE: compaction failed to bound the table "
              "(or the exact baseline failed to grow)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
