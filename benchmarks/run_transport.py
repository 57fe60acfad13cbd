#!/usr/bin/env python
"""Transport benchmark runner: simulator vs multiprocessing wall-clock.

Runs the same distributed evaluation -- K peers each computing a local
transitive-closure fixpoint over its own chain, shipping a small
projection to a hub peer -- on both registered transports, checks that
the answer sets are *identical*, and writes a machine-readable report
to ``BENCH_transport.json`` (a ``--smoke`` run only to ``--out``).

Answer equivalence is the only exit gate.  ``sim_s``, ``mp_s`` and
``cpus`` are plain measurements that support no claim: no committed
number shows mp faster than the simulator, and on the hosts this runs
on (1-2 cpus) what mp measures is its overhead -- process start-up,
pickling and queue hops (see ROADMAP, "mp's fate").

Usage::

    PYTHONPATH=src python benchmarks/run_transport.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.datalog.database import load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rule import Query
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.mp import (MpConfig, MpTransportRuntime,
                                  default_parallelism)
from repro.distributed.naive_dist import DistributedNaiveEngine


def _program_text(peers: int, nodes: int) -> str:
    """K independent chain-TC fixpoints, each projecting to the hub."""
    lines = []
    for i in range(peers):
        p = f"p{i}"
        lines += [
            f"path@{p}(X, Y) :- edge@{p}(X, Y).",
            f"path@{p}(X, Z) :- path@{p}(X, Y), edge@{p}(Y, Z).",
            f'reach@hub("{p}", Y) :- path@{p}("n0", Y).',
        ]
        for j in range(nodes - 1):
            lines.append(f'edge@{p}("n{j}", "n{j + 1}").')
    return "\n".join(lines)


def _run_once(program: DDatalogProgram, edb, query: Query,
              transport: str) -> tuple[float, frozenset]:
    runtime = (MpTransportRuntime(MpConfig(timeout=600.0))
               if transport == "mp" else transport)
    engine = DistributedNaiveEngine(program, edb, transport=runtime)
    t0 = time.perf_counter()
    result = engine.query(query)
    elapsed = time.perf_counter() - t0
    assert not result.partial
    return elapsed, frozenset(result.answers)


def bench_peers(peers: int, nodes: int) -> dict:
    parsed = parse_program(_program_text(peers, nodes))
    program, edb = DDatalogProgram(parsed), load_facts(parsed)
    query = Query(parse_atom("reach@hub(P, Y)"))

    # Best of two per transport: the second run is warm (parser caches,
    # allocator); process start-up is an inherent mp cost and stays in.
    sim_s, sim_answers = min(
        (_run_once(program, edb, query, "sim") for _ in range(2)),
        key=lambda pair: pair[0])
    mp_s, mp_answers = min(
        (_run_once(program, edb, query, "mp") for _ in range(2)),
        key=lambda pair: pair[0])

    report = {
        "peers": peers,
        "chain_nodes": nodes,
        "answers": len(sim_answers),
        "sim_s": round(sim_s, 6),
        "mp_s": round(mp_s, 6),
        "equivalent": sim_answers == mp_answers,
    }
    status = "OK" if report["equivalent"] else "MISMATCH"
    print(f"peers={peers:2d} sim={sim_s:.3f}s mp={mp_s:.3f}s "
          f"answers={report['answers']} [{status}]")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (shape check, not perf)")
    parser.add_argument("--out", help="output JSON path (default: "
                        "BENCH_transport.json for a full run; a --smoke "
                        "run writes only where --out points)")
    args = parser.parse_args(argv)

    cpus = default_parallelism()
    if args.smoke:
        sizes = [(2, 50), (4, 50)]
    else:
        sizes = [(2, 220), (4, 220), (8, 160)]

    workloads = [bench_peers(peers, nodes) for peers, nodes in sizes]

    payload = {
        "benchmark": "transport",
        "smoke": args.smoke,
        "cpus": cpus,
        "workloads": workloads,
    }
    out = args.out or (None if args.smoke else "BENCH_transport.json")
    if out is not None:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out} (cpus={cpus})")

    failures = [w["peers"] for w in workloads if not w["equivalent"]]
    if failures:
        print(f"EQUIVALENCE MISMATCH at peers={failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
