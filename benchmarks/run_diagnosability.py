#!/usr/bin/env python
"""Diagnosability benchmark runner: twin-plant verifier vs oracle.

Runs the twin-plant verifier over the built-in instances plus the
generated sweep grid (:mod:`repro.workloads.diagnosability`), records
verifier sizes, search sizes and timings, and -- the exit gate --
cross-checks every verdict against the independent brute-force oracle
(:mod:`repro.diagnosability.bruteforce`): wherever the oracle is
conclusive the verdicts must match, and every non-diagnosable verdict
must carry a witness pair that replays on the original net.  Timings
are reported but never gated; the runner exits non-zero only on a
verdict/witness mismatch -- with or without ``--smoke``.

A full run's report goes to ``BENCH_diagnosability.json``, a
``--smoke`` run's only to ``--out``.

Usage::

    PYTHONPATH=src python benchmarks/run_diagnosability.py \\
        [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.diagnosability import (INSTANCES, analyze_diagnosability,
                                  bruteforce_class, confirm_witness,
                                  twin_for_class, verifier_unfolding)
from repro.workloads.diagnosability import iter_models, sweep_cases


def bench_model(label, petri, spec, *, unfold_events: int) -> dict:
    t0 = time.perf_counter()
    report = analyze_diagnosability(petri, spec)
    verifier_s = time.perf_counter() - t0

    classes = []
    agreement = True
    witnesses_ok = True
    for verdict in report.verdicts:
        t0 = time.perf_counter()
        oracle = bruteforce_class(petri, spec, verdict.fault_class)
        oracle_s = time.perf_counter() - t0
        agrees = (verdict.verdict == oracle.verdict
                  if oracle.conclusive else None)
        if agrees is False:
            agreement = False
        confirmed = None
        if verdict.witness is not None:
            confirmed = confirm_witness(petri, spec, verdict.witness)
            if not confirmed:
                witnesses_ok = False
        classes.append({
            "fault_class": verdict.fault_class,
            "verdict": verdict.verdict,
            "verifier_states": verdict.states,
            "verifier_edges": verdict.edges,
            "depth_reached": verdict.depth_reached,
            "truncated": verdict.truncated,
            "oracle_verdict": oracle.verdict,
            "oracle_pairs": oracle.pairs_explored,
            "oracle_conclusive": oracle.conclusive,
            "oracle_s": round(oracle_s, 6),
            "oracle_agrees": agrees,
            "witness_kind": (verdict.witness.kind
                             if verdict.witness else None),
            "witness_confirmed": confirmed,
        })

    # Partial-order view of the same verifier: the complete-prefix size
    # is the metric the unfolding-based literature reports.
    first = spec.fault_classes[0][0]
    twin = twin_for_class(petri, spec, first)
    t0 = time.perf_counter()
    prefix = verifier_unfolding(twin, max_events=unfold_events)
    unfold_s = time.perf_counter() - t0

    entry = {
        "name": label,
        "net_places": len(petri.net.places),
        "net_transitions": len(petri.net.transitions),
        "verifier_places": report.verifier_places,
        "verifier_transitions": report.verifier_transitions,
        "verifier_s": round(verifier_s, 6),
        "prefix_events": len(prefix.events),
        "prefix_s": round(unfold_s, 6),
        "classes": classes,
        "oracle_agrees": agreement,
        "witnesses_confirmed": witnesses_ok,
    }
    status = "OK" if agreement and witnesses_ok else "MISMATCH"
    verdicts = ",".join(c["verdict"] for c in classes)
    print(f"{label:28s} states={classes[0]['verifier_states']:6d} "
          f"prefix={len(prefix.events):5d} verifier={verifier_s:.3f}s "
          f"{verdicts} [{status}]")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep for CI (shape check, not perf)")
    parser.add_argument("--out", help="output JSON path (default: "
                        "BENCH_diagnosability.json for a full run; a "
                        "--smoke run writes only where --out points)")
    args = parser.parse_args(argv)

    models = [(f"builtin:{name}", *INSTANCES[name].build())
              for name in sorted(INSTANCES)]
    if args.smoke:
        cases = sweep_cases(topologies=("chain", "mesh"),
                            placements=("late",),
                            observable_ratios=(1.0, 0.6))
    else:
        cases = sweep_cases(peers=3) + sweep_cases(
            topologies=("chain", "ring"), placements=("late", "spread"),
            observable_ratios=(0.6,), peers=4, seed=1)
    models += [(f"sweep:{name}", petri, spec)
               for name, petri, spec in iter_models(cases)]

    unfold_events = 500 if args.smoke else 5_000
    workloads = [bench_model(label, petri, spec, unfold_events=unfold_events)
                 for label, petri, spec in models]

    payload = {
        "benchmark": "diagnosability",
        "smoke": args.smoke,
        "models": len(workloads),
        "workloads": workloads,
    }
    out = args.out or (None if args.smoke else "BENCH_diagnosability.json")
    if out is not None:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")

    failures = [w["name"] for w in workloads
                if not (w["oracle_agrees"] and w["witnesses_confirmed"])]
    if failures:
        print(f"ORACLE/WITNESS MISMATCH in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
