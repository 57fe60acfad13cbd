"""Command-line interface.

Usage::

    python -m repro list-scenarios
    python -m repro diagnose --scenario figure1-bac [--mode dqsq|qsq|dedicated|bruteforce]
    python -m repro diagnose --scenario figure1-bac --drop 0.2 --seed 7
    python -m repro diagnose --net net.json --alarms "b@p1 a@p2 c@p1"
    python -m repro render --scenario figure1-bac            # DOT to stdout
    python -m repro experiments [E1 E6a ...]
    python -m repro lint examples/figure3.dl --registered    # static analysis
    python -m repro diagnosability --list
    python -m repro diagnosability ambiguous-loop needs-communication
    python -m repro diagnosability --net net.json --faults t3 --format sarif
    python -m repro chaos --schedules 100 --max-deliveries 500
    python -m repro race --scenario figure1-bac --budget 50 --seed 7
    python -m repro diagnose --scenario figure1-bac --crash p1@2 --restart-after 6
    python -m repro serve --port 8750 --snapshot-dir /tmp/repro-sessions
    python -m repro serve --self-check --schedules 10      # chaos the server
"""

from __future__ import annotations

import argparse
import sys

from repro.api import DiagnosisMethod, RunConfig, diagnose
from repro.diagnosis import AlarmSequence, ObservationSpec
from repro.distributed.network import FaultPlan, NetworkOptions, PeerFaultPlan
from repro.errors import ReproError
from repro.petri.io import petri_from_json, petri_to_dot
from repro.workloads import SCENARIOS, get_scenario


def _parse_alarm_spec(text: str) -> AlarmSequence:
    """Parse ``"b@p1 a@p2 c@p1"`` into an alarm sequence."""
    pairs = []
    for token in text.split():
        symbol, sep, peer = token.partition("@")
        if not sep or not symbol or not peer:
            raise ReproError(f"bad alarm token {token!r}; expected symbol@peer")
        pairs.append((symbol, peer))
    return AlarmSequence(pairs)


def _load_instance(args) -> tuple:
    if args.scenario:
        try:
            return get_scenario(args.scenario).instantiate()
        except KeyError:
            raise ReproError(f"unknown scenario {args.scenario!r}; known: "
                             f"{', '.join(sorted(SCENARIOS))}") from None
    if not args.net:
        raise ReproError("provide --scenario or --net")
    with open(args.net) as handle:
        petri = petri_from_json(handle.read())
    if args.alarms is None:
        raise ReproError("--net requires --alarms")
    return petri, _parse_alarm_spec(args.alarms)


def cmd_list_scenarios(_args) -> int:
    for name in sorted(SCENARIOS):
        print(f"{name:20s} {SCENARIOS[name].description}")
    return 0


def _parse_crash_spec(text: str) -> dict[str, tuple[int, ...]]:
    """Parse ``"p1@2,p2@5"`` into a PeerFaultPlan.crash_at mapping."""
    crash_at: dict[str, list[int]] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        peer, sep, index = token.partition("@")
        if not sep or not peer or not index.isdigit():
            raise ReproError(f"bad crash token {token!r}; expected peer@k")
        crash_at.setdefault(peer, []).append(int(index))
    return {peer: tuple(sorted(ks)) for peer, ks in crash_at.items()}


def _network_options(args) -> NetworkOptions:
    crash_spec = getattr(args, "crash", "")
    try:
        peer_fault = PeerFaultPlan()
        if crash_spec:
            peer_fault = PeerFaultPlan(
                crash_at=_parse_crash_spec(crash_spec),
                restart_after_deliveries=getattr(args, "restart_after", None))
        return NetworkOptions(seed=args.seed,
                              fault=FaultPlan(drop_probability=args.drop),
                              peer_fault=peer_fault)
    except ValueError as err:
        raise ReproError(str(err)) from err


def cmd_diagnose(args) -> int:
    petri, alarms = _load_instance(args)
    print(f"alarm sequence: {' '.join(str(a) for a in alarms)}")
    hidden = frozenset(t.strip() for t in args.hidden.split(",") if t.strip())
    config = RunConfig(options=_network_options(args),
                       transport=getattr(args, "transport", "sim"))
    observation = alarms if not hidden else ObservationSpec.from_alarms(
        alarms, petri.net.peers(), hidden=hidden,
        hidden_budget=args.hidden_budget)
    result = diagnose(petri, observation, method=args.mode, config=config)
    diagnoses = result.diagnoses
    print(f"materialized unfolding events: {len(result.materialized_events)}")
    if args.drop > 0 and args.mode == "dqsq":
        counters = result.counters
        print("transport: "
              f"dropped={counters['net.dropped']} "
              f"retransmits={counters['net.retransmits']} "
              f"latency_max={counters['net.delivery_latency_max']}")
    if args.crash and args.mode == "dqsq":
        counters = result.counters
        print("recovery: "
              f"crashes={counters['net.recovery.crashes']} "
              f"restarts={counters['net.recovery.restarts']} "
              f"checkpoints_restored={counters['net.recovery.checkpoints_restored']} "
              f"replayed={counters['net.recovery.deliveries_replayed']}")
    if result.partial:
        print("WARNING: the run degraded before completing; the diagnosis "
              "set below is a sound partial (lower-bound) result")
        for channel, stats in (getattr(result, "transport_stats", None) or {}).items():
            line = ", ".join(f"{k}={v}" for k, v in sorted(stats.items()) if v)
            print(f"  {channel}: {line}")
        for peer, info in (result.peer_report or {}).items():
            if info["permanently_down"]:
                print(f"  peer {peer}: DOWN permanently "
                      f"(crashes={info['crashes']}, "
                      f"held_frames={info['held_frames']})")
    if not diagnoses:
        if result.partial:
            print("no explanation found before the run degraded "
                  "(inconclusive; lower --drop or schedule a restart)")
        else:
            print("no explanation: the sequence is inconsistent with the model")
        return 1
    if args.report:
        from repro.diagnosis.report import render_diagnosis_report
        print(render_diagnosis_report(diagnoses, petri))
        return 0
    suffix = (f" (hidden: {', '.join(sorted(hidden))}; "
              f"hidden budget: {args.hidden_budget})" if hidden else "")
    print(f"{len(diagnoses)} explanation(s){suffix}:")
    for index, configuration in enumerate(sorted(diagnoses, key=sorted)):
        print(f"  [{index + 1}]")
        for event in sorted(configuration):
            print(f"    {event}")
    return 0


def cmd_render(args) -> int:
    petri, _alarms = _load_instance(args)
    print(petri_to_dot(petri))
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import run_all
    run_all(only=args.ids or None)
    return 0


def cmd_lint(args) -> int:
    """Exit codes: 0 = clean (warnings/infos allowed), 1 = at least one
    ERROR-severity finding, 2 = usage or I/O error (via ReproError)."""
    from repro.datalog.analysis import analyze
    from repro.datalog.parser import parse_atom, parse_program
    from repro.datalog.rule import Query, Rule
    from repro.reporting import lint_json, lint_sarif, print_lint_report

    if not args.paths and not args.registered:
        raise ReproError("provide program files and/or --registered")
    query = Query(parse_atom(args.query)) if args.query else None
    known_peers = None
    if args.peers:
        known_peers = [p.strip() for p in args.peers.split(",") if p.strip()]
        if not known_peers:
            raise ReproError(f"--peers {args.peers!r} names no peer")
    runs = []
    for path in args.paths:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as err:
            raise ReproError(str(err)) from err
        spans: dict[Rule, tuple[int, int]] = {}
        program = parse_program(text, check=False, spans=spans)
        report = analyze(program, query, known_peers=known_peers,
                         depth_bounded=args.depth_bounded, spans=spans)
        runs.append((path, report))
    if args.registered:
        from repro.datalog.analysis import index_spans
        from repro.experiments.registry import registered_programs
        for name, entry in sorted(registered_programs().items()):
            # Registered programs are built in memory, so there are no
            # source positions; rule-index spans ("rule N") keep the
            # reports navigable instead of span-less.
            report = analyze(entry.program, entry.query,
                             known_peers=entry.known_peers,
                             depth_bounded=entry.depth_bounded,
                             spans=index_spans(entry.program))
            runs.append((f"<registered:{name}>", report))
        # Registered *models* ride along: every named diagnosability
        # instance is analyzed and reported as <model:NAME>, so one
        # `repro lint --registered` sweep covers programs and models.
        from repro.diagnosability import INSTANCES, model_report
        for name in sorted(INSTANCES):
            petri, spec = INSTANCES[name].build()
            report, _diag = model_report(petri, spec)
            runs.append((f"<model:{name}>", report))
    if args.format == "json":
        print(lint_json(runs))
        failed = any(report.errors for _label, report in runs)
    elif args.format == "sarif":
        print(lint_sarif(runs))
        failed = any(report.errors for _label, report in runs)
    else:
        failed = False
        for label, report in runs:
            failed |= print_lint_report(label, report)
    return 1 if failed else 0


def _diagnosability_models(args) -> list[tuple[str, object, object]]:
    """Resolve the models a ``repro diagnosability`` run analyzes."""
    from repro.diagnosability import DiagnosabilitySpec, get_instance

    models: list[tuple[str, object, object]] = []
    for name in args.names:
        try:
            instance = get_instance(name)
        except KeyError as err:
            raise ReproError(str(err)) from err
        petri, spec = instance.build()
        models.append((name, petri, spec))
    if args.net:
        try:
            with open(args.net) as handle:
                petri = petri_from_json(handle.read())
        except OSError as err:
            raise ReproError(str(err)) from err
        if not args.faults:
            raise ReproError("--net requires --faults")
        faults = [t for t in args.faults.replace(",", " ").split() if t]
        if args.observable and args.unobservable:
            raise ReproError("--observable and --unobservable are exclusive")
        if args.observable:
            observable = {t for t in
                          args.observable.replace(",", " ").split() if t}
        else:
            hidden = {t for t in
                      args.unobservable.replace(",", " ").split() if t}
            observable = set(petri.net.transitions) - hidden - set(faults)
        spec = DiagnosabilitySpec.single(faults, observable)
        models.append((args.net, petri, spec))
    if not models:
        raise ReproError("provide instance names, --net, or --list")
    return models


def cmd_diagnosability(args) -> int:
    """Exit codes: 0 = every fault class diagnosable (a bounded verdict
    counts, but is flagged via DD902), 1 = at least one class
    non-diagnosable, 2 = usage or I/O error (via ReproError)."""
    from repro.diagnosability import (INSTANCES, VERDICT_NON_DIAGNOSABLE,
                                      VerifierLimits, model_report)
    from repro.errors import PetriNetError
    from repro.reporting import lint_json, lint_sarif, print_lint_report

    if args.list:
        for name in sorted(INSTANCES):
            print(f"{name:20s} {INSTANCES[name].description}")
        return 0
    try:
        limits = VerifierLimits(max_states=args.max_states,
                                max_depth=args.depth)
    except ValueError as err:
        raise ReproError(str(err)) from err
    runs = []
    non_diagnosable = False
    for label, petri, spec in _diagnosability_models(args):
        try:
            analysis, report = model_report(
                petri, spec, limits=limits,  # type: ignore[arg-type]
                assume_bounded=args.depth is not None,
                per_peer=not args.skip_local)
        except PetriNetError as err:
            raise ReproError(f"{label}: {err}") from err
        runs.append((f"<model:{label}>", analysis))
        non_diagnosable |= any(v.verdict == VERDICT_NON_DIAGNOSABLE
                               for v in report.verdicts)
        if args.format == "text":
            print(f"== {label} "
                  f"(verifier: {report.verifier_places} places, "
                  f"{report.verifier_transitions} transitions)")
            print(report.render())
            print_lint_report(f"<model:{label}>", analysis)
    if args.format == "json":
        print(lint_json(runs))
    elif args.format == "sarif":
        print(lint_sarif(runs))
    return 1 if non_diagnosable else 0


def cmd_race(args) -> int:
    from repro.distributed.chaos import file_problem, get_problem, run_race

    if args.program:
        if not args.query:
            raise ReproError("--program requires --query")
        try:
            problem = file_problem(args.program, args.query,
                                   unsafe_negation=args.unsafe_negation)
        except OSError as err:
            raise ReproError(str(err)) from err
    elif args.scenario:
        problem = get_problem(args.scenario)
    else:
        raise ReproError("provide --scenario or --program")
    report = run_race(problem, budget=args.budget, seed=args.seed)
    print(report.render())
    if args.expect_race:
        return 1 if report.ok() else 0
    return 0 if report.ok() else 1


def cmd_chaos(args) -> int:
    from repro.distributed.chaos import ChaosConfig, run_chaos

    try:
        config = ChaosConfig(schedules=args.schedules, seed=args.seed,
                             problem=args.problem,
                             max_deliveries=args.max_deliveries,
                             max_drop=args.max_drop)
    except ValueError as err:
        raise ReproError(str(err)) from err
    report = run_chaos(config)
    if args.verbose:
        for outcome in report.outcomes:
            mark = "!" if outcome.violation else " "
            print(f" {mark} [{outcome.index:3d}] {outcome.status:9s} "
                  f"{outcome.description}")
    print(report.render())
    return 0 if report.ok() else 1


def cmd_serve(args) -> int:
    from repro.service import (DiagnosisService, ServiceChaosConfig,
                               ServiceConfig, SessionConfig,
                               run_service_chaos)

    if args.self_check:
        try:
            config = ServiceChaosConfig(schedules=args.schedules,
                                        seed=args.seed, sessions=args.sessions)
        except ValueError as err:
            raise ReproError(str(err)) from err
        report = run_service_chaos(config)
        print(report.render())
        return 0 if report.ok() else 1

    from repro.service import DirectorySnapshotStore, serve_tcp

    try:
        service_config = ServiceConfig(
            session=SessionConfig(window=args.window,
                                  checkpoint_interval=args.checkpoint_interval),
            max_resident=args.max_resident,
            session_queue_limit=args.session_queue_limit,
            global_queue_limit=args.global_queue_limit,
            on_overload=args.on_overload)
    except ValueError as err:
        raise ReproError(str(err)) from err
    store = (DirectorySnapshotStore(args.snapshot_dir)
             if args.snapshot_dir else None)
    service = DiagnosisService(service_config, store=store)

    import asyncio

    async def _serve() -> None:
        server = await serve_tcp(service, host=args.host, port=args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"repro diagnosis service on {host}:{port} "
              f"(newline-delimited JSON; overload policy: "
              f"{service_config.on_overload}; "
              f"snapshots: {args.snapshot_dir or 'in-memory'})",
              flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diagnosis of asynchronous discrete event systems "
                    "via distributed Datalog (PODS 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="list built-in scenarios") \
       .set_defaults(func=cmd_list_scenarios)

    diagnose = sub.add_parser("diagnose", help="diagnose an alarm sequence")
    diagnose.add_argument("--scenario", help="built-in scenario name")
    diagnose.add_argument("--net", help="Petri net JSON file")
    diagnose.add_argument("--alarms", help='alarm sequence, e.g. "b@p1 a@p2 c@p1"')
    diagnose.add_argument("--mode", default="dqsq",
                          choices=[m.value for m in DiagnosisMethod])
    diagnose.add_argument("--drop", type=float, default=0.0,
                          help="per-frame drop probability for the simulated "
                               "network (dqsq mode); a lost frame is "
                               "retransmitted until delivery or retry exhaustion")
    diagnose.add_argument("--seed", type=int, default=0,
                          help="scheduler / fault-injection seed")
    diagnose.add_argument("--transport", default="sim",
                          choices=["sim", "mp"],
                          help="substrate for dqsq mode: 'sim' is the "
                               "deterministic in-process simulator, 'mp' "
                               "runs each peer in its own OS process "
                               "(parallel; incompatible with --drop/--crash, "
                               "which are simulator-only)")
    diagnose.add_argument("--report", action="store_true",
                          help="render a human-readable report (Section 2's "
                               "'explained to a human supervisor')")
    diagnose.add_argument("--hidden", default="",
                          help="comma-separated unreported transitions "
                               "(Section 4.4 hidden-transition diagnosis)")
    diagnose.add_argument("--hidden-budget", type=int, default=2,
                          help="extra hidden events allowed per explanation")
    diagnose.add_argument("--crash", default="",
                          help="comma-separated peer crash points, e.g. "
                               "'p1@2' crashes p1 instead of processing its "
                               "2nd delivery (dqsq mode)")
    diagnose.add_argument("--restart-after", type=int, default=None,
                          help="deliveries until a crashed peer restarts "
                               "from its checkpoint (omit = permanent death "
                               "-> degraded partial diagnosis)")
    diagnose.set_defaults(func=cmd_diagnose)

    render = sub.add_parser("render", help="emit Graphviz DOT for a net")
    render.add_argument("--scenario", help="built-in scenario name")
    render.add_argument("--net", help="Petri net JSON file")
    render.add_argument("--alarms", help="ignored for rendering", default="")
    render.set_defaults(func=cmd_render)

    experiments = sub.add_parser("experiments", help="run experiment harness")
    experiments.add_argument("ids", nargs="*", help="experiment ids (default all)")
    experiments.set_defaults(func=cmd_experiments)

    lint = sub.add_parser(
        "lint", help="statically analyze (d)Datalog program files")
    lint.add_argument("paths", nargs="*",
                      help="program files in the repro text syntax")
    lint.add_argument("--registered", action="store_true",
                      help="also lint the registered paper programs "
                           "(Figure 1 diagnosis, Figure 3, Figure 4 QSQ)")
    lint.add_argument("--query", default="",
                      help='query atom enabling dead-rule detection, '
                           'e.g. \'r@r("1", Y)\'')
    lint.add_argument("--peers", default="",
                      help="comma-separated deployment peers enabling "
                           "unknown-peer detection")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="output format: human-readable text (default), "
                           "a JSON summary, or SARIF 2.1.0 for CI/editors")
    lint.add_argument("--depth-bounded", action="store_true",
                      help="assume a Section-4.4 depth-bound gadget guards "
                           "evaluation (downgrades DD301 to info)")
    lint.set_defaults(func=cmd_lint)

    diagnosability = sub.add_parser(
        "diagnosability",
        help="twin-plant diagnosability verdicts for fault models "
             "(DD901-DD904)")
    diagnosability.add_argument("names", nargs="*",
                                help="built-in instance names (see --list)")
    diagnosability.add_argument("--list", action="store_true",
                                help="list built-in instances and exit")
    diagnosability.add_argument("--net", default="",
                                help="Petri net JSON file to analyze instead")
    diagnosability.add_argument("--faults", default="",
                                help="comma/space-separated fault "
                                     "transitions of the --net model")
    diagnosability.add_argument("--observable", default="",
                                help="observable transitions of the --net "
                                     "model (default: every non-fault "
                                     "transition)")
    diagnosability.add_argument("--unobservable", default="",
                                help="alternative to --observable: hide "
                                     "these transitions (faults are always "
                                     "hidden unless listed in --observable)")
    diagnosability.add_argument("--depth", type=int, default=None,
                                help="declare a verifier depth bound: the "
                                     "search stops there and a clean verdict "
                                     "becomes 'diagnosable up to the bound' "
                                     "(DD902 at info severity, like "
                                     "lint --depth-bounded)")
    diagnosability.add_argument("--max-states", type=int, default=50_000,
                                help="verifier state-space safety limit; "
                                     "hitting it downgrades the verdict "
                                     "(DD902 at warning severity)")
    diagnosability.add_argument("--skip-local", action="store_true",
                                help="skip the per-peer DD904 "
                                     "needs-communication pass")
    diagnosability.add_argument("--format",
                                choices=("text", "json", "sarif"),
                                default="text",
                                help="output format (same emitters as lint)")
    diagnosability.set_defaults(func=cmd_diagnosability)

    race = sub.add_parser(
        "race", help="seeded schedule exploration: run the program under "
                     "consecutive scheduler seeds, diff the answer sets and "
                     "attach the DD701-DD703 verdict")
    race.add_argument("--scenario", default="",
                      help="a chaos problem: figure3, figure3-crash (Figure "
                           "3 + crash/recovery), racy, or a diagnosis "
                           "scenario such as figure1-bac")
    race.add_argument("--program", default="",
                      help="a .dl program file to explore instead")
    race.add_argument("--query", default="",
                      help='located query atom for --program, '
                           'e.g. \'verdict@s(X)\'')
    race.add_argument("--unsafe-negation", action="store_true",
                      help="evaluate --program on the distributed naive "
                           "engine with fire-time negation (the "
                           "deliberately order-sensitive mode)")
    race.add_argument("--budget", type=int, default=50,
                      help="seeded schedules to run, reference run included")
    race.add_argument("--seed", type=int, default=0,
                      help="seed of the reference run; run k uses seed+k")
    race.add_argument("--expect-race", action="store_true",
                      help="invert the exit code: succeed only if a "
                           "divergence was found (CI regression mode)")
    race.set_defaults(func=cmd_race)

    chaos = sub.add_parser(
        "chaos", help="run seeded randomized fault schedules and check "
                      "the recovery soundness invariants")
    chaos.add_argument("--schedules", type=int, default=100,
                       help="number of seeded schedules to run")
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed (schedule i derives from seed+i)")
    chaos.add_argument("--problem", default="figure3",
                       help="'figure3' (fast dQSQ query), 'figure3-crash', "
                            "'racy' or a diagnosis scenario name such as "
                            "'figure1-bac'")
    chaos.add_argument("--max-deliveries", type=int, default=20_000,
                       help="per-run budget of delivered messages "
                            "(exceeding it aborts the schedule, which is "
                            "not a violation)")
    chaos.add_argument("--max-drop", type=float, default=0.25,
                       help="upper bound for sampled drop probabilities")
    chaos.add_argument("--verbose", action="store_true",
                       help="print one line per schedule")
    chaos.set_defaults(func=cmd_chaos)

    serve = sub.add_parser(
        "serve", help="run the streaming multi-tenant diagnosis server "
                      "(asyncio TCP, newline-delimited JSON; sessions "
                      "survive restarts via the snapshot store)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="bind port (0 = ephemeral)")
    serve.add_argument("--snapshot-dir", default="",
                       help="directory for session snapshots (sessions then "
                            "survive real process restarts); empty = "
                            "in-memory store")
    serve.add_argument("--window", type=int, default=8,
                       help="per-session prefix-index window bounding "
                            "memory; lossy compaction marks answers partial")
    serve.add_argument("--checkpoint-interval", type=int, default=1,
                       help="snapshot a session every k-th alarm (1 = every "
                            "alarm: a kill loses nothing acknowledged)")
    serve.add_argument("--max-resident", type=int, default=1024,
                       help="sessions kept in memory before LRU eviction "
                            "to the snapshot store")
    serve.add_argument("--session-queue-limit", type=int, default=16,
                       help="pending-alarm watermark per session")
    serve.add_argument("--global-queue-limit", type=int, default=1024,
                       help="pending-alarm watermark service-wide")
    serve.add_argument("--on-overload", default="shed",
                       choices=("shed", "degrade"),
                       help="over-watermark policy: 'shed' refuses with a "
                            "structured overloaded error, 'degrade' admits "
                            "with a tightened window and partial answers")
    serve.add_argument("--self-check", action="store_true",
                       help="run the seeded service chaos campaign instead "
                            "of serving (CI mode): disconnects, session "
                            "crashes, flaky snapshot store, kill/restart")
    serve.add_argument("--schedules", type=int, default=10,
                       help="self-check: number of seeded schedules")
    serve.add_argument("--sessions", type=int, default=6,
                       help="self-check: concurrent sessions per schedule")
    serve.add_argument("--seed", type=int, default=0,
                       help="self-check: campaign seed")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
