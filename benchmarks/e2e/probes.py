"""Per-layer attribution: the staged replay and the side probes.

Every layer is measured from outside, by timing calls into its
functions; nothing in ``src/`` is instrumented.  The names a probe
calls are resolved once, in :class:`Api`; a probe whose name a later
change has removed reports ``null`` with the missing name and the rest
of the trace still runs.

Every per-layer metric is *per op*: the median, over the pass's
scenarios, of the value measured on one scenario.
"""

from __future__ import annotations

import gc
import importlib
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Callable

from spans import SpanRecorder, duration_ms
from workloads import (SESSION_CONFIG, BatchWorkload, Scenario,
                       ServiceInputs, ServiceWorkload, check_batch,
                       run_service_pass, timed_op)

NAMES = {
    "SupervisorEncoder": "repro.diagnosis.supervisor:SupervisorEncoder",
    "SUPERVISOR": "repro.diagnosis.supervisor:SUPERVISOR",
    "check_program": "repro.datalog.analysis:check_program",
    "Query": "repro.datalog.rule:Query",
    "Atom": "repro.datalog.atom:Atom",
    "Database": "repro.datalog.database:Database",
    "EvaluationBudget": "repro.datalog.seminaive:EvaluationBudget",
    "SemiNaiveEvaluator": "repro.datalog.seminaive:SemiNaiveEvaluator",
    "qsq_evaluate": "repro.datalog.qsq:qsq_evaluate",
    "qsq_rewrite": "repro.datalog.qsq:qsq_rewrite",
    "clear_plan_cache": "repro.datalog.plan:clear_plan_cache",
    "compile_batched_kernel": "repro.datalog.batch:compile_batched_kernel",
    "DqsqEngine": "repro.distributed.dqsq:DqsqEngine",
    "ACK_KIND": "repro.distributed.termination:ACK_KIND",
    "DedicatedDiagnoser": "repro.diagnosis.dedicated:DedicatedDiagnoser",
    # answer extraction has no public entry point of its own: the staged
    # replay calls the engine's helpers so the residual is the real code
    "answers_to_diagnoses": "repro.diagnosis.engine:_answers_to_diagnoses",
    "collect_nodes": "repro.diagnosis.engine:_collect_nodes_from_adorned",
    "OnlineDiagnoser": "repro.diagnosis.online:OnlineDiagnoser",
    "DiagnosisSession": "repro.service.session:DiagnosisSession",
    "DirectorySnapshotStore": "repro.service.store:DirectorySnapshotStore",
}

#: counts that repeat exactly at a fixed seed (on the simulator: the mp
#: transport's schedule is the operating system's)
EXACT = {
    "encoding.rules", "qsq.rewritten_rules", "plan.compiled_plans",
    "seminaive.derivations", "seminaive.facts_materialized",
    "engine.materialized_events", "engine.prefix_ratio_vs_dedicated",
    "mp.workers", "online.peak_table_vectors",
    "session.snapshot_bytes_at10", "session.snapshot_bytes_at50",
    "session.snapshot_bytes_at150",
    "service.evictions_per_alarm", "service.rehydrations",
    "service.snapshots_written", "service.alarms_queued_peak", "service.shed",
}
EXACT_ON_SIM = {
    "dqsq.delegations_sent", "dqsq.rewritings", "dqsq.tuples_shipped",
    "network.messages_sent", "network.tuples_per_message",
    "network.messages_per_derivation", "termination.control_messages",
}

NOT_RUN = "layer not run by this workload"


class MissingName(Exception):
    """A probe needs a name that no longer resolves."""


def _resolve(path: str):
    module, _, attribute = path.partition(":")
    try:
        return getattr(importlib.import_module(module), attribute)
    except (ImportError, AttributeError):
        return None


class Api:
    """The resolved names; attribute access raises :class:`MissingName`."""

    def __init__(self) -> None:
        self._found = {key: _resolve(path) for key, path in NAMES.items()}

    def __getattr__(self, key: str):
        value = self._found[key]
        if value is None:
            raise MissingName(NAMES[key])
        return value

    def missing(self) -> list[str]:
        return [NAMES[key] for key, value in self._found.items()
                if value is None]


class Layers:
    """Per-scenario rows of per-layer values, folded to one value each."""

    def __init__(self) -> None:
        self.rows: list[dict[str, float]] = []
        self.reasons: dict[str, str] = {}

    def run(self, row: dict, probe: Callable[[], dict],
            metrics: tuple[str, ...]) -> bool:
        """Run one probe into ``row``; a missing name nulls its metrics."""
        try:
            row.update(probe())
            return True
        except MissingName as err:
            for name in metrics:
                self.reasons[name] = f"missing {err}"
            return False

    def fold(self, names: list[str], exact: set[str]) -> dict[str, dict]:
        out = {}
        for name in names:
            values = [row[name] for row in self.rows
                      if row.get(name) is not None]
            if values:
                out[name] = {"value": statistics.median(values),
                             "exact": name in exact}
            else:
                out[name] = {"value": None, "exact": False,
                             "reason": self.reasons.get(name, NOT_RUN)}
        return out


# -- batch ----------------------------------------------------------------------


class _BatchOp:
    """The staged replay and the side probes of one scenario."""

    def __init__(self, api: Api, rec: SpanRecorder, spec: BatchWorkload,
                 scenario: Scenario, cpus: int, reasons: dict) -> None:
        self.api, self.rec, self.spec = api, rec, spec
        self.scenario, self.cpus, self.reasons = scenario, cpus, reasons
        self.op = f"{spec.name}:{scenario.seed}"
        self.dqsq = spec.method == "dqsq"
        self.failure: str | None = None
        self.local = None

    def _localize(self) -> None:
        """The paper's ``P_local`` and the query over it (centralized runs)."""
        api, atom = self.api, self.query_atom
        self.local = self.program.local_version()
        self.local_query = api.Query(api.Atom(
            f"{atom.relation}@{atom.peer}", atom.args, None))

    def _budget(self):
        # what DatalogDiagnosisEngine runs under when RunConfig() sets none
        return self.api.EvaluationBudget(max_facts=2_000_000)

    def _dqsq_query(self, transport: str, detector: bool = False):
        api = self.api
        engine = api.DqsqEngine(self.program, budget=self._budget(),
                                use_termination_detector=detector,
                                check=False, transport=transport)
        return engine.query(api.Query(self.query_atom))

    def staged(self) -> dict:
        """``engine.diagnose`` step by step, one span per layer call."""
        api, rec, spec, scenario = self.api, self.rec, self.spec, self.scenario
        # the last scenario's probes left garbage that is not this op's
        gc.collect()
        direct_s, _outcome = timed_op(spec, scenario)
        del _outcome
        gc.collect()
        if spec.cold:
            api.clear_plan_cache()
        with rec.span("engine.diagnose", self.op) as parent:
            with rec.span("encoding.encode") as encode:
                encoder = api.SupervisorEncoder(scenario.petri,
                                                scenario.alarms)
                self.program = encoder.program()
                self.query_atom = encoder.query_atom()
            with rec.span("analysis.check") as check:
                api.check_program(
                    self.program.program, api.Query(self.query_atom),
                    context="benchmarks.e2e",
                    known_peers=set(self.program.peers()) | {api.SUPERVISOR},
                    escalate=("DD403",) if self.dqsq else ())
            if self.dqsq:
                with rec.span("dqsq.query") as evaluate:
                    result = self._dqsq_query(spec.transport)
                answers = result.answers
                databases = result.databases.values()
                partial = result.partial
                # the probes need the counts, not the peers' databases
                self.counters = result.counters
            else:
                self._localize()
                with rec.span("qsq.evaluate") as evaluate:
                    qsq = api.qsq_evaluate(self.local, self.local_query,
                                           api.Database(),
                                           budget=self._budget(), check=False)
                answers, databases, partial = qsq.answers, [qsq.database], False
            events, _conditions = api.collect_nodes(databases)
            diagnoses = api.answers_to_diagnoses(answers)
        self.failure = check_batch(spec, scenario, diagnoses,
                                   frozenset(events), partial)
        self.evaluate_ms = duration_ms(evaluate)
        children = (duration_ms(encode) + duration_ms(check)
                    + self.evaluate_ms)
        row = {
            "encoding.encode_ms": duration_ms(encode),
            "encoding.rules": len(self.program),
            "analysis.check_ms": duration_ms(check),
            "engine.extract_ms": duration_ms(parent) - children,
            "engine.materialized_events": len(events),
            "engine.prefix_ratio_vs_dedicated":
                len(events) / len(scenario.oracle.materialized_events),
            "trace.direct_op_ms": direct_s * 1e3,
            "trace.staged_vs_direct_ratio":
                duration_ms(parent) / (direct_s * 1e3),
        }
        if self.dqsq:
            counters = self.counters
            facts_messages = counters["messages_sent[dqsq-facts]"]
            row.update({
                "dqsq.query_ms": self.evaluate_ms,
                "dqsq.delegations_sent": counters["delegations_sent"],
                "dqsq.rewritings": counters["rewritings"],
                "dqsq.tuples_shipped": counters["tuples_shipped"],
                "network.messages_sent": counters["messages_sent"],
                "network.tuples_per_message":
                    counters["tuples_shipped"] / facts_messages,
                "network.messages_per_derivation":
                    counters["messages_sent"] / counters["derivations"],
            })
        else:
            row["qsq.evaluate_ms"] = self.evaluate_ms
        return row

    def rewrite(self) -> dict:
        if self.local is None:
            self._localize()
        with self.rec.span("probe.qsq_rewrite", self.op) as span:
            self.rewriting = self.api.qsq_rewrite(self.local,
                                                  self.local_query)
        self.rewrite_ms = duration_ms(span)
        return {"qsq.rewrite_ms": self.rewrite_ms,
                "qsq.rewritten_rules": len(self.rewriting.program.rules)}

    def _centralized_run(self, name: str, compiled) -> tuple[float, object]:
        api = self.api
        database = api.Database()
        database.add_atom(self.rewriting.seed)
        evaluator = api.SemiNaiveEvaluator(
            self.rewriting.program, self._budget(), compiled=compiled,
            check=False)
        with self.rec.span(name, self.op) as span:
            evaluator.run(database)
        return duration_ms(span), evaluator.counters

    def _cold_then_warm(self, name: str, compiled) -> tuple[float, float, object]:
        """The rewritten program evaluated in one place, twice: with an
        empty plan cache, then with the plans the first run asked for."""
        self.api.clear_plan_cache()
        cold_ms, _counters = self._centralized_run(f"{name}_cold", compiled)
        warm_ms, counters = self._centralized_run(name, compiled)
        return cold_ms, warm_ms, counters

    def seminaive(self) -> dict:
        """Theorem 1: dQSQ and centralized QSQ materialize the same
        facts, so this run is the local-evaluation share of a dQSQ op.
        Plan compilation is what the cold run pays over the warm one."""
        cold_ms, self.join_ms, counters = self._cold_then_warm(
            "probe.seminaive", True)
        self.compile_ms = cold_ms - self.join_ms
        self.local_ms = cold_ms if self.spec.cold else self.join_ms
        derivations = counters["derivations"]
        lookups = counters["plan.cache_hits"] + counters["plan.cache_misses"]
        return {
            "seminaive.join_ms": self.join_ms,
            "seminaive.derivations": derivations,
            "seminaive.facts_materialized": counters["facts_materialized"],
            "seminaive.useful_ratio":
                counters["facts_materialized"] / derivations,
            "seminaive.derivations_per_s": derivations / (self.join_ms / 1e3),
            "plan.compile_ms": self.compile_ms,
            "plan.compiled_plans": counters["plan.cache_misses"],
            "plan.cache_hit_ratio": counters["plan.cache_hits"] / lookups,
            "plan.bindings_per_derivation":
                counters["plan.bindings_explored"] / derivations,
        }

    def batch(self) -> dict:
        """The batched tier on the same program: kernels are generated
        on first use and die with their plans, so the cold run pays
        plan compilation and code generation."""
        self.api.compile_batched_kernel  # the tier's presence
        cold_ms, warm_ms, _counters = self._cold_then_warm(
            "probe.batch_join", "batched")
        return {"batch.codegen_ms": cold_ms - warm_ms - self.compile_ms,
                "batch.join_ms": warm_ms}

    def distribution(self) -> dict:
        """What distribution adds to evaluating the same facts locally
        (on a cold workload both sides pay plan compilation)."""
        return {"dqsq.distribution_overhead_ms":
                self.evaluate_ms - self.rewrite_ms - self.local_ms}

    def termination(self) -> dict:
        if self.spec.cold:
            self.api.clear_plan_cache()
        with self.rec.span("probe.dqsq_detector", self.op) as span:
            result = self._dqsq_query(self.spec.transport, detector=True)
        return {
            "termination.detector_overhead_ms":
                duration_ms(span) - self.evaluate_ms,
            "termination.control_messages":
                result.counters[f"messages_sent[{self.api.ACK_KIND}]"],
        }

    def mp(self) -> dict:
        counters = self.counters
        with self.rec.span("probe.dqsq_sim", self.op) as span:
            self._dqsq_query("sim")
        workers = counters["mp.workers"]
        ratio = self.evaluate_ms / duration_ms(span)
        if self.cpus < workers:
            # mp cannot beat the simulator without a core per worker: on
            # a smaller host the ratio would measure the host
            ratio = None
            self.reasons["mp.vs_sim_ratio"] = "cpus < workers"
        return {
            "mp.query_ms": self.evaluate_ms,
            "mp.workers": workers,
            "mp.polling_rounds": counters["mp.polling_rounds"],
            "mp.messages_total": counters["mp.messages_total"],
            "mp.vs_sim_ratio": ratio,
        }

    def dedicated(self) -> dict:
        diagnoser = self.api.DedicatedDiagnoser(self.scenario.petri)
        with self.rec.span("probe.dedicated", self.op) as span:
            diagnoser.diagnose(self.scenario.alarms)
        return {"dedicated.diagnose_ms": duration_ms(span)}


def _side_probes(op: _BatchOp, layers: Layers, row: dict,
                 names: list[str]) -> None:
    layers.run(row, op.dedicated, ("dedicated.diagnose_ms",))
    if not layers.run(row, op.rewrite,
                      ("qsq.rewrite_ms", "qsq.rewritten_rules")):
        return
    joined = layers.run(row, op.seminaive, tuple(
        n for n in names if n.startswith(("seminaive.", "plan."))))
    if joined:
        layers.run(row, op.batch, ("batch.codegen_ms", "batch.join_ms"))
    if op.dqsq:
        if joined:
            row.update(op.distribution())
        layers.run(row, op.termination, (
            "termination.detector_overhead_ms",
            "termination.control_messages"))
    if op.spec.transport == "mp":
        layers.run(row, op.mp, tuple(n for n in names if n.startswith("mp.")))


def trace_batch(api: Api, spec: BatchWorkload, scenarios: list[Scenario],
                rec: SpanRecorder, cpus: int, names: list[str],
                probe_scenarios: int) -> tuple[dict, list, int]:
    """Replay every scenario staged, then probe the first
    ``probe_scenarios`` (the side probes cost a few ops each); fold to
    one value per metric.

    All replays come first: the probes clear the plan cache, and a
    replay after them would time a cold op on a warm workload.
    """
    layers = Layers()
    failures = []

    def guarded(op: _BatchOp, step: Callable[[], object]) -> None:
        try:
            step()
        except Exception as err:  # counted like a failed op, never fatal
            traceback.print_exc()
            op.failure = f"{type(err).__name__}: {err}"
        if op.failure is not None:
            failures.append({"scenario_seed": op.scenario.seed,
                             "reason": f"staged replay: {op.failure}"})
            op.failure = None

    to_probe = []
    for scenario in scenarios:
        op = _BatchOp(api, rec, spec, scenario, cpus, layers.reasons)
        row: dict = {}
        layers.rows.append(row)
        guarded(op, lambda: layers.run(row, op.staged, tuple(names))
                and len(to_probe) < probe_scenarios
                and to_probe.append((op, row)))
    for op, row in to_probe:
        guarded(op, lambda: _side_probes(op, layers, row, names))
    exact = EXACT | (EXACT_ON_SIM if spec.transport == "sim" else set())
    return layers.fold(names, exact), failures, len(scenarios)


# -- service --------------------------------------------------------------------


def _median_us(call: Callable[[], object], repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _online(api: Api, inputs: ServiceInputs) -> dict:
    window = SESSION_CONFIG.window
    diagnoser = api.OnlineDiagnoser(inputs.petri, window=window)
    stream = inputs.streams[0]
    start = time.perf_counter()
    for alarm in stream:
        diagnoser.push(alarm)
    push_us = (time.perf_counter() - start) / len(stream) * 1e6
    snapshot = diagnoser.checkpoint()
    target = api.OnlineDiagnoser(inputs.petri, window=window)
    return {
        "online.push_us": push_us,
        "online.checkpoint_us": _median_us(diagnoser.checkpoint),
        "online.restore_us": _median_us(lambda: target.restore(snapshot)),
        "online.peak_table_vectors":
            diagnoser.counters["peak_table_vectors"],
    }


#: stream lengths at which a session is snapshotted and restored
SESSION_MARKS = (10, 50, 150)


def _session(api: Api, inputs: ServiceInputs, scratch: Path) -> dict:
    """Snapshot cost against stream length, and what a directory store
    adds on top of it (the e2e workloads use the memory store)."""
    stream = inputs.streams[0]
    session = api.DiagnosisSession("probe", inputs.petri,
                                   config=SESSION_CONFIG)
    out = {}
    for seq, alarm in enumerate(stream, start=1):
        session.apply(alarm.symbol, alarm.peer)
        if seq not in SESSION_MARKS:
            continue
        data = session.snapshot_bytes()
        out[f"session.snapshot_us_at{seq}"] = _median_us(
            session.snapshot_bytes)
        out[f"session.restore_us_at{seq}"] = _median_us(
            lambda data=data: api.DiagnosisSession.from_bytes(data))
        out[f"session.snapshot_bytes_at{seq}"] = len(data)
        if seq == SESSION_MARKS[-1]:
            store = api.DirectorySnapshotStore(str(scratch))
            try:
                out["store.dir_save_us"] = _median_us(
                    lambda data=data: store.save("probe", data), repeats=20)
                out["store.dir_load_us"] = _median_us(
                    lambda: store.load("probe"), repeats=20)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
    return out


def _handle_overhead(spec: ServiceWorkload, inputs: ServiceInputs,
                     push_us: float) -> dict:
    """One resident session through ``handle``, less the bare push."""
    alone = ServiceInputs(inputs.petri, inputs.streams[:1],
                          inputs.oracles[:1])
    result = run_service_pass(spec, alone)
    handle_us = statistics.fmean(result.latencies) * 1e6
    return {"service.handle_overhead_us": handle_us - push_us}


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def trace_service(api: Api, spec: ServiceWorkload, inputs: ServiceInputs,
                  rec: SpanRecorder, names: list[str],
                  scratch: Path) -> tuple[dict, list, int]:
    layers = Layers()
    row: dict = {}
    layers.rows.append(row)
    result = run_service_pass(spec, inputs, rec)
    counters = result.counters
    applied = counters.get("service.alarms_applied", 0)
    row.update({
        "service.evictions_per_alarm":
            counters.get("service.evictions", 0) / applied,
        "service.rehydrations": counters.get("service.rehydrations", 0),
        "service.snapshots_written":
            counters.get("service.snapshots_written", 0),
        "service.alarms_queued_peak": counters.get("service.alarms_queued", 0),
        "service.shed": counters.get("service.shed", 0),
        "service.push_p50_ms": percentile(result.latencies, 0.50) * 1e3,
        "service.push_p99_ms": percentile(result.latencies, 0.99) * 1e3,
    })
    online = tuple(n for n in names if n.startswith("online."))
    if layers.run(row, lambda: _online(api, inputs), online):
        row.update(_handle_overhead(spec, inputs, row["online.push_us"]))
    else:
        layers.reasons["service.handle_overhead_us"] = \
            layers.reasons["online.push_us"]
    layers.run(row, lambda: _session(api, inputs, scratch), tuple(
        n for n in names if n.startswith(("session.", "store."))))
    failures = [{"reason": reason} for reason in result.failures]
    attempted = result.pushes + len(inputs.streams)
    return layers.fold(names, EXACT), failures, attempted
