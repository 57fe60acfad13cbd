"""The six workloads: inputs from a seed, one timed pass, the oracle gate.

Batch workloads draw their scenarios from a frozen pool (``pools.json``,
rebuilt by ``build_pools.py``): scenario cost on these nets spans two
orders of magnitude (7 k to 700 k derivations at the same shape), so a
free draw would make every timing a ranking of scenarios.  A pool holds
scenario seeds whose evaluation cost fell in one narrow band when the
pool was built; ``--seed`` picks which of them a run uses.

Everything here is driven through ``repro.diagnose``, ``RunConfig()``
defaults, ``clear_plan_cache`` and ``DiagnosisService.handle`` only.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.datalog.plan import clear_plan_cache
from repro.diagnosis.online import OnlineDiagnoser
from repro.petri.generators import TelecomSpec, telecom_net
from repro.service import DiagnosisService, ServiceConfig, SessionConfig
from repro.workloads.alarmgen import simulate_alarms
from repro.workloads.scenarios import get_scenario

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent

#: the net every service session diagnoses against
SERVICE_SCENARIO = "telecom-small"
SESSION_CONFIG = SessionConfig(window=8, degraded_window=2,
                               checkpoint_interval=5)


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    method: str
    transport: str
    peers: int
    steps: int            #: alarms per scenario
    pool: str             #: key into pools.json
    scenarios: int        #: scenarios per pass
    cold: bool = False    #: clear_plan_cache() before every op, no warm-up
    bruteforce: bool = False  #: cross-check the oracle with bruteforce

    smoke_scenarios = 3


#: alarms per client and pass; the stream pool is built at this length
STREAM_ALARMS = 150


@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    max_resident: int
    clients: int = 16

    smoke_clients = 4
    smoke_alarms = 50


WORKLOADS: dict[str, BatchWorkload | ServiceWorkload] = {w.name: w for w in [
    BatchWorkload("cold-start", "dqsq", "sim", peers=2, steps=5,
                  pool="dqsq-2x5", scenarios=12, cold=True, bruteforce=True),
    BatchWorkload("deep-join", "qsq", "sim", peers=2, steps=10,
                  pool="qsq-2x10", scenarios=4),
    BatchWorkload("fanout-sim", "dqsq", "sim", peers=3, steps=6,
                  pool="dqsq-3x6", scenarios=4),
    BatchWorkload("fanout-mp", "dqsq", "mp", peers=3, steps=6,
                  pool="dqsq-3x6", scenarios=4),
    ServiceWorkload("service-resident", max_resident=16),
    ServiceWorkload("service-churn", max_resident=8),
]}


# -- batch ----------------------------------------------------------------------


@dataclass
class Scenario:
    seed: int
    petri: object
    alarms: object
    oracle: object  #: DiagnosisOutcome of method="dedicated"
    brute: object = None  #: bruteforce diagnosis set, where the workload asks


def make_scenario(peers: int, steps: int, seed: int):
    """One (net, alarm sequence) pair; ``None`` when the run deadlocked
    before emitting ``steps`` alarms."""
    petri = telecom_net(TelecomSpec(peers=peers, ring_length=3, branching=0.3,
                                    topology="chain", seed=seed))
    alarms = simulate_alarms(petri, steps=steps, seed=seed)
    return (petri, alarms) if len(alarms) == steps else None


def load_pool(name: str) -> list[int]:
    return json.loads((HERE / "pools.json").read_text())[name]["seeds"]


def build_scenarios(spec: BatchWorkload, seed: int, smoke: bool) -> list[Scenario]:
    """The pass's scenario list: a seeded draw from the workload's pool.

    Both fanout workloads name the same pool, so the same seed gives
    them the same list.
    """
    count = spec.smoke_scenarios if smoke else spec.scenarios
    chosen = random.Random(seed).sample(load_pool(spec.pool), count)
    out = []
    for scenario_seed in chosen:
        petri, alarms = make_scenario(spec.peers, spec.steps, scenario_seed)
        oracle = repro.diagnose(petri, alarms, method="dedicated")
        brute = (repro.diagnose(petri, alarms, method="bruteforce").diagnoses
                 if spec.bruteforce else None)
        out.append(Scenario(scenario_seed, petri, alarms, oracle, brute))
    return out


def timed_op(spec: BatchWorkload, scenario: Scenario) -> tuple[float, object]:
    if spec.cold:
        clear_plan_cache()
    start = time.perf_counter()
    outcome = repro.diagnose(
        scenario.petri, scenario.alarms, method=spec.method,
        config=repro.RunConfig(transport=spec.transport))
    return time.perf_counter() - start, outcome


def check_batch(spec: BatchWorkload, scenario: Scenario, diagnoses,
                events, partial: bool) -> str | None:
    """The oracle gate for one batch answer; a reason when it fails."""
    oracle = scenario.oracle
    if partial:
        return "unexpected partial answer"
    if diagnoses != oracle.diagnoses:
        return "diagnosis set differs from the dedicated algorithm's"
    if spec.method == "dqsq" and events != oracle.materialized_events:
        return "materialized events differ from the dedicated prefix"
    if scenario.brute is not None and diagnoses != scenario.brute:
        return "diagnosis set differs from bruteforce"
    return None


# -- service --------------------------------------------------------------------


@dataclass
class ServiceInputs:
    petri: object
    streams: list[list]
    #: per client: the fault-free supervisor's final (diagnoses, partial)
    oracles: list[tuple[list, bool]]


def build_streams(spec: ServiceWorkload, seed: int, smoke: bool) -> ServiceInputs:
    """One alarm stream per client: a seeded draw from the stream pool
    (smoke cuts each stream short), and the fault-free supervisor's
    answer to it."""
    clients = spec.smoke_clients if smoke else spec.clients
    alarms = spec.smoke_alarms if smoke else STREAM_ALARMS
    petri, _alarms = get_scenario(SERVICE_SCENARIO).instantiate()
    chosen = random.Random(seed).sample(load_pool("streams"), clients)
    streams, oracles = [], []
    for stream_seed in chosen:
        stream = list(simulate_alarms(petri, steps=STREAM_ALARMS,
                                      seed=stream_seed))[:alarms]
        oracle = OnlineDiagnoser(petri, window=SESSION_CONFIG.window)
        oracle.push_all(stream)
        streams.append(stream)
        oracles.append((sorted(sorted(c) for c in oracle.diagnoses()),
                        oracle.window_lossy))
    return ServiceInputs(petri, streams, oracles)


def make_service(spec: ServiceWorkload) -> DiagnosisService:
    return DiagnosisService(ServiceConfig(
        session=SESSION_CONFIG, max_resident=spec.max_resident,
        session_queue_limit=2, global_queue_limit=16, on_overload="shed"))


@dataclass
class PassResult:
    wall: float
    pushes: int = 0
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


async def _client(service: DiagnosisService, session: str, stream: list,
                  oracle: tuple[list, bool], result: PassResult,
                  recorder: SpanRecorder | None) -> None:
    """One closed-loop tenant: the next push waits for the last reply."""
    reply = await service.handle({"op": "open", "session": session,
                                  "scenario": SERVICE_SCENARIO})
    if not reply["ok"]:
        result.failures.append(f"{session} open: {reply['error']}")
        return
    for seq, alarm in enumerate(stream, start=1):
        start = time.perf_counter()
        reply = await service.handle({
            "op": "alarm", "session": session, "symbol": alarm.symbol,
            "peer": alarm.peer, "seq": seq})
        end = time.perf_counter()
        result.pushes += 1
        if reply["ok"]:
            result.latencies.append(end - start)
        else:
            result.failures.append(f"{session} seq {seq}: {reply['error']}")
        if recorder is not None:
            recorder.add("service.handle", f"{session}:{seq}", start, end)
    final = await service.handle({"op": "diagnoses", "session": session})
    diagnoses, lossy = oracle
    if not final["ok"]:
        result.failures.append(f"{session} diagnoses: {final['error']}")
    elif final["diagnoses"] != diagnoses:
        result.failures.append(f"{session}: final diagnoses differ from the "
                               f"fault-free supervisor's")
    elif final["partial"] != lossy or final["degraded"]:
        result.failures.append(f"{session}: unexpected partial/degraded flag")


def run_service_pass(spec: ServiceWorkload, inputs: ServiceInputs,
                     recorder: SpanRecorder | None = None) -> PassResult:
    """A fresh service, every client's whole stream, all answers checked.

    All load comes from this one process: one asyncio task per client.
    """
    service = make_service(spec)
    result = PassResult(wall=0.0)

    async def drive() -> None:
        await asyncio.gather(*[
            _client(service, f"c{i}", stream, oracle, result, recorder)
            for i, (stream, oracle)
            in enumerate(zip(inputs.streams, inputs.oracles))])

    start = time.perf_counter()
    asyncio.run(drive())
    result.wall = time.perf_counter() - start
    result.counters = service.counters.as_dict()
    return result
