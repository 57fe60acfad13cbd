"""Service chaos: seeded fault campaigns against the diagnosis server.

The serving layer promises to *bend instead of breaking*: under slow
clients, pipelined bursts, mid-stream disconnects, injected session
crashes, a flaky snapshot store and a full server kill/restart, every
response is either **exact** or **explicitly** degraded/shed -- zero
unhandled exceptions, zero silently-wrong answers.  This module checks
that promise the same way :mod:`repro.distributed.chaos` checks the
recovery subsystem: each schedule index deterministically derives a
:class:`ServiceFaultPlan` from the campaign seed, drives a fleet of
concurrent client tasks against an in-process
:class:`~repro.service.server.DiagnosisService` (through the very
``handle`` surface the TCP loop uses), and compares every session's
final diagnoses against the fault-free oracle computed once per
scenario by the dedicated solver (not the online engine under test):

* a session that ends **non-partial** must equal the oracle exactly
  (and agree on consistency);
* a session that ends **partial** (degraded under overload, or window
  compaction went lossy) must be a *subset* of the oracle -- sound,
  never inventive;
* every refusal must be structured (a registered error code), and
  ``handle`` must never raise;
* a server kill/restart mid-campaign must lose nothing: sessions
  rehydrate from the snapshot store and clients replay idempotently by
  seq.

A violation carries its schedule index, so any failure replays exactly
with the same seed.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any

from repro.api import diagnose
from repro.distributed.chaos import schedule_seed, verdict
from repro.service.protocol import ERROR_CODES
from repro.service.server import DiagnosisService, ServiceConfig
from repro.service.session import SessionConfig
from repro.service.store import FlakySnapshotStore, MemorySnapshotStore
from repro.utils.counters import Counters
from repro.workloads.scenarios import get_scenario

#: scenarios the campaign cycles sessions through -- includes the
#: inexplicable interleaving so the empty-diagnosis path is exercised
_SCENARIO_POOL = ("figure1-bac", "figure1-bca", "figure1-cba")

#: per-step and client-level retry budget before the harness calls the
#: schedule livelocked (a violation)
_MAX_STEPS = 400


@dataclass(frozen=True)
class ServiceFaultPlan:
    """One schedule's fault mix (derived, or hand-built for tests)."""

    #: snapshot-store write/load failure probabilities (seeded)
    snapshot_write_failure: float = 0.0
    snapshot_load_failure: float = 0.0
    #: per-step probability a client disconnects mid-stream and
    #: reconnects by re-opening (resume) and replaying from the
    #: resumed seq
    disconnect_probability: float = 0.0
    #: per-step probability the session's in-memory state crashes
    #: (``drop_resident``): un-checkpointed suffix lost, rehydration
    #: plus replay must repair it
    crash_probability: float = 0.0
    #: per-step probability a client stalls (yields the loop), letting
    #: other tenants pile pressure onto the admission watermarks
    slow_client_probability: float = 0.0
    #: alarms sent concurrently per step (pipelining; >1 drives the
    #: per-session queue toward its watermark)
    burst: int = 1
    #: kill the server object and start a fresh one over the same store
    #: after this many applied alarms (``None`` = never)
    kill_restart_at: int | None = None

    def describe(self) -> str:
        parts = [f"wfail={self.snapshot_write_failure}",
                 f"lfail={self.snapshot_load_failure}",
                 f"disc={self.disconnect_probability}",
                 f"crash={self.crash_probability}",
                 f"slow={self.slow_client_probability}",
                 f"burst={self.burst}"]
        if self.kill_restart_at is not None:
            parts.append(f"kill@{self.kill_restart_at}")
        return " ".join(parts)


@dataclass(frozen=True)
class ServiceChaosConfig:
    """Knobs of one service chaos campaign."""

    schedules: int = 10
    seed: int = 0
    #: concurrent sessions per schedule
    sessions: int = 6
    #: small caps so eviction and admission actually fire
    max_resident: int = 3
    session_queue_limit: int = 2
    global_queue_limit: int = 8

    def __post_init__(self) -> None:
        if self.schedules < 1 or self.sessions < 1:
            raise ValueError("schedules and sessions must be >= 1")


@dataclass
class SessionOutcome:
    """One session's verdict at the end of one schedule."""

    schedule: int
    session_id: str
    scenario: str
    #: "completed" (non-partial, must equal oracle) or "degraded"
    #: (partial, must be a subset)
    status: str
    equal: bool
    subset: bool
    violation: str | None


@dataclass
class ServiceChaosReport:
    """Aggregate over a campaign, every violated invariant listed."""

    config: ServiceChaosConfig
    outcomes: list[SessionOutcome] = field(default_factory=list)
    #: harness-side observations (sheds seen, replays, restarts, ...)
    counters: Counters = field(default_factory=Counters)
    #: schedule-level violations not tied to one session (unhandled
    #: exceptions, malformed responses, livelocks)
    violations: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations and all(
            o.violation is None for o in self.outcomes)

    def all_violations(self) -> list[str]:
        return self.violations + [
            f"schedule {o.schedule} session {o.session_id!r} "
            f"[{o.scenario}]: {o.violation}"
            for o in self.outcomes if o.violation is not None]

    def counts(self) -> dict[str, int]:
        counts = {"completed": 0, "degraded": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def render(self) -> str:
        counts = self.counts()
        lines = [f"service chaos: {self.config.schedules} schedules x "
                 f"{self.config.sessions} sessions (seed {self.config.seed}): "
                 f"{counts['completed']} completed, "
                 f"{counts['degraded']} degraded"]
        lines.append(
            f"  observed: shed={self.counters['client.shed_retries']} "
            f"rehydrations={self.counters['service.rehydrations']} "
            f"restarts={self.counters['harness.kill_restarts']} "
            f"snapshot_retries={self.counters['service.snapshot_retries']} "
            f"disconnects={self.counters['harness.disconnects']} "
            f"crashes={self.counters['harness.session_crashes']}")
        for violation in self.all_violations():
            lines.append(f"  VIOLATION {violation}")
        if self.ok():
            lines.append("  invariants held: non-partial == oracle, "
                         "partial <= oracle, all refusals structured")
        return "\n".join(lines)


def make_service_plan(config: ServiceChaosConfig,
                      index: int) -> ServiceFaultPlan:
    """Derive schedule ``index``'s fault plan from the campaign seed."""
    rng = random.Random(schedule_seed(config.seed, index))
    kill_at = (rng.randint(3, 3 * config.sessions)
               if rng.random() < 0.5 else None)
    return ServiceFaultPlan(
        snapshot_write_failure=round(rng.uniform(0, 0.3), 3),
        snapshot_load_failure=round(rng.uniform(0, 0.2), 3),
        disconnect_probability=round(rng.uniform(0, 0.3), 3),
        crash_probability=round(rng.uniform(0, 0.25), 3),
        slow_client_probability=round(rng.uniform(0, 0.5), 3),
        burst=rng.choice((1, 2, 4)),
        kill_restart_at=kill_at,
    )


class _Holder:
    """The restartable service: "kill" discards the object (resident
    sessions and all), "restart" builds a fresh one over the same store."""

    def __init__(self, service_config: ServiceConfig, store: Any,
                 kill_restart_at: int | None, report: ServiceChaosReport):
        self._config = service_config
        self.store = store
        self.service = DiagnosisService(service_config, store=store)
        self._kill_restart_at = kill_restart_at
        self._applied = 0
        self._report = report

    async def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        service = self.service  # bind: a restart must not split a request
        response = await service.handle(request)
        if (request.get("op") == "alarm" and response.get("ok")
                and not response.get("duplicate")):
            self._applied += 1
            if (self._kill_restart_at is not None
                    and self._applied >= self._kill_restart_at):
                self._kill_restart_at = None
                self._report.counters.merge(service.counters)
                self.service = DiagnosisService(self._config,
                                                store=self.store)
                self._report.counters.add("harness.kill_restarts")
        return response


def _well_formed(response: Any) -> bool:
    if not isinstance(response, dict) or "ok" not in response:
        return False
    if response["ok"]:
        return True
    return response.get("error") in ERROR_CODES and "message" in response


async def _send(holder: _Holder, request: dict[str, Any],
                report: ServiceChaosReport) -> dict[str, Any] | None:
    """One request; an exception or malformed response is a violation."""
    try:
        response = await holder.handle(request)
    except Exception as err:  # the contract says this can never happen
        report.violations.append(
            f"handle({request.get('op')!r}) raised "
            f"{type(err).__name__}: {err}")
        return None
    if not _well_formed(response):
        report.violations.append(
            f"malformed response to {request.get('op')!r}: {response!r}")
        return None
    return response


async def _reopen(holder: _Holder, session_id: str, scenario: str,
                  config: ServiceChaosConfig,
                  report: ServiceChaosReport) -> int | None:
    """Open (fresh or resume); returns the acknowledged seq."""
    request = {"op": "open", "session": session_id, "scenario": scenario}
    for _attempt in range(_MAX_STEPS):
        response = await _send(holder, request, report)
        if response is None:
            return None
        if response["ok"]:
            return int(response["seq"])
        if response["error"] in ("snapshot-failed", "overloaded"):
            report.counters.add("client.open_retries")
            await asyncio.sleep(0)
            continue
        report.violations.append(
            f"open of {session_id!r} refused with "
            f"{response['error']}: {response['message']}")
        return None
    report.violations.append(f"open of {session_id!r} livelocked")
    return None


async def _drive_session(holder: _Holder, session_id: str, scenario: str,
                         plan: ServiceFaultPlan, rng: random.Random,
                         config: ServiceChaosConfig,
                         report: ServiceChaosReport) -> None:
    """One client: feed the scenario's alarms to the end, at-least-once.

    The client is deliberately naive-but-correct: it tracks the highest
    *contiguously acknowledged* seq, resyncs it by resume-``open`` after
    any turbulence, and replays everything above it.  Idempotency (the
    duplicate path) makes the replays safe.
    """
    _petri, alarms = get_scenario(scenario).instantiate()
    alarms = list(alarms)
    acked = await _reopen(holder, session_id, scenario, config, report)
    if acked is None:
        return
    for _step in range(_MAX_STEPS):
        if acked >= len(alarms):
            break
        if rng.random() < plan.slow_client_probability:
            await asyncio.sleep(0)
        if rng.random() < plan.crash_probability:
            if holder.service.drop_resident(session_id):
                report.counters.add("harness.session_crashes")
        if rng.random() < plan.disconnect_probability:
            report.counters.add("harness.disconnects")
            acked = await _reopen(holder, session_id, scenario, config,
                                  report)
            if acked is None:
                return
            continue
        burst = min(plan.burst, len(alarms) - acked)
        requests = [{"op": "alarm", "session": session_id,
                     "symbol": alarms[acked + i].symbol,
                     "peer": alarms[acked + i].peer,
                     "seq": acked + 1 + i} for i in range(burst)]
        responses = await asyncio.gather(
            *[_send(holder, request, report) for request in requests])
        resync = False
        for response in responses:
            if response is None:
                return
            if response["ok"]:
                resync = True
                continue
            code = response["error"]
            if code == "overloaded":
                report.counters.add("client.shed_retries")
            elif code == "gap":
                # the session is behind us (crash/restart regressed it);
                # resync and replay from the authoritative seq
                report.counters.add("client.gap_replays")
                resync = True
            elif code == "snapshot-failed":
                report.counters.add("client.snapshot_retries")
            else:
                report.violations.append(
                    f"alarm on {session_id!r} refused with {code}: "
                    f"{response['message']}")
                return
        if resync:
            # the contiguous watermark comes from the authority, not
            # from guessing which pipelined responses landed in order
            acked = await _reopen(holder, session_id, scenario, config,
                                  report)
            if acked is None:
                return
        else:
            await asyncio.sleep(0)
    else:
        report.violations.append(
            f"session {session_id!r} livelocked before finishing "
            f"({acked}/{len(alarms)} alarms acknowledged)")
        return
    await _verdict(holder, session_id, scenario, alarms, config, report)


def _oracle(scenario: str) -> tuple[frozenset, bool]:
    """The exact diagnoses and consistency of the stream, from the
    dedicated solver -- not the online engine the sessions run on."""
    petri, alarms = get_scenario(scenario).instantiate()
    diagnoses = diagnose(petri, alarms, method="dedicated").diagnoses
    return diagnoses, bool(diagnoses)


_ORACLES: dict[str, tuple[frozenset, bool]] = {}


async def _verdict(holder: _Holder, session_id: str, scenario: str,
                   alarms: list, config: ServiceChaosConfig,
                   report: ServiceChaosReport) -> None:
    """Compare the session's final answer against the oracle."""
    if scenario not in _ORACLES:
        _ORACLES[scenario] = _oracle(scenario)
    oracle, oracle_consistent = _ORACLES[scenario]
    response = None
    for _attempt in range(_MAX_STEPS):
        response = await _send(
            holder, {"op": "diagnoses", "session": session_id}, report)
        if response is None:
            return
        if response["ok"]:
            break
        if response["error"] in ("snapshot-failed", "overloaded"):
            await asyncio.sleep(0)
            continue
        report.violations.append(
            f"diagnoses of {session_id!r} refused with "
            f"{response['error']}: {response['message']}")
        return
    assert response is not None
    if not response["ok"]:
        report.violations.append(
            f"diagnoses of {session_id!r} livelocked")
        return
    if response["seq"] != len(alarms):
        report.violations.append(
            f"session {session_id!r} lost alarms: final seq "
            f"{response['seq']} != {len(alarms)}")
        return
    got = frozenset(frozenset(d) for d in response["diagnoses"])
    status, equal, subset, violation = verdict(got, oracle,
                                               bool(response["partial"]))
    if (status == "completed" and violation is None
            and bool(response["consistent"]) != oracle_consistent):
        violation = (f"non-partial consistency verdict "
                     f"{response['consistent']} != oracle "
                     f"{oracle_consistent}")
    report.outcomes.append(SessionOutcome(
        schedule=-1, session_id=session_id, scenario=scenario,
        status=status, equal=equal, subset=subset, violation=violation))


async def _run_schedule(config: ServiceChaosConfig, index: int,
                        report: ServiceChaosReport) -> None:
    plan = make_service_plan(config, index)
    rng = random.Random(schedule_seed(config.seed, index) + 1)
    #: alternate the overload policy so both paths see every fault mix
    on_overload = "shed" if index % 2 == 0 else "degrade"
    store = FlakySnapshotStore(
        MemorySnapshotStore(),
        seed=schedule_seed(config.seed, index),
        write_failure_probability=plan.snapshot_write_failure,
        load_failure_probability=plan.snapshot_load_failure)
    service_config = ServiceConfig(
        session=SessionConfig(window=8, degraded_window=2,
                              checkpoint_interval=1),
        max_resident=config.max_resident,
        session_queue_limit=config.session_queue_limit,
        global_queue_limit=config.global_queue_limit,
        on_overload=on_overload,
        snapshot_retries=3, snapshot_backoff=0.0)
    holder = _Holder(service_config, store, plan.kill_restart_at, report)
    before = len(report.outcomes)
    await asyncio.gather(*[
        _drive_session(holder, f"s{index}-{i}",
                       _SCENARIO_POOL[i % len(_SCENARIO_POOL)], plan,
                       random.Random(rng.randrange(2 ** 30)), config,
                       report)
        for i in range(config.sessions)])
    for outcome in report.outcomes[before:]:
        outcome.schedule = index
    report.counters.merge(holder.service.counters)
    report.counters.add("harness.injected_write_failures",
                        store.injected_write_failures)
    report.counters.add("harness.injected_load_failures",
                        store.injected_load_failures)


async def _run_campaign(config: ServiceChaosConfig) -> ServiceChaosReport:
    report = ServiceChaosReport(config=config)
    for index in range(config.schedules):
        await _run_schedule(config, index, report)
    return report


def run_service_chaos(
        config: ServiceChaosConfig | None = None) -> ServiceChaosReport:
    """Run a service chaos campaign and check every serving invariant."""
    config = config or ServiceChaosConfig()
    return asyncio.run(_run_campaign(config))
