"""Chaos harness: randomized fault schedules with a soundness oracle.

The recovery subsystem makes two promises that are easy to state and
easy to get subtly wrong:

* **completed runs are exact** -- a run in which every crashed peer
  restarted and caught up, every partition healed and the transport
  never gave up produces answers *identical* to the fault-free run of
  the same problem (Datalog is monotone and the replay/retransmission
  machinery makes re-processing idempotent, so nothing is lost and
  nothing extra can be derived);
* **degraded runs are sound** -- a run that ends partial (a peer died
  for good, or the retry budget ran out) produces a *subset* of the
  fault-free answers, flagged ``partial`` with a populated failure
  report.

This module checks both promises over many *seeded* schedules: each
schedule index deterministically derives a :class:`FaultPlan` and a
:class:`PeerFaultPlan` (message loss, delay, duplication, deterministic
and probabilistic crashes, restart timing, checkpoint cadence, link
partitions) from the harness seed, runs the problem under it, and
compares against the fault-free oracle computed once.  A violated
invariant carries its schedule index and seed, so any failure replays
exactly with ``repro chaos --seed S --schedules N``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol

from repro.distributed.dqsq import DqsqEngine
from repro.distributed.network import (FaultPlan, LinkPartition,
                                       NetworkOptions, PeerFaultPlan)
from repro.errors import BudgetExceeded, NetworkClosedError, ReproError
from repro.utils.counters import Counters

#: spreads schedule indices across the seed space (any odd prime works;
#: the point is that schedule i and i+1 share no draws)
_SCHEDULE_STRIDE = 100_003

#: what a derived schedule draws from, besides ``ChaosConfig.max_drop``:
#: duplicate probability and delay up to these, a deterministic crash at
#: up to this many peers, crashes permanent (no restart) and a link
#: partition included with these probabilities
_MAX_DUPLICATE = 0.2
_MAX_DELAY = 4
_CRASH_PEERS_MAX = 2
_PERMANENT_PROBABILITY = 0.2
_PARTITION_PROBABILITY = 0.3


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos campaign."""

    schedules: int = 100
    seed: int = 0
    #: "figure3" (a dQSQ query, fast) or a diagnosis scenario name such
    #: as "figure1-bac" (a full dQSQ diagnosis, ~50x slower per schedule)
    problem: str = "figure3"
    max_deliveries: int = 20_000
    max_drop: float = 0.25

    def __post_init__(self) -> None:
        if self.schedules < 1:
            raise ValueError("schedules must be >= 1")
        if self.max_deliveries < 1:
            raise ValueError("max_deliveries must be >= 1")


@dataclass(frozen=True)
class ChaosSchedule:
    """One derived schedule: the options to run the problem under."""

    index: int
    options: NetworkOptions
    description: str


@dataclass
class ScheduleOutcome:
    """What one schedule did and whether it kept its promise."""

    index: int
    #: "completed" (fully recovered), "degraded" (partial result),
    #: or "aborted" (budget/livelock stop -- no invariant applies)
    status: str
    equal: bool
    subset: bool
    violation: str | None
    description: str
    counters: Counters | None = None


@dataclass
class ChaosReport:
    """Aggregate over a campaign, with every violated invariant listed."""

    config: ChaosConfig
    outcomes: list[ScheduleOutcome] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations()

    def violations(self) -> list[ScheduleOutcome]:
        return [o for o in self.outcomes if o.violation is not None]

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {"completed": 0, "degraded": 0, "aborted": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"chaos: {len(self.outcomes)} schedules over {self.config.problem!r} "
            f"(seed {self.config.seed}): "
            f"{counts['completed']} completed, {counts['degraded']} degraded, "
            f"{counts['aborted']} aborted",
        ]
        for outcome in self.violations():
            lines.append(f"  VIOLATION schedule {outcome.index} "
                         f"[{outcome.description}]: {outcome.violation}")
        if self.ok():
            lines.append("  invariants held: completed == oracle, degraded <= oracle")
        return "\n".join(lines)


def make_schedule(config: ChaosConfig, index: int,
                  peers: tuple[str, ...]) -> ChaosSchedule:
    """Derive schedule ``index`` deterministically from the config seed."""
    rng = random.Random(config.seed * _SCHEDULE_STRIDE + index)
    parts: list[str] = []

    drop = round(rng.uniform(0, config.max_drop), 3)
    duplicate = round(rng.uniform(0, _MAX_DUPLICATE), 3)
    delay = (0, rng.randint(1, _MAX_DELAY)) if rng.random() < 0.5 else None
    fault = FaultPlan(drop_probability=drop, duplicate_probability=duplicate,
                      delay_distribution=delay, max_retries=50)
    parts.append(f"drop={drop} dup={duplicate}"
                 + (f" delay={delay}" if delay else ""))

    crash_at: dict[str, tuple[int, ...]] = {}
    victims = rng.sample(sorted(peers),
                         k=min(rng.randint(0, _CRASH_PEERS_MAX), len(peers)))
    for victim in victims:
        crash_at[victim] = (rng.randint(1, 12),)
    permanent = bool(crash_at) and rng.random() < _PERMANENT_PROBABILITY
    restart_after = None if permanent else rng.randint(5, 60)
    if crash_at:
        parts.append("crash " + ",".join(f"{p}@{k[0]}"
                                         for p, k in sorted(crash_at.items()))
                     + (" permanent" if permanent else f" restart+{restart_after}"))

    partitions: tuple[LinkPartition, ...] = ()
    if len(peers) >= 2 and rng.random() < _PARTITION_PROBABILITY:
        a, b = rng.sample(sorted(peers), k=2)
        start = rng.randint(0, 20)
        heal = rng.randint(5, 40)
        partitions = (LinkPartition(a=a, b=b, start=start, heal_after=heal),)
        parts.append(f"cut {a}|{b}@{start}+{heal}")

    peer_fault = PeerFaultPlan(
        crash_at=crash_at,
        restart_after_deliveries=restart_after,
        checkpoint_interval=rng.choice((1, 2, 3, 5)),
        partitions=partitions,
    )
    options = NetworkOptions(seed=config.seed * _SCHEDULE_STRIDE + index,
                             max_deliveries=config.max_deliveries,
                             fault=fault, peer_fault=peer_fault)
    return ChaosSchedule(index=index, options=options,
                         description=" ".join(parts) or "fault-free")


#: (answers, partial, attributed, counters) of one problem run
_RunResult = tuple[frozenset, bool, bool, Counters]


class ChaosProblem(Protocol):
    """A workload the chaos harness can run under arbitrary options."""

    name: str
    peers: tuple[str, ...]

    def run(self, options: NetworkOptions | None) -> _RunResult:  # pragma: no cover
        ...


class _Figure3Problem:
    """The Figure-3 dQSQ query: 3 peers, fast enough for wide campaigns."""

    name = "figure3"

    def __init__(self) -> None:
        from repro.workloads.scenarios import figure3
        self._program, self._edb, self._query = figure3()
        self.peers = tuple(sorted(self._program.peers()))

    def run(self, options: NetworkOptions | None) -> _RunResult:
        engine = DqsqEngine(self._program, self._edb,
                            options=options or NetworkOptions(),
                            use_termination_detector=True, check=False)
        result = engine.query(self._query)
        answers = frozenset(tuple(term.value for term in fact)
                            for fact in result.answers)
        attributed = (result.peer_failure is not None
                      or result.transport_error is not None)
        return answers, result.partial, attributed, result.counters


class _DiagnosisProblem:
    """A full dQSQ diagnosis of a named workload scenario."""

    def __init__(self, scenario: str) -> None:
        from repro.workloads.scenarios import get_scenario
        self.name = scenario
        self._petri, self._alarms = get_scenario(scenario).instantiate()
        self.peers = tuple(sorted(self._petri.net.peers()))

    def run(self, options: NetworkOptions | None) -> _RunResult:
        import repro
        config = repro.RunConfig(options=options or NetworkOptions(),
                                 use_termination_detector=True)
        result = repro.diagnose(self._petri, self._alarms, method="dqsq",
                                config=config)
        attributed = (result.peer_report is not None
                      or result.transport_stats is not None)
        return (frozenset(result.diagnoses), result.partial,
                attributed, result.counters)


def _make_problem(name: str) -> ChaosProblem:
    from repro.workloads.scenarios import SCENARIOS
    if name == "figure3":
        return _Figure3Problem()
    if name not in SCENARIOS:
        raise ReproError(f"unknown chaos problem {name!r}; known: "
                         f"{', '.join(['figure3', *sorted(SCENARIOS)])}")
    return _DiagnosisProblem(name)


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run a chaos campaign and check both soundness invariants."""
    config = config or ChaosConfig()
    problem = _make_problem(config.problem)
    oracle, oracle_partial, _attributed, _counters = problem.run(None)
    if oracle_partial:
        raise ReproError(f"fault-free oracle run of {config.problem!r} "
                         f"came back partial; the harness cannot proceed")
    report = ChaosReport(config=config)
    for index in range(config.schedules):
        schedule = make_schedule(config, index, problem.peers)
        outcome = _run_schedule(problem, schedule, oracle)
        report.outcomes.append(outcome)
    return report


def _run_schedule(problem: ChaosProblem, schedule: ChaosSchedule,
                  oracle: frozenset) -> ScheduleOutcome:
    try:
        answers, partial, attributed, counters = problem.run(schedule.options)
    except (NetworkClosedError, BudgetExceeded) as err:
        # A livelock/budget stop is an abort, not an invariant violation:
        # the schedule asked for more work than its delivery budget.
        return ScheduleOutcome(index=schedule.index, status="aborted",
                               equal=False, subset=False, violation=None,
                               description=f"{schedule.description} ({err})")
    equal = answers == oracle
    subset = answers <= oracle
    violation: str | None = None
    if partial:
        status = "degraded"
        if not subset:
            extra = sorted(answers - oracle)
            violation = f"degraded run derived non-oracle answers: {extra}"
        elif not attributed:
            # A degraded result must carry either a per-peer failure
            # report or a transport error -- never an unexplained gap.
            violation = "degraded run carries no failure attribution"
    else:
        status = "completed"
        if not equal:
            missing = sorted(oracle - answers)
            extra = sorted(answers - oracle)
            violation = (f"completed run differs from oracle "
                         f"(missing {missing}, extra {extra})")
    return ScheduleOutcome(index=schedule.index, status=status, equal=equal,
                           subset=subset, violation=violation,
                           description=schedule.description, counters=counters)

