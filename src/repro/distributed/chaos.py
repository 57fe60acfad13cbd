"""Distributed campaigns: one runner behind ``repro chaos`` and ``repro race``.

A positive (monotone) dDatalog program is confluent: every delivery
order yields the same model (Ameloot, Neven & Van den Bussche: monotone
means coordination-free), and the recovery machinery makes re-processing
idempotent.  So one statement covers both commands: a problem run under
any schedule must give the answers of its **reference run** -- the
problem under its base options at the campaign seed ``S``:

* a **completed** run equals the reference exactly;
* a **degraded** run (a peer died for good, or the retry budget ran out)
  is flagged ``partial``, carries a failure report and gives a *subset*
  of the reference;
* a run stopped by its delivery budget is **aborted**: no invariant
  applies.

Two schedule sources feed the runner.  ``repro chaos`` derives fault
schedules (:func:`make_schedule`: message loss, delay, deterministic
crashes, restart timing, checkpoint cadence, link partitions) from the
seed; ``repro race`` runs the base options
fault-free under the scheduler seeds ``S+1 .. S+budget-1``.  The static
analyzer says which programs may break the statement -- DD701-DD703 flag
the negations a delivery can race against -- and the report attaches
those diagnostics to what the schedules did.  Every schedule is seeded,
so a violation replays exactly from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.datalog.analysis import analyze
from repro.datalog.database import Database, load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rule import Program, Query
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.network import (FaultPlan, LinkPartition,
                                       NetworkOptions, PeerFaultPlan)
from repro.errors import (BudgetExceeded, DistributedError,
                          NetworkClosedError, ReproError)
from repro.utils.counters import Counters

#: spreads schedule indices across the seed space (any odd prime works;
#: the point is that schedule i and i+1 share no draws)
_SCHEDULE_STRIDE = 100_003

#: what a derived schedule draws from, besides ``ChaosConfig.max_drop``:
#: delay up to this, a deterministic crash at up to this many peers,
#: crashes permanent (no restart) and a link partition included with
#: these probabilities
_MAX_DELAY = 4
_CRASH_PEERS_MAX = 2
_PERMANENT_PROBABILITY = 0.2
_PARTITION_PROBABILITY = 0.3

_RACE_CODES = ("DD701", "DD702", "DD703")


def schedule_seed(seed: int, index: int) -> int:
    """The seed of schedule ``index`` of a campaign seeded ``seed``."""
    return seed * _SCHEDULE_STRIDE + index


# -- problems ------------------------------------------------------------------


#: (answers, partial, attributed, counters) of one problem run
RunResult = tuple[frozenset, bool, bool, Counters]


@dataclass(frozen=True)
class ChaosProblem:
    """A campaign subject, runnable under any network options."""

    name: str
    #: what fault schedules crash and partition
    peers: tuple[str, ...]
    #: what the DD701-DD703 verdict analyzes
    program: Program
    run: Callable[[NetworkOptions], RunResult]
    #: the reference run and every seeded schedule use these
    base_options: NetworkOptions = NetworkOptions()


#: the examples/racy.dl program, embedded so ``racy`` works without a
#: checkout; fire-time negation against a racing replica
RACY_TEXT = """
ok@s(X) :- alarm@p1(X), not suspect@p2(X).
verdict@s(X) :- ok@s(X).
alarm@p1("a1").
alarm@p1("a2").
suspect@p2("a2").
"""


def _query_problem(name: str, program: DDatalogProgram, edb: Database,
                   query: Query, base_options: NetworkOptions = NetworkOptions(),
                   unsafe_negation: bool = False) -> ChaosProblem:
    """A located query: dQSQ, or the naive engine with fire-time negation."""
    from repro.distributed.dqsq import DqsqEngine
    from repro.distributed.naive_dist import DistributedNaiveEngine

    def run(options: NetworkOptions) -> RunResult:
        if unsafe_negation:
            engine = DistributedNaiveEngine(program, edb, options=options,
                                            check=False, unsafe_negation=True)
        else:
            engine = DqsqEngine(program, edb, options=options, check=False)
        result = engine.query(query)
        attributed = (result.peer_failure is not None
                      or result.transport_error is not None)
        return (frozenset(result.answers), result.partial, attributed,
                result.counters)

    return ChaosProblem(name, tuple(sorted(program.peers())), program.program,
                        run, base_options)


def _diagnosis_problem(name: str) -> ChaosProblem:
    """A full dQSQ diagnosis of a named workload scenario."""
    import repro
    from repro.diagnosis.supervisor import SupervisorEncoder
    from repro.workloads.scenarios import get_scenario

    petri, alarms = get_scenario(name).instantiate()

    def run(options: NetworkOptions) -> RunResult:
        config = repro.RunConfig(options=options)
        result = repro.diagnose(petri, alarms, method="dqsq", config=config)
        attributed = (result.peer_report is not None
                      or result.transport_stats is not None)
        return (frozenset(result.diagnoses), result.partial, attributed,
                result.counters)

    return ChaosProblem(name, tuple(sorted(petri.net.peers())),
                        SupervisorEncoder(petri, alarms).program().program, run)


def _figure3(crash: bool = False) -> ChaosProblem:
    from repro.workloads.scenarios import figure3
    program, edb, query = figure3()
    if not crash:
        return _query_problem("figure3", program, edb, query)
    # experiment E9's plan: the first peer crashes at its second
    # delivery and restarts eight deliveries later
    victim = sorted(program.peers())[0]
    options = NetworkOptions(peer_fault=PeerFaultPlan(
        crash_at={victim: (2,)}, restart_after_deliveries=8))
    return _query_problem("figure3-crash", program, edb, query, options)


def _racy() -> ChaosProblem:
    parsed = parse_program(RACY_TEXT, check=False)
    return _query_problem("racy", DDatalogProgram(parsed), load_facts(parsed),
                          Query(parse_atom("verdict@s(X)")),
                          unsafe_negation=True)


_BUILTIN: dict[str, Callable[[], ChaosProblem]] = {
    "figure3": _figure3,
    "figure3-crash": lambda: _figure3(crash=True),
    "racy": _racy,
}


def get_problem(name: str) -> ChaosProblem:
    """The built-in problem ``name``: ``figure3`` (a dQSQ query, fast),
    ``figure3-crash`` (the same under a crash and restart), ``racy``
    (naive engine, fire-time negation) or a diagnosis scenario such as
    ``figure1-bac`` (a full dQSQ diagnosis, ~50x slower per run)."""
    from repro.workloads.scenarios import SCENARIOS
    if name in _BUILTIN:
        return _BUILTIN[name]()
    if name in SCENARIOS:
        return _diagnosis_problem(name)
    raise ReproError(f"unknown chaos problem {name!r}; known: "
                     f"{', '.join([*_BUILTIN, *sorted(SCENARIOS)])}")


def file_problem(path: str, query_text: str,
                 unsafe_negation: bool = False) -> ChaosProblem:
    """A problem from a ``.dl`` file (the ``--program`` CLI path).

    Raises :class:`~repro.errors.ReproError` when nothing in the program
    defines the query's relation.
    """
    with open(path) as handle:
        text = handle.read()
    query = Query(parse_atom(query_text))
    parsed = parse_program(text, check=False)
    if not any(rule.head.key() == query.atom.key() for rule in parsed):
        # Every schedule would answer the empty set: a vacuous verdict.
        raise ReproError(f"no rule head or fact of {path} defines the "
                         f"query relation {query.atom}")
    return _query_problem(path, DDatalogProgram(parsed), load_facts(parsed),
                          query, unsafe_negation=unsafe_negation)


# -- schedule sources ----------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one fault campaign."""

    schedules: int = 100
    seed: int = 0
    #: a :func:`get_problem` name
    problem: str = "figure3"
    #: delivered messages per run before the schedule is aborted
    max_deliveries: int = 20_000
    max_drop: float = 0.25

    def __post_init__(self) -> None:
        if self.schedules < 1:
            raise ValueError("schedules must be >= 1")
        if self.max_deliveries < 1:
            raise ValueError("max_deliveries must be >= 1")
        if not 0 <= self.max_drop <= 1:
            raise ValueError(f"max_drop must be in [0, 1], got {self.max_drop}")


@dataclass(frozen=True)
class ChaosSchedule:
    """One schedule: the options to run the problem under."""

    #: the fault schedule's index, or the seeded schedule's seed
    index: int
    options: NetworkOptions
    description: str


def make_schedule(config: ChaosConfig, index: int,
                  peers: tuple[str, ...]) -> ChaosSchedule:
    """Derive fault schedule ``index`` deterministically from the config seed."""
    rng = random.Random(schedule_seed(config.seed, index))
    parts: list[str] = []

    drop = round(rng.uniform(0, config.max_drop), 3)
    delay = (0, rng.randint(1, _MAX_DELAY)) if rng.random() < 0.5 else None
    fault = FaultPlan(drop_probability=drop, delay_distribution=delay,
                      max_retries=50)
    parts.append(f"drop={drop}"
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
    options = NetworkOptions(seed=schedule_seed(config.seed, index),
                             max_deliveries=config.max_deliveries,
                             fault=fault, peer_fault=peer_fault)
    return ChaosSchedule(index=index, options=options,
                         description=" ".join(parts) or "fault-free")


# -- verdict and report --------------------------------------------------------


def _answer_str(answer) -> str:
    if isinstance(answer, tuple):
        return "(" + ", ".join(map(str, answer)) + ")"
    return "{" + ", ".join(sorted(map(str, answer))) + "}"


def _delta(answers: frozenset, reference: frozenset) -> str:
    """The facts a run lost or gained against the reference."""
    parts = []
    for verb, facts in (("lost", reference - answers),
                        ("gained", answers - reference)):
        if facts:
            parts.append(f"{verb} {', '.join(sorted(map(_answer_str, facts)))}")
    return "; ".join(parts)


def verdict(answers: frozenset, reference: frozenset, partial: bool,
            attributed: bool = True) -> tuple[str, bool, bool, str | None]:
    """(status, equal, subset, violation) of one run against its reference.

    A completed run must equal the reference; a partial one must be an
    attributed subset of it.
    """
    equal = answers == reference
    subset = answers <= reference
    violation: str | None = None
    if partial:
        if not subset:
            violation = ("degraded run beyond the reference: "
                         + _delta(answers, reference))
        elif not attributed:
            # A degraded result must carry either a per-peer failure
            # report or a transport error -- never an unexplained gap.
            violation = "degraded run carries no failure attribution"
        return "degraded", equal, subset, violation
    if not equal:
        violation = ("completed run differs from the reference: "
                     + _delta(answers, reference))
    return "completed", equal, subset, violation


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
    answers: frozenset | None = None
    counters: Counters | None = None


@dataclass
class ChaosReport:
    """One campaign: every schedule's verdict against the reference run."""

    problem: str
    #: the reference run's seed
    seed: int
    #: "chaos" (fault schedules) or "race" (fault-free seeded schedules)
    source: str
    reference: frozenset
    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    #: DD701-DD703 diagnostics of the problem's program
    diagnostics: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations()

    def violations(self) -> list[ScheduleOutcome]:
        return [o for o in self.outcomes if o.violation is not None]

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {"completed": 0, "degraded": 0, "aborted": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def answer_sets(self) -> set[frozenset]:
        """The distinct answer sets, the reference's included."""
        return {self.reference} | {o.answers for o in self.outcomes
                                   if o.answers is not None}

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"{self.source}: {len(self.outcomes)} schedules over "
            f"{self.problem!r} (seed {self.seed}): "
            f"{counts['completed']} completed, {counts['degraded']} degraded, "
            f"{counts['aborted']} aborted",
        ]
        label = "schedule(s)"
        if self.source == "race":
            label = "seed(s)"
            lines.append(f"  {len(self.answer_sets())} answer set(s) over "
                         f"seeds {self.seed}..{self.seed + len(self.outcomes)}"
                         f" (reference: seed {self.seed})")
        grouped: dict[str, list[str]] = {}
        for outcome in self.violations():
            grouped.setdefault(outcome.violation, []).append(str(outcome.index))
        for violation, indices in grouped.items():
            lines.append(f"  VIOLATION {label} {', '.join(indices)}: "
                         f"{violation}")
        if self.diagnostics:
            lines.append("  statically predicted by:" if grouped
                         else "  static verdict: order-sensitive")
            lines.extend(f"    {d.code} {d.slug}: {d.message}"
                         for d in self.diagnostics)
        if self.ok():
            lines.append("  invariants held: completed == oracle, degraded <= oracle")
        return "\n".join(lines)


# -- the runner ----------------------------------------------------------------


def run_campaign(problem: ChaosProblem, seed: int, source: str,
                 schedules: Iterable[ChaosSchedule]) -> ChaosReport:
    """Run ``problem`` under each schedule and check it against the
    reference run (its base options at ``seed``)."""
    reference, partial, _attributed, _counters = problem.run(
        replace(problem.base_options, seed=seed))
    if partial:
        raise ReproError(f"reference run of {problem.name!r} (seed {seed}) "
                         f"came back partial; the campaign cannot proceed")
    diagnostics = [d for d in analyze(problem.program).diagnostics
                   if d.code in _RACE_CODES]
    report = ChaosReport(problem=problem.name, seed=seed, source=source,
                         reference=reference, diagnostics=diagnostics)
    for schedule in schedules:
        report.outcomes.append(_run_schedule(problem, schedule, reference))
    return report


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """A fault campaign: ``config.schedules`` derived fault schedules."""
    config = config or ChaosConfig()
    problem = get_problem(config.problem)
    return run_campaign(problem, config.seed, "chaos",
                        (make_schedule(config, index, problem.peers)
                         for index in range(config.schedules)))


def run_race(problem: ChaosProblem, budget: int = 50,
             seed: int = 0) -> ChaosReport:
    """A seeded campaign: the base options at seeds ``seed+1 ..
    seed+budget-1``; ``budget`` counts the reference run."""
    if budget < 1:
        raise DistributedError("race budget must be >= 1")
    return run_campaign(problem, seed, "race", (
        ChaosSchedule(index=current,
                      options=replace(problem.base_options, seed=current),
                      description=f"seed {current}")
        for current in range(seed + 1, seed + budget)))


def _run_schedule(problem: ChaosProblem, schedule: ChaosSchedule,
                  reference: frozenset) -> ScheduleOutcome:
    try:
        answers, partial, attributed, counters = problem.run(schedule.options)
    except (NetworkClosedError, BudgetExceeded) as err:
        # A livelock/budget stop is an abort, not an invariant violation:
        # the schedule asked for more work than its delivery budget.
        return ScheduleOutcome(index=schedule.index, status="aborted",
                               equal=False, subset=False, violation=None,
                               description=f"{schedule.description} ({err})")
    status, equal, subset, violation = verdict(answers, reference, partial,
                                               attributed)
    return ScheduleOutcome(index=schedule.index, status=status, equal=equal,
                           subset=subset, violation=violation,
                           description=schedule.description, answers=answers,
                           counters=counters)
