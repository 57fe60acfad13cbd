"""Seeded schedule exploration: ``repro race``.

A positive (monotone) dDatalog program is confluent: every delivery
order yields the same model (Ameloot, Neven & Van den Bussche: monotone
means coordination-free).  The static analyzer already says which
programs fall outside that fragment -- DD701-DD703 flag the negations a
delivery can race against -- so the explorer needs no cleverness in how
it picks schedules.  It runs the scenario under the seeds ``seed ..
seed+budget-1`` of the simulator's ordinary scheduler, diffs each
answer set against the first one, and attaches the program's DD70x
diagnostics:

* a **divergence** is reported as its seed (replayable with ``--seed``)
  plus the facts it lost or gained against the baseline;
* agreement across the seeds of a positive program is the dynamic
  counterpart of the paper's confluence theorems.

The exploration is seeded, bounded by ``budget`` runs (baseline
included) and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.datalog.analysis import analyze
from repro.datalog.database import Database, Fact, load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rule import Program, Query
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.network import NetworkOptions
from repro.errors import DistributedError, ReproError
from repro.utils.counters import Counters

_RACE_CODES = ("DD701", "DD702", "DD703")


# -- scenarios -----------------------------------------------------------------


@dataclass(frozen=True)
class RaceScenario:
    """A runnable subject for schedule exploration.

    ``run`` evaluates the program under the given network options and
    returns the final answer set; ``program`` is what the DD701-DD703
    diagnostics analyze.
    """

    name: str
    description: str
    program: Program
    run: Callable[[NetworkOptions], frozenset[Fact]]
    base_options: NetworkOptions = NetworkOptions()


#: the examples/racy.dl program, embedded so ``--scenario racy`` works
#: without a checkout; fire-time negation against a racing replica
RACY_TEXT = """
ok@s(X) :- alarm@p1(X), not suspect@p2(X).
verdict@s(X) :- ok@s(X).
alarm@p1("a1").
alarm@p1("a2").
suspect@p2("a2").
"""


def _dqsq_scenario(name: str, description: str, program: DDatalogProgram,
                   edb: Database, query: Query,
                   base_options: NetworkOptions = NetworkOptions(),
                   ) -> RaceScenario:
    from repro.distributed.dqsq import DqsqEngine

    def run(options: NetworkOptions) -> frozenset[Fact]:
        engine = DqsqEngine(program, edb, options=options, check=False)
        return frozenset(engine.query(query).answers)

    return RaceScenario(name, description, program.program, run, base_options)


def _naive_unsafe_scenario(name: str, description: str, text: str,
                           query: Query) -> RaceScenario:
    parsed = parse_program(text, check=False)
    program = DDatalogProgram(parsed)
    edb = load_facts(parsed)

    def run(options: NetworkOptions) -> frozenset[Fact]:
        from repro.distributed.naive_dist import DistributedNaiveEngine
        engine = DistributedNaiveEngine(program, edb, options=options,
                                        check=False, unsafe_negation=True)
        return frozenset(engine.query(query).answers)

    return RaceScenario(name, description, program.program, run)


def file_scenario(path: str, query_text: str,
                  unsafe_negation: bool = False) -> RaceScenario:
    """A scenario from a ``.dl`` file (the ``--program`` CLI path).

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
    if unsafe_negation:
        return _naive_unsafe_scenario(
            path, f"{path} (naive-dist, fire-time negation)", text, query)
    return _dqsq_scenario(path, f"{path} (dQSQ)", DDatalogProgram(parsed),
                          load_facts(parsed), query)


def builtin_scenarios() -> dict[str, RaceScenario]:
    """The named subjects of ``repro race --scenario``."""
    from repro.diagnosis.alarms import AlarmSequence
    from repro.diagnosis.supervisor import SupervisorEncoder
    from repro.distributed.network import PeerFaultPlan
    from repro.petri.examples import figure1_alarm_scenarios, figure1_net
    from repro.workloads.scenarios import figure3

    out: dict[str, RaceScenario] = {}

    f3_program, f3_edb, f3_query = figure3()
    out["figure3"] = _dqsq_scenario(
        "figure3", "Figure 3 dQSQ query (positive, confluent)",
        f3_program, f3_edb, f3_query)

    encoder = SupervisorEncoder(
        figure1_net(), AlarmSequence(figure1_alarm_scenarios()["bac"]))
    out["e6"] = _dqsq_scenario(
        "e6", "Figure 1 'bac' diagnosis via dQSQ (experiment E6)",
        encoder.program(), Database(), Query(encoder.query_atom()))

    victim = sorted(f3_program.peers())[0]
    out["e9"] = _dqsq_scenario(
        "e9", f"Figure 3 dQSQ with crash {victim}@2 / restart+8 "
              "(experiment E9)",
        f3_program, f3_edb, f3_query,
        base_options=NetworkOptions(peer_fault=PeerFaultPlan(
            crash_at={victim: (2,)}, restart_after_deliveries=8)))

    out["racy"] = _naive_unsafe_scenario(
        "racy", "examples/racy.dl: fire-time negation against a racing "
                "replica (naive-dist, unsafe)",
        RACY_TEXT, Query(parse_atom("verdict@s(X)")))
    return out


# -- exploration ---------------------------------------------------------------


@dataclass
class ScheduleRun:
    """One seeded schedule and the answer set it produced."""

    seed: int
    outcome: frozenset[Fact]
    #: True when the answer set differs from the baseline's
    diverged: bool


@dataclass
class RaceReport:
    """Everything ``repro race`` learned about one scenario."""

    scenario: str
    baseline: ScheduleRun
    #: the runs after the baseline, in seed order
    runs: list[ScheduleRun]
    #: DD701/DD702/DD703 diagnostics of the scenario program -- the
    #: static verdict attached to any dynamic divergence
    diagnostics: list
    counters: Counters = field(default_factory=Counters)

    @property
    def divergences(self) -> list[ScheduleRun]:
        return [run for run in self.runs if run.diverged]

    @property
    def race_detected(self) -> bool:
        return bool(self.divergences)

    def render(self) -> str:
        last = self.baseline.seed + len(self.runs)
        lines = [f"race explorer: scenario {self.scenario}: "
                 f"{1 + len(self.runs)} seeded schedule(s) "
                 f"(seeds {self.baseline.seed}..{last}), "
                 f"{self.counters['race.answer_sets']} answer set(s)"]
        if self.race_detected:
            lines.append(f"RACE: {len(self.divergences)} seed(s) changed the "
                         f"baseline (seed {self.baseline.seed}) answer set; "
                         "replay one with --seed S --budget 1")
            seeds_by_outcome: dict[frozenset[Fact], list[int]] = {}
            for run in self.divergences:
                seeds_by_outcome.setdefault(run.outcome, []).append(run.seed)
            for outcome, seeds in seeds_by_outcome.items():
                delta = []
                only_base = self.baseline.outcome - outcome
                only_run = outcome - self.baseline.outcome
                if only_base:
                    delta.append("lost "
                                 + ", ".join(sorted(map(_fact_str, only_base))))
                if only_run:
                    delta.append("gained "
                                 + ", ".join(sorted(map(_fact_str, only_run))))
                lines.append(f"  seed(s) {', '.join(map(str, seeds))}: "
                             f"{'; '.join(delta)}")
        else:
            lines.append("no divergence: every seed yields the baseline "
                         "answer set")
        if self.diagnostics:
            lines.append("statically predicted by:" if self.race_detected
                         else "static verdict: order-sensitive")
            for diagnostic in self.diagnostics:
                lines.append(f"  {diagnostic.code} {diagnostic.slug}: "
                             f"{diagnostic.message}")
        else:
            lines.append("static verdict: no DD701-DD703, confluent under "
                         "every delivery order")
        return "\n".join(lines)


def _fact_str(fact: Fact) -> str:
    return "(" + ", ".join(str(term) for term in fact) + ")"


def explore(scenario: RaceScenario, budget: int = 50,
            seed: int = 0) -> RaceReport:
    """Run ``scenario`` under seeds ``seed .. seed+budget-1``.

    The first run is the baseline; every later answer set is diffed
    against it.  ``budget`` bounds the total number of runs, baseline
    included.
    """
    if budget < 1:
        raise DistributedError("race exploration budget must be >= 1")
    seeds = range(seed, seed + budget)
    outcomes = [scenario.run(replace(scenario.base_options, seed=current))
                for current in seeds]
    baseline = ScheduleRun(seed=seed, outcome=outcomes[0], diverged=False)
    runs = [ScheduleRun(seed=current, outcome=outcome,
                        diverged=outcome != baseline.outcome)
            for current, outcome in zip(seeds[1:], outcomes[1:])]
    counters = Counters()
    counters.add("race.runs", budget)
    counters.add("race.divergences", sum(run.diverged for run in runs))
    counters.add("race.answer_sets", len(set(outcomes)))
    diagnostics = [d for d in analyze(scenario.program).diagnostics
                   if d.code in _RACE_CODES]
    return RaceReport(scenario=scenario.name, baseline=baseline, runs=runs,
                      diagnostics=diagnostics, counters=counters)
