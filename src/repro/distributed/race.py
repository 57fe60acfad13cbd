"""DPOR-style schedule exploration: ``repro race``.

The sanitizer (:mod:`repro.distributed.sanitizer`) turns one recorded
run into a list of concurrent delivery pairs, split into *conflicts*
(write sets include a non-commuting relation pair) and *benign*
reorderings.  This module closes the loop the way dynamic partial-order
reduction does: instead of enumerating all ``n!`` interleavings it
replays the baseline schedule up to each flagged pair and *flips* it --
delivers the second message before the first -- then lets the seeded
scheduler finish the run.  Every explored schedule's final answer set is
diffed against the baseline:

* a **divergence** on a conflict pair is a confirmed race, reported with
  the DD701/DD702/DD703 diagnostics that statically predicted it;
* agreement across all flips of a positive program is the dynamic
  counterpart of the paper's confluence theorems -- the same diagnosis
  set under provably different delivery orders.

Only pairs the happens-before analysis marked concurrent are flipped,
and only up to ``budget`` runs: the exploration is seeded, bounded and
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.datalog.analysis import analyze
from repro.datalog.database import Database, Fact, load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rule import Program, Query
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.network import NetworkOptions
from repro.distributed.sanitizer import SanitizerReport, sanitize
from repro.distributed.trace import TraceEvent, TraceRecorder
from repro.errors import DistributedError
from repro.utils.counters import Counters

Channel = tuple[str, str]
#: per-delivery schedule fingerprint; two runs with equal signatures
#: delivered the same messages in the same order
Signature = tuple[tuple[str, str, str], ...]

_RACE_CODES = ("DD701", "DD702", "DD703")


# -- schedule choosers ---------------------------------------------------------


class RecordingChooser:
    """Draws exactly like the default scheduler, remembering every pick.

    ``rng.choice`` over the sorted eligible channels is what the network
    does when no chooser is installed, so a baseline run under this
    chooser is bit-identical to an unobserved run with the same seed --
    and its ``picks`` list is the replay script for :class:`FlipChooser`.
    """

    def __init__(self) -> None:
        self.picks: list[Channel] = []

    def choose(self, eligible: list[Channel], rng: random.Random) -> Channel:
        channel = rng.choice(eligible)
        self.picks.append(channel)
        return channel


class FlipChooser:
    """Replays a baseline prefix, then delivers a chosen pair in reverse.

    Picks ``1 .. flip_at-1`` replay the recorded baseline (falling back
    to the seeded draw if replay becomes impossible, e.g. under fault
    injection).  From pick ``flip_at`` -- the moment the baseline
    delivered the *first* event of the pair -- the chooser instead
    drains ``prefer_count`` messages from the second event's channel
    while refusing the first event's channel, which delivers the second
    message before the first.  After that the seeded scheduler resumes:
    the suffix is an ordinary random schedule of the flipped run.
    """

    def __init__(self, baseline: Sequence[Channel], flip_at: int,
                 avoid: Channel, prefer: Channel, prefer_count: int = 1) -> None:
        if avoid == prefer:
            raise DistributedError("flip target pair shares a channel")
        self.baseline = list(baseline)
        self.flip_at = flip_at
        self.avoid = avoid
        self.prefer = prefer
        self.prefer_remaining = prefer_count
        self.calls = 0

    def choose(self, eligible: list[Channel], rng: random.Random) -> Channel:
        self.calls += 1
        if self.calls < self.flip_at:
            if self.calls <= len(self.baseline):
                want = self.baseline[self.calls - 1]
                if want in eligible:
                    return want
            return rng.choice(eligible)
        if self.prefer_remaining > 0:
            if self.prefer in eligible:
                self.prefer_remaining -= 1
                return self.prefer
            rest = [c for c in eligible if c != self.avoid]
            if rest:
                return rng.choice(rest)
            # Only the avoided channel can make progress (the preferred
            # message may causally depend on it); give up on the flip.
            self.prefer_remaining = 0
        return rng.choice(eligible)


# -- scenarios -----------------------------------------------------------------


@dataclass(frozen=True)
class RaceScenario:
    """A runnable subject for schedule exploration.

    ``run`` evaluates the program under the given network options and
    returns the final answer set; ``program`` is what the static
    commutation oracle and the DD701-DD703 diagnostics analyze.
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
    """A scenario from a ``.dl`` file (the ``--program`` CLI path)."""
    with open(path) as handle:
        text = handle.read()
    query = Query(parse_atom(query_text))
    if unsafe_negation:
        return _naive_unsafe_scenario(
            path, f"{path} (naive-dist, fire-time negation)", text, query)
    parsed = parse_program(text, check=False)
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
    """One explored schedule."""

    label: str
    signature: Signature
    outcome: frozenset[Fact]
    #: True when this signature had not been seen in an earlier run
    novel: bool
    #: True when the answer set differs from the baseline's
    diverged: bool
    #: the flipped pair, when this run came from flipping one
    pair: tuple[TraceEvent, TraceEvent] | None = None


@dataclass
class RaceReport:
    """Everything ``repro race`` learned about one scenario."""

    scenario: str
    baseline: ScheduleRun
    runs: list[ScheduleRun]
    sanitizer: SanitizerReport
    #: DD701/DD702/DD703 diagnostics of the scenario program -- the
    #: static prediction attached to any dynamic divergence
    diagnostics: list
    counters: Counters = field(default_factory=Counters)

    @property
    def schedules_explored(self) -> int:
        """Distinct delivery orders actually executed (baseline included)."""
        signatures = {self.baseline.signature}
        signatures.update(run.signature for run in self.runs)
        return len(signatures)

    @property
    def divergences(self) -> list[ScheduleRun]:
        return [run for run in self.runs if run.diverged]

    @property
    def race_detected(self) -> bool:
        return bool(self.divergences)

    def render(self) -> str:
        lines = [f"race explorer: scenario {self.scenario}: "
                 f"{1 + len(self.runs)} run(s), "
                 f"{self.schedules_explored} inequivalent schedule(s)"]
        lines.append("  " + self.sanitizer.render().replace("\n", "\n  "))
        for run in self.runs:
            mark = "!" if run.diverged else ("+" if run.novel else "=")
            lines.append(f"  {mark} {run.label}")
        if self.race_detected:
            lines.append(f"RACE: {len(self.divergences)} schedule(s) changed "
                         "the answer set")
            for run in self.divergences:
                only_base = self.baseline.outcome - run.outcome
                only_run = run.outcome - self.baseline.outcome
                delta = []
                if only_base:
                    delta.append("lost "
                                 + ", ".join(sorted(map(_fact_str, only_base))))
                if only_run:
                    delta.append("gained "
                                 + ", ".join(sorted(map(_fact_str, only_run))))
                lines.append(f"  {run.label}: {'; '.join(delta)}")
            if self.diagnostics:
                lines.append("statically predicted by:")
                for diagnostic in self.diagnostics:
                    lines.append(f"  {diagnostic.code} {diagnostic.slug}: "
                                 f"{diagnostic.message}")
        else:
            lines.append("no divergence: every explored schedule yields the "
                         "baseline answer set")
        return "\n".join(lines)


def _fact_str(fact: Fact) -> str:
    return "(" + ", ".join(str(term) for term in fact) + ")"


def _signature(recorder: TraceRecorder) -> Signature:
    return tuple((event.sender or "?", event.peer, event.message_kind or "?")
                 for event in recorder.deliveries())


def _prefer_count(picks: Sequence[Channel], first: TraceEvent,
                  second: TraceEvent, prefer: Channel) -> int:
    """How many ``prefer``-channel deliveries the flip must force.

    The second event's message need not be at the head of its channel
    when the flip begins: the baseline may deliver earlier messages on
    the same channel between the two events of the pair.  Counting the
    baseline's ``prefer`` picks over ``[first.pick_index,
    second.pick_index]`` gives exactly the drain depth that surfaces it.
    """
    start = (first.pick_index or 1) - 1
    stop = second.pick_index or len(picks)
    return max(1, sum(1 for pick in picks[start:stop] if pick == prefer))


def explore(scenario: RaceScenario, budget: int = 50,
            seed: int = 0) -> RaceReport:
    """Run the baseline, sanitize it, then flip flagged pairs.

    Conflict pairs (non-commuting write sets) are flipped first -- they
    are the candidate races; remaining budget probes benign pairs so
    that even a confluent program demonstrably visits several
    inequivalent schedules.  ``budget`` bounds the total number of runs,
    baseline included.
    """
    if budget < 1:
        raise DistributedError("race exploration budget must be >= 1")
    counters = Counters()

    recorder = TraceRecorder()
    recording = RecordingChooser()
    options = replace(scenario.base_options, seed=seed, tracer=recorder,
                      chooser=recording)
    baseline_outcome = scenario.run(options)
    baseline = ScheduleRun(label=f"baseline (seed {seed})",
                           signature=_signature(recorder),
                           outcome=baseline_outcome, novel=True,
                           diverged=False)
    counters.add("race.runs")

    report = sanitize(recorder, scenario.program)
    analysis = analyze(scenario.program)
    diagnostics = [d for d in analysis.diagnostics if d.code in _RACE_CODES]

    targets: list[tuple[str, tuple[TraceEvent, TraceEvent]]] = []
    for conflict in report.conflicts:
        targets.append(("conflict", (conflict.first, conflict.second)))
    for pair in report.benign:
        targets.append(("benign", pair))

    runs: list[ScheduleRun] = []
    seen = {baseline.signature}
    picks = recording.picks
    for kind, (first, second) in targets:
        if 1 + len(runs) >= budget:
            counters.add("race.targets_skipped_budget",
                         len(targets) - len(runs))
            break
        avoid = (first.sender or "?", first.peer)
        prefer = (second.sender or "?", second.peer)
        chooser = FlipChooser(picks, flip_at=first.pick_index or 1,
                              avoid=avoid, prefer=prefer,
                              prefer_count=_prefer_count(picks, first, second,
                                                         prefer))
        flip_recorder = TraceRecorder()
        flip_options = replace(scenario.base_options, seed=seed,
                               tracer=flip_recorder, chooser=chooser)
        outcome = scenario.run(flip_options)
        signature = _signature(flip_recorder)
        novel = signature not in seen
        seen.add(signature)
        diverged = outcome != baseline_outcome
        label = (f"flip {kind} #{first.index}<->#{second.index} at "
                 f"{first.peer} ({avoid[0]} vs {prefer[0]})")
        runs.append(ScheduleRun(label=label, signature=signature,
                                outcome=outcome, novel=novel,
                                diverged=diverged, pair=(first, second)))
        counters.add("race.runs")
        counters.add(f"race.flips_{kind}")
        if diverged:
            counters.add("race.divergences")

    counters.add("race.schedules_explored", len(seen))
    counters.merge(report.counters)
    return RaceReport(scenario=scenario.name, baseline=baseline, runs=runs,
                      sanitizer=report, diagnostics=diagnostics,
                      counters=counters)
