"""Named benchmark scenarios for the experiment harness (E1-E7), and the
paper's Figure-3 program."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.datalog import Database, Query, parse_atom, parse_program
from repro.datalog.database import load_facts
from repro.diagnosis.alarms import AlarmSequence
from repro.distributed.ddatalog import DDatalogProgram
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.petri.generators import TelecomSpec, telecom_net
from repro.petri.net import PetriNet
from repro.workloads.alarmgen import simulate_alarms


@dataclass(frozen=True)
class Scenario:
    """A reproducible (net, alarm sequence) pair."""

    name: str
    description: str
    build: Callable[[], tuple[PetriNet, AlarmSequence]]

    def instantiate(self) -> tuple[PetriNet, AlarmSequence]:
        return self.build()


def _figure1(name: str) -> Callable[[], tuple[PetriNet, AlarmSequence]]:
    def build() -> tuple[PetriNet, AlarmSequence]:
        return figure1_net(), AlarmSequence(figure1_alarm_scenarios()[name])
    return build


def _telecom(peers: int, steps: int, seed: int,
             ring_length: int = 3, branching: float = 0.3,
             topology: str = "chain") -> Callable[[], tuple[PetriNet, AlarmSequence]]:
    def build() -> tuple[PetriNet, AlarmSequence]:
        spec = TelecomSpec(peers=peers, ring_length=ring_length,
                           branching=branching, topology=topology, seed=seed)
        petri = telecom_net(spec)
        return petri, simulate_alarms(petri, steps=steps, seed=seed)
    return build


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in [
        Scenario("figure1-bac", "running example, (b,p1)(a,p2)(c,p1)",
                 _figure1("bac")),
        Scenario("figure1-bca", "running example, equivalent interleaving",
                 _figure1("bca")),
        Scenario("figure1-cba", "running example, inexplicable sequence",
                 _figure1("cba")),
        Scenario("telecom-small", "2-peer chain, 4 alarms",
                 _telecom(peers=2, steps=4, seed=11)),
        Scenario("telecom-medium", "3-peer chain, 6 alarms",
                 _telecom(peers=3, steps=6, seed=12)),
        Scenario("telecom-wide", "4-peer star, 6 alarms",
                 _telecom(peers=4, steps=6, seed=13, topology="star")),
        Scenario("telecom-ambiguous", "2 peers, heavy branching, 5 alarms",
                 _telecom(peers=2, steps=5, seed=14, branching=0.8)),
    ]
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")


FIGURE3_TEXT = """
r@r(X, Y) :- a@r(X, Y).
r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
t@t(X, Y) :- c@t(X, Y).
a@r("1", "2").
a@r("2", "3").
b@s("2", "x").
b@s("3", "x").
c@t("2", "4").
c@t("3", "5").
c@t("4", "6").
"""


def figure3() -> tuple[DDatalogProgram, Database, Query]:
    """Figure 3: the located program, its EDB and the query ``r@r("1", Y)``."""
    parsed = parse_program(FIGURE3_TEXT)
    return (DDatalogProgram(parsed), load_facts(parsed),
            Query(parse_atom('r@r("1", Y)')))
