"""E7 (Section 4.4): pattern / hidden-transition / blocked diagnosis."""

import pytest

import repro
from repro.diagnosis.dedicated import dedicated_pattern_diagnosis
from repro.diagnosis.patterns import (AlarmPattern, ObservationSpec,
                                      totalize_and_complement)
from repro.petri.examples import figure1_net
from repro.petri.product import Observer

sym = AlarmPattern.symbol


def _specs():
    return {
        "pattern-star": ObservationSpec.from_patterns({
            "p1": sym("b").then(sym("c").star()),
            "p2": AlarmPattern.epsilon().alt(sym("a")),
        }, max_events=4),
        "hidden": ObservationSpec(observers={
            "p1": Observer.chain("p1", ["b", "c"]),
            "p2": Observer.chain("p2", []),
        }, hidden=frozenset({"v"}), max_events=4),
        "blocked": ObservationSpec(observers={
            "p1": totalize_and_complement(
                sym("c").then(sym("b").alt(sym("c")).star()).to_observer("p1"),
                ("b", "c")),
            "p2": Observer.chain("p2", []),
        }, max_events=2),
    }


@pytest.mark.parametrize("scenario", ["pattern-star", "hidden", "blocked"])
def test_extended_dqsq(benchmark, scenario):
    petri = figure1_net()
    spec = _specs()[scenario]
    result = benchmark.pedantic(repro.diagnose, args=(petri, spec),
                                kwargs={"method": "dqsq"},
                                rounds=2, iterations=1)

    reference = dedicated_pattern_diagnosis(petri, spec)
    assert result.diagnoses == reference
    benchmark.extra_info["diagnoses"] = len(result.diagnoses)


def test_pattern_to_dfa(benchmark):
    pattern = sym("a").then(sym("b").star()).then(sym("a"))
    dfa = benchmark(pattern.to_dfa)
    assert dfa.states >= 3
