"""Section-4.4 extensions: pattern diagnosis and hidden transitions.

Three scenarios on the running example:

1. an alarm *pattern* -- peer p1's alarms must match ``b.c*`` (the shape
   of the paper's ``alpha.beta*.alpha`` example);
2. *hidden transitions* -- peer p2 reports nothing, yet its transition
   ``v`` may silently occur in explanations;
3. a *blocked pattern* -- explanations whose p1-word does NOT start
   with ``c`` (the complement-automaton construction).

Run:  python examples/alarm_patterns.py
"""

import repro
from repro.diagnosis.patterns import (AlarmPattern, ObservationSpec,
                                      totalize_and_complement)
from repro.petri.examples import figure1_net
from repro.petri.product import Observer


def show(title: str, petri, spec: ObservationSpec) -> None:
    print(title)
    result = repro.diagnose(petri, spec, method="dqsq")
    for oracle in ("bruteforce", "dedicated"):
        assert repro.diagnose(petri, spec, method=oracle).diagnoses \
            == result.diagnoses
    for index, configuration in enumerate(sorted(result.diagnoses, key=lambda c: (len(c), sorted(c)))):
        events = ", ".join(sorted(configuration)) or "(empty)"
        print(f"  explanation {index + 1}: {events}")
    print()


def main() -> None:
    petri = figure1_net()
    sym = AlarmPattern.symbol

    star_spec = ObservationSpec.from_patterns({
        "p1": sym("b").then(sym("c").star()),
        "p2": AlarmPattern.epsilon().alt(sym("a")),
    }, max_events=4)
    show("Pattern diagnosis: p1 matches b.c*, p2 matches (eps|a)",
         petri, star_spec)

    hidden_spec = ObservationSpec(observers={
        "p1": Observer.chain("p1", ["b", "c"]),
        "p2": Observer.chain("p2", []),
    }, hidden=frozenset({"v"}), max_events=4)
    show("Hidden transitions: p2's transition v is unreported",
         petri, hidden_spec)

    bad = sym("c").then(sym("b").alt(sym("c")).star())
    blocked = totalize_and_complement(bad.to_observer("p1"), ("b", "c"))
    blocked_spec = ObservationSpec(observers={
        "p1": blocked,
        "p2": Observer.chain("p2", []),
    }, max_events=2)
    show("Blocked pattern: p1-words starting with c are excluded",
         petri, blocked_spec)


if __name__ == "__main__":
    main()
