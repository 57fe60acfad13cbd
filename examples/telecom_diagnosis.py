"""Telecom scenario: diagnose a synthetic multi-peer network.

Generates a telecom-style safe Petri net (per-peer state machines plus
capacity-1 message handshakes), simulates a faulty run whose alarms
reach the supervisor through an asynchronous network (per-peer order
only), and diagnoses the resulting sequence.  Shows how ambiguity grows
with branching: several configurations may explain the same alarms.

Run:  python examples/telecom_diagnosis.py
"""

import repro
from repro.petri.generators import TelecomSpec, telecom_net
from repro.workloads.alarmgen import simulate_alarms, simulate_run


def main() -> None:
    spec = TelecomSpec(peers=3, ring_length=3, topology="chain",
                       branching=0.6, alphabet=("link-down", "timeout", "retry"),
                       seed=7)
    petri = telecom_net(spec)
    print(f"Synthetic telecom net: {petri.net!r}")

    fired = simulate_run(petri, steps=5, seed=7)
    print(f"Ground-truth run (hidden from the supervisor): {fired}")

    alarms = simulate_alarms(petri, steps=5, seed=7)
    print(f"Alarm sequence received: {' '.join(str(a) for a in alarms)}")
    print(f"Reliable per-peer projections: {alarms.by_peer()}")
    print()

    result = repro.diagnose(petri, alarms, method="dqsq")
    dedicated = repro.diagnose(petri, alarms, method="dedicated")
    assert result.diagnoses == dedicated.diagnoses

    print(f"Diagnosis set: {len(result.diagnoses)} candidate explanation(s)")
    for index, configuration in enumerate(sorted(result.diagnoses, key=sorted)):
        print(f"  candidate {index + 1} ({len(configuration)} events):")
        for event in sorted(configuration):
            print(f"    {event}")
    print()
    print("Evaluation statistics (dQSQ):")
    for name in ("messages_sent", "tuples_shipped", "rules_installed",
                 "rewritings", "materialized_events"):
        print(f"  {name:22s} {result.counters[name]}")
    print()

    # The same diagnosis over a lossy network: a lost frame stays at the
    # head of its channel and is retransmitted until it arrives, so every
    # message is delivered exactly once and the diagnosis set is unchanged.
    lossy = repro.RunConfig(options=repro.NetworkOptions(
        seed=7, fault=repro.FaultPlan(drop_probability=0.2,
                                      delay_distribution=(0, 3))))
    faulty = repro.diagnose(petri, alarms, method="dqsq", config=lossy)
    assert faulty.diagnoses == result.diagnoses
    print("With 20% frame loss and random delays:")
    for name in ("net.dropped", "net.retransmits",
                 "net.delivery_latency_max"):
        print(f"  {name:24s} {faulty.counters[name]}")


if __name__ == "__main__":
    main()
