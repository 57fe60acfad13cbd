"""Property: transport faults never change the diagnosis set.

For any drop probability < 1 and a sufficient retry budget, the
reliable-delivery layer restores exactly-once per-channel-FIFO delivery,
so ``diagnose(..., method="dqsq")`` over a lossy network must equal the
zero-loss diagnosis set.  Exercised as a seeded sweep over the bundled
example nets (deterministic, unlike the underlying "network adversary").
"""

import pytest

import repro
from repro.diagnosis import AlarmSequence
from repro.petri.examples import (cyclic_net, figure1_alarm_scenarios,
                                  figure1_net, two_peer_chain_net)


def _instances():
    petri = figure1_net()
    for name, pairs in figure1_alarm_scenarios().items():
        yield f"figure1-{name}", petri, AlarmSequence(pairs)
    yield "two-peer-chain", two_peer_chain_net(), AlarmSequence(
        [("x", "p1"), ("y", "p2")])
    yield "cyclic", cyclic_net(), AlarmSequence([("g", "p1"), ("h", "p1")])


INSTANCES = list(_instances())


@pytest.mark.parametrize("label,petri,alarms",
                         INSTANCES, ids=[i[0] for i in INSTANCES])
def test_diagnosis_set_invariant_under_loss_and_delay(label, petri, alarms):
    baseline = repro.diagnose(petri, alarms, method="dqsq")
    for drop in (0.1, 0.3):
        for seed in range(3):
            options = repro.NetworkOptions(
                seed=seed,
                fault=repro.FaultPlan(drop_probability=drop,
                                      delay_distribution=(0, 4)))
            lossy = repro.diagnose(petri, alarms, method="dqsq",
                                   config=repro.RunConfig(options=options))
            assert not lossy.partial
            assert lossy.diagnoses == baseline.diagnoses, (label, drop, seed)
            assert (lossy.materialized_events
                    == baseline.materialized_events), (label, drop, seed)


@pytest.mark.parametrize("seed", range(3))
def test_termination_detector_correct_under_loss(seed):
    petri = figure1_net()
    alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
    baseline = repro.diagnose(petri, alarms, method="dqsq")
    options = repro.NetworkOptions(
        seed=seed, fault=repro.FaultPlan(drop_probability=0.25))
    lossy = repro.diagnose(
        petri, alarms, method="dqsq",
        config=repro.RunConfig(options=options, use_termination_detector=True))
    assert lossy.diagnoses == baseline.diagnoses


def test_partial_result_instead_of_crash():
    petri = figure1_net()
    alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
    options = repro.NetworkOptions(
        seed=0, fault=repro.FaultPlan(drop_probability=1.0, max_retries=2))
    result = repro.diagnose(petri, alarms, method="dqsq",
                            config=repro.RunConfig(options=options))
    assert result.partial
    assert result.transport_stats  # per-channel stats snapshot
    assert result.counters["net.transport_exhausted"] == 1
    # Everything delivered before the failure is kept: the diagnosis set
    # is a (possibly empty) lower bound, not an exception.
    baseline = repro.diagnose(petri, alarms, method="dqsq")
    assert result.diagnoses <= baseline.diagnoses or not result.diagnoses
