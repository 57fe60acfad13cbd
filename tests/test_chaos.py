"""The chaos harness: invariant checking, determinism, and the CLI."""

import dataclasses

import pytest

from repro.cli import main
from repro.distributed.chaos import (ChaosConfig, make_schedule, run_chaos)
from repro.distributed.network import FaultPlan, PeerFaultPlan


class TestScheduleDerivation:
    def test_schedules_are_deterministic(self):
        config = ChaosConfig(seed=5)
        peers = ("r", "s", "t")
        first = [make_schedule(config, i, peers) for i in range(10)]
        second = [make_schedule(config, i, peers) for i in range(10)]
        assert [s.options for s in first] == [s.options for s in second]
        assert [s.description for s in first] == [s.description for s in second]

    def test_schedules_differ_across_indices(self):
        config = ChaosConfig(seed=5)
        peers = ("r", "s", "t")
        options = [make_schedule(config, i, peers).options for i in range(20)]
        assert len({o.seed for o in options}) == 20
        assert len({o.fault.drop_probability for o in options}) > 1

    def test_every_fault_plan_field_is_drawn(self):
        """A plan field no campaign sets is a knob nobody turns: delete
        it, or teach make_schedule to draw it."""
        config = ChaosConfig(seed=0)
        options = [make_schedule(config, i, ("r", "s", "t")).options
                   for i in range(100)]
        undrawn = []
        for plan_type, attr in ((FaultPlan, "fault"),
                                (PeerFaultPlan, "peer_fault")):
            default = plan_type()
            undrawn += [f"{plan_type.__name__}.{f.name}"
                        for f in dataclasses.fields(plan_type)
                        if all(getattr(getattr(o, attr), f.name)
                               == getattr(default, f.name) for o in options)]
        assert undrawn == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(schedules=0)
        with pytest.raises(ValueError):
            ChaosConfig(max_deliveries=0)
        for max_drop in (-1, 2):
            with pytest.raises(ValueError, match="max_drop"):
                ChaosConfig(max_drop=max_drop)


class TestInvariants:
    def test_hundred_schedules_hold_the_invariant(self):
        # The acceptance-criteria campaign: >= 100 seeded schedules mixing
        # message faults with crashes/restarts/partitions.  Completed
        # runs must equal the fault-free oracle; degraded runs must be
        # subsets with failure attribution.
        report = run_chaos(ChaosConfig(schedules=100, seed=0))
        assert len(report.outcomes) == 100
        assert report.ok(), report.render()
        counts = report.counts()
        assert counts["completed"] > 0
        # A lost frame is retried in place: one retransmission per drop.
        completed = [o for o in report.outcomes if o.status == "completed"]
        assert sum(o.counters["net.dropped"] for o in completed) > 0
        for outcome in completed:
            assert (outcome.counters["net.retransmits"]
                    == outcome.counters["net.dropped"]), outcome.description

    def test_campaign_is_replayable(self):
        config = ChaosConfig(schedules=15, seed=21)
        first = run_chaos(config)
        second = run_chaos(config)
        assert ([(o.status, o.equal, o.subset) for o in first.outcomes]
                == [(o.status, o.equal, o.subset) for o in second.outcomes])

    def test_diagnosis_problem_campaign(self):
        report = run_chaos(ChaosConfig(schedules=4, seed=1,
                                       problem="figure1-bac",
                                       max_deliveries=50_000))
        assert report.ok(), report.render()

    def test_report_renders_summary(self):
        report = run_chaos(ChaosConfig(schedules=5, seed=2))
        text = report.render()
        assert "5 schedules" in text
        assert "invariants held" in text


class TestChaosCli:
    def test_smoke_command(self, capsys):
        # The CI job's exact invocation (shrunk).
        code = main(["chaos", "--schedules", "5", "--max-deliveries", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "5 schedules" in out

    def test_verbose_lists_schedules(self, capsys):
        code = main(["chaos", "--schedules", "3", "--verbose"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[") >= 3

    @pytest.mark.parametrize("problem", ["nope", "figure1", "e6"])
    def test_unknown_problem_is_a_usage_error(self, capsys, problem):
        assert main(["chaos", "--problem", problem, "--schedules", "1"]) == 2
        err = capsys.readouterr().err
        assert f"unknown chaos problem {problem!r}" in err
        assert "figure3" in err and "figure1-bac" in err
