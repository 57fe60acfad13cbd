"""Transport conformance suite: one contract, two substrates.

Every test here is a statement about the transport API of
:mod:`repro.distributed.transport`, checked against both registered
runtimes where the capability exists:

* **answer equivalence** -- the e6 diagnosis, the Figure 3 dQSQ query
  and a distributed-naive run produce *identical* results on the
  multiprocessing transport and on the simulator oracle;
* **delivery contract** -- per-channel FIFO and exactly-once delivery,
  observed directly through a recording peer driven by a raw
  :class:`TransportJob` (and, on the simulator, preserved under seeded
  drops and under crash + checkpoint-replay recovery);
* **capability fences** -- simulator-only options are rejected on mp,
  the confluence gate refuses order-sensitive jobs and non-confluent
  programs, and ``MpConfig(allow_nonconfluent=True)`` opts out;
* **the RunConfig facade** -- :class:`repro.RunConfig` is the only way
  to configure ``diagnose()``; the pre-``RunConfig`` keyword arguments
  are a ``TypeError``.

Simulator-only capabilities are feature-gated via
``TransportRuntime.features`` rather than hard-coded, so a third
transport would slot into the same suite.
"""

from __future__ import annotations

import functools
import queue
import threading

import pytest

import repro
from repro.datalog.database import Database, load_facts
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.plan import clear_plan_cache
from repro.datalog.rule import Query
from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.supervisor import SupervisorEncoder
from repro.distributed.chaos import RACY_TEXT
from repro.distributed.ddatalog import DDatalogProgram
from repro.distributed.dqsq import DqsqEngine
from repro.distributed.mp import MpConfig, MpTransportRuntime
from repro.distributed.naive_dist import DistributedNaiveEngine
from repro.distributed.network import FaultPlan, NetworkOptions, PeerFaultPlan
from repro.distributed.transport import (PeerSpec, SimTransportRuntime,
                                         TransportJob, resolve_transport)
from repro.errors import DistributedError
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.utils.counters import Counters
from repro.workloads.scenarios import FIGURE3_TEXT

TRANSPORTS = ("sim", "mp")

#: small wall-clock budget: a conformance hang should fail fast, not
#: sit out the mp default timeout
MP = MpConfig(timeout=60.0)


def _runtime(transport: str, options: NetworkOptions | None = None):
    if transport == "mp":
        return MpTransportRuntime(MP)
    return resolve_transport(transport, options)


def _figure3():
    parsed = parse_program(FIGURE3_TEXT)
    return DDatalogProgram(parsed), load_facts(parsed)


F3_QUERY = Query(parse_atom('r@r("1", Y)'))


# -- answer equivalence: mp against the simulator oracle -----------------------


@pytest.fixture(scope="module")
def figure3_oracle():
    """Figure 3 answers on the deterministic simulator."""
    program, edb = _figure3()
    result = DqsqEngine(program, edb).query(F3_QUERY)
    assert result.answers, "oracle run produced no answers"
    return frozenset(result.answers)


@pytest.fixture(scope="module")
def e6_problem():
    return figure1_net(), AlarmSequence(figure1_alarm_scenarios()["bac"])


@pytest.fixture(scope="module")
def e6_oracle(e6_problem):
    petri, alarms = e6_problem
    result = repro.diagnose(petri, alarms, method="dqsq")
    assert result.diagnoses
    return result.diagnoses


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_figure3_dqsq_answers_identical(transport, figure3_oracle):
    program, edb = _figure3()
    result = DqsqEngine(program, edb, transport=_runtime(transport)).query(F3_QUERY)
    assert frozenset(result.answers) == figure3_oracle
    assert not result.partial


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_figure3_with_termination_detector(transport, figure3_oracle):
    """Every run carries the detector, and every transport reports its
    verdict (on mp the verdict is what ends the run)."""
    program, edb = _figure3()
    result = DqsqEngine(program, edb,
                        transport=_runtime(transport)).query(F3_QUERY)
    assert frozenset(result.answers) == figure3_oracle
    assert result.terminated_by_detector is True


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_e6_diagnosis_identical(transport, e6_problem, e6_oracle):
    petri, alarms = e6_problem
    config = repro.RunConfig(transport=_runtime(transport))
    result = repro.diagnose(petri, alarms, method="dqsq", config=config)
    assert result.diagnoses == e6_oracle


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_e6_supervisor_encoding_direct(transport, e6_problem):
    """The e6 program run as a raw dQSQ query, not through the facade."""
    petri, alarms = e6_problem
    encoder = SupervisorEncoder(petri, alarms)
    oracle = frozenset(
        DqsqEngine(encoder.program(), Database(),
                   check=False).query(Query(encoder.query_atom())).answers)
    result = DqsqEngine(encoder.program(), Database(), check=False,
                        transport=_runtime(transport)).query(Query(encoder.query_atom()))
    assert frozenset(result.answers) == oracle


def test_pattern_observation_identical_on_mp():
    """A Section-4.4 observation goes through the same engine, so it has
    the mp transport too: hidden v under the pattern b.c* at p1."""
    from repro.diagnosis.patterns import AlarmPattern, ObservationSpec
    from repro.petri.examples import figure1_net
    petri = figure1_net()
    spec = ObservationSpec.from_patterns(
        {"p1": AlarmPattern.parse("b.c*"), "p2": AlarmPattern.epsilon()},
        hidden=frozenset({"v"}), max_events=3)
    simulated = repro.diagnose(petri, spec, method="dqsq")
    parallel = repro.diagnose(petri, spec, method="dqsq",
                              config=repro.RunConfig(transport=_runtime("mp")))
    assert len(simulated.diagnoses) == 4
    assert parallel.diagnoses == simulated.diagnoses
    assert not parallel.partial


def test_e9_recovery_matches_mp_fault_free(figure3_oracle):
    """E9's crash/recovery run (simulator) converges to the same answers
    the mp transport computes fault-free: recovery is answer-invisible."""
    program, edb = _figure3()
    victim = sorted(program.peers())[0]
    options = NetworkOptions(peer_fault=PeerFaultPlan(
        crash_at={victim: (2,)}, restart_after_deliveries=8))
    recovered = DqsqEngine(program, edb, options=options).query(F3_QUERY)
    assert recovered.counters["net.recovery.crashes"] >= 1
    assert frozenset(recovered.answers) == figure3_oracle
    parallel = DqsqEngine(program, edb, transport=_runtime("mp")).query(F3_QUERY)
    assert frozenset(parallel.answers) == figure3_oracle


SINGLE_PEER_TEXT = """
p@a(X, Y) :- e@a(X, Y).
p@a(X, Z) :- e@a(X, Y), p@a(Y, Z).
e@a("1", "2").
e@a("2", "3").
e@a("3", "4").
e@a("4", "5").
"""


def test_plan_counters_match_sim_vs_mp():
    """``plan.*`` totals agree between transports on a deterministic job.

    On a single-peer job the local fixpoint schedule is identical on
    both transports, so the per-plan accumulators -- flushed into the
    outcome at snapshot time (see ``snapshot_peer_counters``) -- must
    match *exactly*: a worker process exiting before its stats are
    folded in would show up here as an mp deficit.  Multi-peer jobs
    are only checked for presence (delta batching there is
    schedule-dependent, so exact totals legitimately differ).
    """
    totals = {}
    for transport in TRANSPORTS:
        # clearing tears the mp worker fleet down, and the fleet forked
        # next inherits the emptied plan table: both runs compile what
        # they fire
        clear_plan_cache()
        parsed = parse_program(SINGLE_PEER_TEXT)
        program, edb = DDatalogProgram(parsed), load_facts(parsed)
        result = DqsqEngine(program, edb, transport=_runtime(transport)).query(
                                Query(parse_atom('p@a("1", Y)')))
        assert result.answers
        totals[transport] = {
            name: value for name, value in result.counters.as_dict().items()
            if name.startswith("plan.")}
    assert totals["sim"] == totals["mp"]
    assert totals["sim"]["plan.cache_misses"] > 0
    assert totals["sim"]["plan.bindings_explored"] > 0


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_plan_counters_present_per_peer(transport):
    """Every dQSQ peer reports plan work on every transport (multi-peer:
    presence, not exact totals -- see test_plan_counters_match_sim_vs_mp)."""
    program, edb = _figure3()
    result = DqsqEngine(program, edb, transport=_runtime(transport)).query(F3_QUERY)
    merged = result.counters.as_dict()
    assert merged.get("plan.cache_misses", 0) > 0
    busy = [name for name, counters in result.per_peer.items()
            if counters.as_dict().get("plan.bindings_explored", 0) > 0]
    assert busy, "no peer reported any plan work"


CHAIN_TEXT = """
path@a(X, Y) :- edge@a(X, Y).
path@a(X, Y) :- path@a(X, Z), hop@b(Z, Y).
hop@b(X, Y) :- edge@b(X, Y).
goal@c(X, Y) :- path@a(X, Y).
edge@a("1", "2").
edge@b("2", "3").
edge@b("3", "4").
"""


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_distributed_naive_answers_identical(transport):
    parsed = parse_program(CHAIN_TEXT)
    program, edb = DDatalogProgram(parsed), load_facts(parsed)
    query = Query(parse_atom('goal@c("1", Y)'))
    oracle = frozenset(DistributedNaiveEngine(program, edb).query(query).answers)
    assert oracle
    result = DistributedNaiveEngine(program, edb, transport=_runtime(transport)).query(query)
    assert frozenset(result.answers) == oracle


# -- the delivery contract, observed through a recording peer ------------------


class _RecorderPeer:
    """Appends every delivery to its database, in arrival order.

    A plain handler: the transport runs the termination protocol around
    it, and ``ds-ack`` messages never reach it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.db = Database()
        self.counters = Counters()

    def on_messages(self, batch, transport) -> None:
        self.counters.add("recorded", len(batch))
        self.db.add_all(("seen", self.name),
                        [(message.kind, message.payload) for message in batch],
                        assume_ground=True)


def _build_recorder(*, name, **_kwargs):
    return _RecorderPeer(name)


def _start_burst(peer, transport, *, count):
    for i in range(1, count + 1):
        transport.send(peer.name, "sink", "ping", f"m{i:03d}")


def _burst_job(count: int) -> TransportJob:
    return TransportJob(
        peers={"src": PeerSpec(_build_recorder),
               "sink": PeerSpec(_build_recorder)},
        origin="src",
        start=functools.partial(_start_burst, count=count))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_fifo_exactly_once(transport):
    """One channel, N messages: delivered exactly once, in send order.

    The sink acknowledges the pings to the root (``ds-ack``), one frame
    per batch carrying a count; the transport consumes those, so only
    the pings reach a handler, and the counts sum to the pings.
    """
    outcome = _runtime(transport).run(_burst_job(25))
    seen = list(outcome.databases["sink"].facts(("seen", "sink")))
    assert seen == [("ping", f"m{i:03d}") for i in range(1, 26)]
    assert outcome.per_peer["sink"]["recorded"] == 25
    assert outcome.per_peer["src"]["recorded"] == 0
    counters = outcome.merged_counters()
    acks = counters["messages_sent[ds-ack]"]
    assert 1 <= acks <= counters["batches_delivered"]
    assert counters["messages_acked"] == 25
    assert outcome.deliveries == 25 + acks
    assert outcome.terminated_by_detector is True


class _KeepOutcome(SimTransportRuntime):
    """The simulator runtime, keeping the outcome an engine consumed."""

    def run(self, job):
        self.outcome = super().run(job)
        return self.outcome


@pytest.mark.parametrize("restart", [6, None], ids=["restart", "degraded"])
def test_sim_deliveries_count_messages(restart):
    """``deliveries`` counts delivered messages, not scheduler steps: a
    crash is no delivery, and a degraded run delivered messages too."""
    program, edb = _figure3()
    runtime = _KeepOutcome(NetworkOptions(peer_fault=PeerFaultPlan(
        crash_at={"r": (2,)}, restart_after_deliveries=restart)))
    result = DqsqEngine(program, edb, transport=runtime).query(F3_QUERY)
    assert result.counters["net.recovery.crashes"] == 1
    assert result.partial is (restart is None)
    outcome = runtime.outcome
    assert outcome.deliveries == outcome.counters["messages_delivered"] > 0


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_exactly_once_under_seeded_drops(transport):
    """Seeded loss: head-of-line retransmission keeps the exactly-once
    FIFO contract (simulator capability)."""
    if "faults" not in _runtime(transport).features:
        pytest.skip("fault injection is a simulator-only capability")
    options = NetworkOptions(seed=11, fault=FaultPlan(drop_probability=0.3))
    outcome = _runtime(transport, options).run(_burst_job(25))
    seen = list(outcome.databases["sink"].facts(("seen", "sink")))
    assert seen == [("ping", f"m{i:03d}") for i in range(1, 26)]
    assert outcome.counters["net.dropped"] > 0


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_answers_survive_checkpoint_replay(transport, figure3_oracle):
    """Crash + checkpoint replay reconverges to the oracle answers
    (simulator capability; e9's schedule needs deterministic delivery)."""
    if "checkpoints" not in _runtime(transport).features:
        pytest.skip("crash/recovery is a simulator-only capability")
    program, edb = _figure3()
    victim = sorted(program.peers())[0]
    options = NetworkOptions(peer_fault=PeerFaultPlan(
        crash_at={victim: (2,)}, restart_after_deliveries=6))
    result = DqsqEngine(program, edb, options=options,
                        transport=transport).query(F3_QUERY)
    assert result.counters["net.recovery.crashes"] >= 1
    assert result.counters["net.recovery.checkpoints_restored"] >= 1
    assert frozenset(result.answers) == figure3_oracle


# -- capability fences ---------------------------------------------------------


def test_mp_rejects_simulator_only_options():
    cases = [
        NetworkOptions(fault=FaultPlan(drop_probability=0.1)),
        NetworkOptions(peer_fault=PeerFaultPlan(crash_at={"r": (1,)})),
    ]
    for options in cases:
        with pytest.raises(DistributedError, match="simulator-only"):
            resolve_transport("mp", options)


def test_unknown_transport_name():
    with pytest.raises(DistributedError, match="unknown transport"):
        resolve_transport("carrier-pigeon")


def test_mp_refuses_order_sensitive_job():
    """Fire-time negation is order-sensitive by construction: the mp
    transport refuses it regardless of any program analysis."""
    parsed = parse_program(RACY_TEXT, check=False)
    engine = DistributedNaiveEngine(
        DDatalogProgram(parsed), load_facts(parsed), check=False,
        unsafe_negation=True, transport=_runtime("mp"))
    with pytest.raises(DistributedError, match="order-sensitive"):
        engine.query(Query(parse_atom("verdict@s(X)")))


def test_mp_refuses_nonconfluent_program():
    """Even without the order-sensitive flag, the DD701-DD703 verdict of
    the racy program trips the confluence gate."""
    parsed = parse_program(RACY_TEXT, check=False)
    engine = DistributedNaiveEngine(
        DDatalogProgram(parsed), load_facts(parsed), check=False,
        transport=_runtime("mp"))
    with pytest.raises(DistributedError, match="confluent"):
        engine.query(Query(parse_atom("verdict@s(X)")))


def test_mp_allow_nonconfluent_override():
    parsed = parse_program(RACY_TEXT, check=False)
    engine = DistributedNaiveEngine(
        DDatalogProgram(parsed), load_facts(parsed), check=False,
        unsafe_negation=True, transport=MpTransportRuntime(
            MpConfig(timeout=60.0, allow_nonconfluent=True)))
    result = engine.query(Query(parse_atom("verdict@s(X)")))
    # The answers are schedule-dependent by design; the contract here is
    # only that the opt-in actually runs the job to quiescence.
    assert result.transport_error is None and result.peer_failure is None


def test_sim_runtime_features():
    sim = resolve_transport("sim")
    assert {"faults", "checkpoints", "deterministic"} <= sim.features
    mp = _runtime("mp")
    assert "parallel" in mp.features
    assert "faults" not in mp.features


# -- the RunConfig facade ------------------------------------------------------


def test_legacy_diagnose_kwarg_is_a_type_error(e6_problem):
    petri, alarms = e6_problem
    for legacy in ({"transport": "sim"},
                   {"options": NetworkOptions(seed=3)}):
        with pytest.raises(TypeError):
            repro.diagnose(petri, alarms, **legacy)
        assert repro.diagnose(petri, alarms,
                              config=repro.RunConfig(**legacy)).diagnoses
    # the detector is not a knob: every distributed run carries it
    with pytest.raises(TypeError):
        repro.RunConfig(use_termination_detector=True)


def test_runconfig_rejects_faults_on_mp(e6_problem):
    petri, alarms = e6_problem
    config = repro.RunConfig(
        transport="mp",
        options=NetworkOptions(fault=FaultPlan(drop_probability=0.2)))
    with pytest.raises(DistributedError, match="simulator-only"):
        repro.diagnose(petri, alarms, method="dqsq", config=config)


# -- shutdown hygiene: a timed-out run leaves zero live children ---------------


class _HangingPeer:
    """Blocks forever inside its first handler (a livelocked worker)."""

    def __init__(self, name: str, ignore_sigterm: bool) -> None:
        self.name = name
        self.counters = Counters()
        self._ignore_sigterm = ignore_sigterm

    def on_messages(self, batch, transport) -> None:
        import signal
        import time

        if self._ignore_sigterm:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(3600)


def _build_hanging(*, name, ignore_sigterm=False, **_kwargs):
    return _HangingPeer(name, ignore_sigterm)


def _start_one_ping(peer, transport):
    transport.send(peer.name, "sink", "ping", "x")


def _hanging_job(ignore_sigterm: bool = False) -> TransportJob:
    return TransportJob(
        peers={"src": PeerSpec(_build_recorder),
               "sink": PeerSpec(_build_hanging,
                                kwargs={"ignore_sigterm": ignore_sigterm})},
        origin="src", start=_start_one_ping)


def _no_repro_children() -> list:
    import multiprocessing

    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-peer-")]


def test_mp_timeout_leaves_no_orphans():
    """A run that times out must terminate and reap every worker."""
    runtime = _runtime("mp")
    runtime.config = MpConfig(timeout=1.0)
    with pytest.raises(DistributedError, match="timed out"):
        runtime.run(_hanging_job())
    assert _no_repro_children() == []


def test_mp_timeout_kill_fallback_reaps_sigterm_immune_workers():
    """A worker that ignores SIGTERM is SIGKILLed, never orphaned."""
    runtime = _runtime("mp")
    runtime.config = MpConfig(timeout=1.5, shutdown_grace=0.5)
    with pytest.raises(DistributedError, match="timed out"):
        runtime.run(_hanging_job(ignore_sigterm=True))
    assert _no_repro_children() == []


def test_mp_interrupt_mid_run_leaves_no_orphans(monkeypatch):
    """KeyboardInterrupt while awaiting the root's verdict still reaps
    every worker."""
    runtime = MpTransportRuntime(MpConfig(timeout=30.0))

    def _interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(MpTransportRuntime, "_await_verdict", _interrupt)
    with pytest.raises(KeyboardInterrupt):
        runtime.run(_hanging_job())
    assert _no_repro_children() == []


class _ExitingPeer:
    """Dies in its first handler without a word (no error report)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def on_messages(self, batch, transport) -> None:
        import os

        os._exit(3)


def _build_exiting(*, name, **_kwargs):
    return _ExitingPeer(name)


def test_mp_silent_non_root_death_fails_fast():
    """The coordinator waits on the root's verdict only, but watches
    every worker: a non-root worker dying mid-handler surfaces as a
    DistributedError naming it and its exit code, long before the
    timeout, and leaves no worker behind."""
    import time

    job = TransportJob(
        peers={"src": PeerSpec(_build_recorder),
               "sink": PeerSpec(_build_exiting)},
        origin="src", start=_start_one_ping)
    runtime = MpTransportRuntime(MpConfig(timeout=60.0))
    began = time.monotonic()
    with pytest.raises(DistributedError, match=r"\['sink'\].*\[3\]"):
        runtime.run(job)
    assert time.monotonic() - began < 15.0
    assert _no_repro_children() == []


# -- the fleet: one worker per peer name for the life of the process -----------


def test_mp_second_diagnosis_compiles_what_the_first_left(e6_problem,
                                                          e6_oracle):
    """A second mp diagnosis runs on the workers of the first, which kept
    its rewritings, their plans and their kernels.

    Which delta positions of a rule fire is schedule-dependent (a
    consumer fires only once its partner relations are non-empty), so a
    second run may still compile a plan for a position the first never
    fired: a handful, against the first run's hundreds."""
    petri, alarms = e6_problem
    clear_plan_cache()
    # mp first: the fleet forks from a cold caller, and the simulator's
    # runs, in the caller, cannot warm it
    runs = {transport: [repro.diagnose(
                petri, alarms, method="dqsq",
                config=repro.RunConfig(transport=_runtime(transport)))
                for _ in range(2)]
            for transport in ("mp", "sim")}
    for result in runs["mp"]:
        assert result.diagnoses == e6_oracle
    first, second = (result.counters for result in runs["mp"])
    assert first["plan.cache_misses"] > 100
    assert second["plan.cache_misses"] * 20 <= first["plan.cache_misses"]
    assert (second["plan.promotions"]
            <= runs["sim"][1].counters["plan.promotions"])


class _ScriptSpent(Exception):
    """The scripted inbox has nothing left: the worker would block."""


class _ScriptedInbox(queue.Queue):
    """An inbox stand-in that ends the worker loop once it is spent."""

    def get(self, block=True, timeout=None):
        if block and self.empty():
            raise _ScriptSpent
        return super().get(block, timeout)


def test_mp_worker_holds_frames_ahead_of_its_run():
    """A frame a peer sends before this worker took its run item is
    delivered in that run; a later run under the same handle builds a
    fresh peer from the kept spec, until the handle is forgotten."""
    from repro.distributed import mp

    inboxes = {"src": queue.Queue(), "sink": _ScriptedInbox()}
    coordinator = queue.Queue()
    sink = inboxes["sink"]
    sink.put((mp._MSG, "src", [("ping", "early")]))
    sink.put((mp._RUN, 7, PeerSpec(_build_recorder), "src", None))
    sink.put((mp._COLLECT,))
    sink.put((mp._MSG, "src", [("ping", "second")]))
    sink.put((mp._RUN, 7, None, "src", None))
    sink.put((mp._COLLECT,))
    sink.put((mp._FORGET, 7))
    sink.put((mp._RUN, 7, None, "src", None))
    with pytest.raises(KeyError):  # the forgotten spec is gone
        mp._worker_loop("sink", inboxes, coordinator)
    seen = []
    while not coordinator.empty():
        tag, name, facts, _counters = coordinator.get_nowait()
        assert (tag, name) == (mp._SNAPSHOT, "sink")
        seen.append(facts[("seen", "sink")])
    assert seen == [[("ping", "early")], [("ping", "second")]]
    # each run acknowledged its ping to the root
    assert [inboxes["src"].get_nowait()[2][0][0]
            for _ in range(2)] == ["ds-ack"] * 2


class _FanoutPeer(_RecorderPeer):
    """Answers each batch with three pings to ``a`` and one to ``b``."""

    def on_messages(self, batch, transport) -> None:
        super().on_messages(batch, transport)
        for i in (1, 2, 3):
            transport.send(self.name, "a", "ping", i)
        transport.send(self.name, "b", "ping", 4)


def test_mp_worker_sends_one_frame_per_recipient_per_batch():
    """What one batch sends a recipient is one queue item, in send
    order."""
    from repro.distributed import mp

    inboxes = {"p": _ScriptedInbox(), "src": queue.Queue(),
               "a": queue.Queue(), "b": queue.Queue()}
    coordinator = queue.Queue()
    inboxes["p"].put((mp._MSG, "src", [("go", "x")]))
    inboxes["p"].put((mp._RUN, None, PeerSpec(_FanoutPeer), "src", None))
    inboxes["p"].put((mp._COLLECT,))
    with pytest.raises(_ScriptSpent):
        mp._worker_loop("p", inboxes, coordinator)
    assert inboxes["a"].get_nowait() == (
        mp._MSG, "p", [("ping", 1), ("ping", 2), ("ping", 3)])
    assert inboxes["b"].get_nowait() == (mp._MSG, "p", [("ping", 4)])
    assert inboxes["a"].empty() and inboxes["b"].empty()
    _tag, _name, _facts, counters = coordinator.get_nowait()
    assert (counters["messages_sent"], counters["frames_sent"]) == (4, 2)


def test_mp_diagnosis_counts_frames(e6_problem, e6_oracle):
    """An mp diagnosis answers the oracle and puts no more frames on
    the queues than it sends messages."""
    petri, alarms = e6_problem
    result = repro.diagnose(petri, alarms, method="dqsq",
                            config=repro.RunConfig(transport=_runtime("mp")))
    assert result.diagnoses == e6_oracle
    counters = result.counters
    assert 0 < counters["frames_sent"] <= counters["messages_sent"]


def test_mp_fleet_forgets_a_dead_program(figure3_oracle):
    """The specs kept for a program's jobs go once the program dies."""
    import gc

    from repro.distributed import mp

    program, edb = _figure3()
    assert frozenset(DqsqEngine(program, edb, transport=_runtime("mp"))
                     .query(F3_QUERY).answers) == figure3_oracle
    handle = mp._HANDLES[program.program]
    assert handle in mp._FLEET.kept
    del program
    gc.collect()
    assert handle not in mp._FLEET.kept


def _start_ping_to(peer, transport, *, target):
    transport.send(peer.name, target, "ping", "x")


def _figure3_peer_job(victim: PeerSpec) -> TransportJob:
    """A job over Figure 3's peer names whose peer ``s`` is ``victim``."""
    return TransportJob(
        peers={"r": PeerSpec(_build_recorder), "s": victim,
               "t": PeerSpec(_build_recorder)},
        origin="r", start=functools.partial(_start_ping_to, target="s"))


@pytest.mark.parametrize("failure", ["timeout", "interrupt", "death"])
def test_mp_runs_after_a_failed_run(failure, figure3_oracle, monkeypatch):
    """A run that fails on the live fleet tears it down, and the next
    run over the same peer names answers the oracle on a fresh one."""
    program, edb = _figure3()
    runtime = _runtime("mp")
    assert frozenset(DqsqEngine(program, edb, transport=runtime)
                     .query(F3_QUERY).answers) == figure3_oracle
    if failure == "timeout":
        with pytest.raises(DistributedError, match="timed out"):
            MpTransportRuntime(MpConfig(timeout=1.0)).run(
                _figure3_peer_job(PeerSpec(_build_hanging)))
    elif failure == "interrupt":
        def _interrupt(*_args, **_kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(MpTransportRuntime, "_await_verdict", _interrupt)
            with pytest.raises(KeyboardInterrupt):
                runtime.run(_figure3_peer_job(PeerSpec(_build_hanging)))
    else:
        with pytest.raises(DistributedError, match="died without reporting"):
            runtime.run(_figure3_peer_job(PeerSpec(_build_exiting)))
    assert _no_repro_children() == []
    result = DqsqEngine(program, edb, transport=runtime).query(F3_QUERY)
    assert frozenset(result.answers) == figure3_oracle


def test_mp_fleet_follows_the_peer_set():
    """A job over other peer names leaves exactly its own workers, and
    clearing the plan cache leaves none (a cold run stays cold)."""
    program, edb = _figure3()
    assert DqsqEngine(program, edb, transport=_runtime("mp")).query(
        F3_QUERY).answers
    assert {p.name for p in _no_repro_children()} == {
        "repro-peer-r", "repro-peer-s", "repro-peer-t"}
    _runtime("mp").run(_burst_job(3))
    assert {p.name for p in _no_repro_children()} == {
        "repro-peer-sink", "repro-peer-src"}
    clear_plan_cache()
    assert _no_repro_children() == []


def test_mp_concurrent_diagnoses(e6_problem, e6_oracle):
    """Runs from several threads (more than the host's cores, switching
    often) share the fleet one at a time."""
    import sys

    petri, alarms = e6_problem
    config = repro.RunConfig(transport=_runtime("mp"))
    results: dict[int, object] = {}

    def _diagnose(index: int) -> None:
        results[index] = repro.diagnose(petri, alarms, method="dqsq",
                                        config=config).diagnoses

    threads = [threading.Thread(target=_diagnose, args=(i,))
               for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == dict.fromkeys(range(3), e6_oracle)


_PRINT_WORKERS = """
import multiprocessing
import repro
from repro.diagnosis.alarms import AlarmSequence
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
repro.diagnose(figure1_net(), AlarmSequence(figure1_alarm_scenarios()["bac"]),
               method="dqsq", config=repro.RunConfig(transport="mp"))
print(*(p.pid for p in multiprocessing.active_children()
        if p.name.startswith("repro-peer-")))
"""


def test_mp_fleet_dies_with_its_process():
    """The fleet outlives runs, not the process that forked it."""
    import os
    import subprocess
    import sys
    import time

    done = subprocess.run(
        [sys.executable, "-c", _PRINT_WORKERS], capture_output=True,
        text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 3

    def _alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    deadline = time.monotonic() + 10.0
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(map(_alive, pids))
