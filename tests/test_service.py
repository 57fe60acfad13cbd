"""Tests for the streaming multi-tenant diagnosis server.

Covers the four robustness layers of :mod:`repro.service` one by one --
protocol framing, snapshot stores, session persistence, admission
control -- then the integrated promises: a server kill/restart loses no
session, and the TCP loop absorbs garbage and disconnects.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.bruteforce import bruteforce_diagnosis
from repro.errors import (ServiceError, ServiceOverloaded,
                          SnapshotStoreError, UnknownAlarmError)
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.service import (DiagnosisService, DiagnosisSession,
                           DirectorySnapshotStore, FlakySnapshotStore,
                           MemorySnapshotStore, ServiceConfig, SessionConfig,
                           SnapshotStore, decode_line, encode_response,
                           serve_tcp)
from repro.service.session import SNAPSHOT_VERSION
from repro.workloads.alarmgen import simulate_alarms
from repro.workloads.scenarios import get_scenario

BAC = [("b", "p1"), ("a", "p2"), ("c", "p1")]

# One draw of TestSnapshotRoundTrip (seed 244, 11 steps, window 8, cut
# after 6): under PYTHONHASHSEED=11 the two sessions differ if the
# diagnoser's state tables iterate in hash order.
ROUND_TRIP_SCRIPT = '''
import json
from repro.service import DiagnosisSession, SessionConfig
from repro.workloads.alarmgen import simulate_alarms
from repro.workloads.scenarios import get_scenario
petri, _alarms = get_scenario("telecom-small").instantiate()
alarms = list(simulate_alarms(petri, steps=11, seed=244))
live = DiagnosisSession("s", petri, SessionConfig(window=8, degraded_window=2))
for alarm in alarms[:6]:
    live.apply(alarm.symbol, alarm.peer)
evicted = DiagnosisSession.from_bytes(live.snapshot_bytes())
for alarm in alarms[6:]:
    live.apply(alarm.symbol, alarm.peer)
    evicted.apply(alarm.symbol, alarm.peer)
print(json.dumps([list(s.diagnoser.bp.events) for s in (live, evicted)]))
'''


def run(coro):
    return asyncio.run(coro)


def python_prints(script: str, *args: str, **env: str):
    """What ``script`` prints as JSON, run by a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


async def feed(service: DiagnosisService, session: str,
               alarms=BAC, start: int = 0) -> dict:
    response: dict = {}
    for i, (symbol, peer) in enumerate(alarms[start:], start=start + 1):
        response = await service.handle(
            {"op": "alarm", "session": session, "symbol": symbol,
             "peer": peer, "seq": i})
        assert response["ok"], response
    return response


# -- protocol ------------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        line = encode_response({"ok": True, "seq": 3})
        assert line.endswith(b"\n")
        assert json.loads(line) == {"ok": True, "seq": 3}

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError, match="not valid JSON"):
            decode_line(b"not json")
        with pytest.raises(ServiceError, match="JSON object"):
            decode_line(b"[1, 2]")
        with pytest.raises(ServiceError, match="unknown op"):
            decode_line(b'{"op": "frobnicate"}')

    def test_decode_accepts_known_ops(self):
        assert decode_line(b'{"op": "ping"}') == {"op": "ping"}


# -- snapshot stores -----------------------------------------------------------


class TestStores:
    def test_memory_store_round_trip(self):
        store = MemorySnapshotStore()
        assert store.load("s") is None
        store.save("s", b"abc")
        assert store.load("s") == b"abc"
        assert store.list_sessions() == ["s"]
        store.delete("s")
        store.delete("s")  # idempotent
        assert store.load("s") is None

    def test_directory_store_survives_reopen(self, tmp_path):
        store = DirectorySnapshotStore(str(tmp_path))
        store.save("client/7", b"xyz")  # id needs quoting
        again = DirectorySnapshotStore(str(tmp_path))
        assert again.load("client/7") == b"xyz"
        assert again.list_sessions() == ["client/7"]

    def test_stores_satisfy_protocol(self, tmp_path):
        assert isinstance(MemorySnapshotStore(), SnapshotStore)
        assert isinstance(DirectorySnapshotStore(str(tmp_path)),
                          SnapshotStore)

    def test_flaky_store_is_seeded(self):
        def failures(seed):
            store = FlakySnapshotStore(MemorySnapshotStore(), seed=seed,
                                       write_failure_probability=0.5)
            out = []
            for i in range(20):
                try:
                    store.save(f"s{i}", b"x")
                    out.append(True)
                except SnapshotStoreError:
                    out.append(False)
            return out

        assert failures(3) == failures(3)
        assert failures(3) != failures(4)


# -- sessions ------------------------------------------------------------------


class TestSession:
    def test_snapshot_bytes_round_trip(self):
        session = DiagnosisSession("s", figure1_net())
        session.apply("b", "p1")
        data = session.snapshot_bytes()
        session.apply("a", "p2")  # mutate after the snapshot

        restored = DiagnosisSession.from_bytes(data)
        assert restored.session_id == "s"
        assert restored.seq == 1
        restored.apply("a", "p2")
        restored.apply("c", "p1")
        batch = bruteforce_diagnosis(
            figure1_net(), AlarmSequence(BAC)).diagnoses
        assert restored.diagnoser.diagnoses() == batch

    def test_from_bytes_rejects_corrupt_snapshots(self):
        with pytest.raises(ServiceError, match="corrupt"):
            DiagnosisSession.from_bytes(b"not a pickle")
        with pytest.raises(ServiceError, match="version"):
            DiagnosisSession.from_bytes(pickle.dumps({"version": 99}))

    def test_from_bytes_refuses_bad_rows_and_old_layouts(self):
        session = DiagnosisSession("s", figure1_net())
        for symbol, peer in BAC:
            session.apply(symbol, peer)

        def tampered(edit) -> bytes:
            record = pickle.loads(session.snapshot_bytes())
            edit(record["diagnoser"])
            return pickle.dumps(record)

        def unknown_preset(state):
            eid, transition, _preset, depth = state["events"][0]
            state["events"][0] = (eid, transition, ("g(r,nowhere)",), depth)

        def orphan_condition(state):
            state["conditions"].append(("g(f(ghost),1)", "1", "f(ghost)", 1))

        edits = {
            "unknown preset condition": unknown_preset,
            "duplicate event": lambda state: state["events"].append(
                state["events"][0]),
            "duplicate condition": lambda state: state["conditions"].append(
                state["conditions"][0]),
            "unknown events": orphan_condition,
            "TypeError": lambda state: state["events"].append(("f(x)", "x")),
            "KeyError": lambda state: state.pop("table"),
        }
        for message, edit in edits.items():
            with pytest.raises(ServiceError, match=f"corrupt.*{message}"):
                DiagnosisSession.from_bytes(tampered(edit))
        # the untampered bytes still load: the edits were the only fault
        assert DiagnosisSession.from_bytes(tampered(lambda s: None)).seq == 3

        assert SNAPSHOT_VERSION == 2
        v1 = {"version": 1, "session_id": "s", "petri": figure1_net(),
              "config": SessionConfig(), "degraded": False, "diagnoser": {}}
        with pytest.raises(ServiceError, match="version 1"):
            DiagnosisSession.from_bytes(pickle.dumps(v1))

    def test_sessions_rehydrated_from_one_net_share_it(self):
        petri = figure1_net()
        a = DiagnosisSession.from_bytes(
            DiagnosisSession("a", petri).snapshot_bytes())
        b = DiagnosisSession.from_bytes(
            DiagnosisSession("b", petri).snapshot_bytes())
        assert a.petri is b.petri and a.petri is not petri
        assert a.diagnoser._symbols_of_peer is b.diagnoser._symbols_of_peer
        assert a.diagnoser.bp is not b.diagnoser.bp

    def test_snapshot_rebuilds_in_a_process_that_never_saw_the_net(
            self, tmp_path):
        session = DiagnosisSession("s", figure1_net())
        session.apply("b", "p1")
        path = tmp_path / "s.snapshot"
        path.write_bytes(session.snapshot_bytes())
        script = (
            "import json, sys\n"
            "from repro.service import DiagnosisSession\n"
            "s = DiagnosisSession.from_bytes(open(sys.argv[1], 'rb').read())\n"
            "s.apply('a', 'p2'); s.apply('c', 'p1')\n"
            "print(json.dumps(s.diagnoses_payload()))")
        rebuilt = python_prints(script, str(path))
        session.apply("a", "p2")
        session.apply("c", "p1")
        assert rebuilt == session.diagnoses_payload()

    def test_dirty_flag_follows_apply_and_degrade(self):
        session = DiagnosisSession("s", figure1_net())
        assert session.dirty  # never saved
        clean = DiagnosisSession.from_bytes(session.snapshot_bytes())
        assert not clean.dirty  # equals the bytes it came from
        with pytest.raises(UnknownAlarmError):
            clean.apply("b", "no-such-peer")
        assert not clean.dirty  # a refused alarm changes nothing
        clean.apply("b", "p1")
        assert clean.dirty
        clean = DiagnosisSession.from_bytes(session.snapshot_bytes())
        clean.degrade()
        assert clean.dirty

    def test_snapshot_size_stays_under_the_v1_layout(self):
        # the fixed stream benchmarks/e2e's session probe draws at seed 0;
        # the limits are what the v1 layout took for it
        petri, _alarms = get_scenario("telecom-small").instantiate()
        session = DiagnosisSession(
            "sz", petri, SessionConfig(window=8, degraded_window=2))
        limits = {10: 5110, 50: 26588, 150: 27388}
        stream = simulate_alarms(petri, steps=150, seed=225)
        for seq, alarm in enumerate(stream, start=1):
            session.apply(alarm.symbol, alarm.peer)
            if seq in limits:
                assert len(session.snapshot_bytes()) < limits[seq]
        assert session.seq == 150

    def test_degrade_is_sticky_and_marks_partial(self):
        session = DiagnosisSession("s", figure1_net(),
                                   SessionConfig(window=8, degraded_window=1))
        assert not session.partial
        session.degrade()
        assert session.degraded and session.partial
        assert session.diagnoser.window == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="degraded_window"):
            SessionConfig(window=2, degraded_window=4)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            SessionConfig(checkpoint_interval=0)


def _state(session: DiagnosisSession) -> dict:
    """Everything a session holds, dict and list order included."""
    diagnoser, bp = session.diagnoser, session.diagnoser.bp
    counters = diagnoser.counters.as_dict()
    counters.pop("restores", None)  # counts the rehydrations themselves
    return {
        "conditions": list(bp.conditions.items()),
        "events": list(bp.events.items()),
        "postset": list(bp.postset.items()),
        "consumers": list(bp.consumers.items()),
        "roots": bp.roots,
        "events_by_key": list(bp._events_by_key.items()),
        "conditions_by_place": list(bp._conditions_by_place.items()),
        "table": diagnoser._table,
        "streams": diagnoser._streams,
        "received": diagnoser.received(),
        "window": (diagnoser.window, diagnoser.window_lossy),
        "counters": counters,
        "session": (session.session_id, session.config, session.degraded,
                    session.seq, session.partial),
    }


class TestSnapshotRoundTrip:
    """An evicted-and-rehydrated session is the session that never left."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 30),
           window=st.sampled_from([2, 8, None]), degrade=st.booleans(),
           data=st.data())
    def test_rehydrated_session_equals_the_live_one(self, seed, steps, window,
                                                    degrade, data):
        petri, _alarms = get_scenario("telecom-small").instantiate()
        alarms = list(simulate_alarms(petri, steps=steps, seed=seed))
        cut = data.draw(st.integers(0, len(alarms)))
        live = DiagnosisSession(
            "s", petri, SessionConfig(window=window, degraded_window=2))
        for alarm in alarms[:cut]:
            live.apply(alarm.symbol, alarm.peer)
        if degrade:
            live.degrade()

        evicted = DiagnosisSession.from_bytes(live.snapshot_bytes())
        assert _state(evicted) == _state(live)
        assert evicted.diagnoser.counters["restores"] == 1
        for alarm in alarms[cut:]:
            assert evicted.apply(alarm.symbol, alarm.peer) \
                == live.apply(alarm.symbol, alarm.peer)
        assert evicted.diagnoses_payload() == live.diagnoses_payload()
        assert _state(evicted) == _state(live)

    def test_event_order_survives_rehydration_at_the_seed_that_failed(self):
        live_events, evicted_events = python_prints(ROUND_TRIP_SCRIPT,
                                                    PYTHONHASHSEED="11")
        assert len(live_events) > 6
        assert evicted_events == live_events


# -- the service: lifecycle and the alarm path ---------------------------------


class TestServiceBasics:
    def test_full_session_lifecycle(self):
        async def scenario():
            service = DiagnosisService()
            opened = await service.handle(
                {"op": "open", "session": "s", "scenario": "figure1-bac"})
            assert opened["ok"] and not opened["resumed"]
            last = await feed(service, "s")
            assert last["seq"] == 3 and last["consistent"]
            result = await service.handle(
                {"op": "diagnoses", "session": "s"})
            batch = bruteforce_diagnosis(
                figure1_net(), AlarmSequence(BAC)).diagnoses
            assert frozenset(frozenset(d) for d in result["diagnoses"]) \
                == batch
            closed = await service.handle({"op": "close", "session": "s"})
            assert closed["closed"]
            gone = await service.handle({"op": "diagnoses", "session": "s"})
            assert gone["error"] == "unknown-session"

        run(scenario())

    def test_duplicate_and_gap_seq(self):
        async def scenario():
            service = DiagnosisService()
            await service.handle({"op": "open", "session": "s",
                                  "scenario": "figure1-bac"})
            await feed(service, "s", BAC[:1])
            duplicate = await service.handle(
                {"op": "alarm", "session": "s", "symbol": "b",
                 "peer": "p1", "seq": 1})
            assert duplicate["ok"] and duplicate["duplicate"]
            assert service.counters["service.alarms_applied"] == 1
            gap = await service.handle(
                {"op": "alarm", "session": "s", "symbol": "c",
                 "peer": "p1", "seq": 5})
            assert gap["error"] == "gap" and gap["expected"] == 2

        run(scenario())

    def test_invalid_alarm_is_structured_not_fatal(self):
        async def scenario():
            service = DiagnosisService()
            await service.handle({"op": "open", "session": "s",
                                  "scenario": "figure1-bac"})
            bad = await service.handle(
                {"op": "alarm", "session": "s", "symbol": "zzz",
                 "peer": "p1"})
            assert bad["error"] == "unknown-alarm"
            assert bad["alarm"] == {"symbol": "zzz", "peer": "p1"}
            # the session is unharmed
            assert (await feed(service, "s"))["consistent"]

        run(scenario())

    def test_handle_never_raises(self):
        async def scenario():
            service = DiagnosisService()
            for request in [{}, {"op": "alarm"}, {"op": "open"},
                            {"op": "alarm", "session": "s", "symbol": "b",
                             "peer": "p1", "seq": -3},
                            {"op": "open", "session": "s",
                             "scenario": "nope"}]:
                response = await service.handle(request)
                assert response["ok"] is False, request

        run(scenario())

    def test_service_full(self):
        async def scenario():
            service = DiagnosisService(ServiceConfig(max_sessions=1))
            assert (await service.handle(
                {"op": "open", "session": "a",
                 "scenario": "figure1-bac"}))["ok"]
            refused = await service.handle(
                {"op": "open", "session": "b", "scenario": "figure1-bac"})
            assert refused["error"] == "service-full"

        run(scenario())


class TestEvictionAndRehydration:
    def test_lru_eviction_then_transparent_rehydration(self):
        async def scenario():
            service = DiagnosisService(ServiceConfig(max_resident=1))
            for sid in ("a", "b"):
                await service.handle({"op": "open", "session": sid,
                                      "scenario": "figure1-bac"})
            # opening "b" evicted "a" to the store
            assert service.counters["service.evictions"] >= 1
            await feed(service, "a")  # rehydrates on first alarm
            assert service.counters["service.rehydrations"] >= 1
            result = await service.handle({"op": "diagnoses", "session": "a"})
            assert result["ok"] and result["seq"] == 3

        run(scenario())

    def test_failed_snapshot_keeps_session_resident(self):
        async def scenario():
            store = FlakySnapshotStore(MemorySnapshotStore(), seed=0,
                                       write_failure_probability=1.0)
            service = DiagnosisService(
                ServiceConfig(max_resident=1, snapshot_retries=1,
                              snapshot_backoff=0.0),
                store=store)
            for sid in ("a", "b"):
                opened = await service.handle(
                    {"op": "open", "session": sid,
                     "scenario": "figure1-bac"})
                assert opened["ok"]  # open succeeds though snapshots fail
            # both sessions stay resident: durability degraded, no loss
            assert await feed(service, "a")
            assert await feed(service, "b")
            assert service.counters["service.snapshot_failures"] >= 2
            assert service.counters["service.evictions"] == 0

        run(scenario())


    def test_eviction_after_a_checkpoint_writes_nothing(self):
        async def scenario():
            service = DiagnosisService(ServiceConfig(
                max_resident=1, session=SessionConfig(checkpoint_interval=1)))
            await service.handle({"op": "open", "session": "a",
                                  "scenario": "figure1-bac"})
            await feed(service, "a")  # every alarm checkpointed: "a" is clean
            written = service.counters["service.snapshots_written"]
            nbytes = service.counters["service.snapshot_bytes_written"]
            assert written == 4 and nbytes > 0
            await service.handle({"op": "open", "session": "b",
                                  "scenario": "figure1-bac"})
            assert service.counters["service.evictions"] == 1
            assert service.counters["service.snapshots_skipped_clean"] == 1
            # the one write since is "b"'s initial snapshot
            assert service.counters["service.snapshots_written"] == written + 1
            # reading "a" back leaves it clean: evicting it again is free
            result = await service.handle({"op": "diagnoses", "session": "a"})
            assert result["ok"] and result["seq"] == 3
            await service.handle({"op": "open", "session": "c",
                                  "scenario": "figure1-bac"})
            assert service.counters["service.evictions"] == 3
            assert service.counters["service.snapshots_written"] == written + 2
            stats = await service.handle({"op": "stats"})
            assert stats["counters"]["service.snapshots_skipped_clean"] == 3
            assert stats["counters"]["service.snapshot_bytes_written"] > nbytes

        run(scenario())

    def test_failed_save_leaves_the_session_dirty_until_a_write_lands(self):
        async def scenario():
            store = FlakySnapshotStore(MemorySnapshotStore(), seed=0)
            service = DiagnosisService(
                ServiceConfig(max_resident=1, snapshot_retries=1,
                              snapshot_backoff=0.0,
                              session=SessionConfig(checkpoint_interval=100)),
                store=store)
            await service.handle({"op": "open", "session": "a",
                                  "scenario": "figure1-bac"})
            await feed(service, "a")  # applied, not checkpointed: dirty
            store.write_failure_probability = 1.0
            await service.handle({"op": "open", "session": "b",
                                  "scenario": "figure1-bac"})
            # neither save landed: both stay resident, both stay dirty
            assert service.counters["service.evictions"] == 0
            assert service.counters["service.snapshot_failures"] == 2
            assert service._resident["a"].dirty and service._resident["b"].dirty
            written = service.counters["service.snapshots_written"]

            store.write_failure_probability = 0.0
            await feed(service, "b", BAC[:1])
            # still over the cap, and this time the eviction's write lands
            assert service.counters["service.evictions"] == 1
            assert service.counters["service.snapshots_written"] == written + 1
            assert service.counters["service.snapshots_skipped_clean"] == 0
            assert "a" not in service._resident
            result = await service.handle({"op": "diagnoses", "session": "a"})
            assert result["ok"] and result["seq"] == 3  # nothing was lost

        run(scenario())

    def test_rehydration_reads_the_store_once(self):
        class CountingStore(MemorySnapshotStore):
            loads = 0

            def load(self, session_id):
                self.loads += 1
                return super().load(session_id)

        async def scenario():
            store = CountingStore()
            service = DiagnosisService(ServiceConfig(max_resident=1),
                                       store=store)
            for sid in ("a", "b"):
                await service.handle({"op": "open", "session": sid,
                                      "scenario": "figure1-bac"})
            assert store.loads == 2  # one existence read per fresh open
            await feed(service, "a", BAC[:1])  # rehydrates "a"
            assert store.loads == 3
            reopened = await service.handle(
                {"op": "open", "session": "b", "scenario": "figure1-bac"})
            assert reopened["resumed"] and store.loads == 4
            unknown = await service.handle(
                {"op": "diagnoses", "session": "nobody"})
            assert unknown["error"] == "unknown-session"
            assert store.loads == 5

        run(scenario())

    def test_load_failures_retry_then_answer_snapshot_failed(self):
        async def scenario():
            store = FlakySnapshotStore(MemorySnapshotStore(), seed=0)
            service = DiagnosisService(
                ServiceConfig(max_resident=1, snapshot_retries=2,
                              snapshot_backoff=0.0), store=store)
            for sid in ("a", "b"):
                await service.handle({"op": "open", "session": sid,
                                      "scenario": "figure1-bac"})
            store.load_failure_probability = 1.0
            for request in ({"op": "diagnoses", "session": "a"},
                            {"op": "open", "session": "a",
                             "scenario": "figure1-bac"}):
                refused = await service.handle(request)
                assert refused["error"] == "snapshot-failed"
                assert refused["retry"]
            # per request: one read and two retries, every one of them failed
            assert store.injected_load_failures == 6
            assert service.counters["service.snapshot_retries"] == 4
            assert service.counters["service.snapshot_load_failures"] == 2
            store.load_failure_probability = 0.0
            result = await service.handle({"op": "diagnoses", "session": "a"})
            assert result["ok"]

        run(scenario())


class TestKillRestart:
    def test_server_restart_loses_no_session(self):
        """The tentpole acceptance test: kill the server object, start a
        fresh one over the same store, and the session continues."""

        async def scenario():
            store = MemorySnapshotStore()
            config = ServiceConfig(
                session=SessionConfig(checkpoint_interval=1))
            service = DiagnosisService(config, store=store)
            await service.handle({"op": "open", "session": "s",
                                  "scenario": "figure1-bac"})
            await feed(service, "s", BAC[:2])

            reborn = DiagnosisService(config, store=store)  # the restart
            resumed = await reborn.handle(
                {"op": "open", "session": "s", "scenario": "figure1-bac"})
            assert resumed["resumed"] and resumed["seq"] == 2
            await feed(reborn, "s", BAC, start=2)
            result = await reborn.handle({"op": "diagnoses", "session": "s"})
            batch = bruteforce_diagnosis(
                figure1_net(), AlarmSequence(BAC)).diagnoses
            assert frozenset(frozenset(d) for d in result["diagnoses"]) \
                == batch
            assert not result["partial"]

        run(scenario())

    def test_restart_from_directory_store(self, tmp_path):
        async def scenario():
            config = ServiceConfig()
            service = DiagnosisService(
                config, store=DirectorySnapshotStore(str(tmp_path)))
            await service.handle({"op": "open", "session": "s",
                                  "scenario": "figure1-bac"})
            await feed(service, "s")
            # a genuinely new process would build everything from disk
            reborn = DiagnosisService(
                config, store=DirectorySnapshotStore(str(tmp_path)))
            result = await reborn.handle({"op": "diagnoses", "session": "s"})
            assert result["ok"] and result["seq"] == 3

        run(scenario())


class TestAdmissionControl:
    @staticmethod
    def _burst(service, session, count):
        return [service.handle({"op": "alarm", "session": session,
                                "symbol": "b", "peer": "p1", "seq": 1})
                for _ in range(count)]

    def test_shed_policy_refuses_structured(self):
        async def scenario():
            service = DiagnosisService(
                ServiceConfig(session_queue_limit=1, on_overload="shed"))
            await service.handle({"op": "open", "session": "s",
                                  "scenario": "figure1-bac"})
            responses = await asyncio.gather(*self._burst(service, "s", 4))
            shed = [r for r in responses if not r["ok"]]
            assert shed and all(r["error"] == "overloaded" for r in shed)
            assert all(r["scope"] in ("session", "global") and r["retry"]
                       for r in shed)
            assert service.counters["service.shed"] == len(shed)

        run(scenario())

    def test_degrade_policy_tightens_and_marks_partial(self):
        async def scenario():
            service = DiagnosisService(
                ServiceConfig(session=SessionConfig(window=8,
                                                    degraded_window=1),
                              session_queue_limit=1,
                              on_overload="degrade"))
            await service.handle({"op": "open", "session": "s",
                                  "scenario": "figure1-bac"})
            responses = await asyncio.gather(*self._burst(service, "s", 2))
            assert any(r["ok"] for r in responses)
            assert service.counters["service.degraded"] == 1
            # every further answer is explicitly partial
            result = await service.handle({"op": "diagnoses", "session": "s"})
            assert result["partial"] and result["degraded"]

        run(scenario())

    def test_degrade_still_sheds_past_hard_limit(self):
        async def scenario():
            service = DiagnosisService(
                ServiceConfig(session_queue_limit=1,
                              on_overload="degrade"))
            await service.handle({"op": "open", "session": "s",
                                  "scenario": "figure1-bac"})
            responses = await asyncio.gather(*self._burst(service, "s", 8))
            assert any(not r["ok"] and r["error"] == "overloaded"
                       for r in responses)

        run(scenario())

    def test_service_overloaded_error_shape(self):
        err = ServiceOverloaded("s", queued=5, limit=4)
        assert err.session_id == "s" and err.scope == "session"
        assert "5" in str(err) and "4" in str(err)


# -- the TCP loop --------------------------------------------------------------


class TestServeTcp:
    def test_tcp_round_trip_and_garbage(self):
        async def scenario():
            service = DiagnosisService()
            server = await serve_tcp(service)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def ask(payload: bytes) -> dict:
                writer.write(payload + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            opened = await ask(json.dumps(
                {"op": "open", "session": "t",
                 "scenario": "figure1-bac"}).encode())
            assert opened["ok"]
            garbage = await ask(b"}{ not json")
            assert garbage["error"] == "bad-request"
            # the connection survived the garbage line
            pong = await ask(b'{"op": "ping"}')
            assert pong["pong"]
            writer.close()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_tcp_disconnect_mid_stream_is_absorbed(self):
        async def scenario():
            service = DiagnosisService()
            server = await serve_tcp(service)
            port = server.sockets[0].getsockname()[1]
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "open", "session": "d", '
                         b'"scenario": "figure1-bac"}\n')
            await writer.drain()
            writer.close()  # vanish without reading the response
            await asyncio.sleep(0.05)
            # the server is still alive and the session was created
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", port)
            writer2.write(b'{"op": "open", "session": "d", '
                          b'"scenario": "figure1-bac"}\n')
            await writer2.drain()
            resumed = json.loads(await reader2.readline())
            assert resumed["ok"] and resumed["resumed"]
            writer2.close()
            server.close()
            await server.wait_closed()

        run(scenario())
