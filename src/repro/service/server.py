"""The multi-tenant diagnosis server: asyncio, stdlib, bends don't break.

:class:`DiagnosisService` is transport-agnostic -- its whole surface is
``await service.handle(request_dict) -> response_dict`` -- so the chaos
harness, the CI smoke job and unit tests drive it in-process while
:func:`serve_tcp` exposes the same object over asyncio streams with the
newline-delimited JSON protocol of :mod:`repro.service.protocol`.

Robustness contract (every clause tested):

* ``handle`` **never raises**: malformed requests become ``bad-request``,
  model-rejected alarms ``unknown-alarm``, overload ``overloaded``,
  broken stores ``snapshot-failed``, and anything unforeseen a counted
  ``internal`` refusal -- the connection and the other tenants live on;
* queues are **measured, bounded and refusable**: admission is checked
  against per-session and global watermarks *before* a session lock is
  taken, so a stuck session cannot absorb the service's headroom;
* **shed or degrade** is a policy choice (:attr:`ServiceConfig.on_overload`):
  shedding refuses with retry guidance, degrading tightens the session's
  diagnosis window (answers stay sound, get marked ``partial``) and only
  sheds past a hard limit of twice the watermark;
* sessions are **durable**: an ``open`` writes an initial snapshot, every
  ``checkpoint_interval``-th alarm rewrites it (with bounded-backoff
  retries), idle sessions are LRU-evicted to the store and transparently
  rehydrated, and a server kill/restart therefore loses at most the
  suffix since the last acknowledged checkpoint -- which the seq
  protocol lets clients replay idempotently.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (ServiceError, SnapshotStoreError,
                          UnknownAlarmError)
from repro.service.protocol import (decode_line, encode_response, error, ok,
                                    require_str)
from repro.service.session import DiagnosisSession, SessionConfig
from repro.service.store import MemorySnapshotStore, SnapshotStore
from repro.utils.counters import Counters
from repro.workloads.scenarios import SCENARIOS, get_scenario


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide policy knobs."""

    #: defaults for newly opened sessions
    session: SessionConfig = field(default_factory=SessionConfig)
    #: hard cap on sessions the service will ever hold (resident plus
    #: stored); ``None`` = unbounded.  Exceeding it refuses ``open``
    #: with ``service-full``.
    max_sessions: int | None = None
    #: LRU cap on sessions kept in memory; beyond it the least recently
    #: used session is snapshotted to the store and evicted
    max_resident: int = 1024
    #: per-session pending-alarm watermark (the bounded session queue)
    session_queue_limit: int = 16
    #: service-wide pending-alarm watermark (the bounded global queue)
    global_queue_limit: int = 1024
    #: what an over-watermark alarm gets: ``"shed"`` = structured
    #: ``overloaded`` refusal; ``"degrade"`` = admit, but tighten the
    #: session's window to ``session.degraded_window`` and mark every
    #: further answer ``partial`` (past 2x the watermark it sheds anyway
    #: -- degradation bounds work per alarm, not the queue itself)
    on_overload: str = "shed"
    #: snapshot-write attempts beyond the first before giving up and
    #: keeping the session resident (durability degrades, never
    #: correctness)
    snapshot_retries: int = 3
    #: base of the exponential retry backoff, seconds
    snapshot_backoff: float = 0.01

    def __post_init__(self) -> None:
        if self.on_overload not in ("shed", "degrade"):
            raise ValueError(
                f"on_overload must be 'shed' or 'degrade', "
                f"got {self.on_overload!r}")
        if self.max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        if self.session_queue_limit < 1 or self.global_queue_limit < 1:
            raise ValueError("queue limits must be >= 1")
        if self.snapshot_retries < 0:
            raise ValueError("snapshot_retries must be >= 0")


class DiagnosisService:
    """The serving layer over many :class:`DiagnosisSession` tenants."""

    def __init__(self, config: ServiceConfig | None = None,
                 store: SnapshotStore | None = None,
                 counters: Counters | None = None) -> None:
        self.config = config or ServiceConfig()
        self.store = store if store is not None else MemorySnapshotStore()
        self.counters = counters if counters is not None else Counters()
        #: resident sessions in least-recently-used order (front = LRU)
        self._resident: OrderedDict[str, DiagnosisSession] = OrderedDict()
        self._locks: dict[str, asyncio.Lock] = {}
        #: measured queues: alarms admitted but not yet answered
        self._pending: dict[str, int] = {}
        self._pending_total = 0

    # -- the one entry point -------------------------------------------------

    async def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """One request in, one structured response out; never raises."""
        try:
            op = request.get("op")
            if op == "ping":
                return ok(pong=True)
            if op == "stats":
                return self._stats()
            if op == "open":
                return await self._open(request)
            if op == "alarm":
                return await self._alarm(request)
            if op == "diagnoses":
                return await self._diagnoses(request)
            if op == "close":
                return await self._close(request)
            return error("bad-request", f"unknown op {op!r}")
        except ServiceError as err:
            return error("bad-request", str(err))
        except Exception as err:  # the bends-don't-break catch-all
            self.counters.add("service.internal_errors")
            return error("internal",
                         f"{type(err).__name__}: {err}")

    # -- session lifecycle ---------------------------------------------------

    def _lock(self, session_id: str) -> asyncio.Lock:
        return self._locks.setdefault(session_id, asyncio.Lock())

    def _touch(self, session_id: str) -> None:
        self._resident.move_to_end(session_id)

    async def _open(self, request: dict[str, Any]) -> dict[str, Any]:
        session_id = require_str(request, "session")
        async with self._lock(session_id):
            session = self._resident.get(session_id)
            if session is None:
                try:
                    data = await self._load(session_id)
                except SnapshotStoreError:
                    return error("snapshot-failed",
                                 f"session {session_id!r} exists but its "
                                 f"snapshot cannot be loaded; retry later",
                                 session=session_id, retry=True)
                if data is None:
                    return await self._open_fresh(session_id, request)
                session = self._rehydrate(session_id, data)
            # resume: resident or stored -- tell the client where it is
            self._touch(session_id)
            self.counters.add("service.sessions_resumed")
            return ok(session=session_id, resumed=True, seq=session.seq,
                      partial=session.partial, degraded=session.degraded)

    async def _open_fresh(self, session_id: str,
                          request: dict[str, Any]) -> dict[str, Any]:
        if self.config.max_sessions is not None:
            known = len(set(self._resident) | set(self.store.list_sessions()))
            if known >= self.config.max_sessions:
                return error("service-full",
                             f"service holds {known} sessions "
                             f"(max {self.config.max_sessions})",
                             limit=self.config.max_sessions)
        scenario = require_str(request, "scenario")
        try:
            petri, _alarms = get_scenario(scenario).instantiate()
        except KeyError:
            return error("bad-request",
                         f"unknown scenario {scenario!r}; known: "
                         f"{', '.join(sorted(SCENARIOS))}")
        session = DiagnosisSession(session_id, petri,
                                   config=self.config.session)
        self._resident[session_id] = session
        self.counters.add("service.sessions_opened")
        self.counters.set_max("service.sessions_active", len(self._resident))
        # the initial snapshot: a kill right after 'open' orphans nothing
        await self._snapshot(session)
        await self._evict_over_cap(keep=session_id)
        return ok(session=session_id, resumed=False, seq=0, partial=False,
                  degraded=False)

    async def _load(self, session_id: str) -> bytes | None:
        """The one store read of a rehydration, retried with backoff.

        ``None`` means the store holds no such session; a store that
        fails every attempt raises the last
        :class:`~repro.errors.SnapshotStoreError`.
        """
        attempt = 0
        while True:
            try:
                return self.store.load(session_id)
            except SnapshotStoreError:
                if attempt == self.config.snapshot_retries:
                    self.counters.add("service.snapshot_load_failures")
                    raise
            self.counters.add("service.snapshot_retries")
            await asyncio.sleep(self.config.snapshot_backoff * (2 ** attempt))
            attempt += 1

    def _rehydrate(self, session_id: str, data: bytes) -> DiagnosisSession:
        """Make the evicted session stored as ``data`` resident again."""
        session = DiagnosisSession.from_bytes(data)
        self._resident[session_id] = session
        self.counters.add("service.rehydrations")
        self.counters.set_max("service.sessions_active", len(self._resident))
        return session

    async def _require_session(
            self, session_id: str) -> DiagnosisSession | dict[str, Any]:
        """Resident session, rehydrating if stored; else an error response.

        Callers hold the session lock.
        """
        session = self._resident.get(session_id)
        if session is not None:
            self._touch(session_id)
            return session
        try:
            data = await self._load(session_id)
        except SnapshotStoreError:
            return error("snapshot-failed",
                         f"session {session_id!r} is evicted and its "
                         f"snapshot cannot be loaded; retry later",
                         session=session_id, retry=True)
        if data is None:
            return error("unknown-session",
                         f"session {session_id!r} was never opened "
                         f"(or was closed)", session=session_id)
        return self._rehydrate(session_id, data)

    async def _evict_over_cap(self, keep: str) -> None:
        """LRU-evict beyond ``max_resident``; never evicts ``keep``."""
        while len(self._resident) > self.config.max_resident:
            victim_id = next((sid for sid in self._resident if sid != keep),
                             None)
            if victim_id is None:
                return
            victim = self._resident[victim_id]
            persisted = await self._snapshot(victim)
            if self._resident.get(victim_id) is not victim:
                # the snapshot's backoff yielded and someone else evicted,
                # crashed or replaced the victim meanwhile -- re-assess
                continue
            if not persisted:
                # cannot persist it -- keep it resident rather than lose it
                self._touch(victim_id)
                return
            del self._resident[victim_id]
            self.counters.add("service.evictions")

    def drop_resident(self, session_id: str) -> bool:
        """Forget the in-memory copy of a session *without* snapshotting.

        The fault-injection surface: simulates a session crash (memory
        corruption, an evicting OOM kill of one tenant).  Whatever was
        applied since the last checkpoint is gone; the next request
        rehydrates from the store and the seq protocol lets clients
        detect the regression (the resumed ``seq``) and replay.
        """
        return self._resident.pop(session_id, None) is not None

    async def _snapshot(self, session: DiagnosisSession) -> bool:
        """Write the session's snapshot, retrying with backoff.

        A clean session -- nothing applied since the store last took
        it -- is already persisted: nothing is pickled or written.
        Returns ``False`` when every attempt failed; the session stays
        dirty and the caller keeps it resident so nothing is lost --
        durability degrades, correctness never.
        """
        if not session.dirty:
            self.counters.add("service.snapshots_skipped_clean")
            return True
        for attempt in range(self.config.snapshot_retries + 1):
            # pickled per attempt: the backoff yields, and what is saved
            # (and then called clean) must be the state as it is now
            data = session.snapshot_bytes()
            try:
                self.store.save(session.session_id, data)
            except SnapshotStoreError:
                if attempt == self.config.snapshot_retries:
                    self.counters.add("service.snapshot_failures")
                    return False
                self.counters.add("service.snapshot_retries")
                await asyncio.sleep(
                    self.config.snapshot_backoff * (2 ** attempt))
            else:
                session.dirty = False
                self.counters.add("service.snapshots_written")
                self.counters.add("service.snapshot_bytes_written", len(data))
                return True
        return False

    # -- the alarm path ------------------------------------------------------

    def _admission(self, session_id: str) -> dict[str, Any] | None:
        """Watermark check *before* the session lock; returns the
        refusal response for a shed alarm, ``None`` for an admitted one.

        Sets ``degrade`` pending state by returning ``None`` after
        marking -- degradation is applied under the lock (the session
        may not even be resident yet).
        """
        queued = self._pending.get(session_id, 0)
        session_limit = self.config.session_queue_limit
        global_limit = self.config.global_queue_limit
        over_session = queued >= session_limit
        over_global = self._pending_total >= global_limit
        if not over_session and not over_global:
            return None
        scope = "session" if over_session else "global"
        hard = (queued >= 2 * session_limit
                or self._pending_total >= 2 * global_limit)
        if self.config.on_overload == "shed" or hard:
            self.counters.add("service.shed")
            return error(
                "overloaded",
                f"{scope} alarm queue is full "
                f"({queued if scope == 'session' else self._pending_total}"
                f"/{session_limit if scope == 'session' else global_limit})",
                session=session_id, scope=scope, retry=True,
                queued=queued if scope == "session" else self._pending_total,
                limit=session_limit if scope == "session" else global_limit)
        return None

    async def _alarm(self, request: dict[str, Any]) -> dict[str, Any]:
        session_id = require_str(request, "session")
        symbol = require_str(request, "symbol")
        peer = require_str(request, "peer")
        seq = request.get("seq")
        if seq is not None and (not isinstance(seq, int)
                                or isinstance(seq, bool) or seq < 1):
            return error("bad-request",
                         f"seq must be a positive integer, got {seq!r}")
        refusal = self._admission(session_id)
        if refusal is not None:
            return refusal
        degrade = (self.config.on_overload == "degrade"
                   and (self._pending.get(session_id, 0)
                        >= self.config.session_queue_limit
                        or self._pending_total
                        >= self.config.global_queue_limit))
        self._pending[session_id] = self._pending.get(session_id, 0) + 1
        self._pending_total += 1
        self.counters.set_max("service.alarms_queued", self._pending_total)
        # Yield once between admission and the (possibly contended) lock:
        # over a socket transport every request passes a scheduling point
        # anyway; in-process drivers (tests, chaos) get the same
        # interleaving, so admission sees concurrent requests' pressure.
        await asyncio.sleep(0)
        try:
            async with self._lock(session_id):
                return await self._alarm_locked(session_id, symbol, peer,
                                                seq, degrade)
        finally:
            self._pending[session_id] -= 1
            if self._pending[session_id] <= 0:
                self._pending.pop(session_id, None)
            self._pending_total -= 1

    async def _alarm_locked(self, session_id: str, symbol: str, peer: str,
                            seq: int | None,
                            degrade: bool) -> dict[str, Any]:
        session = await self._require_session(session_id)
        if isinstance(session, dict):
            return session
        if degrade and not session.degraded:
            session.degrade()
            self.counters.add("service.degraded")
        # the seq protocol, *inside* the lock: pipelined in-order alarms
        # must see each other's effect before being gap-checked
        expected = session.seq + 1
        if seq is not None and seq <= session.seq:
            self.counters.add("service.duplicates_ignored")
            return ok(session=session_id, seq=session.seq, duplicate=True,
                      partial=session.partial, degraded=session.degraded)
        if seq is not None and seq > expected:
            self.counters.add("service.gap_rejections")
            return error("gap",
                         f"alarm seq {seq} skips ahead; expected {expected} "
                         f"-- replay the missing alarms first",
                         session=session_id, expected=expected, got=seq)
        try:
            body = session.apply(symbol, peer)
        except UnknownAlarmError as err:
            self.counters.add("service.alarms_rejected")
            return error("unknown-alarm", str(err), session=session_id,
                         alarm={"symbol": symbol, "peer": peer})
        self.counters.add("service.alarms_applied")
        if session.seq % session.config.checkpoint_interval == 0:
            await self._snapshot(session)
        await self._evict_over_cap(keep=session_id)
        return ok(**body)

    # -- the rest of the surface ---------------------------------------------

    async def _diagnoses(self, request: dict[str, Any]) -> dict[str, Any]:
        session_id = require_str(request, "session")
        async with self._lock(session_id):
            session = await self._require_session(session_id)
            if isinstance(session, dict):
                return session
            return ok(**session.diagnoses_payload())

    async def _close(self, request: dict[str, Any]) -> dict[str, Any]:
        session_id = require_str(request, "session")
        async with self._lock(session_id):
            existed = self._resident.pop(session_id, None) is not None
            try:
                if self.store.load(session_id) is not None:
                    existed = True
            except SnapshotStoreError:
                existed = True
            try:
                self.store.delete(session_id)
            except SnapshotStoreError:
                pass  # close is best-effort destructive; the id is dead
            self._locks.pop(session_id, None)
            if existed:
                self.counters.add("service.sessions_closed")
            return ok(session=session_id, closed=existed)

    def _stats(self) -> dict[str, Any]:
        try:
            stored = len(self.store.list_sessions())
        except SnapshotStoreError:
            stored = -1
        return ok(resident=len(self._resident), stored=stored,
                  pending=self._pending_total,
                  counters=self.counters.as_dict())


async def serve_tcp(service: DiagnosisService, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
    """Expose ``service`` over asyncio streams (newline-delimited JSON).

    Each connection is served by its own task reading one request line
    at a time; a garbage line earns a ``bad-request`` response, a
    disconnect mid-stream is counted and absorbed.  Returns the running
    server (``server.sockets[0].getsockname()`` has the bound port when
    ``port=0``).
    """

    async def _connection(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_line(line)
                except ServiceError as err:
                    response = error("bad-request", str(err))
                else:
                    response = await service.handle(request)
                writer.write(encode_response(response))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            service.counters.add("service.disconnects")
        except asyncio.CancelledError:
            pass  # server shutdown; the finally still closes the stream
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.start_server(_connection, host, port)
