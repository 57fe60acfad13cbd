"""The multiprocessing transport: each peer in its own OS process.

This is the deployment half of the transport split (see
:mod:`repro.distributed.transport`): the same peer runtimes that run on
the deterministic simulator run here on real OS processes, exchanging
pickled frames over ``multiprocessing`` queues.  Local fixpoints at
distinct peers execute genuinely in parallel -- each worker has its own
interpreter and its own GIL.  No measurement shows that making a run
faster: on a 2-cpu Linux host the end-to-end benchmark reads
``fanout-mp`` about 1.35x *slower* than ``fanout-sim`` (see
docs/transport.md for the medians).  Until a recording on real
multi-core hardware says otherwise, mp is a conformance target (same
answers as the simulator), not a performance feature.

Architecture
------------

* one **worker process** per peer name, kept for the life of the calling
  process (the *fleet*).  It is forked on the first run, so it inherits
  the caller's tables at that moment, and every later run over the same
  peer names reuses it -- the paper's "if a peer receives the same
  request from different peers, it reuses the same machinery" (Section
  3.2), across runs.  A worker keeps each
  :class:`~repro.distributed.transport.PeerSpec` it is sent, under a
  handle that lives as long as the job's program, and builds a fresh
  peer from the kept spec on every run: the spec's kwargs hold the
  worker's copy of the dQSQ rewriting table, so the rules it installed
  before, their join plans and their promoted kernels stay live, while
  the store, the counters and the termination detector start new.  In
  a run a worker loops on its inbox queue: one blocking ``get``, then
  ``get_nowait`` until the queue is empty or a control item arrives.
  The data frames taken so far are one batch and run the peer's
  ``on_messages`` handler once; a collect item found behind them ends
  the run after that batch.  Handlers see a :class:`_WorkerTransport`,
  which satisfies the peer-facing
  :class:`~repro.distributed.transport.Transport` protocol -- ``send``
  does the message's accounting and buffers it per (sender, recipient);
  once the start action or a batch has run, each buffer goes as one
  frame, in send order, directly on the recipient worker's inbox (full
  mesh, no router hop);
* every worker runs its *own*
  :class:`~repro.distributed.termination.DijkstraScholten` instance in
  its delivery loop -- the algorithm is naturally decentralized (a node
  touches only its own state; engagement acks travel as ordinary
  messages), so per-process instances implement exactly the distributed
  protocol the paper points to.  The origin's worker is the root: once
  its detector declares termination (possibly right after the start
  action, when the query needs no message) it puts a ``done`` item on
  the coordinator queue.  At that instant no basic message is in
  flight anywhere;
* the **coordinator** (the calling process) sends each worker its run
  item, blocks on that ``done`` item, watching every worker for an
  error report or a silent death meanwhile, then collects each worker's
  store and counters.  One lock serializes runs on the fleet.

The fleet is torn down (terminate, drain, join, kill) when a run fails,
when a job names another set of peers (queues are shared only by
inheritance), on :func:`repro.datalog.plan.clear_plan_cache` (a cold run
stays cold) and at interpreter exit.

Delivery guarantees: queues are reliable and per-sender FIFO, so every
logical message is delivered exactly once and each channel preserves
send order -- the paper's network assumptions, this time provided by the
operating system rather than kept by the simulator's channels.  What the
OS does *not* provide is a seeded cross-sender schedule: arrival order
between senders is real nondeterminism.  The runtime therefore gates
jobs on the DD701-DD703 confluence verdict of the static analyzer --
out-of-order apply is coordination-free only for the monotone/confluent
fragment -- and refuses order-sensitive jobs unless explicitly
overridden with :attr:`MpConfig.allow_nonconfluent`.

Simulator-only features (fault injection, crash/recovery, partitions)
are rejected up front by
:func:`repro.distributed.transport.resolve_transport`.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import queue as queue_module
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.plan import hold_plans
from repro.datalog.rule import Program
from repro.distributed.network import Message
from repro.distributed.termination import ACK_KIND, DijkstraScholten
from repro.distributed.transport import (PeerSpec, TransportJob,
                                         TransportOutcome,
                                         snapshot_peer_counters)
from repro.errors import DistributedError, UnknownPeerError
from repro.utils.counters import Counters

# Control-plane tags.  A data frame is ("msg", sender, [(kind, payload),
# ...]): what one sender sent one recipient in one batch, in send order;
# everything else is coordinator traffic on the same inbox queue, so a
# worker needs exactly one blocking get() point.  A run item is
# ("run", handle, spec or None, origin, start or None): the spec is
# shipped only when the worker keeps no equal one under the handle, and
# only the origin's worker gets the start action.
_MSG = "msg"
_RUN = "run"
_FORGET = "forget"
_COLLECT = "collect"
_DONE = "done"
_SNAPSHOT = "snapshot"
_ERROR = "error"

_CONFLUENCE_CODES = ("DD701", "DD702", "DD703")


@dataclass(frozen=True)
class MpConfig:
    """Knobs of the multiprocessing transport."""

    #: wall-clock budget for one run; exceeding it kills the workers and
    #: raises (a distributed livelock must not hang the caller forever)
    timeout: float = 120.0
    #: run even when the DD701-DD703 confluence verdict is not clean --
    #: the answers are then schedule-dependent, exactly what the verdict
    #: warns about.  Off by default; the simulator is the right place
    #: for order-sensitive programs.
    allow_nonconfluent: bool = False
    #: how long shutdown waits for a terminated worker to exit before
    #: escalating to ``kill()`` (SIGKILL)
    shutdown_grace: float = 5.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.shutdown_grace < 0:
            raise ValueError("shutdown_grace must be >= 0")


class _WorkerTransport:
    """The peer-facing transport stub inside one worker process."""

    def __init__(self, name: str, inboxes: dict[str, Any],
                 detector: DijkstraScholten) -> None:
        self.name = name
        self.inboxes = inboxes
        self.detector = detector
        self.counters = Counters()
        #: (sender, recipient) -> (kind, payload) sent since the last flush
        self.pending: dict[tuple[str, str], list[tuple[str, Any]]] = {}

    def send(self, sender: str, recipient: str, kind: str,
             payload: Any) -> None:
        if recipient not in self.inboxes:
            raise UnknownPeerError(f"unknown peer {recipient}")
        if kind != ACK_KIND:
            self.detector.on_basic_send(sender)
        self.counters.add("messages_sent")
        self.counters.add(f"messages_sent[{kind}]")
        if kind == ACK_KIND:
            self.counters.add("messages_acked", payload)
        self.pending.setdefault((sender, recipient), []).append((kind, payload))

    def flush(self) -> None:
        """Put each channel's buffered messages on its inbox as one frame."""
        for (sender, recipient), messages in self.pending.items():
            self.inboxes[recipient].put((_MSG, sender, messages))
            self.counters.add("frames_sent")
        self.pending = {}


def _snapshot_database(peer: Any) -> dict[RelationKey, list[Fact]] | None:
    db = getattr(peer, "db", None)
    if db is None:
        return None
    return {key: list(db.facts(key)) for key in db.relations()}


# -- the worker side -----------------------------------------------------------


def _worker_main(name: str, inboxes: dict[str, Any], coordinator: Any) -> None:
    """Entry point of one peer process: serve runs until terminated."""
    try:
        _worker_loop(name, inboxes, coordinator)
    except BaseException:
        coordinator.put((_ERROR, name, traceback.format_exc()))


def _worker_loop(name: str, inboxes: dict[str, Any], coordinator: Any) -> None:
    """Wait for run items and serve each; keep the specs they ship."""
    kept: dict[int, PeerSpec] = {}
    # frames a peer sent before this worker took its own run item
    early: list[tuple] = []
    inbox = inboxes[name]
    while True:
        item = inbox.get()
        tag = item[0]
        if tag == _MSG:
            early.append(item)
        elif tag == _FORGET:
            kept.pop(item[1], None)
        elif tag == _RUN:
            _tag, handle, spec, origin, start = item
            if spec is None:
                spec = kept[handle]
            elif handle is not None:
                kept[handle] = spec
            _serve(name, spec, origin, start, inboxes, coordinator, early)
            early = []
        else:  # pragma: no cover - defensive
            raise DistributedError(f"unknown control tag {tag!r}")


def _serve(name: str, spec: PeerSpec, origin: str,
           start: Callable[[Any, Any], None] | None, inboxes: dict[str, Any],
           coordinator: Any, early: list[tuple]) -> None:
    """One run at this worker: a fresh peer, store and detector, until
    the coordinator collects."""
    detector = DijkstraScholten(origin)
    transport = _WorkerTransport(name, inboxes, detector)
    peer = spec.build(name)
    if start is not None:
        detector.start(lambda: start(peer, transport), transport)
        transport.flush()
    reported = False
    inbox = inboxes[name]
    frames = early
    while True:
        if start is not None and detector.terminated and not reported:
            coordinator.put((_DONE, name))
            reported = True
        # One batch: the early frames and everything queued, up to the
        # first control item, which is acted on once the batch is
        # delivered.
        try:
            item = inbox.get_nowait() if frames else inbox.get()
        except queue_module.Empty:
            item = None
        while item is not None and item[0] == _MSG:
            frames.append(item)
            try:
                item = inbox.get_nowait()
            except queue_module.Empty:
                item = None
        if frames:
            batch = [(Message(sender=sender, recipient=name, kind=kind,
                              payload=payload), False)
                     for _tag, sender, messages in frames
                     for kind, payload in messages]
            frames = []
            transport.counters.add("messages_delivered", len(batch))
            transport.counters.add("batches_delivered")
            detector.deliver(peer, name, batch, transport)
            transport.flush()
        if item is None:
            continue
        if item[0] != _COLLECT:  # pragma: no cover - defensive
            raise DistributedError(f"unknown control tag {item[0]!r}")
        counters = snapshot_peer_counters(peer)
        counters.merge(transport.counters)
        coordinator.put((_SNAPSHOT, name, _snapshot_database(peer), counters))
        return


# -- the fleet -----------------------------------------------------------------


def _context() -> Any:
    """Fork (fast, POSIX) when available, else spawn."""
    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    return multiprocessing.get_context(method)


class _Fleet:
    """One worker per peer name, the queues between them, and the specs
    each worker keeps."""

    def __init__(self, names: tuple[str, ...]) -> None:
        ctx = _context()
        self.names = names
        self.inboxes = {name: ctx.Queue() for name in names}
        self.coordinator = ctx.Queue()
        self.processes = {
            name: ctx.Process(target=_worker_main, name=f"repro-peer-{name}",
                              args=(name, self.inboxes, self.coordinator),
                              daemon=True)
            for name in names}
        #: handle -> peer name -> the spec that peer's worker keeps
        self.kept: dict[int, dict[str, PeerSpec]] = {}


#: serializes runs on the fleet, and its creation and teardown
_LOCK = threading.Lock()
_FLEET: _Fleet | None = None
#: job program -> the handle the workers keep its specs under
_HANDLES: "weakref.WeakKeyDictionary[Program, int]" = weakref.WeakKeyDictionary()
_NEXT_HANDLE = itertools.count()
#: handles whose program died; the workers are told under the lock
_FORGOTTEN: list[int] = []


def _handle(program: Program | None) -> int | None:
    """The handle of ``program``'s specs, minted on first use."""
    if program is None:
        return None
    handle = _HANDLES.get(program)
    if handle is None:
        handle = _HANDLES[program] = next(_NEXT_HANDLE)
        weakref.finalize(program, _forget, handle).atexit = False
    return handle


def _forget(handle: int) -> None:
    """A program died: its workers drop the specs kept under its handle.
    Deferred to the next run when a run (perhaps this thread's: the
    collector may run anywhere) holds the lock."""
    _FORGOTTEN.append(handle)
    if _LOCK.acquire(blocking=False):
        try:
            _send_forgets()
        finally:
            _LOCK.release()


def _send_forgets() -> None:
    while _FORGOTTEN:
        handle = _FORGOTTEN.pop()
        if _FLEET is not None and _FLEET.kept.pop(handle, None) is not None:
            for inbox in _FLEET.inboxes.values():
                inbox.put((_FORGET, handle))


def _fleet_for(names: tuple[str, ...], grace: float) -> _Fleet:
    """The live fleet over ``names``, forked when there is none."""
    global _FLEET
    fleet = _FLEET
    if fleet is not None and (fleet.names != names or not all(
            process.is_alive() for process in fleet.processes.values())):
        _teardown(grace)
        fleet = None
    if fleet is None:
        fleet = _FLEET = _Fleet(names)
        for process in fleet.processes.values():
            process.start()
    return fleet


def _teardown(grace: float = MpConfig.shutdown_grace) -> None:
    global _FLEET
    fleet, _FLEET = _FLEET, None
    if fleet is not None:
        # a fork that failed midway left the later workers unstarted
        started = {name: process for name, process in fleet.processes.items()
                   if process.pid is not None}
        _shutdown(started, (*fleet.inboxes.values(), fleet.coordinator),
                  grace)


def _clear_fleet() -> None:
    with _LOCK:
        _teardown()


hold_plans(_clear_fleet)
atexit.register(_teardown)


def _shutdown(processes: dict[str, Any], queues: tuple[Any, ...],
              grace: float) -> None:
    """Tear the worker fleet down without leaving orphans.

    Runs on every teardown (a failed run, another peer set, a cleared
    plan cache, interpreter exit), so it must cope with workers in any
    state -- including blocked mid-``put`` on a queue whose feeder
    thread can deadlock the child's interpreter at exit.  Order
    matters:

    1. terminate whatever is still alive;
    2. drain every queue (``get_nowait`` until empty) -- this
       unblocks feeder threads on both sides so children can
       actually exit;
    3. join with a bounded timeout;
    4. anything *still* alive gets ``kill()`` (SIGKILL) and a final
       join -- a stuck child must not outlive the fleet;
    5. close the queues and cancel their join threads so the
       coordinator process itself cannot hang at interpreter exit.
    """
    for process in processes.values():
        if process.is_alive():
            process.terminate()
    for q in queues:
        while True:
            try:
                q.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                break
    for process in processes.values():
        process.join(timeout=grace)
    for process in processes.values():
        if process.is_alive():
            process.kill()
            process.join(timeout=max(grace, 5.0))
    for q in queues:
        q.close()
        q.cancel_join_thread()


class MpTransportRuntime:
    """Runs a :class:`TransportJob` on the fleet: one OS process per peer."""

    features = frozenset({"parallel"})

    def __init__(self, config: MpConfig | None = None) -> None:
        self.config = config or MpConfig()

    # -- the confluence gate -------------------------------------------------

    def _check_confluence(self, job: TransportJob) -> None:
        if self.config.allow_nonconfluent:
            return
        if job.order_sensitive:
            raise DistributedError(
                "this job evaluates with fire-time negation "
                "(order-sensitive by construction); the multiprocessing "
                "transport cannot schedule it deterministically -- run on "
                "transport='sim', or opt in with "
                "MpConfig(allow_nonconfluent=True)")
        if job.program is None:
            return
        from repro.datalog.analysis import check_confluence
        findings = [d for d in check_confluence(job.program)
                    if d.code in _CONFLUENCE_CODES]
        if findings:
            detail = "; ".join(f"{d.code} {d.slug}" for d in findings[:4])
            raise DistributedError(
                f"program is not confluent under message reordering "
                f"({detail}): the multiprocessing transport applies "
                f"deliveries out of order, which is only sound for the "
                f"monotone/confluent fragment.  Run on transport='sim' "
                f"(seeded schedules) or opt in with "
                f"MpConfig(allow_nonconfluent=True)")

    # -- the run -------------------------------------------------------------

    def run(self, job: TransportJob) -> TransportOutcome:
        self._check_confluence(job)
        names = tuple(sorted(job.peers))
        handle = _handle(job.program)
        counters = Counters()
        counters.add("mp.workers", len(names))
        with _LOCK:
            deadline = time.monotonic() + self.config.timeout
            try:
                fleet = _fleet_for(names, self.config.shutdown_grace)
                _send_forgets()
                self._start(fleet, job, handle)
                self._await_verdict(job.origin, fleet.coordinator,
                                    fleet.processes, deadline)
                snapshots = self._collect(list(names), fleet.inboxes,
                                          fleet.coordinator, fleet.processes,
                                          deadline)
            except BaseException:
                _teardown(self.config.shutdown_grace)
                raise

        databases: dict[str, Database] = {}
        per_peer: dict[str, Counters] = {}
        deliveries = 0
        for name in names:
            facts, peer_counters = snapshots[name]
            if facts is not None:
                databases[name] = Database.from_relations(facts)
            per_peer[name] = peer_counters
            deliveries += peer_counters["messages_delivered"]
        counters.set_max("mp.deliveries", deliveries)
        # collection starts only on the root's verdict
        return TransportOutcome(
            databases=databases, per_peer=per_peer, counters=counters,
            deliveries=deliveries, terminated_by_detector=True)

    @staticmethod
    def _start(fleet: _Fleet, job: TransportJob, handle: int | None) -> None:
        """Send each worker its run item, with the spec it does not keep."""
        kept = None if handle is None else fleet.kept.setdefault(handle, {})
        for name in fleet.names:
            spec: PeerSpec | None = job.peers[name]
            if kept is not None:
                if kept.get(name) == spec:
                    spec = None
                else:
                    kept[name] = job.peers[name]
            start = job.start if name == job.origin else None
            fleet.inboxes[name].put((_RUN, handle, spec, job.origin, start))

    # -- coordinator protocol ------------------------------------------------

    def _fail(self, processes: dict[str, Any], reason: str) -> DistributedError:
        for process in processes.values():
            if process.is_alive():
                process.terminate()
        return DistributedError(reason)

    def _drain_coordinator(self, coordinator: Any, processes: dict[str, Any],
                           deadline: float, expect: str,
                           pending: set[str]) -> list[tuple]:
        """Gather one ``expect`` item from each ``pending`` worker.

        Meanwhile every worker that has not replied is watched, not only
        the awaited ones: an error report or a silent death anywhere
        fails the run at once (a dead non-root worker would otherwise
        leave the root waiting for its acknowledgements until the
        timeout).
        """
        replies: list[tuple] = []
        replied: set[str] = set()
        pending = set(pending)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise self._fail(processes,
                                 f"multiprocessing transport timed out after "
                                 f"{self.config.timeout:.1f}s awaiting "
                                 f"{expect} from {sorted(pending)}")
            try:
                item = coordinator.get(timeout=min(remaining, 1.0))
            except queue_module.Empty:
                dead = [name for name in sorted(processes)
                        if name not in replied
                        and not processes[name].is_alive()]
                if dead:
                    raise self._fail(
                        processes,
                        f"peer process(es) {dead} died without reporting "
                        f"(exitcodes "
                        f"{[processes[d].exitcode for d in dead]})") from None
                continue
            if item[0] == _ERROR:
                _tag, name, trace = item
                raise self._fail(processes,
                                 f"peer {name!r} raised in its worker "
                                 f"process:\n{trace}")
            replies.append(item)
            replied.add(item[1])
            pending.discard(item[1])
        return replies

    def _await_verdict(self, origin: str, coordinator: Any,
                       processes: dict[str, Any], deadline: float) -> None:
        """Block until the root worker's detector declares termination."""
        self._drain_coordinator(coordinator, processes, deadline, _DONE,
                                {origin})

    def _collect(self, names: list[str], inboxes: dict[str, Any],
                 coordinator: Any, processes: dict[str, Any],
                 deadline: float,
                 ) -> dict[str, tuple[dict[RelationKey, list[Fact]] | None,
                                      Counters]]:
        for name in names:
            inboxes[name].put((_COLLECT,))
        replies = self._drain_coordinator(coordinator, processes, deadline,
                                          _SNAPSHOT, set(names))
        return {name: (facts, counters)
                for _tag, name, facts, counters in replies}
