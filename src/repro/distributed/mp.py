"""The multiprocessing transport: each peer in its own OS process.

This is the deployment half of the transport split (see
:mod:`repro.distributed.transport`): the same peer runtimes that run on
the deterministic simulator run here on real OS processes, exchanging
pickled frames over ``multiprocessing`` queues.  Local fixpoints at
distinct peers execute genuinely in parallel -- each worker has its own
interpreter and its own GIL.  No measurement shows that making a run
faster: on a 2-cpu Linux host the end-to-end benchmark reads
``fanout-mp`` 3.6x *slower* than ``fanout-sim`` (``op_p50_ms`` 283.1
against 79.3 ms at ``--seed 0``, medians).  Until a recording on real
multi-core hardware says otherwise, mp is a conformance target (same
answers as the simulator), not a performance feature.

Architecture
------------

* one **worker process** per peer.  A worker builds its peer from the
  job's :class:`~repro.distributed.transport.PeerSpec` (so peer state
  never crosses a process boundary mid-run), then loops on its inbox
  queue: one blocking ``get``, then ``get_nowait`` until the queue is
  empty or a control item arrives.  The data frames taken so far are one
  batch and run the peer's ``on_messages`` handler once; a collect item
  found behind them ends the loop after that batch.  Handlers see a
  :class:`_WorkerTransport`, which satisfies the peer-facing
  :class:`~repro.distributed.transport.Transport` protocol -- ``send``
  puts a frame directly on the recipient worker's inbox (full mesh, no
  router hop);
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
* the **coordinator** (the calling process) blocks on that ``done``
  item, watching every worker for an error report or a silent death
  meanwhile, then collects each worker's store and counters.

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

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass
from typing import Any

from repro.datalog.database import Database, Fact, RelationKey
from repro.distributed.network import Message
from repro.distributed.termination import ACK_KIND, DijkstraScholten
from repro.distributed.transport import (TransportJob, TransportOutcome,
                                         snapshot_peer_counters)
from repro.errors import DistributedError, UnknownPeerError
from repro.utils.counters import Counters

# Control-plane tags.  Data frames are ("msg", sender, kind, payload);
# everything else is coordinator traffic on the same inbox queue, so a
# worker needs exactly one blocking get() point.
_MSG = "msg"
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

    def send(self, sender: str, recipient: str, kind: str,
             payload: Any) -> None:
        inbox = self.inboxes.get(recipient)
        if inbox is None:
            raise UnknownPeerError(f"unknown peer {recipient}")
        if kind != ACK_KIND:
            self.detector.on_basic_send(sender)
        self.counters.add("messages_sent")
        self.counters.add(f"messages_sent[{kind}]")
        if kind == ACK_KIND:
            self.counters.add("messages_acked", payload)
        inbox.put((_MSG, sender, kind, payload))


def _snapshot_database(peer: Any) -> dict[RelationKey, list[Fact]] | None:
    db = getattr(peer, "db", None)
    if db is None:
        return None
    return {key: list(db.facts(key)) for key in db.relations()}


def _worker_main(name: str, job: TransportJob,
                 inboxes: dict[str, Any], coordinator: Any) -> None:
    """Entry point of one peer process."""
    detector = DijkstraScholten(job.origin)
    transport = _WorkerTransport(name, inboxes, detector)
    try:
        peer = job.peers[name].build(name)
        is_root = name == job.origin
        if is_root:
            detector.start(lambda: job.start(peer, transport), transport)
        reported = False
        inbox = inboxes[name]
        while True:
            if is_root and detector.terminated and not reported:
                coordinator.put((_DONE, name))
                reported = True
            # One batch: everything queued, up to the first control item,
            # which is acted on once the batch is delivered.
            batch: list[tuple[Message, bool]] = []
            item = inbox.get()
            while item is not None and item[0] == _MSG:
                _tag, sender, kind, payload = item
                batch.append((Message(sender=sender, recipient=name,
                                      kind=kind, payload=payload), False))
                try:
                    item = inbox.get_nowait()
                except queue_module.Empty:
                    item = None
            if batch:
                transport.counters.add("messages_delivered", len(batch))
                transport.counters.add("batches_delivered")
                detector.deliver(peer, name, batch, transport)
            if item is None:
                continue
            tag = item[0]
            if tag == _COLLECT:
                counters = snapshot_peer_counters(peer)
                counters.merge(transport.counters)
                coordinator.put((_SNAPSHOT, name, _snapshot_database(peer),
                                 counters))
                return
            else:  # pragma: no cover - defensive
                raise DistributedError(f"unknown control tag {tag!r}")
    except BaseException:
        coordinator.put((_ERROR, name, traceback.format_exc()))


class MpTransportRuntime:
    """Runs a :class:`TransportJob` with one OS process per peer."""

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

    def _context(self) -> Any:
        """Fork (fast, POSIX) when available, else spawn."""
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        return multiprocessing.get_context(method)

    def run(self, job: TransportJob) -> TransportOutcome:
        self._check_confluence(job)
        ctx = self._context()
        names = sorted(job.peers)
        inboxes = {name: ctx.Queue() for name in names}
        coordinator = ctx.Queue()
        processes = {
            name: ctx.Process(target=_worker_main, name=f"repro-peer-{name}",
                              args=(name, job, inboxes, coordinator),
                              daemon=True)
            for name in names}
        counters = Counters()
        counters.add("mp.workers", len(names))
        deadline = time.monotonic() + self.config.timeout
        try:
            for process in processes.values():
                process.start()
            self._await_verdict(job.origin, coordinator, processes, deadline)
            snapshots = self._collect(names, inboxes, coordinator,
                                      processes, deadline)
        finally:
            self._shutdown(processes, (*inboxes.values(), coordinator),
                           counters)

        databases: dict[str, Database] = {}
        per_peer: dict[str, Counters] = {}
        deliveries = 0
        for name in names:
            facts, peer_counters = snapshots[name]
            if facts is not None:
                db = Database()
                for key, tuples in facts.items():
                    db.add_all(key, tuples, assume_ground=True)
                databases[name] = db
            per_peer[name] = peer_counters
            deliveries += peer_counters["messages_delivered"]
        counters.set_max("mp.deliveries", deliveries)
        # collection starts only on the root's verdict
        return TransportOutcome(
            databases=databases, per_peer=per_peer, counters=counters,
            deliveries=deliveries, terminated_by_detector=True)

    def _shutdown(self, processes: dict[str, Any], queues: tuple[Any, ...],
                  counters: Counters) -> None:
        """Tear the worker fleet down without leaving orphans.

        Runs on *every* exit path (success, timeout, worker error,
        ``KeyboardInterrupt``), so it must cope with workers in any
        state -- including blocked mid-``put`` on a queue whose feeder
        thread can deadlock the child's interpreter at exit.  Order
        matters:

        1. terminate whatever is still alive;
        2. drain every queue (``get_nowait`` until empty) -- this
           unblocks feeder threads on both sides so children can
           actually exit;
        3. join with a bounded timeout;
        4. anything *still* alive gets ``kill()`` (SIGKILL) and a final
           join -- a stuck child must not outlive the run;
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
        grace = self.config.shutdown_grace
        for process in processes.values():
            process.join(timeout=grace)
        for process in processes.values():
            if process.is_alive():
                counters.add("mp.workers_killed")
                process.kill()
                process.join(timeout=max(grace, 5.0))
        for q in queues:
            q.close()
            q.cancel_join_thread()

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


def default_parallelism() -> int:
    """Usable CPU count (for benchmark sizing, not a hard limit)."""
    return max(1, os.cpu_count() or 1)
