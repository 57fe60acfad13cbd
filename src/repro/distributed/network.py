"""A simulated asynchronous message-passing network over lossy FIFO channels.

This is the substitution for the paper's real distributed deployment:
peers are in-process objects, channels are FIFO queues per (sender,
recipient) pair, and a seeded scheduler picks which peer receives next.
That peer takes a *batch*: every frame that can arrive on its channels
now, channel after channel in a seeded order, each channel's frames in
send order.  Its handler runs once per batch (Ameloot, Neven & Van den
Bussche's transducer transition reads a multiset of buffered messages,
then computes once).  The base model matches the paper's assumptions
exactly:

* communication is asynchronous -- messages from *different* senders
  interleave arbitrarily (the scheduler's choice of recipient and of
  channel order within a batch);
* per-channel order is preserved -- "for each individual peer the
  relative order of its alarms ... respects the order in which they
  were sent".

The paper additionally assumes the network is *reliable*: every sent
message is eventually delivered.  A :class:`FaultPlan` can inject loss
and delay, and the channel's data structure keeps that contract without
a protocol: a channel is a FIFO queue whose *head* is the only frame
that can arrive, and a lost transmission stays at the head and is sent
again.  Nothing can overtake it or arrive twice, so every logical
message reaches its recipient's handler **exactly once, in per-channel
FIFO order** -- the dQSQ peers, the distributed naive engine and the
Dijkstra-Scholten termination detector run unchanged on a lossy
substrate.  When one frame is lost more than ``max_retries`` times in a
row the network raises :class:`repro.errors.TransportExhausted` carrying
per-channel delivery statistics, which the diagnosis engine turns into
a partial-result report.

A :class:`PeerFaultPlan` extends the fault model from channels to
*processes*: peers can crash (losing all in-memory state), restart from
their latest checkpoint, and peer pairs can be partitioned for a window
of the run.  The network owns the checkpoint store: peers implementing
:class:`CheckpointablePeer` are snapshotted (pickled, so the snapshot is
isolated from later mutation) after each batch that crosses a multiple
of ``checkpoint_interval`` deliveries.  A peer is its state plus its
message buffer, so a channel keeps every frame its recipient took since
that recipient's latest checkpoint; the checkpoint releases them.  On
restart the network restores the snapshot and puts those frames back
at the head of their channels, in send order.  A frame that reaches its
recipient a second time is a recovery *replay*: it is exempt from loss
injection (the recovering peer rereads its own buffer, not the lossy
wire), and the termination detector skips the accounting its first
delivery did.  A peer that is down with no
scheduled restart is *permanently failed*: once only frames to failed
peers (or across unhealed partitions) remain, the network raises
:class:`repro.errors.PeerUnavailable` with a per-peer failure report,
which the engines turn into a sound degraded (partial) result.

Seeded schedules, fault plans and crash/recovery are simulator-only
capability that the multiprocessing transport deliberately does not
offer.  The network is the ``"sim"`` implementation of the pluggable
transport API (:mod:`repro.distributed.transport`): it structurally
satisfies the peer-facing :class:`~repro.distributed.transport.Transport`
protocol (``send``), and
:class:`~repro.distributed.transport.SimTransportRuntime` drives whole
evaluations over it.

A run's Dijkstra-Scholten detector (:attr:`Network.detector`) lives in
the delivery loop: ``send`` counts basic messages, each batch goes
through :meth:`~repro.distributed.termination.DijkstraScholten.deliver`
(accounting per message, the handler once, ``ds-ack`` messages consumed),
and crashes and restarts go to the detector's lifecycle hooks.
The run still ends by draining to global quiescence: the drain is what
raises :class:`repro.errors.TransportExhausted` /
:class:`repro.errors.PeerUnavailable` for partial results, and it is the
oracle the detector's verdict is tested against.
"""

from __future__ import annotations

import pickle
import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol, Sequence

from repro.distributed.termination import ACK_KIND, DijkstraScholten
from repro.errors import (DistributedError, NetworkClosedError,
                          PeerUnavailable, TransportExhausted,
                          UnknownPeerError)
from repro.utils.counters import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.transport import Transport


@dataclass(frozen=True)
class FaultPlan:
    """Failure-injection knobs, grouped (loss, delay, retry).

    The defaults describe the paper's idealized network: nothing is
    dropped or delayed, and the scheduler makes no draw but its choice
    of channel.
    """

    #: probability that a transmitted frame is lost in transit
    drop_probability: float = 0.0
    #: extra in-flight ticks per frame, drawn uniformly from ``(lo, hi)``
    delay_distribution: tuple[int, int] | None = None
    #: how many times one frame may be retransmitted before giving up
    max_retries: int = 25

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(f"drop_probability must be in [0, 1], "
                             f"got {self.drop_probability}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.delay_distribution is not None:
            lo, hi = self.delay_distribution
            if lo < 0 or hi < lo:
                raise ValueError(f"bad delay range ({lo}, {hi})")

    def sample_delay(self, rng: random.Random) -> int:
        if self.delay_distribution is None:
            return 0
        return rng.randint(*self.delay_distribution)


@dataclass(frozen=True)
class LinkPartition:
    """A bidirectional cut between two peers over a delivery window.

    The cut opens once ``start`` messages have been delivered and heals
    after ``heal_after`` further deliveries (``None`` = never); the
    scheduler looks at the window before each batch.
    While active, frames on the ``a<->b`` channels are retained, not
    lost; if the whole run stalls on a cut that has a heal scheduled,
    the heal is brought forward (delivery counts cannot advance through
    a global stall).
    """

    a: str
    b: str
    start: int = 0
    heal_after: int | None = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("a partition needs two distinct peers")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.heal_after is not None and self.heal_after < 1:
            raise ValueError("heal_after must be >= 1 (or None for a permanent cut)")


@dataclass(frozen=True)
class PeerFaultPlan:
    """Process-level failure injection: crashes, restarts and partitions.

    ``crash_at`` schedules deterministic crashes: peer ``p`` crashes in
    place of processing its k-th delivery (1-based, each listed k fires
    once) -- a batch is cut just before it, so the peer handles
    deliveries 1..k-1 and the crash takes the place of the k-th.  A
    crashed peer restarts after ``restart_after_deliveries`` further
    global deliveries (``None`` = permanent failure) by restoring its
    latest checkpoint; frames queued to it are retained, and sends to it
    queue until it is back.  Every peer a plan names must be registered
    on the network, or the first delivery raises
    :class:`~repro.errors.UnknownPeerError`.
    """

    #: peer name -> 1-based indices of deliveries-to-that-peer that crash it
    crash_at: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    #: global deliveries until a crashed peer restarts; None = stays dead
    restart_after_deliveries: int | None = None
    #: checkpoint a peer after each batch that crosses a multiple of k
    #: deliveries to it
    checkpoint_interval: int = 1
    #: link partitions between peer pairs, by delivery-count window
    partitions: tuple[LinkPartition, ...] = ()

    def __post_init__(self) -> None:
        if self.restart_after_deliveries is not None and self.restart_after_deliveries < 1:
            raise ValueError("restart_after_deliveries must be >= 1 (or None)")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        for peer, indices in self.crash_at.items():
            for k in indices:
                if k < 1:
                    raise ValueError(f"crash_at[{peer}] indices are 1-based, got {k}")

    def enabled(self) -> bool:
        """Whether any process-level fault can occur."""
        return bool(self.crash_at) or bool(self.partitions)


@dataclass(frozen=True)
class NetworkOptions:
    """Scheduler knobs plus the grouped failure-injection plans."""

    seed: int = 0
    #: messages a run may deliver before it is declared diverging
    max_deliveries: int = 1_000_000
    fault: FaultPlan = FaultPlan()
    peer_fault: PeerFaultPlan = PeerFaultPlan()

    def rng(self) -> random.Random:
        """The one seeded generator behind every scheduler and fault draw.

        Loss, delay and scheduling draws all come
        from this stream, so a run is replayable from ``seed`` alone
        (recorded in the ``net.seed`` counter of every result).
        """
        return random.Random(self.seed)


@dataclass(frozen=True)
class Message:
    """One logical message as seen by peer handlers."""

    sender: str
    recipient: str
    kind: str
    payload: Any


class PeerHandler(Protocol):
    """Anything that can receive messages from a transport.

    A transport hands a peer a batch -- every message it takes for that
    peer at once, per-channel FIFO -- and the handler runs once on it.
    Handlers are written against the peer-facing
    :class:`~repro.distributed.transport.Transport` protocol only, so
    the same peer runtime runs on the simulator and on the
    multiprocessing transport.
    """

    def on_messages(self, batch: Sequence[Message],
                    transport: "Transport") -> None:  # pragma: no cover
        ...


class CheckpointablePeer(PeerHandler, Protocol):
    """A peer whose state can be snapshotted and rolled back.

    ``checkpoint`` returns a picklable snapshot of the peer's mutable
    state taken at a batch boundary (the network pickles it, so the
    stored copy is isolated from later mutation).  ``restore`` replaces
    the peer's state with a snapshot -- or, given ``None``, resets the
    peer to its post-construction state.
    """

    def checkpoint(self) -> Any:  # pragma: no cover
        ...

    def restore(self, snapshot: Any) -> None:  # pragma: no cover
        ...


@dataclass
class _Frame:
    """One logical message on the wire, with its transmission history."""

    message: Message
    eligible_at: int            #: earliest clock tick this frame may arrive
    sent_at: int                #: clock tick of the original transmission
    retries: int = 0            #: transmissions lost so far
    #: set when the frame first reaches its recipient; a delivered frame
    #: back on the wire is a recovery replay, exempt from loss injection
    #: (a restarted peer rereads its own buffer, not the lossy wire)
    delivered: bool = False


@dataclass
class _PartitionState:
    """Mutable view of one :class:`LinkPartition` during a run."""

    spec: LinkPartition
    healed: bool = False

    def active(self, delivered: int) -> bool:
        if self.healed or delivered < self.spec.start:
            return False
        if self.spec.heal_after is None:
            return True
        return delivered < self.spec.start + self.spec.heal_after

    def heal_scheduled(self, delivered: int) -> bool:
        """Active now, but will heal on its own once deliveries advance."""
        return (self.active(delivered) and self.spec.heal_after is not None)


class Network:
    """Registry of peers plus the delivery scheduler and its channels."""

    def __init__(self, options: NetworkOptions | None = None) -> None:
        self.options = options or NetworkOptions()
        self.fault = self.options.fault
        self.peer_fault = self.options.peer_fault
        self.counters = Counters()
        self.counters.set_max("net.seed", self.options.seed)
        self._rng = self.options.rng()
        self._handlers: dict[str, PeerHandler] = {}
        self._channels: dict[tuple[str, str], deque[_Frame]] = {}
        #: per-channel delivery statistics (see :meth:`channel_stats`)
        self._stats: dict[tuple[str, str], dict[str, int]] = {}
        self._clock = 0
        self._closed = False
        self._monitors: list[Callable[[Message], None]] = []
        self._peer_faults = self.peer_fault.enabled()
        # -- peer lifecycle state -------------------------------------------
        self._down: dict[str, int | None] = {}          #: peer -> restart-at (deliveries)
        self._crash_schedule = {peer: sorted(ks)
                                for peer, ks in self.peer_fault.crash_at.items()}
        self._crash_counts: dict[str, int] = {}
        self._restart_counts: dict[str, int] = {}
        self._deliveries_to: dict[str, int] = {}
        self._delivered_total = 0
        self._checkpoints: dict[str, bytes] = {}
        #: per checkpointed peer: the frames it took since its latest
        #: checkpoint, in arrival order -- what a restart puts back
        self._retained: dict[str, list[_Frame]] = {}
        self._baseline_taken = False
        self._partitions = [_PartitionState(spec)
                            for spec in self.peer_fault.partitions]
        #: the run's termination detector, set before the first send; a
        #: bare network of test handlers carries none
        self.detector: DijkstraScholten | None = None

    # -- registration --------------------------------------------------------

    def register(self, name: str, handler: PeerHandler) -> None:
        if name in self._handlers:
            raise UnknownPeerError(f"peer {name} registered twice")
        self._handlers[name] = handler

    def peers(self) -> tuple[str, ...]:
        return tuple(sorted(self._handlers))

    def add_monitor(self, callback: Callable[[Message], None]) -> None:
        """Observe every delivery (used by the termination tests).

        Monitors see the messages handlers see plus the detector's
        ``ds-ack`` messages, never a lost transmission, one call per
        message as its batch is taken (before the handler runs).
        Recovery replays re-run handlers, so monitors see those too.
        """
        self._monitors.append(callback)

    # -- peer lifecycle ------------------------------------------------------

    def failed_peers(self) -> tuple[str, ...]:
        """Peers that are down with no restart scheduled."""
        return tuple(sorted(p for p, at in self._down.items() if at is None))

    def peer_report(self) -> dict[str, dict[str, int | bool]]:
        """Per-peer lifecycle and backlog summary (the degraded-run report)."""
        report: dict[str, dict[str, int | bool]] = {}
        for name in self.peers():
            held = sum(len(queue) for channel, queue in self._channels.items()
                       if channel[1] == name)
            report[name] = {
                "up": name not in self._down,
                "permanently_down": name in self._down and self._down[name] is None,
                "crashes": self._crash_counts.get(name, 0),
                "restarts": self._restart_counts.get(name, 0),
                "deliveries": self._deliveries_to.get(name, 0),
                "held_frames": held,
            }
        return report

    def _channel_open(self, channel: tuple[str, str]) -> bool:
        """Whether frames on ``channel`` may currently be delivered: its
        recipient is up and no active partition cuts it."""
        return channel[1] not in self._down and not any(
            part.active(self._delivered_total)
            and set(channel) == {part.spec.a, part.spec.b}
            for part in self._partitions)

    def _store_checkpoint(self, peer: str) -> None:
        handler = self._handlers[peer]
        self._checkpoints[peer] = pickle.dumps(
            handler.checkpoint(),  # type: ignore[attr-defined]
            protocol=pickle.HIGHEST_PROTOCOL)
        self._retained[peer] = []
        self.counters.add("net.recovery.checkpoints_taken")

    def _capture_baseline(self) -> None:
        """Checkpoint every checkpointable peer before the first delivery;
        only those can crash.

        Runs once, after every peer has registered, so it is also where
        the plan's peer names are checked: a crash or partition naming
        an unregistered peer would never fire, and the run would pass
        for a faulted one.
        """
        named = set(self.peer_fault.crash_at)
        for part in self.peer_fault.partitions:
            named.update((part.a, part.b))
        unknown = sorted(named - set(self._handlers))
        if unknown:
            raise UnknownPeerError(
                f"peer fault plan names unknown peer(s) {', '.join(unknown)} "
                f"(registered: {', '.join(self.peers())})")
        for name, handler in sorted(self._handlers.items()):
            if hasattr(handler, "checkpoint") and hasattr(handler, "restore"):
                self._store_checkpoint(name)
        self._baseline_taken = True

    def _should_crash(self, peer: str) -> bool:
        schedule = self._crash_schedule.get(peer)
        attempt = self._deliveries_to.get(peer, 0) + 1
        if schedule and schedule[0] <= attempt:
            schedule.pop(0)
            return True
        return False

    def _crash_peer(self, peer: str) -> None:
        """Take ``peer`` down, losing all state since its last checkpoint."""
        if peer not in self._checkpoints:
            raise DistributedError(
                f"peer {peer} cannot crash: its handler is not checkpointable")
        restart_after = self.peer_fault.restart_after_deliveries
        self._down[peer] = (self._delivered_total + restart_after
                            if restart_after is not None else None)
        self._crash_counts[peer] = self._crash_counts.get(peer, 0) + 1
        self.counters.add("net.recovery.crashes")
        if self.detector is not None:
            self.detector.on_peer_crash(peer, self)

    def _restart_peer(self, peer: str) -> None:
        """Bring ``peer`` back: restore its checkpoint and put the frames
        it took since then back at the head of their channels."""
        del self._down[peer]
        self._restart_counts[peer] = self._restart_counts.get(peer, 0) + 1
        self.counters.add("net.recovery.restarts")
        self._handlers[peer].restore(  # type: ignore[attr-defined]
            pickle.loads(self._checkpoints[peer]))
        self.counters.add("net.recovery.checkpoints_restored")
        for frame in reversed(self._retained[peer]):
            self._channels[frame.message.sender, peer].appendleft(frame)
        self._retained[peer] = []
        # Each inbound channel now leads with the frames the restored
        # state has not seen: these, plus any replays an earlier restart
        # left queued, all go out again now, ahead of the rest.
        replayed = 0
        for (_sender, recipient), queue in self._channels.items():
            if recipient != peer:
                continue
            for frame in queue:
                if not frame.delivered:
                    break
                frame.eligible_at = frame.sent_at = self._clock
                replayed += 1
        self.counters.add("net.recovery.frames_replayed", replayed)
        if self.detector is not None:
            self.detector.on_peer_restart(peer, replayed, self)

    def _process_due_restarts(self) -> None:
        for peer in sorted(self._down):
            restart_at = self._down[peer]
            if restart_at is not None and self._delivered_total >= restart_at:
                self._restart_peer(peer)

    def _force_next_event(self) -> bool:
        """A global stall cannot advance delivery counts: bring the
        earliest scheduled restart or partition heal forward.  Returns
        True when an event fired."""
        events: list[tuple[int, int, str]] = []
        for peer, restart_at in self._down.items():
            if restart_at is not None:
                events.append((restart_at, 0, peer))
        for index, part in enumerate(self._partitions):
            if part.heal_scheduled(self._delivered_total):
                events.append((part.spec.start + (part.spec.heal_after or 0),
                               1, str(index)))
        if not events:
            return False
        _at, kind, name = min(events)
        if kind == 0:
            self._restart_peer(name)
        else:
            self._partitions[int(name)].healed = True
            self.counters.add("net.recovery.partitions_healed")
        return True

    # -- sending / delivery ---------------------------------------------------

    def send(self, sender: str, recipient: str, kind: str, payload: Any) -> None:
        """Enqueue a logical message; raises for unknown recipients."""
        if self._closed:
            raise NetworkClosedError("network is closed")
        if recipient not in self._handlers:
            raise UnknownPeerError(f"unknown peer {recipient}")
        if self.detector is not None and kind != ACK_KIND:
            self.detector.on_basic_send(sender)
        message = Message(sender=sender, recipient=recipient, kind=kind,
                          payload=payload)
        channel = (sender, recipient)
        stats = self._stats.get(channel)
        if stats is None:
            stats = self._stats[channel] = {
                "sent": 0, "delivered": 0, "dropped": 0, "retransmits": 0}
        stats["sent"] += 1
        frame = _Frame(message=message,
                       eligible_at=self._eligible_tick(channel),
                       sent_at=self._clock)
        self._channels.setdefault(channel, deque()).append(frame)
        self.counters.add("messages_sent")
        self.counters.add(f"messages_sent[{kind}]")
        if kind == ACK_KIND:
            self.counters.add("messages_acked", payload)

    def _eligible_tick(self, channel: tuple[str, str]) -> int:
        """Sample a delivery delay, monotone per channel (FIFO on the wire)."""
        eligible = self._clock + self.fault.sample_delay(self._rng)
        queue = self._channels.get(channel)
        if queue:
            eligible = max(eligible, queue[-1].eligible_at)
        return eligible

    def pending(self) -> int:
        """Frames still on the wire (recovery replays included)."""
        return sum(len(q) for q in self._channels.values())

    # -- the scheduler -------------------------------------------------------

    def step(self) -> bool:
        """Deliver one batch to one scheduler-chosen recipient.

        The recipient is drawn among the peers with a frame due on an
        open channel.  Those of its channels are visited in one seeded
        shuffle, and each gives up its head frames in send order until a
        head is lost (it stays put for its retransmission) or is not yet
        due.  The batch is cut just before a scheduled crash, which then
        takes a step of its own in place of that delivery.  Returns
        False when no frame is on the wire -- i.e. the network is
        globally quiescent.  Raises :class:`repro.errors.PeerUnavailable`
        when undeliverable work remains but every holding channel leads
        to a permanently failed peer or across a permanent partition.
        """
        if self._peer_faults and not self._baseline_taken:
            self._capture_baseline()
        while True:
            self._process_due_restarts()
            nonempty = [key for key, queue in self._channels.items() if queue]
            deliverable = [key for key in nonempty if self._channel_open(key)]
            if deliverable:
                now = self._clock
                due = [key for key in deliverable
                       if self._channels[key][0].eligible_at <= now]
                if not due:
                    # Fast-forward the clock to the next arrival: delays are
                    # relative ticks, not wall time.
                    self._clock = min(self._channels[key][0].eligible_at
                                      for key in deliverable)
                    continue
                recipient = self._rng.choice(sorted({key[1] for key in due}))
                self._clock += 1
                if self._peer_faults and self._should_crash(recipient):
                    self._crash_peer(recipient)
                    return True
                channels = sorted(key for key in due if key[1] == recipient)
                self._rng.shuffle(channels)
                batch: list[tuple[Message, bool]] = []
                try:
                    self._drain(channels, now, self._batch_limit(recipient),
                                batch)
                finally:
                    # Frames taken before a head ran out of retries did
                    # arrive: their recipient handles them before the
                    # run degrades.
                    self._deliver(recipient, batch)
                return True
            if not nonempty:
                return False
            if self._force_next_event():
                continue
            raise PeerUnavailable(
                peers=self.failed_peers(), report=self.peer_report(),
                reason="undeliverable frames remain and no restart or "
                       "partition heal is scheduled")

    def _batch_limit(self, peer: str) -> int | None:
        """How many deliveries ``peer`` may take before its next crash."""
        schedule = self._crash_schedule.get(peer)
        if not schedule:
            return None
        return schedule[0] - self._deliveries_to.get(peer, 0) - 1

    def _drain(self, channels: list[tuple[str, str]], now: int,
               limit: int | None, batch: list[tuple[Message, bool]]) -> None:
        """Take the due head frames of ``channels``, in that order, into
        ``batch`` (at most ``limit`` of them)."""
        for channel in channels:
            queue = self._channels[channel]
            while (queue and queue[0].eligible_at <= now
                   and (limit is None or len(batch) < limit)):
                frame = queue[0]
                if self._lost(channel, frame):
                    break
                queue.popleft()
                batch.append(self._arrive(channel, frame))

    def _lost(self, channel: tuple[str, str], frame: _Frame) -> bool:
        """Draw the loss of ``frame``'s transmission; a lost frame stays at
        the head of its channel with a fresh delay."""
        if (frame.delivered or self.fault.drop_probability <= 0
                or self._rng.random() >= self.fault.drop_probability):
            return False
        stats = self._stats[channel]
        self.counters.add("net.dropped")
        stats["dropped"] += 1
        if frame.retries >= self.fault.max_retries:
            raise TransportExhausted(
                channel=channel, kind=frame.message.kind,
                retries=frame.retries, stats=self.channel_stats())
        frame.retries += 1
        frame.eligible_at = self._clock + self.fault.sample_delay(self._rng)
        self.counters.add("net.retransmits")
        stats["retransmits"] += 1
        return True

    def _arrive(self, channel: tuple[str, str],
                frame: _Frame) -> tuple[Message, bool]:
        """Account for one delivered frame; returns it with its replay flag.

        A frame that arrives a second time was taken by the recipient
        before a crash: the re-run skips the detector's accounting.
        """
        self._stats[channel]["delivered"] += 1
        self.counters.set_max("net.delivery_latency_max",
                              self._clock - frame.sent_at)
        replayed = frame.delivered
        frame.delivered = True
        if replayed:
            self.counters.add("net.recovery.deliveries_replayed")
        retained = self._retained.get(channel[1])
        if retained is not None:
            retained.append(frame)
        self.counters.add("messages_delivered")
        self._delivered_total += 1
        for monitor in self._monitors:
            monitor(frame.message)
        return frame.message, replayed

    def _deliver(self, recipient: str,
                 batch: list[tuple[Message, bool]]) -> None:
        """Run ``recipient``'s handler once on ``batch``."""
        if not batch:
            return
        self.counters.add("batches_delivered")
        handler = self._handlers[recipient]
        if self.detector is None:
            handler.on_messages([message for message, _ in batch], self)
        else:
            self.detector.deliver(handler, recipient, batch, self)
        if self._peer_faults:
            self._after_batch(recipient, len(batch))

    def _after_batch(self, peer: str, size: int) -> None:
        before = self._deliveries_to.get(peer, 0)
        count = self._deliveries_to[peer] = before + size
        interval = self.peer_fault.checkpoint_interval
        if peer in self._checkpoints and count // interval > before // interval:
            self._store_checkpoint(peer)

    def run_until_quiescent(self) -> int:
        """Step until no frame is on the wire; returns the messages
        delivered (``ds-ack`` and recovery replays included).

        Handlers run synchronously, so an empty network means global
        quiescence.  More than ``max_deliveries`` delivered messages turn
        livelock into an explicit error.  Raises
        :class:`TransportExhausted` when a frame runs out of retries and
        :class:`PeerUnavailable` when only permanently unreachable peers
        hold up the run.
        """
        start = self._delivered_total
        while self.step():
            if self._delivered_total - start > self.options.max_deliveries:
                raise NetworkClosedError(
                    f"exceeded {self.options.max_deliveries} deliveries; "
                    f"evaluation is probably diverging")
        return self._delivered_total - start

    # -- introspection --------------------------------------------------------

    def channel_stats(self) -> dict[str, dict[str, int]]:
        """Per-channel delivery statistics, keyed ``"sender->recipient"``."""
        return {f"{s}->{r}": dict(stats)
                for (s, r), stats in sorted(self._stats.items())
                if any(stats.values())}

    def close(self) -> None:
        self._closed = True
