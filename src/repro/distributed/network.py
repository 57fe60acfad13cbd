"""A simulated asynchronous message-passing network with a reliability layer.

This is the substitution for the paper's real distributed deployment:
peers are in-process objects, channels are FIFO queues per (sender,
recipient) pair, and a seeded scheduler picks which channel delivers
next.  The base model matches the paper's assumptions exactly:

* communication is asynchronous -- messages from *different* senders
  interleave arbitrarily (scheduler choice);
* per-channel order is preserved -- "for each individual peer the
  relative order of its alarms ... respects the order in which they
  were sent".

The paper additionally assumes the network is *reliable*: no message is
ever lost.  Real supervisor deployments do not get that for free, so a
:class:`FaultPlan` can inject loss, delay and duplication, and the
network then activates a reliable-delivery layer (per-channel sequence
numbers, cumulative acknowledgements, receiver-side deduplication and
reordering buffers, sender-side retransmission with a bounded retry
budget).  The layer restores exactly the paper's contract at the handler
boundary: every logical message is delivered to its recipient's handler
**exactly once, in per-channel FIFO order** -- so the dQSQ peers, the
distributed naive engine and the Dijkstra-Scholten termination detector
(which must count only first deliveries of basic messages) run unchanged
on a lossy substrate.  When the retry budget is exhausted the network
raises :class:`repro.errors.TransportExhausted` carrying per-channel
delivery statistics, which the diagnosis engine turns into a
partial-result report.

A :class:`PeerFaultPlan` extends the fault model from channels to
*processes*: peers can crash (losing all in-memory state), restart from
their latest checkpoint, and peer pairs can be partitioned for a window
of the run.  The network owns the checkpoint store: peers implementing
:class:`CheckpointablePeer` are snapshotted (pickled, so the snapshot is
isolated from later mutation) every ``checkpoint_interval`` deliveries,
and on restart the network restores the snapshot, rolls the peer's
inbound channel cursors back to the checkpointed sequence numbers, and
*replays* the retained per-channel message log across the gap.  Replayed
frames are exempt from loss injection (a recovering peer reads them from
the sender-side log, not the lossy wire) and are flagged so protocol
layers above (the termination detector) can tell a recovery re-delivery
from a first delivery.  A peer that is down with no scheduled restart is
*permanently failed*: once only frames to failed peers (or across
unhealed partitions) remain, the network raises
:class:`repro.errors.PeerUnavailable` with a per-peer failure report,
which the engines turn into a sound degraded (partial) result.

Since PR 6 the network is the ``"sim"`` implementation of the pluggable
transport API (:mod:`repro.distributed.transport`): it structurally
satisfies the peer-facing :class:`~repro.distributed.transport.Transport`
protocol (``send`` / ``delivering_replayed``), and
:class:`~repro.distributed.transport.SimTransportRuntime` drives whole
evaluations over it.  Everything above this paragraph -- seeded
schedules, fault plans, crash/recovery -- is simulator-only capability that the multiprocessing transport
deliberately does not offer.
"""

from __future__ import annotations

import pickle
import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol

from repro.errors import (NetworkClosedError, PeerUnavailable,
                          TransportExhausted, UnknownPeerError)
from repro.utils.counters import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.transport import Transport

#: base retransmission timeout, in global deliveries: a frame is re-sent
#: once this many deliveries (plus the current wire backlog) elapse
#: without an ack
ACK_TIMEOUT_DELIVERIES = 16


@dataclass(frozen=True)
class FaultPlan:
    """Failure-injection knobs, grouped (loss, delay, duplication, retry).

    The defaults describe the paper's idealized network: nothing is
    dropped, delayed or duplicated, and the reliability layer stays out
    of the way entirely.
    """

    #: probability that a transmitted frame is lost in transit
    drop_probability: float = 0.0
    #: probability that a delivered frame arrives again (and is suppressed)
    duplicate_probability: float = 0.0
    #: extra in-flight ticks per frame; ``(lo, hi)`` uniform or callable
    delay_distribution: tuple[int, int] | Callable[[random.Random], int] | None = None
    #: how many times one frame may be retransmitted before giving up
    max_retries: int = 25

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if isinstance(self.delay_distribution, tuple):
            lo, hi = self.delay_distribution
            if lo < 0 or hi < lo:
                raise ValueError(f"bad delay range ({lo}, {hi})")

    def needs_reliability(self) -> bool:
        """Whether the reliable-delivery layer must engage."""
        return (self.drop_probability > 0 or self.duplicate_probability > 0
                or self.delay_distribution is not None)

    def sample_delay(self, rng: random.Random) -> int:
        if self.delay_distribution is None:
            return 0
        if isinstance(self.delay_distribution, tuple):
            lo, hi = self.delay_distribution
            return rng.randint(lo, hi)
        return max(0, int(self.delay_distribution(rng)))


@dataclass(frozen=True)
class LinkPartition:
    """A bidirectional cut between two peers over a delivery window.

    The cut opens once ``start`` handler deliveries have happened and
    heals after ``heal_after`` further deliveries (``None`` = never).
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
    once).  A crashed peer restarts after ``restart_after_deliveries``
    further global deliveries (``None`` = permanent failure) by restoring
    its latest checkpoint; frames queued to it are retained, and sends
    to it queue until it is back.  Any non-default field activates the
    reliable transport: crash recovery leans on its sequence numbers.
    Every peer a plan names must be registered on the network, or the
    first delivery raises :class:`~repro.errors.UnknownPeerError`.
    """

    #: peer name -> 1-based indices of deliveries-to-that-peer that crash it
    crash_at: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    #: global deliveries until a crashed peer restarts; None = stays dead
    restart_after_deliveries: int | None = None
    #: checkpoint a peer after every k-th delivery to it
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
    max_deliveries: int = 1_000_000
    fault: FaultPlan = FaultPlan()
    peer_fault: PeerFaultPlan = PeerFaultPlan()

    def rng(self) -> random.Random:
        """The one seeded generator behind every scheduler and fault draw.

        Loss, delay, duplication and scheduling draws all come
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
    seq: int


class PeerHandler(Protocol):
    """Anything that can receive messages from a transport.

    Handlers are written against the peer-facing
    :class:`~repro.distributed.transport.Transport` protocol only, so
    the same peer runtime runs on the simulator and on the
    multiprocessing transport.
    """

    def on_message(self, message: Message, transport: "Transport") -> None:  # pragma: no cover
        ...


class CheckpointablePeer(PeerHandler, Protocol):
    """A peer whose state can be snapshotted and rolled back.

    ``checkpoint`` returns a picklable snapshot of the peer's mutable
    state taken at a handler boundary (the network pickles it, so the
    stored copy is isolated from later mutation).  ``restore`` replaces
    the peer's state with a snapshot -- or, given ``None``, resets the
    peer to its post-construction state.
    """

    def checkpoint(self) -> Any:  # pragma: no cover
        ...

    def restore(self, snapshot: Any) -> None:  # pragma: no cover
        ...


class LifecycleListener(Protocol):
    """Observer of peer crash/restart/recovery events.

    The Dijkstra-Scholten detector registers as one so it can settle the
    crashed peer's acknowledgement obligations and treat the restarted
    peer as the root of a recovery sub-computation.
    """

    def on_peer_crash(self, peer: str, network: "Network") -> None:  # pragma: no cover
        ...

    def on_peer_restart(self, peer: str, network: "Network") -> None:  # pragma: no cover
        ...

    def on_peer_recovered(self, peer: str, network: "Network") -> None:  # pragma: no cover
        ...


_ACK = "__transport-ack__"


@dataclass
class _Frame:
    """One transmission on the wire (a logical message or a transport ack)."""

    message: Message
    channel_seq: int            #: per-channel sequence number (1-based)
    eligible_at: int            #: earliest clock tick this frame may arrive
    is_ack: bool = False
    ack_value: int = 0          #: cumulative: all channel_seq <= value received
    #: recovery re-delivery from the retained log: exempt from loss
    #: injection (a restarted peer reads the log, not the lossy wire)
    is_replay: bool = False


@dataclass
class _Pending:
    """Sender-side bookkeeping for an unacknowledged frame."""

    message: Message
    channel_seq: int
    sent_at: int                #: clock tick of the original transmission
    last_tx: int                #: clock tick of the latest (re)transmission
    retries: int = 0
    #: copies currently on the wire; retransmitting while one is still
    #: queued would only amplify traffic, so the timer waits for zero
    in_flight: int = 1


@dataclass
class _ChannelState:
    """Reliability state for one directed (sender, recipient) channel."""

    next_seq: int = 1                                   # sender side
    outstanding: dict[int, _Pending] = field(default_factory=dict)
    expected: int = 1                                   # receiver side
    reorder: dict[int, _Frame] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=lambda: {
        "sent": 0, "delivered": 0, "dropped": 0, "retransmits": 0,
        "acked": 0, "duplicates_suppressed": 0})


@dataclass
class _PeerCheckpoint:
    """One stored snapshot: peer state blob + inbound channel cursors."""

    blob: bytes
    inbound_expected: dict[tuple[str, str], int]


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
    """Registry of peers plus the delivery scheduler and transport layer."""

    def __init__(self, options: NetworkOptions | None = None) -> None:
        self.options = options or NetworkOptions()
        self.fault = self.options.fault
        self.peer_fault = self.options.peer_fault
        self.counters = Counters()
        self.counters.set_max("net.seed", self.options.seed)
        self._rng = self.options.rng()
        self._handlers: dict[str, PeerHandler] = {}
        self._channels: dict[tuple[str, str], deque[_Frame]] = {}
        self._states: dict[tuple[str, str], _ChannelState] = {}
        self._seq = 0
        self._clock = 0
        self._closed = False
        self._monitors: list[Callable[[Message], None]] = []
        self._peer_faults = self.peer_fault.enabled()
        # Crash recovery leans on the sequence/ack machinery (watermarks,
        # dedup of re-sent frames), so peer faults force the layer on.
        self._reliable = self.fault.needs_reliability() or self._peer_faults
        # -- peer lifecycle state -------------------------------------------
        self._down: dict[str, int | None] = {}          #: peer -> restart-at (deliveries)
        self._crash_schedule = {peer: sorted(ks)
                                for peer, ks in self.peer_fault.crash_at.items()}
        self._crash_counts: dict[str, int] = {}
        self._restart_counts: dict[str, int] = {}
        self._deliveries_to: dict[str, int] = {}
        self._delivered_total = 0
        self._checkpoints: dict[str, _PeerCheckpoint] = {}
        self._baseline_taken = False
        #: retained per-channel log of every logical message ever sent
        #: (index i holds channel_seq i+1); the replay source on restart
        self._history: dict[tuple[str, str], list[Message]] = {}
        #: per inbound channel: highest `expected` observed at any crash
        #: of the recipient -- deliveries below it are recovery replays
        self._ds_watermark: dict[tuple[str, str], int] = {}
        self._catching_up: set[str] = set()
        self._partitions = [_PartitionState(spec)
                            for spec in self.peer_fault.partitions]
        self._lifecycle: list[LifecycleListener] = []
        #: True exactly while a replayed frame's handler runs; protocol
        #: layers (Dijkstra-Scholten) use it to skip double accounting
        self.delivering_replayed = False

    # -- registration --------------------------------------------------------

    def register(self, name: str, handler: PeerHandler) -> None:
        if name in self._handlers:
            raise UnknownPeerError(f"peer {name} registered twice")
        self._handlers[name] = handler

    def peers(self) -> tuple[str, ...]:
        return tuple(sorted(self._handlers))

    def add_monitor(self, callback: Callable[[Message], None]) -> None:
        """Observe every handler delivery (used by the termination tests).

        Monitors see exactly the messages handlers see: first deliveries
        only, never drops, transport acks or suppressed duplicates.
        Recovery replays re-run handlers, so monitors see those too.
        """
        self._monitors.append(callback)

    def add_lifecycle_listener(self, listener: LifecycleListener) -> None:
        """Observe peer crash / restart / recovery events."""
        self._lifecycle.append(listener)

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

    def _partition_active(self, a: str, b: str) -> bool:
        return any(part.active(self._delivered_total)
                   and {a, b} == {part.spec.a, part.spec.b}
                   for part in self._partitions)

    def _channel_open(self, channel: tuple[str, str]) -> bool:
        """Whether frames on ``channel`` may currently be delivered."""
        sender, recipient = channel
        if recipient in self._down:
            return False
        return not self._partition_active(sender, recipient)

    def _checkpointable(self, peer: str) -> bool:
        handler = self._handlers.get(peer)
        return hasattr(handler, "checkpoint") and hasattr(handler, "restore")

    def _store_checkpoint(self, peer: str) -> None:
        handler = self._handlers[peer]
        blob = pickle.dumps(handler.checkpoint(),  # type: ignore[attr-defined]
                            protocol=pickle.HIGHEST_PROTOCOL)
        inbound = {channel: state.expected
                   for channel, state in self._states.items()
                   if channel[1] == peer}
        self._checkpoints[peer] = _PeerCheckpoint(blob, inbound)
        self.counters.add("net.recovery.checkpoints_taken")

    def _capture_baseline(self) -> None:
        """Checkpoint every checkpointable peer before the first delivery.

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
        for name in self.peers():
            if self._checkpointable(name):
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
        if not self._checkpointable(peer):
            from repro.errors import DistributedError
            raise DistributedError(
                f"peer {peer} cannot crash: its handler is not checkpointable")
        restart_after = self.peer_fault.restart_after_deliveries
        self._down[peer] = (self._delivered_total + restart_after
                            if restart_after is not None else None)
        self._crash_counts[peer] = self._crash_counts.get(peer, 0) + 1
        self.counters.add("net.recovery.crashes")
        for channel, state in self._states.items():
            if channel[1] != peer:
                continue
            # Deliveries below this cursor were already consumed (and
            # protocol-settled) by the pre-crash incarnation: re-running
            # them after restore is a replay, not a first delivery.
            self._ds_watermark[channel] = max(self._ds_watermark.get(channel, 0),
                                              state.expected)
            state.reorder.clear()
        for listener in self._lifecycle:
            listener.on_peer_crash(peer, self)

    def _restart_peer(self, peer: str) -> None:
        """Bring ``peer`` back: restore its checkpoint and replay the gap."""
        del self._down[peer]
        self._restart_counts[peer] = self._restart_counts.get(peer, 0) + 1
        self.counters.add("net.recovery.restarts")
        checkpoint = self._checkpoints.get(peer)
        handler = self._handlers[peer]
        snapshot = pickle.loads(checkpoint.blob) if checkpoint else None
        handler.restore(snapshot)  # type: ignore[attr-defined]
        if checkpoint is not None:
            self.counters.add("net.recovery.checkpoints_restored")
        replayed = 0
        inbound = {channel for channel in (set(self._history) | set(self._states))
                   if channel[1] == peer}
        for channel in sorted(inbound):
            state = self._state(channel)
            restored = (checkpoint.inbound_expected.get(channel, 1)
                        if checkpoint else 1)
            state.expected = restored
            state.reorder.clear()
            watermark = self._ds_watermark.get(channel, 0)
            log = self._history.get(channel, ())
            replay = [_Frame(message=log[seq - 1], channel_seq=seq,
                             eligible_at=self._clock, is_replay=True)
                      for seq in range(restored, watermark)]
            if replay:
                queue = self._channels.setdefault(channel, deque())
                # Replays carry the oldest sequence numbers on the
                # channel: deliver them ahead of whatever is queued.
                for frame in reversed(replay):
                    queue.appendleft(frame)
                replayed += len(replay)
        self.counters.add("net.recovery.frames_replayed", replayed)
        for listener in self._lifecycle:
            listener.on_peer_restart(peer, self)
        if self._caught_up(peer):
            self._notify_recovered(peer)
        else:
            self._catching_up.add(peer)

    def _caught_up(self, peer: str) -> bool:
        return all(self._state(channel).expected >= watermark
                   for channel, watermark in self._ds_watermark.items()
                   if channel[1] == peer)

    def _notify_recovered(self, peer: str) -> None:
        for listener in self._lifecycle:
            listener.on_peer_recovered(peer, self)

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

    def _state(self, channel: tuple[str, str]) -> _ChannelState:
        state = self._states.get(channel)
        if state is None:
            state = _ChannelState()
            self._states[channel] = state
        return state

    def send(self, sender: str, recipient: str, kind: str, payload: Any) -> None:
        """Enqueue a logical message; raises for unknown recipients."""
        if self._closed:
            raise NetworkClosedError("network is closed")
        if recipient not in self._handlers:
            raise UnknownPeerError(f"unknown peer {recipient}")
        self._seq += 1
        message = Message(sender=sender, recipient=recipient, kind=kind,
                          payload=payload, seq=self._seq)
        channel = (sender, recipient)
        state = self._state(channel)
        channel_seq = state.next_seq
        state.next_seq += 1
        state.stats["sent"] += 1
        frame = _Frame(message=message, channel_seq=channel_seq,
                       eligible_at=self._eligible_tick(channel))
        if self._reliable:
            state.outstanding[channel_seq] = _Pending(
                message=message, channel_seq=channel_seq,
                sent_at=self._clock, last_tx=self._clock)
        if self._peer_faults:
            self._history.setdefault(channel, []).append(message)
        self._enqueue(channel, frame)
        self.counters.add("messages_sent")
        self.counters.add(f"messages_sent[{kind}]")

    def _eligible_tick(self, channel: tuple[str, str]) -> int:
        """Sample a delivery delay, monotone per channel (FIFO on the wire)."""
        eligible = self._clock + self.fault.sample_delay(self._rng)
        queue = self._channels.get(channel)
        if queue:
            eligible = max(eligible, queue[-1].eligible_at)
        return eligible

    def _enqueue(self, channel: tuple[str, str], frame: _Frame) -> None:
        self._channels.setdefault(channel, deque()).append(frame)

    def pending(self) -> int:
        """Frames still on the wire (including transport acks)."""
        return sum(len(q) for q in self._channels.values())

    def in_flight(self) -> int:
        """Logical messages not yet delivered to their handler."""
        if not self._reliable:
            return self.pending()
        return sum(len(s.outstanding) for s in self._states.values())

    # -- the scheduler -------------------------------------------------------

    def step(self) -> bool:
        """Deliver (or drop) one frame from a scheduler-chosen channel.

        Returns False when nothing is in flight and nothing awaits a
        retransmission -- i.e. the network is globally quiescent.  A
        crash event consumes a step.  Raises
        :class:`repro.errors.PeerUnavailable` when undeliverable work
        remains but every holding channel leads to a permanently failed
        peer or across a permanent partition.
        """
        if self._peer_faults and not self._baseline_taken:
            self._capture_baseline()
        while True:
            self._process_due_restarts()
            nonempty = [key for key, queue in self._channels.items() if queue]
            deliverable = [key for key in nonempty if self._channel_open(key)]
            if deliverable:
                eligible = [key for key in deliverable
                            if self._channels[key][0].eligible_at <= self._clock]
                if not eligible:
                    # Fast-forward the clock to the next arrival: delays are
                    # relative ticks, not wall time.
                    self._clock = min(self._channels[key][0].eligible_at
                                      for key in deliverable)
                    continue
                channel = self._rng.choice(sorted(eligible))
                if self._peer_faults and self._should_crash(channel[1]):
                    self._crash_peer(channel[1])
                    self._clock += 1
                    return True
                frame = self._channels[channel].popleft()
                self._clock += 1
                self._receive(channel, frame)
                if self._reliable:
                    self._retransmit(force=False)
                return True
            # Nothing deliverable right now.
            if self._reliable and self._retransmit(force=True):
                continue
            blocked = bool(nonempty) or any(
                state.outstanding for state in self._states.values())
            if not blocked:
                return False
            if self._force_next_event():
                continue
            raise PeerUnavailable(
                peers=self.failed_peers(), report=self.peer_report(),
                reason="undeliverable frames remain and no restart or "
                       "partition heal is scheduled")

    def _receive(self, channel: tuple[str, str], frame: _Frame) -> None:
        """Transport-level arrival: loss, acks, dedup, reorder, delivery."""
        if not self._reliable:
            self._deliver(frame.message)
            return
        state = self._state(channel)
        if not frame.is_ack and not frame.is_replay:
            consumed = state.outstanding.get(frame.channel_seq)
            if consumed is not None and consumed.in_flight > 0:
                consumed.in_flight -= 1
                # The copy left the wire: the ack round-trip starts now,
                # so restart the retransmission timer from here (queueing
                # latency must not masquerade as loss).
                consumed.last_tx = self._clock
        # Loss applies to every frame on the wire, acks included --
        # except recovery replays, which come out of the retained log.
        if (not frame.is_replay and self.fault.drop_probability > 0
                and self._rng.random() < self.fault.drop_probability):
            self.counters.add("net.dropped")
            if not frame.is_ack:
                self._state(channel).stats["dropped"] += 1
            return
        if frame.is_ack:
            self._accept_ack(channel, frame)
            return
        if frame.channel_seq < state.expected:
            # Duplicate of an already-delivered frame (retransmit raced
            # the ack, or injected duplication): suppress, but re-ack so
            # the sender stops retransmitting.
            self.counters.add("net.duplicates_suppressed")
            state.stats["duplicates_suppressed"] += 1
            self._send_ack(channel, state.expected - 1)
            return
        if frame.channel_seq > state.expected:
            # A predecessor was dropped: buffer, never deliver out of
            # order (the paper's per-channel FIFO assumption).
            state.reorder.setdefault(frame.channel_seq, frame)
            self.counters.add("net.out_of_order_buffered")
            self._send_ack(channel, state.expected - 1)
            return
        self._accept_data(channel, state, frame)
        while state.expected in state.reorder:
            self._accept_data(channel, state,
                              state.reorder.pop(state.expected))
        self._send_ack(channel, state.expected - 1)
        if (self.fault.duplicate_probability > 0
                and self._rng.random() < self.fault.duplicate_probability):
            # A duplicated delivery: it re-arrives below the expected
            # sequence number, so the dedup path suppresses it.
            self.counters.add("messages_duplicated")
            self.counters.add("net.duplicates_suppressed")
            state.stats["duplicates_suppressed"] += 1

    def _accept_data(self, channel: tuple[str, str], state: _ChannelState,
                     frame: _Frame) -> None:
        state.expected = frame.channel_seq + 1
        state.stats["delivered"] += 1
        pending = state.outstanding.get(frame.channel_seq)
        if pending is not None:
            self.counters.set_max("net.delivery_latency_max",
                                  self._clock - pending.sent_at)
        # Below the crash watermark means the pre-crash incarnation
        # already consumed (and protocol-settled) this sequence number:
        # flag the re-run so layers above skip double accounting.
        replayed = frame.channel_seq < self._ds_watermark.get(channel, 0)
        if replayed:
            self.counters.add("net.recovery.deliveries_replayed")
            self.delivering_replayed = True
            try:
                self._deliver(frame.message)
            finally:
                self.delivering_replayed = False
        else:
            self._deliver(frame.message)

    def _send_ack(self, channel: tuple[str, str], ack_value: int) -> None:
        """Queue a cumulative transport ack on the reverse channel."""
        sender, recipient = channel
        reverse = (recipient, sender)
        ack_message = Message(sender=recipient, recipient=sender,
                              kind=_ACK, payload=ack_value, seq=0)
        self._enqueue(reverse, _Frame(message=ack_message, channel_seq=0,
                                      eligible_at=self._eligible_tick(reverse),
                                      is_ack=True, ack_value=ack_value))
        self.counters.add("net.acks")

    def _accept_ack(self, reverse: tuple[str, str], frame: _Frame) -> None:
        """A cumulative ack arrived: settle the forward channel's frames."""
        forward = (reverse[1], reverse[0])
        state = self._state(forward)
        for seq in [s for s in state.outstanding if s <= frame.ack_value]:
            del state.outstanding[seq]
            state.stats["acked"] += 1

    def _retransmit(self, force: bool) -> bool:
        """Re-send timed-out unacknowledged frames.

        With ``force`` (wire empty but frames unsettled) every outstanding
        frame is resent immediately: nothing else can advance the clock.
        Channels to down peers or across active partitions are skipped --
        retries must not burn while the destination cannot receive -- and
        so are channels whose *reverse* direction is closed: re-sending
        is pointless while the sender cannot receive the acknowledgement
        that would settle the frame.
        Returns True when anything was retransmitted.
        """
        # The clock ticks once per global delivery, so an ack's queueing
        # time grows with the wire backlog; waiting out the backlog keeps
        # the fixed part of the timeout a loss signal, not a load signal.
        timeout = ACK_TIMEOUT_DELIVERIES + self.pending()
        resent = False
        for channel in sorted(self._states):
            if not self._channel_open(channel):
                continue
            if self._peer_faults and not self._channel_open((channel[1], channel[0])):
                continue
            state = self._states[channel]
            for seq in sorted(state.outstanding):
                pending = state.outstanding[seq]
                if pending.in_flight > 0:
                    continue
                if not force and self._clock - pending.last_tx < timeout:
                    continue
                if pending.retries >= self.fault.max_retries:
                    raise TransportExhausted(
                        channel=channel, kind=pending.message.kind,
                        retries=pending.retries, stats=self.channel_stats())
                pending.retries += 1
                pending.last_tx = self._clock
                pending.in_flight = 1
                state.stats["retransmits"] += 1
                self.counters.add("net.retransmits")
                self._enqueue(channel, _Frame(
                    message=pending.message, channel_seq=seq,
                    eligible_at=self._eligible_tick(channel)))
                resent = True
        return resent

    def _deliver(self, message: Message) -> None:
        self.counters.add("messages_delivered")
        self._delivered_total += 1
        for monitor in self._monitors:
            monitor(message)
        self._handlers[message.recipient].on_message(message, self)
        if self._peer_faults:
            self._after_delivery(message.recipient)

    def _after_delivery(self, peer: str) -> None:
        count = self._deliveries_to.get(peer, 0) + 1
        self._deliveries_to[peer] = count
        if (self._checkpointable(peer)
                and count % self.peer_fault.checkpoint_interval == 0):
            self._store_checkpoint(peer)
        if peer in self._catching_up and self._caught_up(peer):
            self._catching_up.discard(peer)
            self._notify_recovered(peer)

    def run_until_quiescent(self) -> int:
        """Deliver until no message is in flight; returns delivery count.

        Handlers run synchronously, so an empty network with no
        unacknowledged frame means global quiescence.  Deliveries are
        capped by ``max_deliveries`` to turn livelock into an explicit
        error.  Raises :class:`TransportExhausted` when a frame runs out
        of retries and :class:`PeerUnavailable` when only permanently
        unreachable peers hold up the run.
        """
        delivered = 0
        while self.step():
            delivered += 1
            if delivered > self.options.max_deliveries:
                raise NetworkClosedError(
                    f"exceeded {self.options.max_deliveries} deliveries; "
                    f"evaluation is probably diverging")
        return delivered

    # -- introspection --------------------------------------------------------

    def channel_stats(self) -> dict[str, dict[str, int]]:
        """Per-channel delivery statistics, keyed ``"sender->recipient"``."""
        return {f"{s}->{r}": dict(state.stats)
                for (s, r), state in sorted(self._states.items())
                if any(state.stats.values())}

    def close(self) -> None:
        self._closed = True
