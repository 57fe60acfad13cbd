"""Distributed termination detection (Dijkstra-Scholten).

The paper notes that detecting the fixpoint of a distributed evaluation
"is more complex than in classical Datalog" and points to standard
termination-detection algorithms [19, 33]; details are omitted there.
We implement the Dijkstra-Scholten diffusing-computation detector: basic
messages build a spanning tree of *engagements*; every basic message is
acknowledged; a node acknowledges the messages received from its parent
only when it is passive and all of its own messages have been
acknowledged.  The root declares termination when it is passive with no
outstanding acknowledgements -- at that instant no basic message can be
in flight.

Every distributed run carries the detector, and the two runtimes run
it in their delivery loops, so a peer handler never sees the protocol:

* the transport calls ``on_basic_send`` when it sends a non-ack message;
* the unit of delivery is a *batch*: every frame a transport hands one
  peer at once (:meth:`DijkstraScholten.deliver`).  The detector first
  does each message's accounting -- a ``ds-ack`` decrements the
  recipient's deficit, a basic message engages it -- then runs the
  handler once on the batch's basic messages and calls ``peer_passive``
  once.  A handler runs synchronously, so a peer is passive exactly
  between batches;
* ``ds-ack`` messages never reach a handler;
* the root's start action runs between ``root_activated`` and
  ``peer_passive`` (:meth:`DijkstraScholten.start`).

Acknowledgements are queued and flushed through the same transport, so
they interleave with basic traffic like any other message.  A flush
sums the queued acknowledgements per (sender, recipient): one ``ds-ack``
carries a count, so a peer owes at most one frame per channel per batch.

The detector assumes reliable exactly-once FIFO channels, and both
transports give it: on the simulator a lost frame stays at the head of
its channel until a retransmission arrives, so ``on_basic_receive``
fires once per message and the deficit accounting stays balanced.
Retransmissions are invisible here -- they are transmissions, not
messages.

Peer crashes need help from a failure detector, which the simulated
network provides by calling the detector's lifecycle hooks:

* ``on_peer_crash`` settles the crashed peer's obligations: any
  acknowledgements it owed its parent are synthesised on its behalf
  (the engagement tree must not dangle from a dead node).  Its own
  *deficit is kept* -- the messages it sent before dying are still in
  flight and will be acknowledged by their recipients later.  Because
  those synthesised acks detach the peer's whole subtree from the
  root's accounting, termination stays blocked while any peer is down.
* ``on_peer_restart`` re-engages the peer as the root of a *recovery
  sub-computation*: engaged with no parent, like the root.  It owes
  nobody acknowledgements (its checkpoint predates the crash and the
  replayed deliveries are skipped, see below), but global termination
  now additionally requires every such recovery root to retire --
  passive, deficit zero, and past the replays the network put back for
  it (the hook says how many; a root with none retires at once).
* replayed deliveries skip ``on_basic_receive`` and ``on_ack`` alike:
  the pre-crash incarnation already counted them, and counting a
  replayed DS acknowledgement twice would drive some deficit negative.
  The network knows which deliveries are replays and marks them in the
  batch it passes to :meth:`DijkstraScholten.deliver`, which counts
  them off the recovery root's replays.

The detector speaks only the peer-facing
:class:`~repro.distributed.transport.Transport` protocol.  On the
simulator one instance serves all peers; on the multiprocessing
transport each worker process runs its *own* instance -- the algorithm
is naturally decentralized (every hook touches only one node's state,
and engagement acknowledgements travel as ordinary messages), so
per-process instances implement exactly the distributed protocol the
paper points to, and the root worker's verdict is what ends the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.network import Message, PeerHandler
    from repro.distributed.transport import Transport

ACK_KIND = "ds-ack"


@dataclass
class _NodeState:
    parent: str | None = None
    deficit: int = 0              #: basic messages sent, not yet acknowledged
    pending_parent_acks: int = 0  #: basic messages received from parent, unacked
    engaged: bool = False


class DijkstraScholten:
    """One detector instance per diffusing computation (per query)."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._states: dict[str, _NodeState] = {}
        #: acknowledgements owed, summed per (sender, recipient) until
        #: the next flush
        self._owed: dict[tuple[str, str], int] = {}
        self._terminated = False
        self._root_started = False
        #: restarted peers acting as recovery roots: peer -> replays it
        #: has yet to take.  Termination is blocked while any remain.
        self._recovering: dict[str, int] = {}
        #: crashed peers not yet restarted.  Synthesising their parent
        #: acks detaches their whole subtree from the root's deficit, so
        #: termination must stay blocked until each comes back (and then
        #: retires through ``_recovering``) -- or, for permanent deaths,
        #: until the network gives up and reports them unavailable.
        self._down: set[str] = set()

    def _state(self, peer: str) -> _NodeState:
        state = self._states.get(peer)
        if state is None:
            state = _NodeState()
            self._states[peer] = state
        return state

    @property
    def terminated(self) -> bool:
        return self._terminated

    # -- the delivery loop ------------------------------------------------------

    def start(self, action: Callable[[], None], transport: Transport) -> None:
        """Run the root's start action (posing the query) as its first
        active period."""
        self.root_activated()
        action()
        self.peer_passive(self.root, transport)

    def deliver(self, handler: PeerHandler, recipient: str,
                batch: Sequence[tuple[Message, bool]],
                transport: Transport) -> None:
        """Hand one batch of ``(message, replayed)`` pairs for ``recipient``
        to ``handler`` under the protocol.

        Each message's accounting comes first: a ``ds-ack`` lowers the
        deficit and is consumed here, a basic message engages the peer.
        A recovery replay (``replayed``) skips the accounting its first
        delivery already did and counts off the recovery root's replays,
        but its basic message still reaches the handler.  Then the
        handler runs once on the basic messages, and the peer turns
        passive once.
        """
        basic: list[Message] = []
        for message, replayed in batch:
            if replayed:
                self._recovering[recipient] -= 1
            if message.kind == ACK_KIND:
                if not replayed:
                    self.on_ack(message)
                continue
            if not replayed:
                self.on_basic_receive(message)
            basic.append(message)
        if basic:
            handler.on_messages(basic, transport)
        self.peer_passive(recipient, transport)

    # -- protocol hooks -----------------------------------------------------------

    def root_activated(self) -> None:
        """The root starts the computation (poses the query)."""
        self._root_started = True
        self._terminated = False
        self._state(self.root).engaged = True

    def on_basic_send(self, sender: str) -> None:
        """The transport is sending a basic (non-ack) message."""
        self._state(sender).deficit += 1

    def on_basic_receive(self, message: Message) -> None:
        """A basic message arrived; establish or reuse the engagement."""
        state = self._state(message.recipient)
        if not state.engaged:
            state.engaged = True
            state.parent = message.sender
            state.pending_parent_acks = 1
        elif state.parent == message.sender:
            state.pending_parent_acks += 1
        else:
            # Already engaged elsewhere: acknowledge immediately.
            self._owe(message.recipient, message.sender, 1)

    def on_ack(self, message: Message) -> None:
        """An acknowledgement arrived for ``message.recipient``."""
        state = self._state(message.recipient)
        state.deficit -= int(message.payload)
        if state.deficit < 0:
            raise AssertionError("acknowledgement deficit went negative")

    def peer_passive(self, peer: str, transport: Transport) -> None:
        """Called when ``peer`` finishes local work (end of a batch)."""
        state = self._state(peer)
        if peer in self._recovering:
            self._try_retire(peer, transport)
            return
        if state.engaged and state.deficit == 0:
            if peer == self.root:
                if self._root_started and not self._recovering and not self._down:
                    self._terminated = True
            elif state.parent is not None:
                parent, count = state.parent, state.pending_parent_acks
                state.parent = None
                state.pending_parent_acks = 0
                state.engaged = False
                if count:
                    self._owe(peer, parent, count)
        self.flush(transport)

    # -- crash recovery (driven by the simulated network) ----------------------

    def on_peer_crash(self, peer: str, transport: Transport) -> None:
        """``peer`` died, losing its volatile protocol state.

        The failure detector settles its debts: acknowledgements it owed
        its parent are synthesised here so the engagement tree does not
        dangle from a dead node.  Its *deficit stays*: the messages it
        sent before dying are still in flight (frames to a down peer are
        held, not lost) and will be acknowledged by their recipients.
        """
        self._terminated = False
        state = self._state(peer)
        if state.engaged and state.parent is not None and state.pending_parent_acks:
            self._owe(peer, state.parent, state.pending_parent_acks)
        state.parent = None
        state.pending_parent_acks = 0
        state.engaged = False
        self._recovering.pop(peer, None)
        self._down.add(peer)
        self.flush(transport)

    def on_peer_restart(self, peer: str, replays: int,
                        transport: Transport) -> None:
        """``peer`` is back: engage it as a recovery root that owes
        ``replays`` replayed deliveries before it can retire."""
        state = self._state(peer)
        state.engaged = True
        state.parent = None
        state.pending_parent_acks = 0
        self._down.discard(peer)
        self._recovering[peer] = replays
        self._terminated = False
        if not replays:
            self._try_retire(peer, transport)

    def _try_retire(self, peer: str, transport: Transport) -> None:
        """Retire a recovery root once past its replays, passive and
        settled."""
        state = self._state(peer)
        if self._recovering[peer] or state.deficit != 0:
            self.flush(transport)
            return
        del self._recovering[peer]
        if peer != self.root:
            state.engaged = False
        root_state = self._state(self.root)
        if (self._root_started and not self._recovering and not self._down
                and root_state.engaged and root_state.deficit == 0):
            self._terminated = True
        self.flush(transport)

    # -- ack transport ----------------------------------------------------------

    def _owe(self, sender: str, recipient: str, count: int) -> None:
        self._owed[sender, recipient] = (
            self._owed.get((sender, recipient), 0) + count)

    def flush(self, transport: Transport) -> None:
        """Send the owed acknowledgements through the network: one
        ``ds-ack`` per (sender, recipient), carrying their summed count."""
        owed, self._owed = self._owed, {}
        for (sender, recipient), count in owed.items():
            transport.send(sender, recipient, ACK_KIND, count)
