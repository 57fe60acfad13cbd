"""The pluggable transport API: one peer runtime, many substrates.

The distributed engines (dQSQ, distributed naive) used to be welded to
the deterministic in-process simulator in :mod:`repro.distributed.network`.
This module is the seam that separates the two halves:

* the **peer-facing surface** -- :class:`Transport` -- is everything a
  peer runtime may touch while handling a message: ``send``.  The
  simulated :class:`~repro.distributed.network.Network` satisfies it
  structurally, and so does the per-process stub of the multiprocessing
  transport;
* the **driver-facing surface** -- :class:`TransportRuntime` -- runs one
  distributed evaluation described by a :class:`TransportJob` (peer
  factories, the origin's start action) to its end and returns a
  :class:`TransportOutcome` (final databases, per-peer counters, the
  termination verdict, failure attribution).

Every run carries the paper's Dijkstra-Scholten detector
(:mod:`repro.distributed.termination`) rooted at the job's origin, and
both runtimes run it in their delivery loops: the transport counts each
basic send, hands each *batch* -- every message it takes for one peer at
once, per-channel FIFO -- to the detector, which does each message's
accounting, consumes the ``ds-ack`` messages, runs the handler once and
turns the peer passive once; and it runs the origin's start action as
the root's first active period.  A peer handler is a plain
``on_messages(batch, transport)`` handler.  On mp the root's verdict is
what ends the run; the simulator drains to global quiescence and
reports the verdict beside it.

Two runtimes ship:

``"sim"``
    :class:`SimTransportRuntime` -- the existing deterministic simulator.
    Seeded scheduling, fault injection and crash/recovery.  This remains
    the test double for the chaos and race campaigns.

``"mp"``
    :class:`repro.distributed.mp.MpTransportRuntime` -- each peer in its
    own OS process, pickled frames over ``multiprocessing`` queues.
    Local fixpoints run genuinely in parallel (no GIL sharing), which is
    the paper's actual deployment model.  Delivery order across senders
    is *not* seeded there -- the operating system schedules -- so the
    runtime refuses programs whose DD701-DD703 confluence verdict is not
    clean: out-of-order apply is licensed only for the monotone/confluent
    fragment (the CALM-style argument of Ameloot-Neven-Van den Bussche).

Feature capabilities are explicit: :attr:`TransportRuntime.features`
names what a runtime supports (``"faults"``, ``"checkpoints"``,
``"deterministic"``, ``"parallel"``), and :func:`resolve_transport`
rejects simulator-only options (fault plans) on runtimes that cannot
honor them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from repro.datalog.database import Database
from repro.datalog.rule import Program
from repro.distributed.network import (FaultPlan, Network, NetworkOptions,
                                       PeerFaultPlan, PeerHandler)
from repro.distributed.termination import DijkstraScholten
from repro.errors import (DistributedError, PeerUnavailable,
                          TransportExhausted)
from repro.utils.counters import Counters

#: the registered transport names accepted by :func:`resolve_transport`
TRANSPORTS = ("sim", "mp")


@runtime_checkable
class Transport(Protocol):
    """Everything a peer runtime may touch while handling a message.

    The simulated :class:`~repro.distributed.network.Network` and the
    multiprocessing worker stub both satisfy this protocol.  Peer
    runtimes must not assume anything beyond it -- in particular they
    must not reach into scheduler or channel internals, which only the
    simulator has.
    """

    def send(self, sender: str, recipient: str, kind: str,
             payload: Any) -> None:  # pragma: no cover - protocol
        """Enqueue one logical message for exactly-once FIFO delivery."""
        ...


@dataclass
class PeerSpec:
    """How to build one peer: a picklable factory plus its keyword args.

    ``factory`` must be a module-level callable (so the multiprocessing
    runtime can ship it to a worker) accepting a ``name=`` keyword
    argument in addition to ``kwargs``.
    """

    factory: Callable[..., PeerHandler]
    kwargs: dict[str, Any] = field(default_factory=dict)

    def build(self, name: str) -> PeerHandler:
        return self.factory(name=name, **self.kwargs)


@dataclass
class TransportJob:
    """One distributed evaluation, described transport-independently.

    ``start`` is a picklable callable (module-level function or a
    :func:`functools.partial` over one) invoked once at the origin peer
    before deliveries begin: it poses the query / activates the seed
    relation through the transport, exactly as a real client would.  The
    origin is the root of the run's termination detector.  ``program``
    feeds the multiprocessing runtime's confluence gate;
    ``order_sensitive`` marks jobs that are *known* non-confluent (the
    fire-time-negation naive engine) independent of any analysis.
    """

    peers: dict[str, PeerSpec]
    origin: str
    start: Callable[[Any, Transport], None]
    program: Program | None = None
    order_sensitive: bool = False

    def __post_init__(self) -> None:
        if self.origin not in self.peers:
            raise DistributedError(
                f"job origin {self.origin!r} is not among its peers")


@dataclass
class TransportOutcome:
    """What one transport run produced, uniformly across runtimes."""

    #: final per-peer fact stores (live objects on the simulator,
    #: reconstructed from pickled snapshots on the mp transport)
    databases: dict[str, Database]
    #: per-peer counters, evaluator counters already folded in
    per_peer: dict[str, Counters]
    #: transport-level counters (scheduler, loss, recovery / mp)
    counters: Counters
    #: messages delivered, ``ds-ack`` and recovery replays included (not
    #: batches, and not crash events)
    deliveries: int = 0
    #: the root's Dijkstra-Scholten verdict
    terminated_by_detector: bool = False
    transport_error: TransportExhausted | None = None
    peer_failure: PeerUnavailable | None = None
    channel_stats: dict[str, dict[str, int]] = field(default_factory=dict)

    def merged_counters(self) -> Counters:
        """Transport counters plus every peer's, in one bag."""
        out = Counters()
        out.merge(self.counters)
        for counters in self.per_peer.values():
            out.merge(counters)
        return out


class TransportRuntime(Protocol):
    """Driver of one distributed evaluation (see module docstring)."""

    #: capability names this runtime honors (see module docstring)
    features: frozenset[str]

    def run(self, job: TransportJob) -> TransportOutcome:  # pragma: no cover
        ...


def snapshot_peer_counters(peer: Any) -> Counters:
    """The uniform peer-instrumentation contract: ``peer.counters``
    merged with ``peer.evaluator.counters`` when either exists.

    Evaluators exposing ``flush_stats`` are flushed first: per-plan
    accumulators (``plan.*``) not yet folded into the counter bag --
    a fixpoint does not flush them, and neither does a run aborted
    mid-fire -- would otherwise be dropped, and on the ``mp`` transport
    lost for good when the worker process exits.  Flushing at snapshot time is
    what keeps ``plan.*`` totals equal between ``sim`` and ``mp`` runs
    of the same schedule.
    """
    out = Counters()
    counters = getattr(peer, "counters", None)
    if counters is not None:
        out.merge(counters)
    evaluator = getattr(peer, "evaluator", None)
    if evaluator is not None:
        flush = getattr(evaluator, "flush_stats", None)
        if flush is not None:
            flush()
        if getattr(evaluator, "counters", None) is not None:
            out.merge(evaluator.counters)
    return out


class SimTransportRuntime:
    """The deterministic in-process simulator behind the transport API.

    A thin driver over :class:`~repro.distributed.network.Network`: it
    owns the run orchestration (peer construction, the run's termination
    detector, quiescence, failure attribution) so that engines speak only
    the job/outcome contract.
    """

    features = frozenset({"faults", "checkpoints", "deterministic"})

    def __init__(self, options: NetworkOptions | None = None) -> None:
        self.options = options or NetworkOptions()
        #: the live network of the latest run (tests introspect it)
        self.network: Network | None = None

    def run(self, job: TransportJob) -> TransportOutcome:
        network = Network(self.options)
        self.network = network
        detector = network.detector = DijkstraScholten(job.origin)
        peers: dict[str, PeerHandler] = {}
        for name in sorted(job.peers):
            peer = job.peers[name].build(name)
            peers[name] = peer
            network.register(name, peer)
        detector.start(lambda: job.start(peers[job.origin], network), network)

        transport_error: TransportExhausted | None = None
        peer_failure: PeerUnavailable | None = None
        try:
            network.run_until_quiescent()
        except TransportExhausted as err:
            # Graceful degradation: keep every fact derived so far and
            # report a partial result instead of crashing the evaluation.
            transport_error = err
        except PeerUnavailable as err:
            peer_failure = err
        else:
            failed = network.failed_peers()
            if failed:
                # Quiescent, but a peer died for good along the way: the
                # result is still only what the survivors could derive.
                peer_failure = PeerUnavailable(peers=failed,
                                               report=network.peer_report())

        databases: dict[str, Database] = {}
        per_peer: dict[str, Counters] = {}
        for name, peer in peers.items():
            db = getattr(peer, "db", None)
            if db is not None:
                databases[name] = db
            per_peer[name] = snapshot_peer_counters(peer)
        counters = Counters()
        counters.merge(network.counters)
        return TransportOutcome(
            databases=databases, per_peer=per_peer, counters=counters,
            # a degraded run delivered messages too
            deliveries=network.counters["messages_delivered"],
            terminated_by_detector=detector.terminated,
            transport_error=transport_error, peer_failure=peer_failure,
            channel_stats=network.channel_stats())


def _options_need_simulator(options: NetworkOptions) -> list[str]:
    """Which simulator-only features the given options ask for."""
    needs: list[str] = []
    if options.fault != FaultPlan():
        needs.append("fault injection (FaultPlan)")
    if options.peer_fault != PeerFaultPlan():
        needs.append("crash/partition injection (PeerFaultPlan)")
    return needs


def resolve_transport(transport: "str | TransportRuntime",
                      options: NetworkOptions | None = None,
                      ) -> TransportRuntime:
    """Turn a transport name (or a ready runtime) into a runtime.

    ``options`` configures the simulator; passing simulator-only options
    (fault plans) together with a non-simulator
    transport is an error, not a silent downgrade.  ``"mp"`` runs under
    the default :class:`repro.distributed.mp.MpConfig`; pass a
    ``MpTransportRuntime(MpConfig(...))`` to configure it.
    """
    if not isinstance(transport, str):
        return transport
    if transport == "sim":
        return SimTransportRuntime(options)
    if transport == "mp":
        needs = _options_need_simulator(options or NetworkOptions())
        if needs:
            raise DistributedError(
                "the multiprocessing transport cannot honor simulator-only "
                "options: " + "; ".join(needs)
                + " (run on transport='sim' instead)")
        from repro.distributed.mp import MpTransportRuntime
        return MpTransportRuntime()
    raise DistributedError(
        f"unknown transport {transport!r}; known: {', '.join(TRANSPORTS)}")
