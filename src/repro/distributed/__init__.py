"""Distributed dDatalog: simulated peers, dQSQ and termination detection.

This package implements Section 3 of the paper in a simulated
asynchronous network (the substitution for a real telecom deployment,
see DESIGN.md): peers exchange messages over per-channel-FIFO links with
arbitrary cross-channel interleaving, each peer holds the rules whose
head is located at it, and queries are evaluated either by distributed
naive evaluation or by dQSQ -- the distributed Query-Sub-Query rewriting
in which every peer rewrites only its own rules and delegates rule
remainders to the peers that own the next body atom (Figure 5).

Since PR 6 the substrate is pluggable (:mod:`repro.distributed.transport`):
the simulator is the ``"sim"`` transport, and :mod:`repro.distributed.mp`
adds an ``"mp"`` transport running each peer in its own OS process for
genuinely parallel evaluation.  The ``MpConfig`` / ``MpTransportRuntime``
pair is imported from :mod:`repro.distributed.mp` directly (lazily, so
importing this package never touches ``multiprocessing``).
"""

from repro.distributed.network import (CheckpointablePeer, FaultPlan,
                                       LinkPartition, Message, Network,
                                       NetworkOptions, PeerFaultPlan)
from repro.distributed.ddatalog import DDatalogProgram, global_translation
from repro.distributed.naive_dist import DistributedNaiveEngine
from repro.distributed.dqsq import DqsqEngine, DqsqResult
from repro.distributed.termination import DijkstraScholten
from repro.distributed.transport import (PeerSpec, SimTransportRuntime,
                                         Transport, TransportJob,
                                         TransportOutcome, TransportRuntime,
                                         resolve_transport)
from repro.distributed.analysis import check_locality
from repro.distributed.chaos import (ChaosConfig, ChaosProblem, ChaosReport,
                                     file_problem, get_problem, make_schedule,
                                     run_chaos, run_race)

__all__ = [
    "Network", "Message", "NetworkOptions", "FaultPlan",
    "PeerFaultPlan", "LinkPartition", "CheckpointablePeer",
    "DDatalogProgram", "global_translation",
    "DistributedNaiveEngine",
    "DqsqEngine", "DqsqResult",
    "DijkstraScholten",
    "Transport", "TransportJob", "TransportOutcome", "TransportRuntime",
    "PeerSpec", "SimTransportRuntime", "resolve_transport",
    "check_locality",
    "ChaosConfig", "ChaosProblem", "ChaosReport", "file_problem",
    "get_problem", "make_schedule", "run_chaos", "run_race",
]
