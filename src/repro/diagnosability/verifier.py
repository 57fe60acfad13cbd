"""Twin-plant search: decide diagnosability, extract ambiguous witnesses.

Semantics (documented in docs/diagnosability.md): a fault class is
**non-diagnosable** iff the verifier of :mod:`repro.diagnosability.twin`
reaches an *ambiguous* state (the left copy has fired a fault, the right
-- fault-free by construction -- copy matched every observation) from
which the ambiguity survives forever:

* **ambiguous cycle** -- a cycle of verifier moves through ambiguous
  states in which the left (faulty) run makes progress: the faulty run
  extends unboundedly while a fault-free run keeps producing the same
  observations, so no amount of waiting resolves the fault;
* **ambiguous deadlock** -- an ambiguous state whose left marking is
  dead in the *original* net: the faulty run is over, its complete
  observation is explained by a fault-free run, and nothing will ever
  be observed again.

Otherwise every sufficiently long continuation of every faulty run
eventually produces an observation no fault-free run can match, i.e.
the class is **diagnosable**.  When the search is cut off by
:class:`VerifierLimits` before either conclusion, the verdict is
*diagnosable-up-to-bound* -- surfaced as DD902 and downgraded exactly
like DD301's depth-bound treatment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.diagnosability.spec import DiagnosabilitySpec, Label
from repro.diagnosability.twin import TwinPlant, twin_product
from repro.petri.marking import enabled_transitions, fire
from repro.petri.net import PetriNet
from repro.utils.counters import Counters
from repro.utils.orders import strongly_connected_components

VERDICT_DIAGNOSABLE = "diagnosable"
VERDICT_NON_DIAGNOSABLE = "non-diagnosable"
VERDICT_BOUNDED = "diagnosable-up-to-bound"

WITNESS_CYCLE = "cycle"
WITNESS_DEADLOCK = "deadlock"


@dataclass(frozen=True)
class VerifierLimits:
    """Bounds on the verifier search.

    ``max_depth`` bounds the number of verifier moves from the initial
    state (the Section-4.4 style gadget for this analysis); ``None``
    explores the full finite state space up to ``max_states``.
    """

    max_states: int = 50_000
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be positive")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive when set")


@dataclass(frozen=True)
class AmbiguousWitness:
    """A replayable pair of runs the supervisor cannot tell apart.

    ``faulty_run`` and ``normal_run`` are firing sequences of the
    *original* net from its initial marking with identical
    ``observable_trace``; the first contains a fault transition, the
    second none.  For ``kind == "cycle"`` the runs end with one
    iteration of the pump (``cycle_faulty`` / ``cycle_normal``): the
    suffix can be repeated to extend the ambiguity unboundedly.
    """

    kind: str
    fault_class: str
    faulty_run: tuple[str, ...]
    normal_run: tuple[str, ...]
    observable_trace: tuple[Label, ...]
    cycle_faulty: tuple[str, ...] = ()
    cycle_normal: tuple[str, ...] = ()

    def to_payload(self) -> dict[str, Any]:
        """A JSON-serializable form (the CLI's json/sarif witness)."""
        return {
            "kind": self.kind,
            "fault_class": self.fault_class,
            "faulty_run": list(self.faulty_run),
            "normal_run": list(self.normal_run),
            "observable_trace": [list(pair) for pair in self.observable_trace],
            "cycle_faulty": list(self.cycle_faulty),
            "cycle_normal": list(self.cycle_normal),
        }

    def render(self) -> str:
        obs = " ".join(f"{alarm}@{peer}" for alarm, peer in self.observable_trace) \
            or "(empty)"
        lines = [f"ambiguous {self.kind} witness [{self.fault_class}]:",
                 f"  observed : {obs}",
                 f"  faulty   : {' '.join(self.faulty_run)}",
                 f"  fault-free: {' '.join(self.normal_run) or '(empty run)'}"]
        if self.kind == WITNESS_CYCLE:
            lines.append(f"  pump     : faulty {' '.join(self.cycle_faulty)} | "
                         f"fault-free {' '.join(self.cycle_normal) or '(none)'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ClassVerdict:
    """The verifier's answer for one fault class."""

    fault_class: str
    faults: tuple[str, ...]
    verdict: str
    witness: AmbiguousWitness | None
    states: int
    edges: int
    depth_reached: int
    truncated: bool

    @property
    def diagnosable(self) -> bool:
        return self.verdict == VERDICT_DIAGNOSABLE


@dataclass(frozen=True)
class DiagnosabilityReport:
    """Everything the twin-plant analysis decided, per fault class."""

    verdicts: tuple[ClassVerdict, ...]
    observable: tuple[str, ...]
    verifier_places: int
    verifier_transitions: int
    limits: VerifierLimits
    counters: Counters = field(default_factory=Counters, compare=False)

    def verdict_for(self, fault_class: str) -> ClassVerdict:
        for verdict in self.verdicts:
            if verdict.fault_class == fault_class:
                return verdict
        raise KeyError(f"no verdict for fault class {fault_class!r}")

    @property
    def diagnosable(self) -> bool:
        """Strictly diagnosable: every class, with a complete search."""
        return all(v.verdict == VERDICT_DIAGNOSABLE for v in self.verdicts)

    @property
    def truncated(self) -> bool:
        return any(v.truncated for v in self.verdicts)

    def render(self) -> str:
        lines = []
        for v in self.verdicts:
            bound = " (search truncated by limits)" if v.truncated else ""
            lines.append(f"{v.fault_class}: {v.verdict}{bound} "
                         f"[faults: {', '.join(v.faults)}; "
                         f"verifier states: {v.states}]")
            if v.witness is not None:
                lines.append("  " + v.witness.render().replace("\n", "\n  "))
        return "\n".join(lines)


#: One explored verifier state: (marking of the twin net, fault flag).
_State = tuple[frozenset[str], bool]


class _Search:
    """BFS over verifier states plus witness bookkeeping for one class."""

    def __init__(self, petri: PetriNet, twin: TwinPlant,
                 limits: VerifierLimits) -> None:
        self.petri = petri
        self.twin = twin
        self.limits = limits
        self.states: list[_State] = []
        self.index: dict[_State, int] = {}
        self.depth: list[int] = []
        self.parent: list[tuple[int, str] | None] = []
        self.edges: list[list[tuple[str, int]]] = []
        self.truncated = False
        self._dead_left: dict[frozenset[str], bool] = {}

    # -- exploration --------------------------------------------------------

    def explore(self) -> None:
        initial: _State = (self.twin.petri.marking, False)
        self._add(initial, depth=0, parent=None)
        queue: deque[int] = deque([0])
        net = self.twin.petri.net
        while queue:
            here = queue.popleft()
            if self.limits.max_depth is not None \
                    and self.depth[here] >= self.limits.max_depth:
                if enabled_transitions(net, self.states[here][0]):
                    self.truncated = True
                continue
            marking, faulted = self.states[here]
            for tid in enabled_transitions(net, marking):
                successor = fire(net, marking, tid)
                left_move = self.twin.left_of[tid]
                tag = faulted or (left_move is not None
                                  and left_move in self.twin.faults)
                state: _State = (successor, tag)
                there = self.index.get(state)
                if there is None:
                    if len(self.states) >= self.limits.max_states:
                        self.truncated = True
                        continue
                    there = self._add(state, depth=self.depth[here] + 1,
                                      parent=(here, tid))
                    queue.append(there)
                self.edges[here].append((tid, there))

    def _add(self, state: _State, depth: int,
             parent: tuple[int, str] | None) -> int:
        position = len(self.states)
        self.states.append(state)
        self.index[state] = position
        self.depth.append(depth)
        self.parent.append(parent)
        self.edges.append([])
        return position

    # -- witnesses ----------------------------------------------------------

    def _left_dead(self, marking: frozenset[str]) -> bool:
        left = self.twin.left_marking(marking)
        cached = self._dead_left.get(left)
        if cached is None:
            cached = not enabled_transitions(self.petri.net, left)
            self._dead_left[left] = cached
        return cached

    def deadlock_witness_state(self) -> int | None:
        """The first-discovered ambiguous state whose faulty run is over."""
        for position, (marking, faulted) in enumerate(self.states):
            if faulted and self._left_dead(marking):
                return position
        return None

    def cycle_witness(self) -> tuple[int, list[str]] | None:
        """An ambiguous cycle with left progress: ``(entry, pump tids)``.

        Finds the strongly connected components of the explored graph
        (the shared Tarjan), keeps those that are ambiguous and contain
        an internal edge moving the left copy, and returns the
        BFS-earliest entry state plus one pump iteration through such
        an edge.
        """
        component = self._components()
        best: tuple[int, int, str, int] | None = None  # (entry, u, tid, v)
        for u, outgoing in enumerate(self.edges):
            if not self.states[u][1]:
                continue  # ambiguity is absorbing: cycles of interest are tagged
            for tid, v in outgoing:
                if component[u] != component[v]:
                    continue
                if self.twin.left_of[tid] is None:
                    continue
                # u and v share an SCC and u -> v moves the left copy;
                # the SCC has a cycle through this edge (v reaches u).
                entry = min(w for w in range(len(self.states))
                            if component[w] == component[u])
                if u == v or self._scc_path(v, u, component) is not None:
                    if best is None or self.depth[entry] < self.depth[best[0]]:
                        best = (entry, u, tid, v)
        if best is None:
            return None
        entry, u, tid, v = best
        pump: list[str] = []
        to_u = self._scc_path(entry, u, component)
        assert to_u is not None
        pump.extend(to_u)
        pump.append(tid)
        back = [] if v == entry else self._scc_path(v, entry, component)
        assert back is not None
        pump.extend(back)
        return entry, pump

    def _scc_path(self, start: int, end: int,
                  component: list[int]) -> list[str] | None:
        """Transition labels of a path start -> end inside one SCC."""
        if start == end:
            return []
        scc = component[start]
        parents: dict[int, tuple[int, str]] = {}
        frontier = [start]
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for tid, succ in self.edges[node]:
                    if component[succ] != scc or succ in parents or succ == start:
                        continue
                    parents[succ] = (node, tid)
                    if succ == end:
                        path: list[str] = []
                        walk = end
                        while walk != start:
                            walk, label = parents[walk]
                            path.append(label)
                        path.reverse()
                        return path
                    nxt.append(succ)
            frontier = nxt
        return None

    def _components(self) -> list[int]:
        """The strongly connected component id of every state."""
        successors = {u: [v for _tid, v in outgoing]
                      for u, outgoing in enumerate(self.edges)}
        component = [0] * len(self.states)
        for number, members in enumerate(
                strongly_connected_components(successors, successors)):
            for state in members:
                component[state] = number
        return component

    def path_to(self, position: int) -> list[str]:
        tids: list[str] = []
        walk: int | None = position
        while walk is not None:
            step = self.parent[walk]
            if step is None:
                break
            walk, tid = step
            tids.append(tid)
        tids.reverse()
        return tids


def _witness(search: _Search, twin: TwinPlant,
             fault_class: str) -> AmbiguousWitness | None:
    """The minimal witness found, deadlock and cycle candidates compared."""
    deadlock = search.deadlock_witness_state()
    cycle = search.cycle_witness()
    dead_cost = search.depth[deadlock] if deadlock is not None else None
    cycle_cost = (search.depth[cycle[0]] + len(cycle[1])
                  if cycle is not None else None)
    if deadlock is not None and (cycle_cost is None or dead_cost <= cycle_cost):  # type: ignore[operator]
        faulty, normal, trace = twin.decompose(search.path_to(deadlock))
        return AmbiguousWitness(kind=WITNESS_DEADLOCK, fault_class=fault_class,
                                faulty_run=faulty, normal_run=normal,
                                observable_trace=trace)
    if cycle is not None:
        entry, pump = cycle
        prefix = search.path_to(entry)
        faulty, normal, trace = twin.decompose(prefix + pump)
        pump_faulty, pump_normal, _pump_trace = twin.decompose(pump)
        return AmbiguousWitness(kind=WITNESS_CYCLE, fault_class=fault_class,
                                faulty_run=faulty, normal_run=normal,
                                observable_trace=trace,
                                cycle_faulty=pump_faulty,
                                cycle_normal=pump_normal)
    return None


def analyze_class(petri: PetriNet, spec: DiagnosabilitySpec, fault_class: str,
                  limits: VerifierLimits | None = None,
                  counters: Counters | None = None) -> ClassVerdict:
    """Run the verifier for one fault class."""
    limits = limits or VerifierLimits()
    faults = spec.classes()[fault_class]
    twin = twin_product(petri, faults, spec.observable)
    search = _Search(petri, twin, limits)
    search.explore()
    witness = _witness(search, twin, fault_class)
    if witness is not None:
        verdict = VERDICT_NON_DIAGNOSABLE
    elif search.truncated:
        verdict = VERDICT_BOUNDED
    else:
        verdict = VERDICT_DIAGNOSABLE
    if counters is not None:
        counters.add("diagnosability.classes_analyzed")
        counters.add("diagnosability.verifier_states", len(search.states))
        if search.truncated:
            counters.add("diagnosability.searches_truncated")
    return ClassVerdict(
        fault_class=fault_class,
        faults=tuple(sorted(faults)),
        verdict=verdict,
        witness=witness,
        states=len(search.states),
        edges=sum(len(out) for out in search.edges),
        depth_reached=max(search.depth, default=0),
        truncated=search.truncated)


def analyze_diagnosability(petri: PetriNet, spec: DiagnosabilitySpec,
                           limits: VerifierLimits | None = None) \
        -> DiagnosabilityReport:
    """The full twin-plant analysis: one verdict per fault class."""
    spec.validate(petri)
    limits = limits or VerifierLimits()
    counters = Counters()
    verdicts = tuple(analyze_class(petri, spec, name, limits, counters)
                     for name, _faults in spec.fault_classes)
    # Size metadata comes from the first class's verifier; all classes
    # share the observable mask, so sizes differ only in right-copy
    # fault exclusions (reported per class via `states`).
    first = spec.fault_classes[0][0]
    twin = twin_product(petri, spec.classes()[first], spec.observable)
    return DiagnosabilityReport(
        verdicts=verdicts,
        observable=tuple(sorted(spec.observable)),
        verifier_places=len(twin.petri.net.places),
        verifier_transitions=len(twin.petri.net.transitions),
        limits=limits,
        counters=counters)
