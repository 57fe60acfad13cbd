"""The dedicated diagnosis algorithm of Benveniste-Fabre-Haar-Jard [8].

Following the sketch in Section 4.3 of the paper: "(i) models A as a
linear Petri net formed by a sequence of transitions emitting the alarms
in A, (ii) computes the product Petri net of (N, M) and A and unfolds it
completely.  This product unfolding projects to a prefix of
Unfold(N, M) containing only the nodes that are 'relevant' for the
observed alarm sequence."

With asynchronous observation only the per-peer subsequences constrain
the runs, so the linear alarm net decomposes into one chain per peer
(this is the single-supervisor instance of [8]'s construction).  The
configurations that consume every chain completely are the diagnoses;
the *whole* product unfolding, projected to original-net node ids, is
the materialized prefix -- the right-hand side of Theorem 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.patterns import ObservationSpec
from repro.diagnosis.problem import DiagnosisSet, diagnosis_set
from repro.petri.net import PetriNet
from repro.petri.occurrence import VIRTUAL_ROOT, BranchingProcess
from repro.petri.product import Observer, ProductNet, product_with_observers
from repro.petri.unfolding import unfold
from repro.utils.counters import Counters


@dataclass
class DedicatedResult:
    """Diagnoses plus the materialized prefix (for the Theorem-4 parity)."""

    diagnoses: DiagnosisSet
    product_bp: BranchingProcess
    product: ProductNet
    #: projection of every product node onto canonical Unfold(N, M) ids
    projected_events: frozenset[str]
    projected_conditions: frozenset[str]
    counters: Counters

    # -- DiagnosisOutcome protocol (repro.api): the dedicated algorithm's
    # materialized prefix is exactly its projected node set (Theorem 4).

    @property
    def materialized_events(self) -> frozenset[str]:
        return self.projected_events

    @property
    def materialized_conditions(self) -> frozenset[str]:
        return self.projected_conditions

    @property
    def partial(self) -> bool:
        """The dedicated algorithm runs in-process; never partial."""
        return False

    @property
    def peer_report(self) -> dict[str, dict[str, int | bool]] | None:
        """In-process: there are no peers to fail."""
        return None


class DedicatedDiagnoser:
    """[8]'s product-unfolding diagnoser."""

    def __init__(self, petri: PetriNet, max_events: int = 50_000,
                 hidden: frozenset[str] = frozenset(),
                 hidden_budget: int = 0) -> None:
        self.petri = petri
        self.max_events = max_events
        self.hidden = hidden
        #: how many hidden events an explanation may contain (Section 4.4);
        #: the same bound every other solver puts on the event count
        self.hidden_budget = hidden_budget

    def diagnose(self, alarms: AlarmSequence) -> DedicatedResult:
        by_peer = alarms.by_peer()
        observers = [Observer.chain(peer, list(symbols))
                     for peer, symbols in sorted(by_peer.items())]
        # Peers that emitted nothing get an empty chain: their visible
        # transitions cannot fire in any explanation.
        for peer in sorted(self.petri.net.peers()):
            if peer not in by_peer:
                observers.append(Observer.chain(peer, []))
        product = product_with_observers(self.petri, observers,
                                         hidden=self.hidden)
        # Every visible transition consumes one chain place, so the
        # product unfolding is finite; hidden transitions need an
        # explicit bound (the Section-4.4 gadget).  An explanation has at
        # most ``limit`` events, hence depth at most ``limit``: the depth
        # bound keeps the unfolding finite, the search enforces the count.
        limit = len(alarms) + self.hidden_budget
        bp = unfold(product.petri, max_events=self.max_events,
                    max_depth=limit if self.hidden else None)

        projection = _Projector(bp, product)
        diagnoses = self._extract(bp, product, by_peer, projection, limit)
        counters = Counters()
        counters.add("product_events", len(bp.events))
        counters.add("product_conditions", len(bp.conditions))
        counters.add("projected_events", len(projection.event_ids()))
        return DedicatedResult(
            diagnoses=diagnoses, product_bp=bp, product=product,
            projected_events=projection.event_ids(),
            projected_conditions=projection.condition_ids(),
            counters=counters)

    def _extract(self, bp: BranchingProcess, product: ProductNet,
                 by_peer: dict[str, tuple[str, ...]],
                 projection: "_Projector", limit: int) -> DiagnosisSet:
        """Bottom-up extraction of the complete explanations.

        A configuration explains A iff per peer the number of visible
        events equals the subsequence length (each visible event consumes
        exactly one chain place).  Enumeration walks the configurations
        of at most ``limit`` events of the (finite) product unfolding;
        without hidden transitions a configuration that large is
        complete, so the bound only ever cuts hidden events.
        """
        needed = {peer: len(symbols) for peer, symbols in by_peer.items()}
        found: set[frozenset[str]] = set()
        seen: set[frozenset[str]] = set()
        net = product.petri.net

        def visible(eid: str) -> bool:
            transition = bp.events[eid].transition
            return product.projection[transition] not in self.hidden

        def counts_of(chosen: frozenset[str]) -> dict[str, int]:
            out: dict[str, int] = {}
            for eid in chosen:
                if visible(eid):
                    peer = net.peer[bp.events[eid].transition]
                    out[peer] = out.get(peer, 0) + 1
            return out

        def available_conditions(chosen: frozenset[str]) -> set[str]:
            produced = set(bp.roots)
            for eid in chosen:
                produced.update(bp.postset[eid])
            consumed = {cid for eid in chosen for cid in bp.events[eid].preset}
            return produced - consumed

        def search(chosen: frozenset[str]) -> None:
            if chosen in seen:
                return
            seen.add(chosen)
            counts = counts_of(chosen)
            if all(counts.get(p, 0) == n for p, n in needed.items()):
                found.add(frozenset(projection.project_event(e) for e in chosen))
            if len(chosen) >= limit:
                return
            available = available_conditions(chosen)
            for cid in sorted(available):
                for eid in bp.consumers.get(cid, ()):
                    if eid in chosen:
                        continue
                    if set(bp.events[eid].preset) <= available:
                        search(chosen | {eid})

        search(frozenset())
        return diagnosis_set(found)


class _Projector:
    """Project product-unfolding nodes onto canonical Unfold(N, M) ids.

    Observer conditions vanish; a product event maps to the original
    event with the same system transition and the projected non-observer
    preset.  Distinct product events (differing only in chain position)
    can merge -- that is the point: the image is a prefix of the system
    unfolding.
    """

    def __init__(self, bp: BranchingProcess, product: ProductNet) -> None:
        self.bp = bp
        self.product = product
        self._event_memo: dict[str, str] = {}
        self._condition_memo: dict[str, str | None] = {}

    def project_event(self, eid: str) -> str:
        memo = self._event_memo.get(eid)
        if memo is not None:
            return memo
        event = self.bp.events[eid]
        system_transition = self.product.projection[event.transition]
        parts = []
        for cid in event.preset:
            projected = self.project_condition(cid)
            if projected is not None:
                parts.append(projected)
        inner = ",".join(parts)
        out = f"f({system_transition},{inner})" if parts else f"f({system_transition})"
        self._event_memo[eid] = out
        return out

    def project_condition(self, cid: str) -> str | None:
        if cid in self._condition_memo:
            return self._condition_memo[cid]
        condition = self.bp.conditions[cid]
        if condition.place in self.product.observer_places:
            out: str | None = None
        elif condition.producer is None:
            out = f"g({VIRTUAL_ROOT},{condition.place})"
        else:
            out = f"g({self.project_event(condition.producer)},{condition.place})"
        self._condition_memo[cid] = out
        return out

    def event_ids(self) -> frozenset[str]:
        return frozenset(self.project_event(e) for e in self.bp.events)

    def condition_ids(self) -> frozenset[str]:
        out = set()
        for cid in self.bp.conditions:
            projected = self.project_condition(cid)
            if projected is not None:
                out.add(projected)
        return frozenset(out)


def dedicated_pattern_diagnosis(petri: PetriNet, spec: ObservationSpec,
                                max_unfold_events: int = 50_000) -> DiagnosisSet:
    """[8]-style product diagnosis generalized to observers and hidden
    transitions; the reference for the Datalog extension engines."""
    product = product_with_observers(petri, list(spec.observers.values()),
                                     hidden=spec.hidden)
    bp = unfold(product.petri, max_events=max_unfold_events,
                max_depth=spec.max_events)
    projector = _Projector(bp, product)
    accepting = {peer: product.accepting_places[peer]
                 for peer in spec.observers}
    net = product.petri.net

    found: set[frozenset[str]] = set()
    seen: set[frozenset[str]] = set()

    def observer_state_ok(chosen: frozenset[str]) -> bool:
        # Compute the cut and check every observed peer's observer place
        # is accepting.
        produced = set(bp.roots)
        consumed: set[str] = set()
        for eid in chosen:
            produced.update(bp.postset[eid])
            consumed.update(bp.events[eid].preset)
        cut = produced - consumed
        for peer, accepting_places in accepting.items():
            state_places = [cid for cid in cut
                            if bp.conditions[cid].place in product.observer_places
                            and product.observer_places[bp.conditions[cid].place][0] == peer]
            if len(state_places) != 1:
                return False
            if bp.conditions[state_places[0]].place not in accepting_places:
                return False
        return True

    def search(chosen: frozenset[str]) -> None:
        if chosen in seen or len(chosen) > spec.max_events:
            return
        seen.add(chosen)
        if observer_state_ok(chosen):
            found.add(frozenset(projector.project_event(e) for e in chosen))
        if len(chosen) == spec.max_events:
            return
        produced = set(bp.roots)
        consumed: set[str] = set()
        for eid in chosen:
            produced.update(bp.postset[eid])
            consumed.update(bp.events[eid].preset)
        available = produced - consumed
        for cid in sorted(available):
            for eid in bp.consumers.get(cid, ()):
                if eid not in chosen and set(bp.events[eid].preset) <= available:
                    search(chosen | {eid})

    search(frozenset())
    return diagnosis_set(found)
