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

A chain is one shape of observer: Section 4.4's patterns, hidden
transitions and unobserved peers are the same product with the observers
of an :class:`~repro.diagnosis.patterns.ObservationSpec`, and a diagnosis
is a configuration that leaves every observer in an accepting state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.patterns import ObservationSpec
from repro.diagnosis.problem import DiagnosisSet, diagnosis_set
from repro.petri.net import PetriNet
from repro.petri.occurrence import VIRTUAL_ROOT, BranchingProcess
from repro.petri.product import ProductNet, product_with_observers
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

    def __init__(self, petri: PetriNet, max_events: int = 50_000) -> None:
        self.petri = petri
        #: size cap on the product unfolding; an explanation's is the spec's
        self.max_unfold_events = max_events

    def diagnose(self, observation: AlarmSequence | ObservationSpec
                 ) -> DedicatedResult:
        net = self.petri.net
        spec = ObservationSpec.coerce(observation, net)
        limit, _enforced = spec.event_bound(net)
        product = product_with_observers(self.petri, spec.observers.values(),
                                         hidden=spec.hidden)
        # An explanation has at most ``limit`` events, hence depth at most
        # ``limit``: the depth bound keeps the unfolding finite where the
        # observers do not (the Section-4.4 gadget); the search counts.
        bp = unfold(product.petri, max_events=self.max_unfold_events,
                    max_depth=limit)

        projection = _Projector(bp, product)
        diagnoses = self._extract(bp, product, projection, limit)
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
                 projection: "_Projector", limit: int) -> DiagnosisSet:
        """Bottom-up extraction of the explanations: the configurations
        of at most ``limit`` events whose cut holds every observer (always
        exactly once: a synchronized transition moves it) in an accepting
        place."""
        observer_places = product.observer_places
        accepting: frozenset[str] = frozenset().union(
            *product.accepting_places.values())
        found: set[frozenset[str]] = set()
        seen: set[frozenset[str]] = set()

        def search(chosen: frozenset[str], cut: frozenset[str]) -> None:
            if chosen in seen:
                return
            seen.add(chosen)
            if all(place in accepting for cid in cut
                   if (place := bp.conditions[cid].place) in observer_places):
                found.add(frozenset(projection.project_event(e) for e in chosen))
            if len(chosen) == limit:
                return
            enabled = {eid for cid in cut for eid in bp.consumers[cid]
                       if cut.issuperset(bp.events[eid].preset)}
            for eid in enabled:
                search(chosen | {eid}, cut.difference(bp.events[eid].preset)
                       .union(bp.postset[eid]))

        search(frozenset(), frozenset(bp.roots))
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
