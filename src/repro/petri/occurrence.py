"""Branching processes: occurrence nets with a homomorphism to a Petri net.

The paper (after Engelfriet [13]) represents the executions of a Petri
net as *branching processes*: acyclic nets whose places ("conditions")
and transitions ("events") map back to the original net.  Following the
paper's terminology choice, we keep calling them places and transitions
in prose but the code uses ``Condition`` / ``Event`` for clarity.

Canonical node identifiers mirror the Skolem terms of the Section-4.1
Datalog encoding -- an event is ``f(c, u, v)`` for its Petri transition
``c`` and parent-condition ids ``u, v``; a condition is ``g(x, c')`` for
its producing event ``x`` (or the virtual root ``r``).  This makes the
Theorem-2 bijection between unfolder output and Datalog-derived node ids
directly checkable.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.errors import PetriNetError
from repro.petri.net import PetriNet

#: The id of the paper's "virtual transition node r" that feeds roots.
VIRTUAL_ROOT = "r"


class Condition(NamedTuple):
    """A place node of the branching process (an instance of a Petri place)."""

    cid: str
    place: str                 #: the Petri-net place this maps to (the map rho)
    producer: str | None       #: producing event id; None for roots
    depth: int                 #: number of events on the path from the roots


class Event(NamedTuple):
    """A transition node of the branching process."""

    eid: str
    transition: str            #: the Petri-net transition this maps to
    preset: tuple[str, ...]    #: consumed condition ids, in Petri parent order
    depth: int                 #: 1 + max depth of the preset


class BranchingProcess:
    """A branching process of a Petri net, built incrementally.

    The structure stores conditions, events, the postset map, and the
    consumer map (which events consume each condition).  Structural
    invariants (Definition 4) are enforced by the unfolder and checkable
    independently via :func:`repro.petri.homomorphism.verify_branching_process`.
    """

    def __init__(self, petri: PetriNet) -> None:
        self.petri = petri
        self.conditions: dict[str, Condition] = {}
        self.events: dict[str, Event] = {}
        self.postset: dict[str, tuple[str, ...]] = {}
        self.consumers: dict[str, list[str]] = {}
        self.roots: list[str] = []
        self._events_by_key: dict[tuple[str, frozenset[str]], str] = {}
        self._conditions_by_place: dict[str, list[str]] = {}

    # -- construction -------------------------------------------------------

    def add_root(self, place: str) -> Condition:
        """Add the root condition for an initially marked place."""
        cid = f"g({VIRTUAL_ROOT},{place})"
        if cid in self.conditions:
            raise PetriNetError(f"duplicate root condition for place {place}")
        condition = Condition(cid=cid, place=place, producer=None, depth=0)
        self.conditions[cid] = condition
        self.consumers[cid] = []
        self.roots.append(cid)
        self._conditions_by_place.setdefault(place, []).append(cid)
        return condition

    def add_event(self, transition: str, preset: Iterable[str]) -> Event | None:
        """Add an event consuming ``preset``; returns None when it already exists.

        The postset conditions (one per Petri child place) are created
        automatically.  No concurrency checking happens here -- that is the
        unfolder's job.
        """
        preset = tuple(preset)
        key = (transition, frozenset(preset))
        if key in self._events_by_key:
            return None
        for cid in preset:
            if cid not in self.conditions:
                raise PetriNetError(f"unknown preset condition {cid}")
        inner = ",".join(preset)
        eid = f"f({transition},{inner})" if preset else f"f({transition})"
        depth = 1 + max((self.conditions[c].depth for c in preset), default=0)
        event = Event(eid=eid, transition=transition, preset=preset, depth=depth)
        self.events[eid] = event
        self._events_by_key[key] = eid
        for cid in preset:
            self.consumers[cid].append(eid)
        post: list[str] = []
        for place in self.petri.net.children(transition):
            cid = f"g({eid},{place})"
            condition = Condition(cid=cid, place=place, producer=eid, depth=depth)
            self.conditions[cid] = condition
            self.consumers[cid] = []
            self._conditions_by_place.setdefault(place, []).append(cid)
            post.append(cid)
        self.postset[eid] = tuple(post)
        return event

    # -- plain-data form -----------------------------------------------------

    def rows(self) -> tuple[list[tuple], list[tuple]]:
        """The process as plain data: its condition rows and its event
        rows (the fields of :class:`Condition` / :class:`Event`), each in
        insertion order.  Every other map is a function of these two
        lists and the net; :meth:`from_rows` rebuilds them."""
        return ([tuple(c) for c in self.conditions.values()],
                [tuple(e) for e in self.events.values()])

    @classmethod
    def from_rows(cls, petri: PetriNet, conditions: Sequence[tuple],
                  events: Sequence[tuple]) -> "BranchingProcess":
        """Rebuild a process from :meth:`rows` output.

        Rows come from outside the program (a stored snapshot), so they
        get the checks :meth:`add_root` / :meth:`add_event` make while
        building: no duplicate condition or event, no preset naming an
        unknown condition -- plus one only stored rows can fail, a
        condition produced by an unknown event.
        """
        bp = cls(petri)
        post: dict[str, list[str]] = {}
        for row in conditions:
            condition = Condition._make(row)
            cid, place, producer, _depth = condition
            if cid in bp.conditions:
                raise PetriNetError(f"duplicate condition {cid}")
            bp.conditions[cid] = condition
            bp.consumers[cid] = []
            bp._conditions_by_place.setdefault(place, []).append(cid)
            if producer is None:
                bp.roots.append(cid)
            else:
                post.setdefault(producer, []).append(cid)
        for row in events:
            event = Event._make(row)
            eid, transition, preset, _depth = event
            key = (transition, frozenset(preset))
            if eid in bp.events or key in bp._events_by_key:
                raise PetriNetError(f"duplicate event {eid}")
            for cid in preset:
                if cid not in bp.conditions:
                    raise PetriNetError(f"unknown preset condition {cid}")
                bp.consumers[cid].append(eid)
            bp.events[eid] = event
            bp._events_by_key[key] = eid
            bp.postset[eid] = tuple(post.pop(eid, ()))
        if post:
            raise PetriNetError(
                f"conditions produced by unknown events {sorted(post)}")
        return bp

    # -- structure ----------------------------------------------------------

    def conditions_for_place(self, place: str) -> tuple[str, ...]:
        return tuple(self._conditions_by_place.get(place, ()))

    def event_peer(self, eid: str) -> str:
        return self.petri.net.peer[self.events[eid].transition]

    def event_alarm(self, eid: str) -> str:
        return self.petri.net.alarm[self.events[eid].transition]

    def rho(self, node: str) -> str:
        """The homomorphism to the Petri net (Definition 3)."""
        if node in self.events:
            return self.events[node].transition
        return self.conditions[node].place

    def max_depth(self) -> int:
        return max((e.depth for e in self.events.values()), default=0)

    def __repr__(self) -> str:
        return (f"BranchingProcess({len(self.conditions)} conditions, "
                f"{len(self.events)} events)")


class Configuration:
    """A set of events that is downward closed and conflict-free.

    Configurations are the paper's explanations: the diagnosis set is a
    set of configurations of the unfolding.  Equality and hashing are by
    event set, so interleavings that fire the same events coincide --
    exactly the deduplication the diagnosis output needs.
    """

    def __init__(self, bp: BranchingProcess, events: Iterable[str]) -> None:
        self.bp = bp
        self.events = frozenset(events)
        for eid in self.events:
            if eid not in bp.events:
                raise PetriNetError(f"unknown event {eid}")

    def is_downward_closed(self) -> bool:
        for eid in self.events:
            for cid in self.bp.events[eid].preset:
                producer = self.bp.conditions[cid].producer
                if producer is not None and producer not in self.events:
                    return False
        return True

    def is_conflict_free(self) -> bool:
        consumed: set[str] = set()
        for eid in self.events:
            for cid in self.bp.events[eid].preset:
                if cid in consumed:
                    return False
                consumed.add(cid)
        return True

    def is_valid(self) -> bool:
        return self.is_downward_closed() and self.is_conflict_free()

    def cut(self) -> frozenset[str]:
        """Conditions produced (or initial) and not consumed: the final cut."""
        produced: set[str] = set(self.bp.roots)
        for eid in self.events:
            produced.update(self.bp.postset[eid])
        consumed = {cid for eid in self.events for cid in self.bp.events[eid].preset}
        return frozenset(produced - consumed)

    def marking(self) -> frozenset[str]:
        """The Petri-net marking reached by firing the configuration."""
        return frozenset(self.bp.conditions[c].place for c in self.cut())

    def linearize(self) -> list[str]:
        """One firing order compatible with causality (deterministic)."""
        order: list[str] = []
        pending = set(self.events)
        available = set(self.bp.roots)
        while pending:
            fired_this_round = []
            for eid in sorted(pending):
                if set(self.bp.events[eid].preset) <= available:
                    fired_this_round.append(eid)
            if not fired_this_round:
                raise PetriNetError("configuration is not downward closed")
            eid = fired_this_round[0]
            pending.discard(eid)
            available -= set(self.bp.events[eid].preset)
            available |= set(self.bp.postset[eid])
            order.append(eid)
        return order

    def alarms_by_peer(self) -> dict[str, list[str]]:
        """Alarm symbols emitted per peer, in causal order within the peer.

        Events of the same peer in a configuration are totally ordered by
        causality in well-formed peer models; when they are concurrent we
        use the linearization order, which is one admissible emission
        order.
        """
        out: dict[str, list[str]] = {}
        for eid in self.linearize():
            out.setdefault(self.bp.event_peer(eid), []).append(self.bp.event_alarm(eid))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Configuration) and self.events == other.events

    def __hash__(self) -> int:
        return hash(("Configuration", self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.events))

    def __repr__(self) -> str:
        return f"Configuration({sorted(self.events)})"
