"""Online diagnosis: process alarms one at a time ([8]'s regime).

Section 4.3 describes the dedicated algorithm as incremental: "Starting
from the set M of initially marked places on the Petri net and an empty
alarm sequence, one adds, to the net constructed for the prefix of
length i-1, the transition nodes that emit the i-th alarm in the
sequence and can extend some configuration of length i-1 already in the
net."

Because only per-peer order is reliable, "configurations of length i-1"
must be read per the k-ary prefix index of Section 4.2: the supervisor
maintains explanations for *every* vector of per-peer prefix lengths (a
causally later event may correspond to an alarm received earlier -- the
naive "extend by the newest alarm only" reading is incomplete exactly
when peers' channels race).  This module therefore maintains the
materialized counterpart of the ``configPrefixes`` relation: a table
from index vectors to partial explanations, extended slab-by-slab as
alarms arrive, over a shared, monotonically growing branching process.

Invariants (tested):

* after any prefix, :meth:`diagnoses` equals the batch diagnosis of the
  alarms received so far;
* the shared branching process only grows (the paper's incrementality);
* its event set equals the dedicated algorithm's materialized prefix.

Two service-facing capabilities extend the original regime:

* **windowing/compaction** -- with ``window=H`` the prefix-index table
  only retains vectors whose every component lies within ``H`` of the
  corresponding stream head.  The table is then bounded by
  ``(H+1)^peers`` vectors regardless of stream length, at the price of
  soundness-only answers when a cross-peer race outlasts the window:
  compaction can *lose* explanations, never invent them, and
  :attr:`window_lossy` reports honestly whether a non-empty vector was
  ever dropped.  While it stays ``False`` the compacted diagnoses are
  *exactly* the unwindowed ones (the compaction oracle test pins this).
* **checkpoint/restore** -- :meth:`checkpoint` returns the whole
  supervisor state as plain data (tuples, lists, dicts, strings, ints:
  cheap to pickle, and building it is the copy that isolates it from
  later pushes); :meth:`restore` rebuilds the diagnoser from one, after
  which resumed diagnoses equal the batch diagnosis of the full alarm
  sequence.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

from repro.diagnosis.alarms import Alarm, AlarmSequence
from repro.diagnosis.problem import DiagnosisSet, diagnosis_set
from repro.errors import UnknownAlarmError
from repro.petri.net import PetriNet
from repro.petri.occurrence import BranchingProcess
from repro.utils.counters import Counters

#: index vector: sorted (peer, consumed-count) pairs, zero counts omitted
IndexVector = tuple[tuple[str, int], ...]

#: bump when the :meth:`OnlineDiagnoser.checkpoint` layout changes
CHECKPOINT_VERSION = 2


class _State(NamedTuple):
    """One partial explanation: its events and its available cut."""

    events: frozenset[str]
    cut: frozenset[str]


#: per-net alphabet tables.  The table is a function of the (immutable)
#: net, so every diagnoser over one ``PetriNet`` object shares one.
_ALPHABETS: weakref.WeakKeyDictionary[PetriNet, dict[str, frozenset[str]]] \
    = weakref.WeakKeyDictionary()


def _symbols_of_peer(petri: PetriNet) -> dict[str, frozenset[str]]:
    table = _ALPHABETS.get(petri)
    if table is None:
        net = petri.net
        table = _ALPHABETS[petri] = {
            peer: frozenset(net.alarm[t]
                            for t in net.transitions_of_peer(peer))
            for peer in net.peers()}
    return table


def _vector(counts: dict[str, int]) -> IndexVector:
    return tuple(sorted((peer, count) for peer, count in counts.items()
                        if count > 0))


def _component(vector: IndexVector, peer: str) -> int:
    for p, count in vector:
        if p == peer:
            return count
    return 0


def _decrement(vector: IndexVector, peer: str) -> IndexVector:
    counts = dict(vector)
    counts[peer] -= 1
    return _vector(counts)


class OnlineDiagnoser:
    """Incremental supervisor: feed alarms with :meth:`push`.

    ``window`` bounds the prefix-index table (see the module docstring);
    ``None`` keeps the exact, unbounded regime.
    """

    def __init__(self, petri: PetriNet, *, window: int | None = None) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1 or None, got {window}")
        self.petri = petri
        self.window = window
        self.bp = BranchingProcess(petri)
        self.counters = Counters()
        self._window_lossy = False
        roots = [self.bp.add_root(place) for place in sorted(petri.marking)]
        initial = _State(events=frozenset(),
                         cut=frozenset(c.cid for c in roots))
        #: per-vector states as insertion-ordered dict keys: a set would
        #: iterate a rehydrated table in another order than the live one,
        #: and pushes would add their events in that order
        self._table: dict[IndexVector, dict[_State, None]] = {
            (): {initial: None}}
        self._streams: dict[str, list[str]] = {}
        #: (symbol, peer) pairs in arrival order
        self._received: list[tuple[str, str]] = []
        self._symbols_of_peer = _symbols_of_peer(petri)

    @classmethod
    def from_checkpoint(cls, petri: PetriNet,
                        snapshot: dict) -> "OnlineDiagnoser":
        """A diagnoser over ``petri`` resumed from ``snapshot``, without
        building the fresh state :meth:`restore` would throw away."""
        diagnoser = cls.__new__(cls)
        diagnoser.petri = petri
        diagnoser._symbols_of_peer = _symbols_of_peer(petri)
        diagnoser.restore(snapshot)
        return diagnoser

    # -- the supervisor loop -------------------------------------------------------

    def _validate(self, symbol: str, peer: str) -> None:
        """Boundary validation: reject malformed input *before* it can
        corrupt the stream state or surface as a bare ``KeyError`` from
        deep inside :meth:`_extensions`.  A well-formed alarm the model
        cannot explain is *not* an error -- that is what
        :meth:`is_consistent` reports."""
        symbols = self._symbols_of_peer.get(peer)
        if symbols is None:
            raise UnknownAlarmError(
                Alarm(symbol, peer),
                f"peer {peer!r} is not a peer of the model "
                f"(known: {', '.join(sorted(self._symbols_of_peer))})")
        if symbol not in symbols:
            raise UnknownAlarmError(
                Alarm(symbol, peer),
                f"peer {peer!r} never emits symbol {symbol!r} (its "
                f"alphabet: {', '.join(sorted(symbols)) or '<empty>'})")

    def push(self, alarm: Alarm | tuple[str, str]) -> int:
        """Process one alarm; returns the surviving candidate count.

        Extends the prefix-index table by the slab of vectors whose
        ``alarm.peer`` component equals the new subsequence length, then
        compacts vectors that fell out of the window (if one is set).
        """
        if isinstance(alarm, Alarm):
            alarm = (alarm.symbol, alarm.peer)
        symbol, pushed_peer = alarm
        self._validate(symbol, pushed_peer)
        self._received.append((symbol, pushed_peer))
        self.counters.add("alarms_processed")
        stream = self._streams.setdefault(pushed_peer, [])
        stream.append(symbol)
        new_count = len(stream)

        for vector in self._slab(pushed_peer, new_count):
            states: dict[_State, None] = {}
            for peer, count in vector:
                symbol = self._streams[peer][count - 1]
                previous = self._table.get(_decrement(vector, peer), ())
                for state in previous:
                    for extended in self._extensions(state, peer, symbol):
                        states[extended] = None
            self._table[vector] = states
        self._compact(pushed_peer)
        self.counters.set_max("peak_table_vectors", len(self._table))
        return self.candidate_count()

    def push_all(self, alarms: AlarmSequence) -> int:
        for alarm in alarms:
            self.push(alarm)
        return self.candidate_count()

    def _floor(self, peer: str) -> int:
        """The lowest in-window component for ``peer`` (0 = unbounded)."""
        if self.window is None:
            return 0
        return max(0, len(self._streams.get(peer, ())) - self.window)

    def _slab(self, peer: str, new_count: int) -> list[IndexVector]:
        """All index vectors with ``peer -> new_count`` and other peers'
        components at most their current lengths (at least their window
        floors), by ascending weight."""
        others = [(q, length) for q, stream in sorted(self._streams.items())
                  if q != peer for length in [len(stream)]]
        vectors: list[dict[str, int]] = [{peer: new_count}]
        for q, length in others:
            vectors = [dict(v, **{q: c}) for v in vectors
                       for c in range(self._floor(q), length + 1)]
        out = [_vector(v) for v in vectors]
        out.sort(key=lambda vec: sum(count for _p, count in vec))
        return out

    def _compact(self, peer: str | None = None) -> None:
        """Drop table vectors with any component below its window floor.

        ``peer`` names the only stream that grew since the table last
        satisfied every floor (:meth:`push` passes the pushed peer), so
        only that component is compared; ``None`` compares them all.

        Soundness: a dropped vector can only be *read* (through
        :meth:`_slab` / ``_decrement``) by vectors that are themselves
        below the floor, so compaction loses explanations that would
        have needed an out-of-window race to reach the target -- it
        never fabricates any.  Dropping a non-empty vector sets
        :attr:`window_lossy`; while that stays ``False`` every future
        diagnosis is bit-identical to the unwindowed run's.
        """
        peers = self._streams if peer is None else (peer,)
        floors = [(p, floor) for p in peers if (floor := self._floor(p)) > 0]
        if not floors:
            return
        dead = []
        for vector in self._table:
            for p, floor in floors:
                if _component(vector, p) < floor:
                    dead.append(vector)
                    break
        for vector in dead:
            states = self._table.pop(vector)
            self.counters.add("window_vectors_compacted")
            if states:
                self._window_lossy = True
                self.counters.add("window_states_dropped", len(states))

    def set_window(self, window: int | None) -> None:
        """Re-bound the table (the service's degrade path tightens it).

        Tightening compacts immediately; loosening only affects future
        compaction -- vectors already dropped stay dropped, which is why
        :attr:`window_lossy` is never reset.
        """
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1 or None, got {window}")
        self.window = window
        self._compact()

    @property
    def window_lossy(self) -> bool:
        """True once compaction has dropped a non-empty vector: from then
        on :meth:`diagnoses` is a sound subset rather than exact."""
        return self._window_lossy

    def _extensions(self, state: _State, peer: str, symbol: str) -> list[_State]:
        """Extend ``state`` by one event of ``peer`` emitting ``symbol``."""
        net = self.petri.net
        out: list[_State] = []
        by_place: dict[str, list[str]] = {}
        for cid in state.cut:
            by_place.setdefault(self.bp.conditions[cid].place, []).append(cid)
        for transition in net.transitions_of_peer(peer):
            if net.alarm[transition] != symbol:
                continue
            for preset in self._presets(transition, by_place):
                event = self.bp.add_event(transition, preset)
                if event is None:
                    eid = f"f({transition},{','.join(preset)})"
                else:
                    eid = event.eid
                    self.counters.add("events_materialized")
                new_cut = (state.cut - frozenset(preset)) | frozenset(
                    self.bp.postset[eid])
                out.append(_State(events=state.events | {eid}, cut=new_cut))
        return out

    def _presets(self, transition: str,
                 by_place: dict[str, list[str]]) -> list[tuple[str, ...]]:
        """Condition tuples in the cut matching the transition's preset.

        Conditions of one cut are pairwise concurrent by construction, so
        no concurrency check is needed -- the structural advantage of the
        online formulation.
        """
        chosen: list[tuple[str, ...]] = [()]
        for place in self.petri.net.parents(transition):
            candidates = by_place.get(place, [])
            if not candidates:
                return []
            chosen = [prefix + (cid,) for prefix in chosen for cid in candidates]
        return chosen

    # -- checkpoint / restore ------------------------------------------------------

    def checkpoint(self) -> dict:
        """The whole supervisor state as plain data.

        Taken between pushes, so the table is at a slab boundary and
        internally consistent by construction.  The net itself is static
        configuration and not included -- restore into a diagnoser built
        over the same :class:`PetriNet`.  The value holds only tuples,
        lists, dicts, strings and ints: the branching process as its two
        row lists (:meth:`BranchingProcess.rows`; its five other maps
        are rebuilt on restore), each table state as an ``(events, cut)``
        pair of tuples.  Building it copies every mutable container, so
        later pushes cannot reach into it.
        """
        conditions, events = self.bp.rows()
        return {
            "version": CHECKPOINT_VERSION,
            "window": self.window,
            "window_lossy": self._window_lossy,
            "received": list(self._received),
            "streams": {peer: list(s) for peer, s in self._streams.items()},
            "table": {vector: [(tuple(state.events), tuple(state.cut))
                               for state in states]
                      for vector, states in self._table.items()},
            "counters": self.counters.as_dict(),
            "conditions": conditions,
            "events": events,
        }

    def restore(self, snapshot: dict | None) -> None:
        """Replace this diagnoser's state with ``snapshot`` (``None`` =
        reset to the post-construction state).

        Unlike the dQSQ peer's restore (which replays a message log),
        the snapshot here is the complete materialized state: no replay
        is needed, and resumed diagnoses equal the batch diagnosis of
        the full alarm sequence.  Nothing mutable is shared with
        ``snapshot``, which may be restored again.  Stored rows are
        checked as :meth:`BranchingProcess.from_rows` describes
        (:class:`~repro.errors.PetriNetError`).  Counters are restored
        from the snapshot so per-session statistics stay consistent
        across rehydration; the restore itself is counted on top.
        """
        if snapshot is None:
            restores = self.counters["restores"]
            self.__init__(self.petri, window=self.window)
            self.counters.add("restores", restores + 1)
            return
        if snapshot["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version "
                             f"{snapshot['version']}")
        # decode first, assign after: a refused snapshot changes nothing
        bp = BranchingProcess.from_rows(
            self.petri, snapshot["conditions"], snapshot["events"])
        table = {vector: {_State(frozenset(events), frozenset(cut)): None
                          for events, cut in states}
                 for vector, states in snapshot["table"].items()}
        counters = Counters()
        for name, value in snapshot["counters"].items():
            counters.add(name, value)
        self.bp = bp
        self._table = table
        self.counters = counters
        self.window = snapshot["window"]
        self._window_lossy = snapshot["window_lossy"]
        self._received = list(snapshot["received"])
        self._streams = {peer: list(s)
                         for peer, s in snapshot["streams"].items()}
        self.counters.add("restores")

    # -- results ----------------------------------------------------------------------

    def _target(self) -> IndexVector:
        return _vector({p: len(s) for p, s in self._streams.items()})

    def diagnoses(self) -> DiagnosisSet:
        """The diagnosis set of the prefix received so far."""
        return diagnosis_set(state.events
                             for state in self._table.get(self._target(), ()))

    def received(self) -> AlarmSequence:
        """The alarms consumed so far, in arrival order."""
        return AlarmSequence(self._received)

    @property
    def received_count(self) -> int:
        """Number of alarms consumed so far (the session sequence number)."""
        return len(self._received)

    def is_consistent(self) -> bool:
        """False once the received stream has no explanation."""
        return bool(self._table.get(self._target()))

    def candidate_count(self) -> int:
        return len(self._table.get(self._target(), ()))

    def materialized_events(self) -> frozenset[str]:
        """All unfolding events built so far (the Theorem-4 measure);
        includes events of candidates that later died, like [8]."""
        return frozenset(self.bp.events)


@dataclass(frozen=True)
class OnlineResult:
    """:class:`repro.api.DiagnosisOutcome` wrapper over one online run.

    ``partial`` is the window-compaction lossiness verdict: ``True``
    means the configured window dropped live partial explanations, so
    the diagnosis set is a sound subset of the exact one.
    """

    diagnoses: DiagnosisSet
    counters: Counters
    materialized_events: frozenset[str]
    materialized_conditions: frozenset[str]
    window_lossy: bool

    @property
    def partial(self) -> bool:
        return self.window_lossy

    @property
    def peer_report(self) -> dict[str, dict[str, int | bool]] | None:
        """In-process: there are no peers to fail."""
        return None


def online_diagnosis_result(petri: PetriNet, alarms: AlarmSequence,
                            window: int | None = None) -> OnlineResult:
    """The :func:`repro.diagnose` entry point for ``method="online"``."""
    diagnoser = OnlineDiagnoser(petri, window=window)
    diagnoser.push_all(alarms)
    return OnlineResult(
        diagnoses=diagnoser.diagnoses(),
        counters=diagnoser.counters,
        materialized_events=diagnoser.materialized_events(),
        materialized_conditions=frozenset(diagnoser.bp.conditions),
        window_lossy=diagnoser.window_lossy,
    )
