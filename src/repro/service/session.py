"""One diagnosis session: an online supervisor with a durable identity.

A session wraps an :class:`~repro.diagnosis.online.OnlineDiagnoser` and
adds what serving needs: a sequence number making alarm ingestion
idempotent (exactly-once effect under at-least-once delivery), a sticky
degradation flag, a dirty flag telling the server whether the store
already holds this state, and pickle-isolated snapshot/rehydrate over
the whole state -- including the Petri net, so a snapshot alone suffices
to rebuild the session in a freshly started server process.

The net is static, so a session pickles it once and embeds those bytes
in every snapshot; rehydration resolves them through a small
bytes -> ``PetriNet`` map, and sessions on one net share one object.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.diagnosis.online import OnlineDiagnoser
from repro.errors import ServiceError
from repro.petri.net import PetriNet

#: bump when the snapshot layout changes incompatibly
SNAPSHOT_VERSION = 2

#: distinct nets :func:`_shared_net` keeps alive (least recently used
#: goes first); a server serves a handful of scenarios
SHARED_NETS = 16

_nets: OrderedDict[bytes, PetriNet] = OrderedDict()


def _shared_net(net_bytes: bytes) -> PetriNet:
    """The net pickled as ``net_bytes``: one immutable object for all
    the sessions rehydrated from equal bytes."""
    petri = _nets.get(net_bytes)
    if petri is None:
        petri = pickle.loads(net_bytes)
        if not isinstance(petri, PetriNet):
            raise TypeError(f"snapshot net is a {type(petri).__name__}")
        _nets[net_bytes] = petri
        if len(_nets) > SHARED_NETS:
            _nets.popitem(last=False)
    else:
        _nets.move_to_end(net_bytes)
    return petri


@dataclass(frozen=True)
class SessionConfig:
    """Per-session knobs (service-wide defaults live in ServiceConfig)."""

    #: prefix-index window of the wrapped diagnoser; ``None`` = exact.
    #: The service's degrade path tightens this at run time.
    window: int | None = 8
    #: the window a session is tightened to when the server degrades it
    #: under overload (must be <= window when both are set)
    degraded_window: int = 2
    #: snapshot the session to the store after every k-th applied alarm
    #: (1 = every alarm: a server kill loses nothing)
    checkpoint_interval: int = 1

    def __post_init__(self) -> None:
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1 or None")
        if self.degraded_window < 1:
            raise ValueError("degraded_window must be >= 1")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.window is not None and self.degraded_window > self.window:
            raise ValueError("degraded_window must not exceed window")


class DiagnosisSession:
    """The server-side state of one tenant's alarm stream."""

    def __init__(self, session_id: str, petri: PetriNet,
                 config: SessionConfig | None = None, *,
                 diagnoser: OnlineDiagnoser | None = None) -> None:
        self.session_id = session_id
        self.petri = petri
        self.config = config or SessionConfig()
        #: ``diagnoser`` is :meth:`from_bytes` handing in the resumed one
        self.diagnoser = diagnoser if diagnoser is not None \
            else OnlineDiagnoser(petri, window=self.config.window)
        #: sticky: once the server degraded this session, every further
        #: answer is marked partial (the window stays tightened)
        self.degraded = False
        #: True while the state differs from the snapshot the server last
        #: saved (or loaded this session from); the server clears it
        self.dirty = True
        self._net_bytes: bytes | None = None

    # -- the alarm path ------------------------------------------------------

    @property
    def seq(self) -> int:
        """Alarms applied so far; the next expected seq is ``seq + 1``."""
        return self.diagnoser.received_count

    @property
    def partial(self) -> bool:
        """True when answers may be a sound subset rather than exact."""
        return self.degraded or self.diagnoser.window_lossy

    def apply(self, symbol: str, peer: str) -> dict[str, Any]:
        """Apply one in-order alarm; returns the response body fields.

        Callers (the server) have already settled admission and the
        seq protocol; invalid alarms raise
        :class:`~repro.errors.UnknownAlarmError` out of the diagnoser's
        boundary validation, which the server maps to a structured
        ``unknown-alarm`` refusal.
        """
        candidates = self.diagnoser.push((symbol, peer))
        self.dirty = True
        return {
            "session": self.session_id,
            "seq": self.seq,
            "candidates": candidates,
            "consistent": self.diagnoser.is_consistent(),
            "partial": self.partial,
            "degraded": self.degraded,
        }

    def degrade(self) -> None:
        """Tighten the window (the overload degrade path); sticky."""
        self.degraded = True
        self.dirty = True
        self.diagnoser.set_window(self.config.degraded_window)

    def diagnoses_payload(self) -> dict[str, Any]:
        """The JSON-friendly diagnosis set of the stream so far."""
        diagnoses = sorted(sorted(config) for config in
                           self.diagnoser.diagnoses())
        return {
            "session": self.session_id,
            "seq": self.seq,
            "diagnoses": diagnoses,
            "consistent": self.diagnoser.is_consistent(),
            "partial": self.partial,
            "degraded": self.degraded,
        }

    # -- persistence ---------------------------------------------------------

    def snapshot_bytes(self) -> bytes:
        """The whole session, pickled: isolation from later pushes is by
        value (the bytes can never alias live state)."""
        if self._net_bytes is None:
            self._net_bytes = pickle.dumps(self.petri,
                                           protocol=pickle.HIGHEST_PROTOCOL)
        return pickle.dumps({
            "version": SNAPSHOT_VERSION,
            "session_id": self.session_id,
            "petri": self._net_bytes,
            "config": self.config,
            "degraded": self.degraded,
            "diagnoser": self.diagnoser.checkpoint(),
        }, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DiagnosisSession":
        """Rehydrate a session from :meth:`snapshot_bytes` output.

        The session comes back clean (it equals ``data``).  Anything
        wrong with the bytes -- not a pickle, another layout version,
        rows that do not make a branching process -- is a
        :class:`~repro.errors.ServiceError`.
        """
        try:
            record = pickle.loads(data)
        except Exception as err:
            raise ServiceError(f"corrupt session snapshot: {err}") from err
        if not isinstance(record, dict) \
                or record.get("version") != SNAPSHOT_VERSION:
            raise ServiceError(
                f"unsupported session snapshot version "
                f"{record.get('version') if isinstance(record, dict) else '?'}")
        try:
            petri = _shared_net(record["petri"])
            session = cls(record["session_id"], petri, record["config"],
                          diagnoser=OnlineDiagnoser.from_checkpoint(
                              petri, record["diagnoser"]))
            session._net_bytes = record["petri"]
            session.degraded = record["degraded"]
        except Exception as err:  # the bytes are outside input
            raise ServiceError(
                f"corrupt session snapshot: "
                f"{type(err).__name__}: {err}") from err
        session.dirty = False
        return session
