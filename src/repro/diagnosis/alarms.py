"""Alarms and alarm sequences (Section 2, "The problem").

An alarm is a pair ``(a, p)``: symbol and emitting peer.  The supervisor
receives a global sequence, but asynchrony means only the per-peer
subsequences are reliable: "for each individual peer the relative order
of its alarms in the sequence respects the order in which they were
sent".  Consequently two global sequences with equal per-peer
projections have identical diagnoses -- an equivalence the property
tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Alarm:
    """One alarm occurrence: symbol plus emitting peer."""

    symbol: str
    peer: str

    def __str__(self) -> str:
        return f"({self.symbol},{self.peer})"


class AlarmSequence:
    """The sequence received by the supervisor."""

    def __init__(self, alarms: Iterable[Alarm | tuple[str, str]]) -> None:
        normalized: list[Alarm] = []
        for alarm in alarms:
            if isinstance(alarm, Alarm):
                normalized.append(alarm)
            else:
                symbol, peer = alarm
                normalized.append(Alarm(symbol, peer))
        self.alarms = tuple(normalized)

    def by_peer(self) -> dict[str, tuple[str, ...]]:
        """The per-peer subsequences A_p (the reliable information)."""
        out: dict[str, list[str]] = {}
        for alarm in self.alarms:
            out.setdefault(alarm.peer, []).append(alarm.symbol)
        return {peer: tuple(symbols) for peer, symbols in out.items()}

    def peers(self) -> tuple[str, ...]:
        """Peers appearing in the sequence, in first-appearance order."""
        seen: list[str] = []
        for alarm in self.alarms:
            if alarm.peer not in seen:
                seen.append(alarm.peer)
        return tuple(seen)

    def project(self, peer: str) -> tuple[str, ...]:
        return tuple(a.symbol for a in self.alarms if a.peer == peer)

    def equivalent(self, other: "AlarmSequence") -> bool:
        """True when the per-peer projections coincide (same diagnoses)."""
        return self.by_peer() == other.by_peer()

    def __len__(self) -> int:
        return len(self.alarms)

    def __iter__(self) -> Iterator[Alarm]:
        return iter(self.alarms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AlarmSequence) and self.alarms == other.alarms

    def __hash__(self) -> int:
        return hash(("AlarmSequence", self.alarms))

    def __repr__(self) -> str:
        return f"AlarmSequence({' '.join(str(a) for a in self.alarms)})"
