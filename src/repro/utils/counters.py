"""Instrumentation counters.

Every engine in the library (bottom-up evaluation, QSQ, dQSQ, the dedicated
diagnoser) reports its work through a :class:`Counters` instance so that the
experiment harness can compare "quantity of materialized data" and message
traffic -- the paper's figures of merit (Sections 3.1 and 4.3).

Naming convention: run-level network counters live under ``net.*``
(``net.seed``, ``net.dropped``, ``net.recovery.crashes``, ...), the
multiprocessing transport reports under ``mp.*``, and engine-level
counters are unprefixed (``rewritings``, ``tuples_shipped``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator


class Counters:
    """A named bag of monotone integer counters.

    >>> c = Counters()
    >>> c.add("tuples", 3)
    >>> c.add("tuples")
    >>> c["tuples"]
    4
    >>> c["missing"]
    0
    """

    def __init__(self) -> None:
        self._values: dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (default 1)."""
        if amount < 0:
            raise ValueError(f"counters are monotone; cannot add {amount}")
        self._values[name] += amount

    def set_max(self, name: str, value: int) -> None:
        """Record the maximum of the current value and ``value``."""
        if value > self._values[name]:
            self._values[name] = value

    def __getitem__(self, name: str) -> int:
        return self._values.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def as_dict(self) -> dict[str, int]:
        """Return a plain-dict snapshot, sorted by counter name."""
        return {name: self._values[name] for name in sorted(self._values)}

    def merge(self, other: "Counters", prefix: str = "") -> None:
        """Fold ``other`` into this bag, optionally prefixing names."""
        for name, value in other.as_dict().items():
            self._values[prefix + name] += value

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"Counters({inner})"
