"""In-memory span recorder for the traced (staged) replay.

Spans are recorded by the benchmark's own code around calls into each
layer's public functions; nothing in ``src/`` is instrumented.  A span
is ``{id, name, op, parent, start, end}`` with times in seconds on the
``perf_counter`` clock.  A layer's self time is its span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[dict]:
        """Record a nested span; children inherit the parent's ``op``.

        The stack makes nesting implicit, so this is for synchronous
        code only; interleaved asyncio tasks use :meth:`add`.
        """
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"id": len(self.spans), "name": name, "op": op,
                  "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, op: str, start: float, end: float) -> None:
        """Record a finished root span (one request of an asyncio client)."""
        self.spans.append({"id": len(self.spans), "name": name, "op": op,
                           "parent": None, "start": start, "end": end})

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}) + "\n")


def duration_ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3
