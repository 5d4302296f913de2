"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded around calls into the program's public functions,
from the benchmark's own code.  Each span carries its name, start, end,
parent span and the case it belongs to, so spans of one case share an
identifier.  The recorder keeps everything in memory; :meth:`Tracer.dump`
writes the spans out once, when the pass has ended.

A span's name is ``<layer>.<operation>`` (``kernel.execute``,
``cache.store``); :func:`self_times` turns the spans into per-name self
time: a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass(frozen=True)
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    case: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, case: int | None = None) -> Iterator[None]:
        ident = self._next
        self._next += 1
        parent = self._open[-1] if self._open else None
        self._open.append(ident)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(ident, name, start, end, parent, case))

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path: str) -> None:
        spans = sorted(self.spans, key=lambda span: span.ident)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in spans], handle)
            handle.write("\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name.

    Spans nest on one thread, so the children of a span never overlap
    and the part of it they cover is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    totals: dict[str, float] = {}
    for span in spans:
        own = span.duration - covered.get(span.ident, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
