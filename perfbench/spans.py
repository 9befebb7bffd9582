"""In-memory spans for the traced benchmark run, and the per-layer table.

A span is one timed call into a layer: ``name`` (``<layer>.<what>``),
``start`` / ``end`` on the :func:`time.perf_counter` clock, the index of
the enclosing span (``parent``, ``None`` at the root) and the id of the
request it belongs to.  Spans stay in memory while the run is measured
and are written out once, when the run ends.

A span's *self time* is its duration minus the time its direct children
cover.  Spans here are recorded by one thread around sequential calls,
so children never overlap and that cover is simply their summed
duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               request))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, seconds: float, request: str) -> None:
        """Record a finished interval measured elsewhere (a proxy's call)
        as a child of the innermost open span."""
        end = time.perf_counter()
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, end - seconds, end, parent, request))

    def total(self, name: str, request: str | None = None) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.spans
                   if s.name == name and request in (None, s.request))

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time over all requests."""
        child_cover = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_cover[span.parent] += span.seconds
        out: dict[str, float] = {}
        for span, cover in zip(self.spans, child_cover):
            out[span.name] = out.get(span.name, 0.0) + span.seconds - cover
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def layer_table(tracer: Tracer, metrics: dict[str, float]) -> list[dict]:
    """One row per span name, largest self time first: self seconds,
    share of all traced time, and -- on the first row of each layer --
    that layer's metrics (named ``<layer>.*``).  Layers with metrics
    but no span get a row of their own."""
    selfs = tracer.self_times()
    total = sum(selfs.values()) or 1.0
    names = sorted(selfs, key=lambda n: -selfs[n])
    spanned = {n.split(".", 1)[0] for n in names}
    names += sorted({m.split(".", 1)[0] for m in metrics} - spanned)
    rows, shown = [], set()
    for name in names:
        layer = name.split(".", 1)[0]
        counters = {}
        if layer not in shown:
            shown.add(layer)
            counters = {m: v for m, v in sorted(metrics.items())
                        if m.startswith(layer + ".")}
        seconds = selfs.get(name, 0.0)
        rows.append({"span": name, "self_s": seconds,
                     "share": seconds / total, "counters": counters})
    return rows


def render_table(rows: list[dict]) -> str:
    lines = [f"{'span':<26} {'self_s':>10} {'share':>7}  counters"]
    for row in rows:
        counters = ", ".join(f"{k}={v:.6g}" for k, v in row["counters"].items())
        lines.append(f"{row['span']:<26} {row['self_s']:>10.4f} "
                     f"{row['share']:>6.1%}  {counters}")
    return "\n".join(lines)
