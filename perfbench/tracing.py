"""Spans around the benchmark's calls into the library.

`Calls` is the untraced path: it times nothing beyond what the workload
loop itself times.  `Tracer` records one span per public call, with name,
layer, start, end, parent and request id, and keeps them in memory until
the run ends.  Where a public call hides another layer (for example
`fixed_point_solve` hides `gap_intervals` and `mrl_many`), the tracer runs
that inner call again on the same inputs afterwards and records it as a
probe: a probe is not a child span, so it never reduces its parent's
self time.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass

LAYERS = ("distribution", "integration", "mrl", "fixedpoint", "pricing")


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    layer: str
    name: str
    start: float
    end: float
    items: int
    error: str | None
    probe: bool


class Calls:
    """Untraced calls: run `fn` and nothing else."""

    traced = False

    def call(self, layer, name, fn, *args, items=1, probes=None, **kwargs):
        return fn(*args, **kwargs)

    def request(self, index):
        return contextlib.nullcontext()

    def run_probes(self):
        pass


class Tracer:
    traced = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = 0
        self._pending = []

    def request(self, index):
        return _Request(self, index)

    def call(self, layer, name, fn, *args, items=1, probes=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span.  `probes()` returns the
        (layer, name, thunk, items, inner probes or None) to run later, in
        `run_probes`.  `items` may be a function of the result."""
        span = self._open(layer, name, items, probe=False)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._close(span, type(exc).__name__)
            raise
        self._close(span, None)
        if callable(items):
            span.items = items(result)
        if probes is not None:
            self._pending.append((span, probes))
        return result

    def run_probes(self):
        """Run the probes queued since the last call, outside any timed region."""
        pending, self._pending = self._pending, []
        for span, probes in pending:
            self._probe(span, probes())

    def _probe(self, parent, probes):
        for layer, name, thunk, items, inner in probes:
            span = Span(len(self.spans), parent.id, self._request, layer, name,
                        0.0, 0.0, items, None, True)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                thunk()
            except Exception as exc:
                span.error = type(exc).__name__
            span.end = time.perf_counter()
            if inner is not None:
                self._probe(span, inner())

    def _open(self, layer, name, items, probe):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self._request, layer, name,
                    time.perf_counter(), 0.0, items, None, probe)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span, error):
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def layer_summary(self, ops: int) -> dict:
        """Self time, probe time, calls, items and errors per layer.

        Self time is a span's duration minus the part its child spans
        cover; request spans (layer "request") only group calls."""
        child_time = {}
        for s in self.spans:
            if s.parent is not None and not s.probe:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out = {layer: {"self_s": 0.0, "probe_s": 0.0, "calls": 0, "items": 0, "errors": 0}
               for layer in LAYERS}
        for s in self.spans:
            if s.layer not in out:
                continue
            row = out[s.layer]
            if s.probe:
                row["probe_s"] += s.end - s.start
                continue
            row["self_s"] += (s.end - s.start) - child_time.get(s.id, 0.0)
            row["calls"] += 1
            row["items"] += s.items
            row["errors"] += s.error is not None
        for row in out.values():
            row["self_ms_per_op"] = 1e3 * row.pop("self_s") / max(ops, 1)
            row["probe_ms_per_op"] = 1e3 * row.pop("probe_s") / max(ops, 1)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _Request:
    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer._request = self.index
        self.span = self.tracer._open("request", "request", 1, probe=False)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.span, None if exc_type is None else exc_type.__name__)
        return False
