"""In-memory spans for the traced run.

A span is (id, name, parent, run, start_ns, end_ns).  Span ids carry the
tracer's origin, so spans from several processes of one run can share a
file.  Spans are kept in a list and written once, at exit.  The tracer
keeps one stack of open spans, so it must only be used from one thread;
the traced experiment runs at workers 1 for that reason.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self, run_id: str, origin: str):
        self.run_id = run_id
        self.origin = origin
        self.spans: list[dict] = []
        self._open: list[str] = []

    def _start(self, name: str) -> dict:
        span = {"id": f"{self.origin}:{len(self.spans)}", "name": name,
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id, "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._start(name)
        try:
            yield span
        finally:
            self._end(span)

    def wrap(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` (a function or a property) by a version
        that records a span per call.  Returns a function that restores
        the original; raises AttributeError if ``owner`` has no ``attr``."""
        original = getattr(owner, attr)  # on a class, a property comes back as itself
        target = original.fget if isinstance(original, property) else original

        @wraps(target)
        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                return target(*args, **kwargs)
            finally:
                self._end(span)

        setattr(owner, attr, property(traced) if isinstance(original, property) else traced)
        return lambda: setattr(owner, attr, original)

    def duration_s(self, span: dict) -> float:
        return (span["end_ns"] - span["start_ns"]) * 1e-9

    def median_s(self, name: str) -> float:
        """Median duration of the closed spans called ``name``."""
        durations = [self.duration_s(s) for s in self.spans
                     if s["name"] == name and s["end_ns"] is not None]
        if not durations:
            raise LookupError(f"no span named {name!r}")
        return statistics.median(durations)

    def self_time_s(self, span: dict) -> float:
        """The span's duration minus the time its direct children cover
        (children of a single-threaded tracer never overlap)."""
        covered = sum(self.duration_s(s) for s in self.spans
                      if s["parent"] == span["id"] and s["end_ns"] is not None)
        return self.duration_s(span) - covered

    def write(self, path, mode: str = "w") -> None:
        with open(path, mode) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
