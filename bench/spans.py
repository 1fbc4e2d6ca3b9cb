"""In-memory span recorder for the traced benchmark run.

A span is one timed call at a layer boundary: name, start, end, the span
that was open when it started (its parent) and the workload.  Spans stay in
memory and are written as JSON once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Record calls to module functions while the block runs.

        ``targets`` holds ``(module, attribute, span name)`` triples; an
        attribute the module no longer has is skipped, so its spans are
        simply missing.
        """
        saved = []
        try:
            for module, attr, name in targets:
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float | None:
        """Summed duration of the ``name`` spans; None when there are none."""
        vals = self.durations(name)
        return sum(vals) if vals else None

    def self_times(self, name: str) -> list[float]:
        """Duration of each ``name`` span minus the time its children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        return [s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                for s in self.spans if s["name"] == name]

    def median(self, name: str, self_time: bool = False) -> float | None:
        vals = self.self_times(name) if self_time else self.durations(name)
        return median(vals) if vals else None

    def write(self, path: Path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"env": env, "spans": self.spans}))
