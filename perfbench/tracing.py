"""In-memory spans recorded by the benchmark around its calls into wignerlab.

A span has a name, start and end (``time.perf_counter`` seconds) and the id
of the span that was open when it started.  Spans stay in memory and are
written out once, when the benchmark ends.  The untraced run uses
:data:`OFF`, whose spans cost one no-op context manager.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a version that records a span per call.

        This reaches calls the program makes internally (run_sweep calling
        estimate_global, the CLI calling the oracles) without editing it.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- queries -----------------------------------------------------------

    def duration(self, span: dict) -> float:
        return span["end"] - span["start"]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def self_time(self, span: dict) -> float:
        """Duration minus the part covered by the span's direct children."""
        return self.duration(span) - sum(self.duration(c) for c in self.children(span))

    def root(self, span: dict) -> dict:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span

    def named(self, name: str, root: str | None = None) -> list[dict]:
        """Spans called ``name``, optionally only those under a ``root`` span."""
        return [s for s in self.spans
                if s["name"] == name and (root is None or self.root(s)["name"] == root)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Off:
    def span(self, name: str):
        return contextlib.nullcontext()


OFF = _Off()
