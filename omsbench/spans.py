"""In-memory span recorder for the traced pass.

A span is one call into a layer, recorded by the benchmark around the call
(the program itself is not instrumented). Spans are kept in a list and
written as one JSON file at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        """Record `name` around the with-block."""
        rec = {
            "id": len(self.spans), "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload, "pass": self.pass_id, "start": 0.0, "end": 0.0,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_ms(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover, in ms.
        Children of one span run one after another, so they never overlap."""
        child = {s["id"]: 0.0 for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: (s["end"] - s["start"] - child[s["id"]]) * 1e3 for s in self.spans}

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans}) + "\n")
