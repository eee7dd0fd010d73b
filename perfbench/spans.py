"""In-memory span recording for the traced benchmark run.

A span is one timed interval at a layer boundary: a name, a start and
end on the ``perf_counter`` clock, the span that caused it, and the
identifier of the workload run it belongs to.  Spans are kept in
memory and written out once, when the run ends.  Only the benchmark's
own code records spans (around its calls into each layer); nothing
inside ``src/`` is instrumented.

:class:`TracedPartitioner` is the one exception to "around the call":
it forwards every attribute to the partitioner the benchmark passes to
``run_runtime`` and wraps ``route_chunk`` in a span, so the in-pipeline
routing calls are visible without changing a single routing decision.
"""

from __future__ import annotations

import contextlib
import copy
import json
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy as np


class Tracer:
    """Collects spans of one workload run; ``enabled=False`` records nothing."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._children: Dict[Optional[int], List[Dict[str, Any]]] = {}

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Dict[str, Any]]]:
        """Record ``name`` around the body; yields the span record (or None)."""
        if not self.enabled:
            yield None
            return
        record = self.open(name, **attrs)
        try:
            yield record
        finally:
            self.close(record)

    def open(self, name: str, **attrs: Any) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._children.setdefault(record["parent"], []).append(record)
        self._stack.append(record["id"])
        return record

    def close(self, record: Dict[str, Any]) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def children(self, span_id: int) -> List[Dict[str, Any]]:
        return self._children.get(span_id, [])

    def self_seconds(self, record: Dict[str, Any]) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        cursor = record["start"]
        # Children are recorded in start order.
        for child in self.children(record["id"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], record["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (record["end"] - record["start"]) - covered

    def self_totals(self) -> Dict[str, float]:
        """Self time summed per span name, over the whole run."""
        totals: Dict[str, float] = {}
        for record in self.spans:
            name = record["name"]
            totals[name] = totals.get(name, 0.0) + self.self_seconds(record)
        return totals

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write every span, the self-time table and ``extra`` as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["run"] = self.run_id
        payload["self_seconds"] = self.self_totals()
        payload["spans"] = self.spans
        path.write_text(json.dumps(payload, indent=1) + "\n")


class TracedPartitioner:
    """Forwarding wrapper that spans every ``route_chunk`` call.

    Everything else (``remap_masked``, ``mask_worker``, counters, ...)
    is forwarded untouched, and ``route_chunk`` returns the wrapped
    partitioner's array as is, so routing is decision-identical.  A
    deep copy (the runtime's pristine replay partitioner) copies the
    wrapped state but shares the tracer, and labels its spans as
    replay routing.
    """

    def __init__(self, inner: Any, tracer: Tracer, label: str = "route_chunk") -> None:
        self.__dict__["_inner"] = inner
        self.__dict__["_tracer"] = tracer
        self.__dict__["_label"] = label

    def route_chunk(self, keys: Any, timestamps: Any = None) -> np.ndarray:
        tracer = self._tracer
        record = tracer.open(self._label, messages=int(len(keys)))
        try:
            return self._inner.route_chunk(keys, timestamps)
        finally:
            tracer.close(record)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_inner"], name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._inner, name, value)

    def __deepcopy__(self, memo: Dict[int, Any]) -> "TracedPartitioner":
        return TracedPartitioner(
            copy.deepcopy(self._inner, memo), self._tracer, "replay.route_chunk"
        )
