"""In-memory span recorder used by the benchmark's traced mode.

Spans are recorded from the benchmark's own code, around calls into the
simulator's layers: either as ``with tracer.span(name):`` blocks or by
replacing a bound method on one object with a timing wrapper
(:meth:`Tracer.wrap`).  Nothing inside ``src/`` is touched.

A span is ``[name, start_s, end_s, parent_index, trace_id]``: the parent is
the span that was open when this one began (-1 at top level) and the trace
id groups the spans of one simulated run.  A span's *self time* is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List


class Tracer:
    """Collects spans in memory; :meth:`summary` derives per-name totals."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.trace_id = 0

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.trace_id])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Record a span around every later call of ``obj.attr``.

        The wrapper is set on the instance, so it only sees calls made
        through that object (``self.attr(...)`` inside the program).
        """
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self._end(index)

        setattr(obj, attr, traced)

    def mark(self) -> int:
        """Position to pass to :meth:`summary` to cover only later spans."""
        return len(self.spans)

    def summary(self, since: int = 0, under: str = "") -> Dict[str, Dict[str, Any]]:
        """Per span name: ``count``, ``total_s``, ``self_s`` and ``durations_s``.

        With ``under`` set, only spans named ``under`` and their descendants
        count, e.g. the work done inside ``sim.run`` but not during set-up.
        """
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        included = [not under] * len(spans)
        for i, (name, start, end, parent, _trace) in enumerate(spans):
            if parent >= since:
                child_time[parent - since] += end - start
                included[i] = included[i] or included[parent - since]
            included[i] = included[i] or name == under
        out: Dict[str, Dict[str, Any]] = {}
        for i, (name, start, end, _parent, _trace) in enumerate(spans):
            if not included[i]:
                continue
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations_s": []}
            )
            duration = end - start
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
            entry["durations_s"].append(duration)
        return out

    def to_records(self) -> List[Dict[str, Any]]:
        """The spans as plain dicts, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "parent": parent,
                "trace": trace,
            }
            for name, start, end, parent, trace in self.spans
        ]


class NullTracer(Tracer):
    """The untraced mode: same interface, records nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        return None
