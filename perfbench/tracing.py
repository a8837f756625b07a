"""Spans recorded around the benchmark's calls into the program.

A :class:`Tracer` keeps every span in memory — name, layer, start, end,
parent span and the id of the operation (file, edit, request, compile step)
it belongs to — and writes them once, at the end, as Chrome trace-event
JSON, which Perfetto and ``chrome://tracing`` open directly.  Self time of
a span is its duration minus the time its child spans cover; summing self
time by layer gives the per-layer breakdown.

:data:`NULL` is the tracer of untraced runs: ``span`` hands back one shared
object whose enter/exit do nothing, so the measured code path is the same
with tracing on and off.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

#: The program's layers, named after its modules.  ``compile`` is
#: ``compile_grammar``'s own time on a cache miss (compose, passes, codegen
#: and load together; the traced run's breakdown build splits it), and
#: ``bench`` the benchmark's own time inside an operation span.
LAYERS = (
    "meta", "optim", "codegen", "compile", "vm", "cache", "layout", "runtime",
    "incremental", "serve", "bench",
)

#: The layers whose spans sit inside workload operations.  The rest are
#: timed by the traced run's breakdown build, outside any operation.
OP_LAYERS = ("compile", "cache", "layout", "runtime", "incremental", "serve", "bench")

_now = time.perf_counter


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        tracer = self.tracer
        tracer.ends[self.index] = _now()
        tracer.stack.pop()


class Tracer:
    """Records nested spans of one thread."""

    enabled = True

    def __init__(self) -> None:
        #: (name, layer, op, parent index or -1, args) per span.
        self.meta: list[tuple[str, str, Any, int, dict | None]] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []

    def span(self, name: str, layer: str, op: Any = None, **args: Any) -> _Span:
        index = len(self.meta)
        parent = self.stack[-1] if self.stack else -1
        if op is None and parent >= 0:
            op = self.meta[parent][2]
        self.meta.append((name, layer, op, parent, args or None))
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(_now())
        return _Span(self, index)

    def add(
        self, name: str, layer: str, start: float, end: float, op: Any = None,
        parent: int = -1, **args: Any,
    ) -> int:
        """Record a finished span timed elsewhere; returns its index.

        Used where spans overlap (requests in flight together) and for work
        another process reports only as a duration.
        """
        self.meta.append((name, layer, op, parent, args or None))
        self.starts.append(start)
        self.ends.append(end)
        return len(self.meta) - 1

    # -- analysis ----------------------------------------------------------

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans called ``name`` recorded from index ``since`` on."""
        return [
            self.ends[i] - self.starts[i]
            for i in range(since, len(self.meta))
            if self.meta[i][0] == name
        ]

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, (_name, _layer, _op, parent, _args) in enumerate(self.meta):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def layer_self(self, roots: tuple[str, ...]) -> tuple[dict[str, float], float, int]:
        """Self time by layer inside every span named in ``roots`` (the
        workload's operations), their total duration and their number."""
        own = self.self_times()
        inside = [False] * len(self.meta)
        by_layer = dict.fromkeys(LAYERS, 0.0)
        total = 0.0
        count = 0
        for index, (name, layer, _op, parent, _args) in enumerate(self.meta):
            if name in roots:
                inside[index] = True
                total += self.ends[index] - self.starts[index]
                count += 1
            elif parent >= 0 and inside[parent]:
                inside[index] = True
            else:
                continue
            by_layer[layer] += own[index]
        return by_layer, total, count

    # -- export ------------------------------------------------------------

    def write_chrome(self, path: Path, metadata: dict) -> None:
        """Write every span as a Chrome trace ``X`` (complete) event."""
        origin = min(self.starts) if self.starts else 0.0
        events = []
        for index, (name, layer, op, parent, args) in enumerate(self.meta):
            payload = {"span": index, "parent": parent}
            if op is not None:
                payload["op"] = op
            if args:
                payload.update(args)
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((self.starts[index] - origin) * 1e6, 3),
                "dur": round((self.ends[index] - self.starts[index]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": payload,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}, handle)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str, layer: str, op: Any = None, **args: Any) -> _NullSpan:
        return self._span

    def add(self, *args: Any, **kwargs: Any) -> int:
        return -1


NULL = NullTracer()
