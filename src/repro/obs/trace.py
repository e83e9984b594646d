"""Structured tracing for the validation pipeline.

A :class:`Tracer` records a span tree per validation epoch::

    epoch #12
      +- collect
      +- harden
      +- check
      *  verdict: demand (provenance instant)

Spans nest via a per-thread context stack, so instrumented code never
threads span handles through call signatures; work running on another
thread passes an explicit ``parent=`` id captured on the calling
thread.  Time comes from an injected monotonic clock
(:func:`repro.obs.clock.monotonic_clock` by default, a
:class:`~repro.obs.clock.ManualClock` in tests), which keeps hodor-lint
D1 clean and makes exports byte-stable under test.

Exports:

* :meth:`Tracer.to_chrome_trace` -- Chrome trace-event JSON (the
  ``traceEvents`` array format), loadable in Perfetto or
  ``chrome://tracing``;
* :meth:`Tracer.to_jsonl` -- a line-delimited structured event log
  (one JSON object per span/instant, with a leading meta line).

:class:`NullTracer` is the engine default: every call is a constant
no-op that allocates nothing, so the hot path pays only an attribute
check when tracing is off.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.clock import monotonic_clock, system_wall_time

__all__ = ["Span", "Tracer", "NullTracer", "TRACE_SCHEMA_VERSION"]

#: Bumped whenever the JSONL event schema changes shape.
TRACE_SCHEMA_VERSION = 1


class Span:
    """One timed region.  Created by :meth:`Tracer.span`; mutable only
    through :meth:`annotate` while open."""

    __slots__ = ("name", "category", "span_id", "parent_id", "tid", "start", "end", "args")

    def __init__(
        self,
        name: str,
        category: str,
        span_id: int,
        parent_id: Optional[int],
        tid: int,
        start: float,
    ) -> None:
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = tid
        self.start = start
        self.end = start
        self.args: Dict[str, Any] = {}

    def annotate(self, **kwargs: Any) -> None:
        """Attach key/value arguments to the span (shown in Perfetto)."""
        self.args.update(kwargs)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _SpanContext:
    """Context manager that opens a span on enter and seals it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects spans and instant events for later export.

    Args:
        clock: Monotonic time source (seconds).  Defaults to
            :func:`repro.obs.clock.monotonic_clock`; pass a
            :class:`~repro.obs.clock.ManualClock` for deterministic
            tests.
        wall_anchor: Wall-clock seconds corresponding to the first
            possible reading of ``clock``, recorded in export metadata.
            Defaults to the system wall clock for the real clock and to
            ``0.0`` when a custom clock is injected (so manual-clock
            exports stay byte-identical across runs).
    """

    enabled = True

    def __init__(self, clock=None, wall_anchor: Optional[float] = None) -> None:
        if wall_anchor is None:
            wall_anchor = system_wall_time() if clock is None else 0.0
        self._clock = clock if clock is not None else monotonic_clock
        self.wall_anchor = float(wall_anchor)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._spans: List[Span] = []
        #: (seq, name, ts, parent_id, tid, args)
        self._instants: List[Tuple[int, str, float, Optional[int], int, Dict[str, Any]]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit; recover rather than corrupt the tree
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._spans.append(span)

    def span(
        self,
        name: str,
        category: str = "engine",
        tid: int = 0,
        parent: Optional[int] = None,
        **args: Any,
    ) -> _SpanContext:
        """Open a span as a context manager.

        ``parent`` overrides the implicit per-thread nesting -- pass
        :meth:`current_id` captured on the dispatching thread when the
        span body runs on a pool worker.
        """
        if parent is None:
            stack = self._stack()
            parent = stack[-1].span_id if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(name, category, span_id, parent, tid, self._clock())
        if args:
            span.args.update(args)
        return _SpanContext(self, span)

    def instant(self, name: str, category: str = "engine", tid: int = 0, **args: Any) -> None:
        """Record a point-in-time event under the current span."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        ts = self._clock()
        with self._lock:
            self._next_id += 1
            self._instants.append((self._next_id, name, ts, parent, tid, dict(args)))

    def current_id(self) -> Optional[int]:
        """Id of the innermost open span on this thread (for explicit
        cross-thread parenting), or ``None`` outside any span."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _time_base(self) -> float:
        with self._lock:
            starts = [s.start for s in self._spans]
            starts.extend(ts for _, _, ts, _, _, _ in self._instants)
        return min(starts) if starts else 0.0

    def events(self) -> List[Dict[str, Any]]:
        """Normalized event dicts (the JSONL body), sorted by time.

        Span events carry ``type="span"`` with ``t0``/``t1`` in seconds
        relative to the trace start; instants carry ``type="instant"``
        with ``t``.
        """
        base = self._time_base()
        out: List[Dict[str, Any]] = []
        with self._lock:
            spans = list(self._spans)
            instants = list(self._instants)
        for span in spans:
            out.append(
                {
                    "type": "span",
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "cat": span.category,
                    "tid": span.tid,
                    "t0": span.start - base,
                    "t1": span.end - base,
                    "args": dict(span.args),
                }
            )
        for seq, name, ts, parent, tid, args in instants:
            out.append(
                {
                    "type": "instant",
                    "id": seq,
                    "parent": parent,
                    "name": name,
                    "cat": "engine",
                    "tid": tid,
                    "t": ts - base,
                    "args": dict(args),
                }
            )
        out.sort(key=lambda e: (e.get("t0", e.get("t", 0.0)), e["id"]))
        return out

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (Perfetto-loadable)."""
        trace_events: List[Dict[str, Any]] = []
        for event in self.events():
            args = dict(event["args"])
            args["span_id"] = event["id"]
            if event["parent"] is not None:
                args["parent_id"] = event["parent"]
            common = {
                "name": event["name"],
                "cat": event["cat"],
                "pid": 1,
                "tid": event["tid"],
                "args": args,
            }
            if event["type"] == "span":
                common["ph"] = "X"
                common["ts"] = round(event["t0"] * 1e6, 3)
                common["dur"] = round((event["t1"] - event["t0"]) * 1e6, 3)
            else:
                common["ph"] = "i"
                common["ts"] = round(event["t"] * 1e6, 3)
                common["s"] = "t"
            trace_events.append(common)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema_version": TRACE_SCHEMA_VERSION,
                "wall_anchor": self.wall_anchor,
            },
        }

    def to_jsonl(self) -> str:
        """Line-delimited event log: a meta line, then one event per line."""
        meta = {
            "type": "meta",
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "monotonic",
            "wall_anchor": self.wall_anchor,
        }
        lines = [json.dumps(meta, sort_keys=True)]
        lines.extend(json.dumps(event, sort_keys=True) for event in self.events())
        return "\n".join(lines) + "\n"

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, sort_keys=True)
            handle.write("\n")

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


class _NullSpan:
    """Shared no-op span: context manager and annotation sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False

    def annotate(self, **kwargs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Allocation-free tracer used when tracing is off (the default).

    Every method returns a shared constant, so instrumented hot paths
    cost one attribute access and one call per span when disabled.
    """

    enabled = False

    def span(
        self,
        name: str,
        category: str = "engine",
        tid: int = 0,
        parent: Optional[int] = None,
        **args: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "engine", tid: int = 0, **args: Any) -> None:
        pass

    def current_id(self) -> Optional[int]:
        return None
