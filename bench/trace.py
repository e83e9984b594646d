"""Benchmark-side tracing: spans timed from outside the program.

The traced pass wraps the collaborators the harness injects into
``StreamPipeline`` (assembler, engine, history sink, ``on_epoch``
observer) in timing proxies and records a span around every call into a
layer.  Nothing inside ``src/`` is instrumented; spans inside the
program are a later change.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus what its child spans
cover: the self time of a ``stream.ingest.run`` span is the ingest
layer's own cost (feed merge, queue hop, consumer loop, and whatever
``run()`` does after its last call into another layer).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List

clock = time.perf_counter


class Spans:
    """Span rows ``[name, start, end, parent]`` plus per-name totals.

    Calls made once per telemetry update (``offer`` on an update that
    seals nothing) are too many to keep one row each; ``keep=False``
    adds them to the per-name totals only.
    """

    def __init__(self) -> None:
        self.rows: List[list] = []
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        #: When the latest recorded call into a layer returned.
        self.last_end = 0.0
        self._stack: List[int] = []

    def bump(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def record(self, name: str, start: float, end: float, keep: bool = True) -> None:
        """A finished call, caused by whichever span is open now."""
        if keep:
            parent = self._stack[-1] if self._stack else None
            self.rows.append([name, start, end, parent])
        self.bump(name, end - start)
        self.last_end = end

    @contextmanager
    def span(self, name: str):
        """Open a span; spans recorded inside it name it as parent."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.rows)
        row = [name, clock(), None, parent]
        self.rows.append(row)
        self._stack.append(index)
        try:
            yield row
        finally:
            self._stack.pop()
            row[2] = clock()
            self.bump(name, row[2] - row[1])

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def mean(self, name: str) -> float:
        """Mean seconds per recorded call; 0 when there was none."""
        return self.total(name) / max(1, self.count(name))


class _Proxy:
    """Forwards everything it does not time to the wrapped object."""

    def __init__(self, inner, spans: Spans) -> None:
        self._inner = inner
        self._spans = spans

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TimedAssembler(_Proxy):
    """Splits assembler time into buffering and sealing calls."""

    def offer(self, event):
        start = clock()
        sealed = self._inner.offer(event)
        end = clock()
        if sealed:
            self._spans.record("stream.assembler.seal", start, end)
        else:
            self._spans.record("stream.assembler.buffer", start, end, keep=False)
        return sealed

    def _sealing_call(self, method, *args):
        start = clock()
        sealed = method(*args)
        end = clock()
        if sealed:
            self._spans.record("stream.assembler.seal", start, end)
        else:
            self._spans.record("stream.assembler.idle", start, end, keep=False)
        return sealed

    def mark_done(self, router):
        return self._sealing_call(self._inner.mark_done, router)

    def drain(self):
        return self._sealing_call(self._inner.drain)


class TimedEngine(_Proxy):
    """Times each validation call from outside the engine."""

    def validate_events(self, events, timestamp, inputs, topology=None):
        start = clock()
        report = self._inner.validate_events(events, timestamp, inputs, topology=topology)
        self._spans.record("engine.validate_events", start, clock())
        return report

    def validate(self, snapshot, inputs, topology=None):
        start = clock()
        report = self._inner.validate(snapshot, inputs, topology=topology)
        self._spans.record("engine.validate", start, clock())
        return report


class TimedSink(_Proxy):
    def record(self, report, **kwargs):
        start = clock()
        epoch_id = self._inner.record(report, **kwargs)
        self._spans.record("history.sink.record", start, clock())
        return epoch_id


class NullAssembler:
    """Accepts every delivery and never seals: with it the pipeline
    runs its ingest layer alone (feed merge, queue hop, consumer loop).
    The engine is therefore never called; :class:`NullEngine` says so."""

    def __init__(self) -> None:
        self.updates = 0
        self.late_dropped = 0
        self.duplicates = 0

    def offer(self, _event) -> list:
        self.updates += 1
        return []

    def mark_done(self, _router) -> list:
        return []

    def drain(self) -> list:
        return []


class NullEngine:
    def validate_events(self, *_args, **_kwargs):
        raise AssertionError("the null assembler seals nothing to validate")

    validate = validate_events


def engine_totals(engine) -> Dict[str, float]:
    """The public cumulative ``engine.stats`` figures the layer table
    reports: seconds per stage (``collect``, ``harden``, ``check``,
    ``total``) and the work counters."""
    stats = engine.stats
    return {
        **stats.stage_seconds,
        "epochs": stats.epochs,
        "repair_solves": stats.repair_solves,
        "recomputed": stats.total_entities_recomputed,
        "reused": stats.total_entities_reused,
    }


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}
