"""Minimal Prometheus-style metrics primitives.

:class:`MetricsRegistry` owns named metric families --
:class:`Counter`, :class:`Gauge`, and :class:`Histogram` (fixed
buckets, tuned for epoch/stage latency) -- and renders them in the
Prometheus text exposition format, ``# HELP``/``# TYPE`` lines
included.  No client library is required or used.

Families may carry labels::

    h = registry.histogram(
        "engine_stage_latency_seconds", "Per-stage latency.", labels=("stage",)
    )
    h.labels(stage="collect").observe(0.004)

Two write modes coexist deliberately:

* live instrumentation (``inc``/``observe``) -- the engine's
  histograms accumulate as epochs run;
* snapshot export (``set_to``) -- :func:`repro.control.metrics.engine_registry`
  projects an :class:`~repro.engine.stats.EngineStats` snapshot into
  counter/gauge families, and ``set_to`` keeps that projection
  idempotent when re-run on a shared registry.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_exposition",
]

#: Upper bounds (seconds) for latency histograms; +Inf is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus sample value: shortest round-trip representation,
    with integral floats rendered without a decimal point and the
    exposition format's spellings for the special values (``repr``
    would emit ``inf``/``nan``, which Prometheus rejects)."""
    as_float = float(value)
    if math.isinf(as_float):
        return "+Inf" if as_float > 0 else "-Inf"
    if math.isnan(as_float):
        return "NaN"
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)


def _unescape_label_value(value: str) -> str:
    """Inverse of :func:`_escape_label_value` (single left-to-right
    pass, so ``\\\\n`` decodes to backslash-n, not newline)."""
    out: List[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "n":
                out.append("\n")
                index += 2
                continue
            if nxt in ("\\", '"'):
                out.append(nxt)
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError(f"counters only go up (inc by {amount!r})")
        self.value += amount

    def set_to(self, value: float) -> None:
        """Snapshot-export hook: overwrite with an absolute value."""
        if value < 0.0:
            raise ValueError(f"counter value must be >= 0 (got {value!r})")
        self.value = float(value)

    def merge_from(self, other: "_CounterChild") -> None:
        self.value += other.value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    set_to = set

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge_from(self, other: "_GaugeChild") -> None:
        # Gauges are point-in-time readings: the merged-in (newer)
        # snapshot wins rather than summing two absolute levels.
        self.value = other.value


class _HistogramChild:
    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        #: One slot per finite bound plus +Inf, non-cumulative.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out

    def merge_from(self, other: "_HistogramChild") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.sum += other.sum
        self.count += other.count


class _Family:
    """Shared family behaviour: label handling and child storage."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Tuple[str, ...]) -> None:
        self.name = _check_name(name)
        self.help = help_text
        for label in label_names:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name: {label!r}")
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], object] = {}
        #: The ``()`` child of an unlabelled family, resolved on first use.
        self._unlabelled: object = None

    def _new_child(self) -> object:
        raise NotImplementedError

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {sorted(self.label_names)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def _sorted_children(self) -> List[Tuple[Tuple[str, ...], object]]:
        return sorted(self._children.items())

    def _label_pairs(self, key: Tuple[str, ...]) -> List[Tuple[str, str]]:
        return list(zip(self.label_names, key))

    def _require_unlabelled(self, op: str):
        child = self._unlabelled
        if child is None:
            if self.label_names:
                raise ValueError(f"{self.name} has labels; use .labels(...).{op}")
            child = self._unlabelled = self.labels()
        return child

    def merge_from(self, other: "_Family") -> None:
        """Fold another family's children into this one, per label set.

        Counters add, gauges take the incoming reading, histograms add
        bucket-wise (same bounds required).  The other family must have
        the same kind and label names -- the registry checks before
        delegating here.
        """
        for key, child in other._sorted_children():
            self._children.setdefault(key, self._new_child()).merge_from(child)  # type: ignore[attr-defined]


class Counter(_Family):
    """Monotonically increasing count (snapshot export may overwrite)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._require_unlabelled("inc").inc(amount)

    def set_to(self, value: float) -> None:
        self._require_unlabelled("set_to").set_to(value)

    @property
    def value(self) -> float:
        return self._require_unlabelled("value").value

    def samples(self) -> Iterable[Tuple[str, List[Tuple[str, str]], float]]:
        for key, child in self._sorted_children():
            yield self.name, self._label_pairs(key), child.value  # type: ignore[union-attr]


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._require_unlabelled("set").set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_unlabelled("inc").inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_unlabelled("dec").dec(amount)

    @property
    def value(self) -> float:
        return self._require_unlabelled("value").value

    def samples(self) -> Iterable[Tuple[str, List[Tuple[str, str]], float]]:
        for key, child in self._sorted_children():
            yield self.name, self._label_pairs(key), child.value  # type: ignore[union-attr]


class Histogram(_Family):
    """Fixed-bucket distribution (Prometheus cumulative exposition)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self.bounds = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._require_unlabelled("observe").observe(value)

    def samples(self) -> Iterable[Tuple[str, List[Tuple[str, str]], float]]:
        for key, child in self._sorted_children():
            pairs = self._label_pairs(key)
            cumulative = child.cumulative_counts()  # type: ignore[union-attr]
            for bound, running in zip(self.bounds, cumulative):
                le = pairs + [("le", _format_value(bound))]
                yield f"{self.name}_bucket", le, float(running)
            yield f"{self.name}_bucket", pairs + [("le", "+Inf")], float(cumulative[-1])
            yield f"{self.name}_sum", pairs, child.sum  # type: ignore[union-attr]
            yield f"{self.name}_count", pairs, float(child.count)  # type: ignore[union-attr]


class MetricsRegistry:
    """Named metric families with Prometheus text exposition.

    Registration is idempotent: asking for an existing name returns the
    existing family, provided the kind and label set match (a mismatch
    raises, so two subsystems cannot silently share a name with
    different meanings).
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is None:
            self._families[family.name] = family
            return family
        if existing.kind != family.kind or existing.label_names != family.label_names:
            raise ValueError(
                f"metric {family.name!r} already registered as {existing.kind} "
                f"with labels {existing.label_names}"
            )
        return existing

    def counter(self, name: str, help_text: str, labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, tuple(labels)))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, tuple(labels)))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram(name, help_text, tuple(labels), buckets)
        )

    def get(self, name: str) -> _Family:
        return self._families[name]

    def families(self) -> List[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        """Flat samples across all families (histograms expanded)."""
        out: List[Tuple[str, Dict[str, str], float]] = []
        for family in self.families():
            for name, pairs, value in family.samples():  # type: ignore[attr-defined]
                out.append((name, dict(pairs), value))
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Families present in both must agree on kind and label names
        (and bucket bounds, for histograms) -- a mismatch raises and
        leaves the conflicting family partially untouched only past the
        point of the error.  Families only in ``other`` are deep-merged
        into fresh families here, so later writes to ``other`` do not
        alias into this registry.
        """
        for family in other.families():
            if family.kind == "histogram":
                mine = self.histogram(
                    family.name, family.help, family.label_names, family.bounds  # type: ignore[attr-defined]
                )
                if mine.bounds != family.bounds:  # type: ignore[attr-defined]
                    raise ValueError(
                        f"metric {family.name!r} bucket bounds differ: "
                        f"{mine.bounds} vs {family.bounds}"  # type: ignore[attr-defined]
                    )
            elif family.kind == "counter":
                mine = self.counter(family.name, family.help, family.label_names)
            elif family.kind == "gauge":
                mine = self.gauge(family.name, family.help, family.label_names)
            else:  # pragma: no cover - no other kinds exist
                raise ValueError(f"unknown family kind {family.kind!r}")
            mine.merge_from(family)

    def render(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for name, pairs, value in family.samples():  # type: ignore[attr-defined]
                lines.append(f"{name}{_render_labels(pairs)} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())


def _parse_label_body(body: str, line: str) -> List[Tuple[str, str]]:
    """Parse the inside of ``{...}`` into ordered (name, value) pairs."""
    pairs: List[Tuple[str, str]] = []
    index = 0
    length = len(body)
    while index < length:
        eq = body.index("=", index)
        name = body[index:eq]
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r} in line {line!r}")
        if eq + 1 >= length or body[eq + 1] != '"':
            raise ValueError(f"expected quoted label value in line {line!r}")
        cursor = eq + 2
        raw: List[str] = []
        while True:
            if cursor >= length:
                raise ValueError(f"unterminated label value in line {line!r}")
            char = body[cursor]
            if char == "\\" and cursor + 1 < length:
                raw.append(body[cursor : cursor + 2])
                cursor += 2
                continue
            if char == '"':
                break
            raw.append(char)
            cursor += 1
        pairs.append((name, _unescape_label_value("".join(raw))))
        index = cursor + 1
        if index < length:
            if body[index] != ",":
                raise ValueError(f"expected ',' between labels in line {line!r}")
            index += 1
    return pairs


def parse_exposition(
    text: str,
) -> List[Tuple[str, List[Tuple[str, str]], float]]:
    """Parse Prometheus text exposition back into flat samples.

    The inverse of :meth:`MetricsRegistry.render` for the subset this
    module emits: ``# HELP``/``# TYPE`` lines are skipped, every other
    non-blank line becomes one ``(name, label_pairs, value)`` tuple
    with label values unescaped and ``+Inf``/``-Inf``/``NaN`` decoded.
    Exists so tests can assert exposition round-trips exactly.
    """
    samples: List[Tuple[str, List[Tuple[str, str]], float]] = []
    # Split on "\n" only: str.splitlines() also breaks on control
    # characters (\x1c-\x1e, \x85, ...) that are legal inside label
    # values, which would split a sample line in half.
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            open_brace = line.index("{")
            close_brace = line.rindex("}")
            name = line[:open_brace]
            pairs = _parse_label_body(line[open_brace + 1 : close_brace], line)
            value_text = line[close_brace + 1 :].strip()
        else:
            name, _, value_text = line.partition(" ")
            pairs = []
            value_text = value_text.strip()
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name in line {line!r}")
        samples.append((name, pairs, _parse_value(value_text)))
    return samples
