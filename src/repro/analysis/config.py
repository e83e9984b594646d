"""Configuration for the lint run.

Everything the rules key off -- which directories count as pipeline
"core", which function names are per-entity units, where the
vector backend lives -- is data here, not constants buried in
rule code.  The self-tests point a :class:`LintConfig` at fixture
trees to exercise every rule against known-good and known-bad code
without touching the live tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, Pattern, Tuple

__all__ = [
    "LintConfig",
    "DEFAULT_ENTITY_PATTERNS",
    "DEFAULT_TAINT_SOURCE_TYPES",
    "DEFAULT_TAINT_SANITIZERS",
    "DEFAULT_TAINT_SINKS",
    "DEFAULT_TAINT_BENIGN_FIELDS",
    "DEFAULT_BLOCKING_CALLS",
    "DEFAULT_CACHE_STORE_CLASSES",
    "DEFAULT_CACHE_PARAM_PATTERNS",
    "DEFAULT_CACHE_RESET_NAMES",
    "DEFAULT_ASYNC_GUARD_PATTERNS",
]

#: Function-name patterns that mark a per-entity unit or in-place
#: stage function subject to the P1 purity contract.
DEFAULT_ENTITY_PATTERNS: Tuple[str, ...] = (
    r"^collect_\w+_entity$",
    r"^harden_\w+_entity$",
    r"^check_\w+_entity$",
    r"^repair_flows$",
)

#: Class names whose instances are *raw input* for the T1 taint rule:
#: snapshots straight off the wire, update deliveries, and assembled
#: epochs -- everything upstream of hardening.
DEFAULT_TAINT_SOURCE_TYPES: FrozenSet[str] = frozenset(
    {"NetworkSnapshot", "RouterSnapshot", "UpdateEvent", "AssembledEpoch"}
)

#: Call-name patterns (matched on the final dotted segment) that
#: *sanitize*: a value returned by one of these is validated.  Covers
#: the per-entity hardening units, the flow repairer, and the vector
#: backend's hardening dispatch methods (``_harden``,
#: ``_harden_link_status``, ...).
DEFAULT_TAINT_SANITIZERS: Tuple[str, ...] = (
    r"^_?harden(_\w+)?$",
    r"^repair_flows$",
)

#: Call-name patterns (final dotted segment) that are verdict /
#: report / apply *sinks*: a tainted value reaching one is a T1 error.
DEFAULT_TAINT_SINKS: Tuple[str, ...] = (
    r"^check_\w+_entity$",
    r"^ValidationReport$",
    r"^apply_\w+$",
)

#: Source-object fields that carry provenance, not signal: reading one
#: off a raw source does not taint.  ``timestamp`` is epoch *identity*
#: -- it keys reports and memos and is compared bit-exact by the
#: differential harness; it never influences a verdict.
DEFAULT_TAINT_BENIGN_FIELDS: FrozenSet[str] = frozenset({"timestamp"})

#: Dotted call names (import-resolved) that block the event loop: A1
#: flags any of these inside an ``async def`` in core.
DEFAULT_BLOCKING_CALLS: FrozenSet[str] = frozenset(
    {
        "time.sleep",
        "socket.socket",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "os.system",
        "os.popen",
        "requests.get",
        "requests.post",
        "requests.request",
        "open",
        "input",
    }
)

#: Classes whose instances are long-lived cache stores: X1 holds every
#: in-place mutation of their state to the try/except-reset or
#: build-then-swap discipline.
DEFAULT_CACHE_STORE_CLASSES: FrozenSet[str] = frozenset(
    {"TopologyCacheStore", "VectorModelStore", "_EpochMemo", "HistoryStore"}
)

#: Parameter-name patterns that mark a passed-in cache/memo/store (X1
#: tracks mutations through them and through local aliases).
DEFAULT_CACHE_PARAM_PATTERNS: Tuple[str, ...] = (
    r"(^|_)cache$",
    r"^memo$",
    r"^store$",
)

#: Method names an except-handler may call to count as the "reset"
#: side of the try/except-reset discipline.  ``rollback`` is the
#: sqlite-backed history store's reset: every mutation there runs
#: inside try/except sqlite3.Error -> conn.rollback().
DEFAULT_CACHE_RESET_NAMES: FrozenSet[str] = frozenset(
    {"reset", "clear", "invalidate", "rollback"}
)

#: Substrings (case-insensitive) of an ``async with`` context
#: expression that mark a lock/semaphore guard: state touched inside
#: such a block is exempt from A2.
DEFAULT_ASYNC_GUARD_PATTERNS: Tuple[str, ...] = ("lock", "sem", "cond", "mutex")


@dataclass(frozen=True)
class LintConfig:
    """Tunables for one lint run.

    Attributes:
        entity_patterns: Regexes naming the functions P1 holds to the
            no-argument-mutation contract (and C1 treats as registry
            members).
        core_dirs: Directory names whose modules count as pipeline
            core for P2/D1/F1 (any path component match).  The
            observability layer (``obs``) is included: spans and
            metrics run inside every stage, so hidden state or
            wall-clock reads there corrupt replay just as surely.
            The streaming ingestion layer (``stream``) is included for
            the same reason: feeds, the epoch assembler and the ingest
            pipeline sit upstream of every validation verdict.  The
            scenario fuzzer (``fuzz``) is included because its whole
            value rests on a case seed regenerating the exact case:
            global RNG, wall-clock reads or unordered iteration there
            would make reproducers unreplayable.  The verdict history
            service (``history``) is included because its stores are
            byte-reproducible artifacts and its alert replay is part
            of the determinism contract.  The multi-tenant fleet
            supervisor (``fleet``) is included because its whole
            recovery story -- crash reschedules asserted
            fingerprint-identical, readmissions byte-identical to
            untroubled runs -- collapses if digests, admission
            decisions, or dispatch order pick up wall time or global
            RNG.
        vector_path: POSIX-relative path (from the lint root) of the
            array-compiled backend module.  C1 is serial/vector parity:
            every per-entity unit must be accounted for there --
            dispatched on the exceptional path, or named in the
            module's replacement manifest (its docstring) where the
            unit is replicated as array math.  Missing module ==
            vacuously satisfied, so fixture trees without a vector
            backend stay clean.
        enabled_codes: Rule codes to run; empty means all.
        wall_clock_allowed: Dotted call names exempt from the D1
            wall-clock check.  ``perf_counter``/``monotonic`` feed
            stage *timings* (EngineStats), never verdicts, so they are
            allowed by default; ``time.time`` and friends are not.
        clock_seam_paths: POSIX-relative module paths (from the lint
            root) permitted to read host clocks directly.  This is the
            clock-injection seam: ``obs/clock.py`` wraps the one
            sanctioned ``time.time()`` call (the display-only trace
            anchor) and the one sanctioned asyncio event-loop clock
            read (``event_loop_time``) so every other module gets its
            clock injected.  ``history/store.py`` is the second seam:
            months-long age retention is inherently wall-time-based,
            the store takes an injectable ``clock`` and defaults it to
            ``time.time``.  A wall-clock or ``loop.time()`` read
            *anywhere else* in core -- even inside a trace span body or
            an ingest coroutine -- is still a D1 error.
        max_file_bytes: Safety valve -- files larger than this are
            skipped with a diagnostic rather than parsed.
        taint_source_types: Class names whose instances are raw input
            (T1 sources).  A parameter annotated with one (directly or
            inside ``List[...]``/``Optional[...]``), or a name bound
            from its constructor, is a source object; non-benign field
            reads off it are tainted.
        taint_sanitizers: Call-name patterns (final dotted segment)
            whose return value counts as validated (T1 kills taint).
        taint_sinks: Call-name patterns (final dotted segment) that
            are verdict/report/apply sinks (tainted argument == T1).
        taint_benign_fields: Source fields exempt from tainting
            (provenance such as ``timestamp``, never verdict signal).
        blocking_calls: Dotted call names A1 flags inside ``async def``.
        cache_store_classes: Class names X1 treats as cache stores
            (every ``self.*`` structure inside them is tracked).
        cache_param_patterns: Parameter names X1 tracks as passed-in
            caches.
        cache_reset_names: Method names an except handler may call to
            satisfy the try/except-reset discipline.
        async_guard_patterns: Case-insensitive substrings of an
            ``async with`` context expression that mark a lock; state
            access under one is exempt from A2.
    """

    entity_patterns: Tuple[str, ...] = DEFAULT_ENTITY_PATTERNS
    core_dirs: FrozenSet[str] = frozenset(
        {"core", "engine", "fleet", "fuzz", "history", "obs", "stream"}
    )
    vector_path: str = "core/vector/backend.py"
    enabled_codes: FrozenSet[str] = frozenset()
    wall_clock_allowed: FrozenSet[str] = frozenset(
        {"time.perf_counter", "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns"}
    )
    clock_seam_paths: FrozenSet[str] = frozenset(
        {"obs/clock.py", "history/store.py"}
    )
    max_file_bytes: int = 2_000_000
    taint_source_types: FrozenSet[str] = DEFAULT_TAINT_SOURCE_TYPES
    taint_sanitizers: Tuple[str, ...] = DEFAULT_TAINT_SANITIZERS
    taint_sinks: Tuple[str, ...] = DEFAULT_TAINT_SINKS
    taint_benign_fields: FrozenSet[str] = DEFAULT_TAINT_BENIGN_FIELDS
    blocking_calls: FrozenSet[str] = DEFAULT_BLOCKING_CALLS
    cache_store_classes: FrozenSet[str] = DEFAULT_CACHE_STORE_CLASSES
    cache_param_patterns: Tuple[str, ...] = DEFAULT_CACHE_PARAM_PATTERNS
    cache_reset_names: FrozenSet[str] = DEFAULT_CACHE_RESET_NAMES
    async_guard_patterns: Tuple[str, ...] = DEFAULT_ASYNC_GUARD_PATTERNS
    _compiled: Tuple[Pattern[str], ...] = field(init=False, repr=False, compare=False, default=())
    _sanitizers: Tuple[Pattern[str], ...] = field(init=False, repr=False, compare=False, default=())
    _sinks: Tuple[Pattern[str], ...] = field(init=False, repr=False, compare=False, default=())
    _cache_params: Tuple[Pattern[str], ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        compile_all = lambda patterns: tuple(re.compile(p) for p in patterns)  # noqa: E731
        object.__setattr__(self, "_compiled", compile_all(self.entity_patterns))
        object.__setattr__(self, "_sanitizers", compile_all(self.taint_sanitizers))
        object.__setattr__(self, "_sinks", compile_all(self.taint_sinks))
        object.__setattr__(self, "_cache_params", compile_all(self.cache_param_patterns))

    def is_entity_function(self, name: str) -> bool:
        """Does ``name`` fall under the per-entity purity contract?"""
        return any(pattern.match(name) for pattern in self._compiled)

    def is_core_path(self, relpath: str) -> bool:
        """Is this module part of the pipeline core (P2/D1/F1 scope)?"""
        return any(part in self.core_dirs for part in relpath.split("/")[:-1])

    def rule_enabled(self, code: str) -> bool:
        return not self.enabled_codes or code in self.enabled_codes

    # -- taint manifests (T1) ------------------------------------------

    def is_source_type(self, name: str) -> bool:
        return name in self.taint_source_types

    def is_sanitizer(self, name: str) -> bool:
        """Does this terminal call-name segment validate its input?"""
        return any(pattern.match(name) for pattern in self._sanitizers)

    def is_sink(self, name: str) -> bool:
        """Is this terminal call-name segment a verdict/report sink?"""
        return any(pattern.match(name) for pattern in self._sinks)

    def is_benign_field(self, name: str) -> bool:
        return name in self.taint_benign_fields

    # -- cache-store manifests (X1) ------------------------------------

    def is_cache_param(self, name: str) -> bool:
        return any(pattern.search(name) for pattern in self._cache_params)

    # -- async guards (A2) ---------------------------------------------

    def is_async_guard(self, dotted: str) -> bool:
        lowered = dotted.lower()
        return any(fragment in lowered for fragment in self.async_guard_patterns)

    # -- cache keying --------------------------------------------------

    def fingerprint(self) -> str:
        """Stable hash of every manifest (keys the incremental cache).

        Frozenset repr order varies with the hash seed, so the
        canonical form sorts every collection field explicitly.
        """
        import hashlib
        import json

        canonical = {
            "entity_patterns": list(self.entity_patterns),
            "core_dirs": sorted(self.core_dirs),
            "vector_path": self.vector_path,
            "enabled_codes": sorted(self.enabled_codes),
            "wall_clock_allowed": sorted(self.wall_clock_allowed),
            "clock_seam_paths": sorted(self.clock_seam_paths),
            "max_file_bytes": self.max_file_bytes,
            "taint_source_types": sorted(self.taint_source_types),
            "taint_sanitizers": list(self.taint_sanitizers),
            "taint_sinks": list(self.taint_sinks),
            "taint_benign_fields": sorted(self.taint_benign_fields),
            "blocking_calls": sorted(self.blocking_calls),
            "cache_store_classes": sorted(self.cache_store_classes),
            "cache_param_patterns": list(self.cache_param_patterns),
            "cache_reset_names": sorted(self.cache_reset_names),
            "async_guard_patterns": list(self.async_guard_patterns),
        }
        payload = json.dumps(canonical, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()
