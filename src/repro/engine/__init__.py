"""The always-on validation engine.

Hodor is meant to run continuously -- "validation must be on always"
-- which makes per-epoch cost the quantity that matters.  This package
provides the streaming counterpart to the one-shot
:class:`~repro.core.pipeline.Hodor` facade:

- :mod:`repro.engine.cache` -- topology-derived structures built once
  per distinct topology and memoized behind a structural fingerprint;
- :mod:`repro.engine.runner` -- :class:`ValidationEngine`, which
  streams epochs through the array-compiled vector backend
  (:mod:`repro.core.vector`) or the serial per-entity reference;
- :mod:`repro.engine.stats` -- observable counters (epochs, cache
  hits, stage timings, entity reuse) and their Prometheus projection;
- :mod:`repro.engine.diff` -- the report comparator backing the
  differential test harness that proves engine output identical to
  the serial path.
"""

from repro.engine.cache import (
    TopologyCache,
    TopologyCacheStore,
    structural_key,
    topology_fingerprint,
)
from repro.engine.diff import compare_reports
from repro.engine.runner import EpochInput, ValidationEngine
from repro.engine.stats import EngineStats, engine_registry

__all__ = [
    "TopologyCache",
    "TopologyCacheStore",
    "structural_key",
    "topology_fingerprint",
    "compare_reports",
    "EpochInput",
    "ValidationEngine",
    "EngineStats",
    "engine_registry",
]
