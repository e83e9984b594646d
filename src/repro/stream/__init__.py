"""Streaming ingestion: feeds -> bounded queue -> watermark assembly -> engine.

Turns per-router gNMI-style update streams -- late, duplicated,
reordered, lossy -- into validated epochs for the always-on engine.
See ``docs/STREAMING.md`` for the event schema, watermark semantics,
the blocking ingest queue, and the partial-epoch contract.
"""

from repro.stream.assembler import AssembledEpoch, EpochAssembler
from repro.stream.events import (
    FeedError,
    UpdateEvent,
    apply_update,
    reporting_routers,
    router_updates,
    updates_by_router,
)
from repro.stream.feed import FeedStats, Perturbations, RouterFeed, make_feeds
from repro.stream.ingest import IngestConfig, StreamPipeline, StreamResult

__all__ = [
    "AssembledEpoch",
    "EpochAssembler",
    "FeedError",
    "FeedStats",
    "IngestConfig",
    "Perturbations",
    "RouterFeed",
    "StreamPipeline",
    "StreamResult",
    "UpdateEvent",
    "apply_update",
    "make_feeds",
    "reporting_routers",
    "router_updates",
    "updates_by_router",
]
