"""Per-router telemetry feeds with seeded delivery perturbations.

A :class:`RouterFeed` replays one router's slice of an epoch sequence
as timestamped :class:`~repro.stream.events.UpdateEvent` deliveries --
the unit a gNMI subscription would push.  Deliveries are perturbed the
way WAN telemetry actually misbehaves (paper Section 2: late,
duplicated, reordered, lossy feeds), but *deterministically*: every
perturbation decision comes from one :class:`random.Random` seeded
from the feed seed and the router name, so a (seed, epochs,
perturbation) triple always produces the identical delivery sequence.

Perturbations are modelled as virtual-time adjustments:

* **reorder** bumps ``emit_ts`` by a small jitter (intended to stay
  inside the assembler's lateness window, so the update arrives out of
  order but on time);
* **delay** bumps ``emit_ts`` past the lateness window, making the
  update *late* (the assembler drops it and counts it);
* **drop** removes the delivery entirely;
* **duplicate** emits a second delivery carrying the same ``uid``
  (the assembler's dedupe identity);
* **fail** makes one delivery attempt raise
  :class:`~repro.stream.events.FeedError` before succeeding on retry
  (exercises the ingest layer's retry-with-backoff path).

Deliveries come out sorted by ``(emit_ts, uid)`` -- virtual network
arrival order -- via the :meth:`RouterFeed.next_event` cursor, which
holds position across a raised failure so a retry re-reads the same
event.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.stream.events import (
    FeedError,
    UpdateEvent,
    UpdateRow,
    router_updates,
    updates_by_router,
)
from repro.telemetry.snapshot import NetworkSnapshot

__all__ = ["Perturbations", "FeedStats", "RouterFeed", "make_feeds"]


@dataclass(frozen=True)
class Perturbations:
    """Per-delivery perturbation probabilities and magnitudes.

    All probabilities are independent per update.  The default is a
    perfectly behaved feed (every field zero) -- the configuration the
    differential harness uses to prove streamed == batch.

    Attributes:
        reorder: Probability of an in-window ``emit_ts`` jitter.
        duplicate: Probability of a second delivery with the same uid.
        delay: Probability of an out-of-window bump (arrives late).
        drop: Probability the delivery never happens.
        fail: Probability one delivery attempt raises
            :class:`~repro.stream.events.FeedError` first.
        reorder_jitter_s: Maximum in-window jitter, seconds.  Keep it
            below the assembler's lateness window or "reordered"
            updates quietly become late ones.
        delay_s: Minimum out-of-window bump, seconds.  Keep it above
            the lateness window plus the epoch spacing.
        duplicate_jitter_s: Maximum extra jitter on the duplicate copy.
    """

    reorder: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    drop: float = 0.0
    fail: float = 0.0
    reorder_jitter_s: float = 0.4
    delay_s: float = 30.0
    duplicate_jitter_s: float = 0.2

    def __post_init__(self) -> None:
        for name in ("reorder", "duplicate", "delay", "drop", "fail"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")


@dataclass
class FeedStats:
    """What one feed did to its deliveries (for soak accounting)."""

    updates: int = 0
    emitted: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    failures: int = 0


def _feed_rng(router: str, seed: int) -> random.Random:
    # crc32, not hash(): feed streams must not vary with PYTHONHASHSEED.
    return random.Random((seed << 32) ^ zlib.crc32(router.encode("utf-8")))


class RouterFeed:
    """One router's perturbed delivery stream over an epoch sequence.

    Args:
        router: The reporting router this feed speaks for.
        epochs: ``(epoch_ts, snapshot)`` pairs, ascending timestamps.
            Only this router's slice of each snapshot is replayed.
        perturb: Delivery perturbations; defaults to a perfect feed.
        seed: Feed seed; combined with the router name so sibling
            feeds built from one seed perturb independently.
    """

    def __init__(
        self,
        router: str,
        epochs: Sequence[Tuple[float, NetworkSnapshot]],
        perturb: Optional[Perturbations] = None,
        seed: int = 0,
    ) -> None:
        slices = [(ts, router_updates(snapshot, router)) for ts, snapshot in epochs]
        self._init_from_slices(router, slices, perturb, seed)

    @classmethod
    def _from_slices(
        cls,
        router: str,
        slices: Sequence[Tuple[float, Sequence[UpdateRow]]],
        perturb: Optional[Perturbations],
        seed: int,
    ) -> "RouterFeed":
        """A feed over pre-sliced ``(epoch_ts, rows)`` pairs, so
        :func:`make_feeds` can slice each snapshot once for all feeds."""
        feed = cls.__new__(cls)
        feed._init_from_slices(router, slices, perturb, seed)
        return feed

    def _init_from_slices(
        self,
        router: str,
        slices: Sequence[Tuple[float, Sequence[UpdateRow]]],
        perturb: Optional[Perturbations],
        seed: int,
    ) -> None:
        self.router = router
        self.perturb = perturb or Perturbations()
        self.stats = FeedStats()
        self._deliveries = self._build(slices, seed)
        self._pos = 0
        self._failed_once: set = set()
        rng = _feed_rng(router, seed + 1)
        self._fail_at = frozenset(
            i for i in range(len(self._deliveries)) if rng.random() < self.perturb.fail
        )

    def _build(
        self, slices: Sequence[Tuple[float, Sequence[UpdateRow]]], seed: int
    ) -> List[UpdateEvent]:
        p = self.perturb
        rng = _feed_rng(self.router, seed)
        deliveries: List[Tuple[float, int, int, UpdateEvent]] = []
        order = 0
        uid = 0
        for epoch_ts, rows in slices:
            for path, value, meta in rows:
                uid += 1
                self.stats.updates += 1
                if rng.random() < p.drop:
                    self.stats.dropped += 1
                    continue
                emit_ts = epoch_ts
                if rng.random() < p.delay:
                    emit_ts = epoch_ts + p.delay_s * (1.0 + rng.random())
                    self.stats.delayed += 1
                elif rng.random() < p.reorder:
                    emit_ts = epoch_ts + p.reorder_jitter_s * rng.random()
                    self.stats.reordered += 1
                event = UpdateEvent(
                    router=self.router,
                    path=path,
                    epoch_ts=epoch_ts,
                    emit_ts=emit_ts,
                    uid=uid,
                    value=value,
                    meta=meta,
                )
                deliveries.append((emit_ts, uid, order, event))
                order += 1
                if rng.random() < p.duplicate:
                    dup_ts = emit_ts + p.duplicate_jitter_s * rng.random()
                    deliveries.append(
                        (
                            dup_ts,
                            uid,
                            order,
                            UpdateEvent(
                                router=self.router,
                                path=path,
                                epoch_ts=epoch_ts,
                                emit_ts=dup_ts,
                                uid=uid,
                                value=value,
                                meta=meta,
                            ),
                        )
                    )
                    order += 1
                    self.stats.duplicated += 1
        deliveries.sort(key=lambda row: (row[0], row[1], row[2]))
        self.stats.emitted = len(deliveries)
        return [event for _ts, _uid, _order, event in deliveries]

    def __len__(self) -> int:
        return len(self._deliveries)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._deliveries)

    @property
    def remaining(self) -> int:
        return len(self._deliveries) - self._pos

    def next_event(self) -> Optional[UpdateEvent]:
        """The next delivery, or ``None`` once exhausted.

        A position scheduled to fail raises
        :class:`~repro.stream.events.FeedError` exactly once; the
        cursor does not advance, so the retry returns the event.
        """
        if self._pos >= len(self._deliveries):
            return None
        if self._pos in self._fail_at and self._pos not in self._failed_once:
            self._failed_once.add(self._pos)
            self.stats.failures += 1
            raise FeedError(f"feed {self.router} hiccuped at delivery {self._pos}")
        event = self._deliveries[self._pos]
        self._pos += 1
        return event


def make_feeds(
    epochs: Sequence[Tuple[float, NetworkSnapshot]],
    perturb: Optional[Perturbations] = None,
    seed: int = 0,
) -> Dict[str, RouterFeed]:
    """One feed per router reporting anywhere in the epoch sequence.

    Returns a dict keyed by router name in sorted order, so iterating
    it is deterministic.  Each snapshot is sliced once for all feeds.
    """
    sliced = [(ts, updates_by_router(snapshot)) for ts, snapshot in epochs]
    routers = sorted({router for _ts, by_router in sliced for router in by_router})
    return {
        router: RouterFeed._from_slices(
            router,
            [(ts, by_router.get(router, ())) for ts, by_router in sliced],
            perturb,
            seed,
        )
        for router in routers
    }
