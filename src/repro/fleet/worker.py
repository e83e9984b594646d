"""Worker process: N tenants' pipelines on one event loop.

Each worker is a separate OS process (the GIL sidestep): inside it,
one asyncio loop runs every assigned tenant's
:class:`~repro.stream.ingest.StreamPipeline` as a concurrent task --
tenants interleave at the bounded-queue awaits, so a slow tenant
costs latency, not liveness.

Channel discipline:

* The **control channel** (supervisor -> worker) is read by a plain
  daemon thread that forwards each message into the loop via
  ``call_soon_threadsafe`` -- the loop itself never blocks on the
  multiprocessing queue, keeping the async side A1-clean.
* The **results channel** (worker -> supervisor) carries small tuples:
  one ``digest`` per validated epoch (so a crash loses at most the
  in-flight epoch), one ``tenant_done`` summary per finished tenant
  (with the tenant's metrics exposition for fleet rollup), and a
  final ``worker_done``.

Control messages::

    ("run", spec)            dispatch one TenantSpec
    ("quarantine", tenant)   cancel that tenant's task now
    ("degrade", bool)        toggle shed-partial-epochs mode
    ("drain",)               finish assigned work, then exit
    ("kill",)                exit now, abandoning running tenants

A quarantined tenant's task is cancelled at its next await; its
``tenant_done`` summary reports ``status="quarantined"`` with whatever
digests already shipped left standing (the supervisor keeps them --
the epochs were validated before the quarantine landed).

The test-only crash hook is not a message: a worker spawned with
``crash_after=n`` dies like a segfault (``os._exit``, no goodbye)
right after putting its ``n``-th digest, so the crash point is a
function of the fleet spec and never of cross-process scheduling.
"""

from __future__ import annotations

import asyncio
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.fleet.scenario import run_stored_tenant
from repro.fleet.spec import TenantSpec, tenant_store_path

__all__ = ["worker_main"]


@dataclass
class _WorkerState:
    """One worker run's mutable state, owned by the event loop."""

    worker_id: int
    results: object
    store_dir: Optional[str]
    crash_after: Optional[int] = None
    digests_put: int = 0
    tasks: Dict[str, asyncio.Task] = field(default_factory=dict)
    degraded: bool = False
    draining: bool = False


def _gate_for(state: _WorkerState):
    """Shed partial epochs while the fleet is degraded.

    Complete epochs always validate; the degradation lever only drops
    epochs that are *already* damaged (missing routers), trading their
    partial verdicts for headroom -- the "shed partial-epoch sealing
    before healthy tenants starve" rule.
    """

    def gate(epoch) -> bool:
        return epoch.complete or not state.degraded

    return gate


def _ship_digest(state: _WorkerState, tenant: str, digest) -> None:
    state.results.put(("digest", state.worker_id, tenant, digest))
    state.digests_put += 1
    if state.digests_put == state.crash_after:
        # Simulated hard death: no cleanup, no goodbye -- the
        # supervisor must notice via liveness, not protocol.
        os._exit(17)


async def _run_one(state: _WorkerState, spec: TenantSpec) -> None:
    results = state.results
    store_path = None
    if state.store_dir is not None and spec.history:
        store_path = tenant_store_path(state.store_dir, spec.tenant)
    status = "done"
    summary = None
    try:
        run = await run_stored_tenant(
            spec,
            store_path=store_path,
            gate=_gate_for(state),
            on_digest=lambda digest: _ship_digest(state, spec.tenant, digest),
        )
        summary = run.to_summary()
    except asyncio.CancelledError:
        status = "quarantined"
    except Exception as exc:  # noqa: BLE001 - one tenant must not kill its siblings
        status = "error"
        results.put(("error", state.worker_id, spec.tenant, repr(exc)))
    finally:
        state.tasks.pop(spec.tenant, None)
        if summary is None:
            summary = {"tenant": spec.tenant}
        summary["status"] = status
        results.put(("tenant_done", state.worker_id, spec.tenant, summary))


async def _worker(
    worker_id: int,
    control,
    results,
    store_dir: Optional[str],
    crash_after: Optional[int],
) -> None:
    loop = asyncio.get_running_loop()
    inbox: asyncio.Queue = asyncio.Queue()

    def read_control() -> None:
        while True:
            message = control.get()
            loop.call_soon_threadsafe(inbox.put_nowait, message)
            if message[0] in ("drain", "kill"):
                return

    reader = threading.Thread(
        target=read_control, name=f"fleet-control-{worker_id}", daemon=True
    )
    reader.start()

    state = _WorkerState(
        worker_id=worker_id,
        results=results,
        store_dir=store_dir,
        crash_after=crash_after,
    )
    while True:
        message = await inbox.get()
        kind = message[0]
        if kind == "run":
            spec = message[1]
            state.tasks[spec.tenant] = asyncio.ensure_future(_run_one(state, spec))
        elif kind == "quarantine":
            task = state.tasks.get(message[1])
            if task is not None:
                task.cancel()
        elif kind == "degrade":
            state.degraded = bool(message[1])
        elif kind == "drain":
            state.draining = True
            break
        elif kind == "kill":
            for task in state.tasks.values():
                task.cancel()
            break
    if state.draining:
        # Deterministic drain: every assigned tenant runs to
        # completion (or its cancellation unwinds) before the goodbye.
        while state.tasks:
            await asyncio.gather(*state.tasks.values(), return_exceptions=True)
    else:
        await asyncio.gather(*state.tasks.values(), return_exceptions=True)
    results.put(("worker_done", worker_id))


def worker_main(
    worker_id: int,
    control,
    results,
    store_dir: Optional[str] = None,
    crash_after: Optional[int] = None,
) -> None:
    """Process entry point: run this worker's loop until told to stop."""
    asyncio.run(_worker(worker_id, control, results, store_dir, crash_after))
