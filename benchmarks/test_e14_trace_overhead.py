"""E14: observability must be free when off and cheap when on.

The observatory (PR 4) threads a tracer and a metrics registry through
every engine epoch.  The shipped default is
:class:`~repro.obs.trace.NullTracer` -- every instrumentation site
costs one attribute check and one constant-returning call -- so the
acceptance bar is two-sided:

* tracing **off** must be statistically negligible: the NullTracer
  path *is* the default engine hot path, which the ``bench`` harness's
  engine workloads gate against their parent commit, so
  instrumentation that made epochs measurably slower would show
  there;
* tracing **on** -- full span tree, per-verdict provenance instants,
  latency histograms -- must cost < 10% per epoch at 80 nodes.

Both replays run the *python* reference backend (``backend="python"``,
named explicitly), not the vector production backend: this bar prices
tracing on the serial per-entity path, and what tracing costs the
production backend is not measured here.

The epochs are the one synthetic-WAN recipe
(:func:`repro.fleet.scenario.synthetic_workload`, seed 0): one warm-up
epoch, then ``EPOCHS`` churned ones.  Each side keeps the best of
``REPETITIONS`` replays; the tracing-off spread (``max/min - 1``) is
the noise floor the overhead must be read against.

The traced run's Chrome trace and Prometheus exposition are written to
``results/`` so the CI bench job archives real artifacts produced
under measurement.
"""

import time

from repro.engine import ValidationEngine, engine_registry
from repro.experiments import format_table
from repro.fleet.scenario import synthetic_workload
from repro.obs import MetricsRegistry, Tracer

SIZES = (20, 80)
EPOCHS = 10
CHURN = 0.10
REPETITIONS = 5
MAX_OVERHEAD_ON = 0.10


def _replay(workload, tracer=None, metrics=None) -> float:
    """Per-epoch ms of one engine over the churned epochs (after a warm-up)."""
    engine = ValidationEngine(
        workload.topology, backend="python", tracer=tracer, metrics=metrics
    )
    inputs = workload.inputs_for(0.0)
    snapshots = [snapshot for _, snapshot in workload.epochs]
    engine.validate(snapshots[0], inputs)  # warm-up
    start = time.perf_counter()
    for snapshot in snapshots[1:]:
        engine.validate(snapshot, inputs)
    elapsed = (time.perf_counter() - start) * 1000 / EPOCHS
    if metrics is not None:
        engine_registry(engine.stats, registry=metrics)
    return elapsed


def test_trace_overhead(benchmark, write_result, results_dir):
    def measure():
        rows = []
        for size in SIZES:
            workload = synthetic_workload(
                size, EPOCHS + 1, seed=0, churn=CHURN, epoch_spacing_s=1.0
            )
            off_runs = [_replay(workload) for _ in range(REPETITIONS)]
            on_ms = float("inf")
            for _ in range(REPETITIONS):
                tracer, registry = Tracer(), MetricsRegistry()
                on_ms = min(on_ms, _replay(workload, tracer=tracer, metrics=registry))
            # The last traced run's artifacts, produced under measurement.
            tracer.write_chrome_trace(str(results_dir / "E14_trace.json"))
            registry.write(str(results_dir / "E14_metrics.prom"))
            off_ms = min(off_runs)
            kinds = [event["type"] for event in tracer.events()]
            rows.append(
                {
                    "nodes": workload.topology.num_nodes,
                    "links": workload.topology.num_links,
                    "off_ms": off_ms,
                    "on_ms": on_ms,
                    "overhead": on_ms / off_ms - 1.0,
                    "off_noise": max(off_runs) / off_ms - 1.0,
                    "spans": kinds.count("span"),
                    "instants": kinds.count("instant"),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    table = format_table(
        [
            "nodes",
            "links",
            "epochs",
            "off (ms)",
            "on (ms)",
            "overhead",
            "noise floor",
            "spans",
            "instants",
        ],
        [
            [
                row["nodes"],
                row["links"],
                EPOCHS,
                f"{row['off_ms']:.2f}",
                f"{row['on_ms']:.2f}",
                f"{row['overhead']:+.1%}",
                f"{row['off_noise']:.1%}",
                row["spans"],
                row["instants"],
            ]
            for row in rows
        ],
    )
    write_result("E14_trace_overhead", table)

    at_80 = rows[-1]
    assert at_80["nodes"] == 80
    # Acceptance bar: full tracing costs < 10% per epoch at 80 nodes.
    assert at_80["overhead"] < MAX_OVERHEAD_ON, (
        f"tracing-on overhead {at_80['overhead']:.1%} >= {MAX_OVERHEAD_ON:.0%} "
        f"(off={at_80['off_ms']:.2f}ms on={at_80['on_ms']:.2f}ms)"
    )
    # One traced replay must have recorded the whole tree: an epoch
    # span plus three stage spans per epoch (warm-up included), and
    # one verdict instant per controller input per epoch.
    timed_plus_warmup = EPOCHS + 1
    assert at_80["spans"] >= 4 * timed_plus_warmup
    assert at_80["instants"] >= 3 * timed_plus_warmup
    # The artifacts CI uploads were really emitted.
    assert (results_dir / "E14_trace.json").exists()
    assert (results_dir / "E14_metrics.prom").exists()

    benchmark.extra_info["off_ms_at_80"] = at_80["off_ms"]
    benchmark.extra_info["on_ms_at_80"] = at_80["on_ms"]
    benchmark.extra_info["overhead_at_80"] = at_80["overhead"]
    benchmark.extra_info["off_noise_at_80"] = at_80["off_noise"]
