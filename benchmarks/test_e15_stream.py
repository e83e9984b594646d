"""E15: streamed ingestion must sustain WAN-scale telemetry churn.

The streaming stack (PR 5) feeds the always-on engine from per-router
update streams instead of pre-formed snapshots.  This soak drives the
acceptance configuration -- an 80-node topology, 50 epochs of churning
feeds with 10% in-window reordering, 1% source drops, and 2%
duplicated deliveries -- through the bounded-queue/backpressure
pipeline and asserts:

* **zero deadlocks**: every epoch seals and validates (a wedged
  watermark or a lost end-of-feed marker would leave epochs open);
* sustained delivery throughput is reported (the headline number);
* the delivery-fault counters (late / source-dropped / duplicate) made
  it into the Prometheus exposition CI archives.
"""

from repro.experiments import ScaleStudy, format_table

SIZES = (80,)
EPOCHS = 50
REORDER = 0.10
DROP = 0.01
DUPLICATE = 0.02


def test_stream_soak(benchmark, write_result, results_dir):
    study = ScaleStudy(seed=0)
    rows = benchmark.pedantic(
        lambda: study.run_stream(
            sizes=SIZES,
            epochs=EPOCHS,
            reorder=REORDER,
            drop=DROP,
            duplicate=DUPLICATE,
            export_dir=str(results_dir),
        ),
        rounds=1,
        iterations=1,
    )

    table = format_table(
        [
            "nodes",
            "links",
            "epochs",
            "updates",
            "updates/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "late",
            "dropped",
            "dups",
            "partial",
        ],
        [
            [
                row.nodes,
                row.links,
                f"{row.epochs_sealed}/{row.epochs_streamed}",
                row.updates,
                f"{row.updates_per_s:.0f}",
                f"{row.p50_ms:.1f}",
                f"{row.p95_ms:.1f}",
                f"{row.p99_ms:.1f}",
                row.late_dropped,
                row.feed_dropped,
                row.duplicates,
                row.partial_epochs,
            ]
            for row in rows
        ],
    )
    write_result("E15_stream", table)

    at_80 = rows[-1]
    assert at_80.nodes == 80
    # Acceptance bar: zero assembler deadlocks under the bounded-queue
    # backpressure config -- every streamed epoch sealed and validated.
    assert at_80.epochs_sealed == EPOCHS, (
        f"only {at_80.epochs_sealed}/{EPOCHS} epochs sealed -- the "
        f"pipeline wedged (open epochs never reached the watermark)"
    )
    assert at_80.updates_per_s > 0.0
    # The perturbations really ran at the configured rates.
    assert at_80.feed_dropped > 0
    assert at_80.duplicates > 0
    # The delivery-fault counters are in the archived exposition.
    prom = (results_dir / "E15_metrics.prom").read_text()
    for family in (
        "stream_updates_total",
        "stream_late_updates_total",
        "stream_duplicate_updates_total",
        "stream_feed_dropped_total",
        "stream_backpressure_dropped_total",
        "stream_queue_depth",
        "stream_epochs_sealed_total",
        "stream_assembly_latency_seconds_bucket",
    ):
        assert family in prom, f"{family} missing from E15_metrics.prom"

    benchmark.extra_info["updates_per_s_at_80"] = at_80.updates_per_s
    benchmark.extra_info["p95_ms_at_80"] = at_80.p95_ms
    benchmark.extra_info["duplicates_at_80"] = at_80.duplicates
    benchmark.extra_info["feed_dropped_at_80"] = at_80.feed_dropped


def test_stream_soak_python_vs_vector(benchmark, write_result, results_dir):
    """Satellite to E15: the same soak on both engine backends.

    Every sealed epoch is a sorted event buffer; the vector backend
    packs it straight into its slot arrays, the python backend folds it
    through the cached decoder and runs the per-entity reference units.
    The identical shape on both, so the p50 moves are attributable to
    the engine alone.
    """
    from repro.stream.feed import Perturbations
    from repro.stream.soak import SoakConfig, run_soak

    perturb = Perturbations(reorder=REORDER, drop=DROP, duplicate=DUPLICATE)
    shape = dict(nodes=SIZES[-1], epochs=EPOCHS, perturb=perturb)
    vector = benchmark.pedantic(
        lambda: run_soak(SoakConfig(backend="vector", **shape)), rounds=1, iterations=1
    )
    python = run_soak(SoakConfig(backend="python", **shape))

    for result, backend in ((python, "python"), (vector, "vector")):
        assert result.epochs_sealed == EPOCHS, (
            f"{backend}: only {result.epochs_sealed}/{EPOCHS} epochs sealed"
        )

    table = format_table(
        ["backend", "epochs", "updates", "updates/s", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        [
            [
                backend,
                f"{result.epochs_sealed}/{EPOCHS}",
                result.updates,
                f"{result.updates_per_s:.0f}",
                f"{result.p50_ms:.1f}",
                f"{result.p95_ms:.1f}",
                f"{result.p99_ms:.1f}",
            ]
            for result, backend in ((python, "python"), (vector, "vector"))
        ],
    )
    write_result("E15_backends", table)

    benchmark.extra_info["vector_p50_ms"] = vector.p50_ms
    benchmark.extra_info["python_p50_ms"] = python.p50_ms
