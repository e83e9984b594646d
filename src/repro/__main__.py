"""Command-line entry point: ``python -m repro <command>``.

Exposes the library's studies and demos without writing any Python:

- ``demo``        the Figure 3 worked example,
- ``replay``      the Section 2 outage catalog vs three validators,
- ``perturb``     the Section 4.1 demand-perturbation study,
- ``thresholds``  the tau_h sensitivity sweep (footnote 2),
- ``hardening``   the hardening-efficacy ablation,
- ``drains``      drain validation incl. the reasons extension,
- ``scale``       validation cost vs network size,
- ``engine``      replay scenario timelines through the always-on engine,
- ``trace``       render an exported engine trace (spans + provenance),
- ``scenarios``   list the outage catalog,
- ``fuzz``        randomized fault timelines vs the tri-modal oracle,
- ``lint``        static purity/determinism analysis of the pipeline,
- ``history``     read verdict history stores (tail/trends/query/compact),
- ``fleet``       validate many tenant WANs across a worker-process pool.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.core import Hodor
    from repro.net import NetworkSimulator
    from repro.telemetry import Jitter, ProbeEngine, TelemetryCollector
    from repro.topologies import fig3_demand, fig3_network

    topology = fig3_network()
    demand = fig3_demand()
    truth = NetworkSimulator(topology, demand, strategy="single").run()
    snapshot = TelemetryCollector(Jitter(0.0), probe_engine=ProbeEngine(seed=0)).collect(truth)
    snapshot.counters[("A", "B")].tx_rate = 120.0

    hodor = Hodor(topology)
    report = hodor.validate_demand(snapshot, demand)
    repaired = report.hardened.edge_flows[("A", "B")]
    print("Figure 3 worked example (tx@A->B corrupted to 120, truth 76):")
    print(f"  repaired value : {repaired.value:g} ({repaired.confidence.value})")
    print(report.render())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.experiments import OutageStudy, format_table

    study = OutageStudy(history_epochs=args.history, seed=args.seed)
    outcomes = study.run()
    rows = [
        [
            o.scenario.scenario_id,
            o.scenario.title[:44],
            "yes" if o.hodor_flagged else "no",
            "yes" if o.static_flagged else "no",
            "yes" if o.anomaly_flagged else "no",
            "yes" if o.damaged else "no",
        ]
        for o in outcomes
    ]
    print(format_table(["id", "scenario", "hodor", "static", "anomaly", "damage"], rows))
    summary = OutageStudy.summarize(outcomes)
    print()
    for key, value in summary.items():
        print(f"{key:32}: {value:.0%}")
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    from repro.experiments import PerturbationStudy, format_percent, format_table

    study = PerturbationStudy(matrices=args.matrices, seed=args.seed)
    rows = study.run(zero_counts=tuple(range(1, args.max_zeroed + 1)), trials=args.trials)
    print(
        format_table(
            ["zeroed", "detection rate"],
            [[row.zeroed, format_percent(row.detection_rate)] for row in rows],
        )
    )
    print(f"\nfalse positives on clean matrices: {format_percent(study.false_positive_rate())}")
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    from repro.experiments import ThresholdStudy, format_percent, format_table

    study = ThresholdStudy(seed=args.seed)
    rows = study.false_positive_sweep(trials=args.trials)
    taus = sorted({row.tau_h for row in rows})
    jitters = sorted({row.jitter for row in rows})
    cell = {(row.tau_h, row.jitter): row.false_positive_rate for row in rows}
    print(
        format_table(
            ["tau_h \\ jitter"] + [f"{j:g}" for j in jitters],
            [[f"{t:g}"] + [format_percent(cell[(t, j)]) for j in jitters] for t in taus],
        )
    )
    return 0


def _cmd_hardening(args: argparse.Namespace) -> int:
    from repro.experiments import HardeningStudy, format_percent, format_table

    study = HardeningStudy(seed=args.seed)
    rows = study.corruption_sweep(trials=args.trials)
    print(
        format_table(
            ["corrupted", "recall", "repair rate", "unknown"],
            [
                [
                    row.corrupted,
                    format_percent(row.recall),
                    format_percent(row.repair_rate),
                    format_percent(row.unknown_rate),
                ]
                for row in rows
            ],
        )
    )
    correlated = study.correlated_vendor_bug()
    print(
        f"\ncorrelated vendor bug: {correlated.blind_flagged}/{correlated.blind_directions} "
        f"blind directions flagged, {correlated.visible_flagged}/"
        f"{correlated.visible_directions} visible directions flagged"
    )
    return 0


def _cmd_drains(args: argparse.Namespace) -> int:
    from repro.experiments import DrainStudy, format_percent, format_table

    study = DrainStudy(seed=args.seed)
    rows = study.run(trials=args.trials) + study.run_with_reasons(trials=args.trials)
    print(
        format_table(
            ["case", "flagged", "should flag"],
            [
                [row.case, format_percent(row.rate, 0), "yes" if row.should_flag else "no"]
                for row in rows
            ],
        )
    )
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.experiments import ScaleStudy, format_table

    rows = ScaleStudy(seed=args.seed).run(sizes=tuple(args.sizes))
    print(
        format_table(
            ["nodes", "links", "signals", "validate (ms)"],
            [[row.nodes, row.links, row.signals, f"{row.validate_ms:.1f}"] for row in rows],
        )
    )
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    import json

    from repro.engine import EngineStats, ValidationEngine, compare_reports, engine_registry
    from repro.experiments import format_table
    from repro.scenarios import all_scenarios, scenario_by_id

    try:
        scenarios = (
            [scenario_by_id(args.scenario)] if args.scenario else all_scenarios()
        )
    except KeyError:
        known = ", ".join(s.scenario_id for s in all_scenarios())
        print(f"unknown scenario {args.scenario!r} (known: {known})", file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.trace_jsonl:
        from repro.obs import Tracer

        tracer = Tracer()
    registry = None
    if args.metrics or args.metrics_prom:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    try:
        history = _history_sink(args, registry)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    totals = EngineStats(backend=args.backend)
    rows = []
    mismatched = 0
    for scenario in scenarios:
        world = scenario.build(seed=args.seed)
        flagged = 0
        matches = True
        if tracer is not None:
            tracer.instant("scenario", scenario=scenario.scenario_id)
        engine = ValidationEngine(
            world.topology,
            config=world.hodor_config,
            backend=args.backend,
            tracer=tracer,
            metrics=registry,
            history=history,
        )
        for epoch in range(args.epochs):
            outcome = world.run_epoch(timestamp=float(epoch))
            report = engine.validate(outcome.snapshot, outcome.inputs)
            if report.detected_anything():
                flagged += 1
            if compare_reports(outcome.report, report):
                matches = False
        totals.merge(engine.stats)
        if not matches:
            mismatched += 1
        rows.append(
            [
                scenario.scenario_id,
                args.epochs,
                f"{flagged}/{args.epochs}",
                "yes" if matches else "NO",
            ]
        )

    if history is not None:
        history.close()
        print(f"history: {args.history}", file=sys.stderr)
    if registry is not None:
        engine_registry(totals, registry=registry)
    if args.metrics_prom:
        registry.write(args.metrics_prom)
        print(f"wrote {args.metrics_prom}", file=sys.stderr)
    if tracer is not None:
        if args.trace:
            tracer.write_chrome_trace(args.trace)
            print(f"wrote {args.trace}", file=sys.stderr)
        if args.trace_jsonl:
            tracer.write_jsonl(args.trace_jsonl)
            print(f"wrote {args.trace_jsonl}", file=sys.stderr)

    if args.json:
        payload = {
            "scenarios": [
                {
                    "id": row[0],
                    "epochs": row[1],
                    "flagged": int(row[2].split("/")[0]),
                    "matches_serial": row[3] == "yes",
                }
                for row in rows
            ],
            "mismatched": mismatched,
            "stats": totals.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if mismatched else 0

    print(format_table(["id", "epochs", "flagged", "matches serial"], rows))
    print()
    print(totals.render())
    if args.metrics:
        print()
        print(registry.render(), end="")
    return 1 if mismatched else 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json

    from repro.engine import ValidationEngine, compare_reports
    from repro.experiments import format_table
    from repro.scenarios import all_scenarios, scenario_by_id
    from repro.stream import (
        EpochAssembler,
        IngestConfig,
        Perturbations,
        StreamPipeline,
        make_feeds,
    )

    try:
        perturb = Perturbations(
            reorder=args.reorder,
            duplicate=args.duplicate,
            delay=args.delay,
            drop=args.drop,
            fail=args.fail,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    registry = None
    if args.metrics_prom:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()

    if args.soak:
        from repro.stream import SoakConfig, run_soak

        try:
            result = run_soak(
                SoakConfig(
                    nodes=args.nodes,
                    epochs=args.epochs,
                    seed=args.seed,
                    perturb=perturb,
                    backend=args.backend,
                    lateness_s=args.lateness,
                    queue_size=args.queue_size,
                    backpressure=args.backpressure,
                    deterministic=not args.concurrent,
                    history_path=args.history or None,
                    history_deterministic=not args.history_live,
                    alert_rules=tuple(args.alert),
                    alert_jsonl=args.alerts_jsonl or None,
                ),
                metrics=registry,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.metrics_prom:
            result.metrics.write(args.metrics_prom)
            print(f"wrote {args.metrics_prom}", file=sys.stderr)
        payload = {
            "nodes": result.nodes,
            "links": result.links,
            "epochs_streamed": result.epochs_streamed,
            "epochs_sealed": result.epochs_sealed,
            "updates": result.updates,
            "updates_per_s": round(result.updates_per_s, 1),
            "p50_ms": round(result.p50_ms, 3),
            "p95_ms": round(result.p95_ms, 3),
            "p99_ms": round(result.p99_ms, 3),
            "late_dropped": result.late_dropped,
            "duplicates": result.duplicates,
            "feed_dropped": result.feed_dropped,
            "backpressure_dropped": result.backpressure_dropped,
            "retries": result.retries,
            "abandoned": result.abandoned,
            "complete_epochs": result.complete_epochs,
            "partial_epochs": result.partial_epochs,
        }
        if args.history:
            payload["history_epochs"] = result.history_epochs
            payload["history_bytes"] = result.history_bytes
            payload["history_bytes_compacted"] = result.history_bytes_compacted
            payload["alerts_fired"] = result.alerts_fired
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for key, value in payload.items():
                print(f"{key:22} {value}")
        return 0 if result.epochs_sealed == result.epochs_streamed else 1

    try:
        scenarios = (
            [scenario_by_id(args.scenario)] if args.scenario else all_scenarios()
        )
    except KeyError:
        known = ", ".join(s.scenario_id for s in all_scenarios())
        print(f"unknown scenario {args.scenario!r} (known: {known})", file=sys.stderr)
        return 2

    try:
        history = _history_sink(args, registry)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    # With every perturbation probability at zero the streamed reports
    # must match the batch path exactly; perturbed runs skip the check.
    check_identity = (
        max(perturb.reorder, perturb.duplicate, perturb.delay, perturb.drop) <= 0.0
    )
    rows = []
    mismatched = 0
    for scenario in scenarios:
        world = scenario.build(seed=args.seed)
        epochs = []
        inputs_by_ts = {}
        batch_reports = []
        for epoch in range(args.epochs):
            outcome = world.run_epoch(timestamp=float(epoch) * 10.0)
            epochs.append((outcome.snapshot.timestamp, outcome.snapshot))
            inputs_by_ts[outcome.snapshot.timestamp] = outcome.inputs
            batch_reports.append(outcome.report)
        feeds = make_feeds(epochs, perturb=perturb, seed=args.seed)
        assembler = EpochAssembler(
            routers=list(feeds), lateness_s=args.lateness, metrics=registry
        )
        engine = ValidationEngine(
            world.topology,
            config=world.hodor_config,
            backend=args.backend,
            metrics=registry,
        )
        pipeline = StreamPipeline(
            list(feeds.values()),
            assembler,
            engine,
            inputs_for=inputs_by_ts,
            config=IngestConfig(
                queue_size=args.queue_size,
                backpressure=args.backpressure,
                deterministic=not args.concurrent,
            ),
            metrics=registry,
            history=history,
        )
        result = pipeline.run()
        matches = True
        if check_identity:
            if len(result.reports) != len(batch_reports):
                matches = False
            else:
                for batch, streamed in zip(batch_reports, result.reports):
                    if compare_reports(batch, streamed):
                        matches = False
        if not matches:
            mismatched += 1
        rows.append(
            [
                scenario.scenario_id,
                f"{len(result.epochs)}/{args.epochs}",
                result.complete_epochs,
                result.partial_epochs,
                result.late_dropped,
                result.duplicates,
                ("yes" if matches else "NO") if check_identity else "-",
            ]
        )

    if history is not None:
        history.close()
        print(f"history: {args.history}", file=sys.stderr)
    if args.metrics_prom:
        registry.write(args.metrics_prom)
        print(f"wrote {args.metrics_prom}", file=sys.stderr)
    if args.json:
        payload = {
            "scenarios": [
                {
                    "id": row[0],
                    "sealed": row[1],
                    "complete": row[2],
                    "partial": row[3],
                    "late_dropped": row[4],
                    "duplicates": row[5],
                    "matches_batch": row[6],
                }
                for row in rows
            ],
            "mismatched": mismatched,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if mismatched else 0
    print(
        format_table(
            ["id", "sealed", "complete", "partial", "late", "dups", "matches batch"],
            rows,
        )
    )
    return 1 if mismatched else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_trace_file, render_trace

    try:
        events = load_trace_file(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        render_trace(
            events, provenance_only=args.provenance, max_epochs=args.epochs
        )
    )
    return 0


def _parse_budget(raw: str) -> float:
    """``"30s"``/``"2m"``/plain seconds -> seconds.

    Raises:
        ValueError: On unparseable or non-positive budgets.
    """
    text = raw.strip().lower()
    scale = 1.0
    if text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ValueError(
            f"unparseable budget {raw!r} (expected e.g. '30s', '2m', or '45')"
        ) from None
    if seconds <= 0:
        raise ValueError(f"budget must be positive, got {raw!r}")
    return seconds


def _self_test_hook(index, report):
    """The planted mode-divergence bug for ``fuzz --self-test``: flip
    one verdict in the vector path so every case diverges."""
    import dataclasses

    if not report.verdicts:
        return report
    name = sorted(report.verdicts)[0]
    verdict = report.verdicts[name]
    verdicts = dict(report.verdicts)
    verdicts[name] = dataclasses.replace(verdict, valid=not verdict.valid)
    return dataclasses.replace(report, verdicts=verdicts)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from pathlib import Path

    from repro.fuzz import FuzzRunner, TriModalOracle

    try:
        budget_s = _parse_budget(args.budget)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.cases < 1:
        print(f"--cases must be >= 1, got {args.cases}", file=sys.stderr)
        return 2

    if args.self_test:
        # Plant a divergence bug in the vector mode and prove the
        # whole find -> shrink -> emit loop catches it.
        oracle = TriModalOracle(hooks={"vector": _self_test_hook})
        with tempfile.TemporaryDirectory() as scratch:
            runner = FuzzRunner(
                seed=args.seed,
                budget_s=budget_s,
                max_cases=1,
                oracle=oracle,
                shrink=not args.no_shrink,
                corpus_dir=Path(scratch),
            )
            report = runner.run()
            wrote = [o.reproducer_path for o in report.outcomes if o.reproducer_path]
        ok = report.failures == 1 and len(wrote) == 1
        print(
            "self-test: planted vector-mode divergence "
            + ("found and reproduced" if ok else "NOT caught")
        )
        return 0 if ok else 1

    runner = FuzzRunner(
        seed=args.seed,
        budget_s=budget_s,
        max_cases=args.cases,
        shrink=not args.no_shrink,
        corpus_dir=Path(args.out),
    )
    report = runner.run()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"fuzz: {report.cases} cases in {report.elapsed_s:.1f}s "
            f"(seed {report.master_seed}), {report.failures} failures"
        )
        for outcome in report.outcomes:
            if outcome.failed:
                print(
                    f"  case {outcome.case_index} (seed {outcome.case_seed}): "
                    f"{outcome.result.detail()}"
                )
                if outcome.reproducer_path:
                    print(f"    reproducer: {outcome.reproducer_path}")
    return 1 if report.failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_cli

    return run_cli(args)


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.history.cli import run_history

    return run_history(args)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.cli import run_fleet

    return run_fleet(args)


def _history_sink(args: argparse.Namespace, registry):
    """Build the optional ``--history`` write-through sink for the
    engine/stream commands (plus its alert engine when rules given)."""
    if not args.history:
        return None
    from repro.history.alerts import AlertEngine, JsonlAlertSink, LogAlertSink
    from repro.history.sink import HistoryConfig, HistorySink

    alert_engine = None
    if args.alert:
        sinks = [LogAlertSink()]
        if args.alerts_jsonl:
            sinks.append(JsonlAlertSink(args.alerts_jsonl))
        alert_engine = AlertEngine(args.alert, sinks=sinks, metrics=registry)
    return HistorySink(
        HistoryConfig(path=args.history, deterministic=not args.history_live),
        alerts=alert_engine,
        metrics=registry,
    )


def _add_history_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--history",
        default="",
        metavar="PATH",
        help="write every validated epoch through to a history store (sqlite)",
    )
    parser.add_argument(
        "--history-live",
        action="store_true",
        help="record wall-clock anchors and real latencies in the store "
        "(default: deterministic, byte-reproducible across seeded runs)",
    )
    parser.add_argument(
        "--alert",
        action="append",
        default=[],
        metavar="RULE",
        help="alert rule (repeatable): transition:<input>, "
        "trend:<metric><op><thresh>@<window>, or "
        "regression:<series>@<window>/<baseline>%%<band>",
    )
    parser.add_argument(
        "--alerts-jsonl",
        default="",
        metavar="PATH",
        help="also fan fired alerts out to a JSONL file",
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import ReportConfig, run_full_report

    config = ReportConfig.quick() if args.quick else ReportConfig()
    report = run_full_report(config)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.experiments import format_table
    from repro.scenarios import all_scenarios

    if not args.verbose:
        print(
            format_table(
                ["id", "section", "category", "title"],
                [
                    [s.scenario_id, s.paper_section, s.category, s.title]
                    for s in all_scenarios()
                ],
            )
        )
        return 0

    for scenario in all_scenarios():
        print(f"{scenario.scenario_id}  {scenario.title}")
        print(f"    paper section : {scenario.paper_section}")
        print(f"    category      : {scenario.category}")
        print(f"    detection     : {'expected' if scenario.expect_detection else 'must NOT flag'}"
              + (f" via {', '.join(scenario.expected_channels)}" if scenario.expected_channels else ""))
        print(f"    network damage: {'yes' if scenario.expect_damage else 'no'}")
        print(f"    {scenario.description}")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hodor: input validation for software-defined WANs (HotNets '24 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="the Figure 3 worked example").set_defaults(func=_cmd_demo)

    replay = sub.add_parser("replay", help="Section 2 outage catalog vs validators")
    replay.add_argument("--history", type=int, default=8)
    replay.add_argument("--seed", type=int, default=1)
    replay.set_defaults(func=_cmd_replay)

    perturb = sub.add_parser("perturb", help="Section 4.1 demand-perturbation study")
    perturb.add_argument("--trials", type=int, default=240)
    perturb.add_argument("--matrices", type=int, default=8)
    perturb.add_argument("--max-zeroed", type=int, default=6)
    perturb.add_argument("--seed", type=int, default=0)
    perturb.set_defaults(func=_cmd_perturb)

    thresholds = sub.add_parser("thresholds", help="tau_h sensitivity (footnote 2)")
    thresholds.add_argument("--trials", type=int, default=4)
    thresholds.add_argument("--seed", type=int, default=0)
    thresholds.set_defaults(func=_cmd_thresholds)

    hardening = sub.add_parser("hardening", help="hardening-efficacy ablation")
    hardening.add_argument("--trials", type=int, default=10)
    hardening.add_argument("--seed", type=int, default=0)
    hardening.set_defaults(func=_cmd_hardening)

    drains = sub.add_parser("drains", help="drain validation incl. reasons extension")
    drains.add_argument("--trials", type=int, default=6)
    drains.add_argument("--seed", type=int, default=0)
    drains.set_defaults(func=_cmd_drains)

    scale = sub.add_parser("scale", help="validation cost vs network size")
    scale.add_argument("--sizes", type=int, nargs="+", default=[10, 20, 40, 80])
    scale.add_argument("--seed", type=int, default=0)
    scale.set_defaults(func=_cmd_scale)

    engine = sub.add_parser(
        "engine", help="replay scenario timelines through the always-on engine"
    )
    engine.add_argument(
        "--scenario", default="", help="replay one scenario id (default: all)"
    )
    engine.add_argument(
        "--epochs", type=int, default=3, help="epochs per scenario timeline"
    )
    engine.add_argument("--seed", type=int, default=1)
    engine.add_argument(
        "--backend",
        choices=("python", "vector"),
        default="python",
        help="evaluation backend: per-entity units or array-compiled epochs",
    )
    engine.add_argument(
        "--metrics", action="store_true", help="also print the Prometheus exposition"
    )
    engine.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable results and EngineStats as JSON",
    )
    engine.add_argument(
        "--trace",
        default="",
        metavar="PATH",
        help="write a Chrome trace-event JSON span tree (Perfetto-loadable)",
    )
    engine.add_argument(
        "--trace-jsonl",
        default="",
        metavar="PATH",
        help="write the structured JSONL event log",
    )
    engine.add_argument(
        "--metrics-prom",
        default="",
        metavar="PATH",
        help="write Prometheus text exposition (registry incl. latency histograms)",
    )
    _add_history_flags(engine)
    engine.set_defaults(func=_cmd_engine)

    stream = sub.add_parser(
        "stream",
        help="stream scenario timelines through async ingestion into the engine",
    )
    stream.add_argument(
        "--scenario", default="", help="stream one scenario id (default: all)"
    )
    stream.add_argument(
        "--epochs", type=int, default=3, help="epochs per scenario timeline (or soak)"
    )
    stream.add_argument("--seed", type=int, default=1)
    stream.add_argument(
        "--backend",
        choices=("python", "vector"),
        default="python",
        help="evaluation backend: per-entity units or array-compiled epochs",
    )
    stream.add_argument(
        "--lateness",
        type=float,
        default=1.0,
        metavar="S",
        help="assembler lateness window, virtual seconds",
    )
    stream.add_argument(
        "--reorder", type=float, default=0.0, help="in-window reorder probability"
    )
    stream.add_argument(
        "--duplicate", type=float, default=0.0, help="duplicate-delivery probability"
    )
    stream.add_argument(
        "--delay", type=float, default=0.0, help="late (out-of-window) probability"
    )
    stream.add_argument(
        "--drop", type=float, default=0.0, help="source-drop probability"
    )
    stream.add_argument(
        "--fail", type=float, default=0.0, help="transient feed-failure probability"
    )
    stream.add_argument("--queue-size", type=int, default=256)
    stream.add_argument(
        "--backpressure",
        choices=("block", "drop-oldest"),
        default="block",
        help="bounded-queue policy when producers outrun validation",
    )
    stream.add_argument(
        "--concurrent",
        action="store_true",
        help="one producer task per feed instead of the merged deterministic order",
    )
    stream.add_argument(
        "--soak",
        action="store_true",
        help="run the E15 soak driver on a synthetic topology instead of scenarios",
    )
    stream.add_argument(
        "--nodes", type=int, default=80, help="soak topology size (with --soak)"
    )
    stream.add_argument(
        "--json", action="store_true", help="emit machine-readable results as JSON"
    )
    stream.add_argument(
        "--metrics-prom",
        default="",
        metavar="PATH",
        help="write Prometheus text exposition (stream_* + engine families)",
    )
    _add_history_flags(stream)
    stream.set_defaults(func=_cmd_stream)

    trace = sub.add_parser(
        "trace", help="render an exported engine trace (span tree + verdict provenance)"
    )
    trace.add_argument("path", help="trace file written by engine --trace/--trace-jsonl")
    trace.add_argument(
        "--provenance",
        action="store_true",
        help="show only flagged-verdict provenance records",
    )
    trace.add_argument(
        "--epochs",
        type=int,
        default=None,
        metavar="N",
        help="render at most N epoch spans",
    )
    trace.set_defaults(func=_cmd_trace)

    scenarios = sub.add_parser("scenarios", help="list the outage catalog")
    scenarios.add_argument(
        "--verbose", "-v", action="store_true", help="full descriptions"
    )
    scenarios.set_defaults(func=_cmd_scenarios)

    fuzz = sub.add_parser(
        "fuzz",
        help="random fault timelines through the tri-modal differential oracle",
    )
    fuzz.add_argument(
        "--budget",
        default="30s",
        help="wall-clock budget, e.g. 30s or 2m (default 30s)",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign master seed")
    fuzz.add_argument(
        "--cases", type=int, default=10_000, help="hard cap on generated cases"
    )
    fuzz.add_argument(
        "--out",
        default="tests/fuzz/regressions",
        help="corpus directory for minimized reproducers",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="write failures unminimized (skip the shrinker)",
    )
    fuzz.add_argument(
        "--self-test",
        action="store_true",
        help="plant a known mode-divergence bug and verify find->shrink->emit",
    )
    fuzz.add_argument(
        "--json", action="store_true", help="emit the campaign report as JSON"
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    lint = sub.add_parser(
        "lint",
        help="static purity/determinism analysis of the pipeline (hodor-lint)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    history = sub.add_parser(
        "history",
        help="read verdict history stores back (tail/trends/query/compact)",
    )
    from repro.history.cli import add_history_arguments

    add_history_arguments(history)
    history.set_defaults(func=_cmd_history)

    fleet = sub.add_parser(
        "fleet",
        help="validate many tenant WANs from one service (worker-process pool)",
    )
    from repro.fleet.cli import add_fleet_arguments

    add_fleet_arguments(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    report = sub.add_parser("report", help="run every study, emit one markdown report")
    report.add_argument("--quick", action="store_true", help="fast low-trial profile")
    report.add_argument("--output", "-o", default="", help="write to a file instead of stdout")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
