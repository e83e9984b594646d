"""Run one workload in one mode and report it.

``BENCHMARK.json`` is the single list of metric names and units: a run
must produce every end-to-end metric it names, may leave a per-layer
metric out only when the workload never enters that layer (reported as
0), and may produce no name it does not list.
"""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass
from typing import Dict, List

from bench import ROOT
from bench.stats import median
from bench.trace import Spans, clock
from bench.workloads import WORKLOADS, Measured

#: Set-up is repeated and its median reported, so ``setup_s`` is steady
#: enough to gate.
SETUPS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Run:
    """One workload, one mode, measured and checked."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    measured: Measured
    setup_s: List[float]
    warm_s: float
    input_sha256: str

    @property
    def failed_share(self) -> float:
        return self.measured.failed / self.measured.attempted


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run(name: str, seed: int, seconds: float, traced: bool, setups: int = SETUPS) -> Run:
    workload = WORKLOADS[name]
    setup_spans = Spans()
    setup_s = []
    state = None
    for _repeat in range(setups):
        state = None  # release the previous fixture before building the next
        start = clock()
        state = workload.setup(seed, setup_spans)
        setup_s.append(clock() - start)
    input_sha256 = workload.input_hash(state)
    start = clock()
    workload.warm(state)
    warm_s = clock() - start
    if traced:
        measured = workload.trace(state, seconds, setup_spans)
        measured.metrics["proc.peak_rss_mb"] = _peak_rss_mb()
        measured.spans.insert(0, setup_spans)
    else:
        measured = workload.measure(state, seconds)
        measured.metrics["setup_s"] = median(setup_s)
    return Run(name, seed, seconds, traced, measured, setup_s, warm_s, input_sha256)


def listed_metrics(run_: Run, spec: dict) -> Dict[str, Dict[str, object]]:
    """The run's metrics in the shape and order ``BENCHMARK.json`` lists."""
    values = run_.measured.metrics
    listed = spec["per_layer"] if run_.traced else spec["end_to_end"]
    unknown = set(values) - {metric["name"] for metric in listed}
    if unknown:
        raise KeyError(f"metrics not listed in BENCHMARK.json: {sorted(unknown)}")
    if not run_.traced:
        missing = {metric["name"] for metric in listed} - set(values)
        if missing:
            raise KeyError(f"end-to-end metrics not produced: {sorted(missing)}")
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}


def result_line(run_: Run, spec: dict) -> str:
    measured = run_.measured
    return json.dumps(
        {
            "correct": measured.failed == 0,
            "attempted": measured.attempted,
            "failed": measured.failed,
            "metrics": listed_metrics(run_, spec),
        }
    )


def render(run_: Run, spec: dict) -> str:
    """The human-readable report of one run."""
    measured = run_.measured
    mode = "traced pass, per-layer table" if run_.traced else "end-to-end pass, no instrumentation"
    lines = [
        f"== {run_.workload}  seed {run_.seed}  {run_.seconds:g} s  ({mode}) ==",
        f"inputs sha256  {run_.input_sha256}",
        f"set-up         median {median(run_.setup_s):.3f} s of {len(run_.setup_s)}"
        f" ({', '.join(f'{s:.3f}' for s in run_.setup_s)}); warm-up {run_.warm_s:.3f} s",
        "samples        " + ", ".join(f"{k}={v}" for k, v in measured.samples.items()),
    ]
    metrics = listed_metrics(run_, spec)
    width = max(len(name) for name in metrics)
    absent = []
    for name, metric in metrics.items():
        if run_.traced and name not in measured.metrics:
            absent.append(name)
            continue
        value = metric["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.4f}"
        lines.append(f"  {name:<{width}}  {shown:>14} {metric['unit']}")
    if absent:
        layers = sorted({name.rsplit(".", 1)[0] for name in absent})
        lines.append(f"  not on this workload's path (reported as 0): {', '.join(layers)}")
    lines.append(
        f"  {'failed_share':<{width}}  {run_.failed_share:>14.4f} ratio"
        f"  ({measured.failed} of {measured.attempted} attempted)"
    )
    lines.extend(f"  note: {note}" for note in measured.notes)
    return "\n".join(lines)


def to_json(run_: Run, spec: dict) -> dict:
    """Everything about one run, spans included, for ``--out``."""
    measured = run_.measured
    return {
        "workload": run_.workload,
        "seed": run_.seed,
        "seconds": run_.seconds,
        "traced": run_.traced,
        "input_sha256": run_.input_sha256,
        "setup_s": run_.setup_s,
        "warm_s": run_.warm_s,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "samples": measured.samples,
        "notes": measured.notes,
        "metrics": listed_metrics(run_, spec),
        "spans": [
            {"rows": spans.rows, "seconds": spans.seconds, "counts": spans.counts}
            for spans in measured.spans
        ],
    }
