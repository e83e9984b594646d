"""Alternating parent/change benchmark pairs, summarised per metric.

    python3 tools/paired_bench.py --parent /path/to/parent-checkout \\
        --workload engine_scale --seed 7 --pairs 10

runs ``python3 -m bench --workload W --seed S --seconds N --trace 0`` in
the parent checkout and in the change checkout (default: this one),
``--pairs`` times each, the side that goes first alternating pair by
pair, and prints for every end-to-end metric of ``BENCHMARK.json`` each
side's median and quartiles and the change's wins and ties over the
pairs, after one line per run with its ``failed`` count and ``inputs
sha256``.  ``--json FILE`` also writes all of it -- per-metric quartiles,
median shift, wins and ties, and every run in the order it ran -- so a
results table can be generated rather than copied.  It times nothing
itself: every number is parsed from the harness's own output (the
result line is its last line of stdout).

The exit code is 0 when every run reported ``failed`` 0 and both sides
hashed the same inputs; whether a gain may be claimed from the table is
the reader's call (nine of ten pairs, and a median shift beyond the
parent's own quartile spread -- see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple

SIDES = ("parent", "change")


class Run(NamedTuple):
    metrics: Dict[str, float]
    failed: int
    attempted: int
    inputs: str


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    """One untraced harness run in ``tree``, parsed from its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [
            sys.executable, "-m", "bench",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: the harness printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(
            f"{tree}: last line of the harness output is not its result line "
            f"(exit {done.returncode}): {lines[-1][:200]}"
        ) from None
    inputs = next(
        (line.split()[-1] for line in lines if line.startswith("inputs sha256")), "?"
    )
    return Run(
        metrics={name: entry["value"] for name, entry in result["metrics"].items()},
        failed=result["failed"],
        attempted=result["attempted"],
        inputs=inputs,
    )


def quartiles(values: List[float]):
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(runs: Dict[str, List[Run]], end_to_end: List[dict]) -> List[dict]:
    """Per end-to-end metric: each side's quartiles, and the change's
    median shift, wins and ties over the pairs."""
    rows = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [run.metrics[name] for run in runs["parent"]]
        change = [run.metrics[name] for run in runs["change"]]
        parent_q, change_q = quartiles(parent), quartiles(change)
        rows.append(
            {
                "metric": name,
                "better": metric["better"],
                "parent": dict(zip(("q1", "median", "q3"), parent_q)),
                "change": dict(zip(("q1", "median", "q3"), change_q)),
                "median_shift": (
                    (change_q[1] - parent_q[1]) / parent_q[1] if parent_q[1] else 0.0
                ),
                "wins": sum(c != p and (c > p) == higher for p, c in zip(parent, change)),
                "ties": sum(c == p for p, c in zip(parent, change)),
                "pairs": len(change),
            }
        )
    return rows


def summarise(rows: List[dict]) -> str:
    lines = [
        f"{'metric':<16}{'side':<8}{'q1':>14}{'median':>14}{'q3':>14}   change vs parent"
    ]
    for row in rows:
        for side in SIDES:
            cells = "".join(f"{row[side][q]:>14.4f}" for q in ("q1", "median", "q3"))
            if side == "parent":
                lines.append(f"{row['metric']:<16}{side:<8}{cells}")
            else:
                lines.append(
                    f"{'':<16}{side:<8}{cells}   {row['median_shift']:+.1%} median, "
                    f"wins {row['wins']}/{row['pairs']}, ties {row['ties']}"
                )
    return "\n".join(lines)


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=here, help="checkout of the change (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--json", type=Path, metavar="FILE",
        help="also write the comparison and every run to FILE as JSON",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(trees["change"] / "BENCHMARK.json", encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]

    runs: Dict[str, List[Run]] = {side: [] for side in SIDES}
    order: List[dict] = []
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            run = bench_once(trees[side], args.workload, args.seed, args.seconds)
            runs[side].append(run)
            order.append({"pair": pair + 1, "side": side, **run._asdict()})
            shown = "  ".join(
                f"{m['name']} {run.metrics[m['name']]:.4f}" for m in end_to_end
            )
            print(
                f"pair {pair + 1:>2} {side:<6} failed {run.failed}/{run.attempted}  "
                f"inputs {run.inputs[:12]}  {shown}",
                flush=True,
            )

    print()
    print(
        f"{args.workload}  seed {args.seed}  {args.pairs} pairs  "
        f"{args.seconds:g} s  untraced"
    )
    rows = compare(runs, end_to_end)
    print(summarise(rows))

    every = runs["parent"] + runs["change"]
    failed = sum(run.failed for run in every)
    inputs = {run.inputs for run in every}
    print(f"failed {failed} over {len(every)} runs; inputs sha256 {' / '.join(sorted(inputs))}")
    ok = failed == 0 and len(inputs) == 1
    if args.json is not None:
        payload = {
            "workload": args.workload,
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "trees": {side: str(tree) for side, tree in trees.items()},
            "metrics": rows,
            "runs": order,
            "failed": failed,
            "inputs_sha256": sorted(inputs),
            "ok": ok,
        }
        args.json.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
