"""``python3 -m bench``: every workload, both passes, one report.

With ``--workload`` and ``--trace`` both given, one run is made and the
last line of standard output is its result as one JSON object -- the
form the benchmark driver calls (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import harness
from bench.workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, help="length of each measured pass")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="0 end-to-end, 1 per-layer; default: both"
    )
    parser.add_argument("--out", help="write every run, spans included, to this JSON file")
    args = parser.parse_args(argv)

    spec = harness.load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]

    runs = []
    for name in names:
        for traced in modes:
            run = harness.run(name, args.seed, seconds, traced)
            runs.append(run)
            print(harness.render(run, spec), flush=True)
            print()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump([harness.to_json(run, spec) for run in runs], handle, indent=1)
            handle.write("\n")
    if len(runs) == 1:
        print(harness.result_line(runs[0], spec))
    return 0 if all(run.measured.failed == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
