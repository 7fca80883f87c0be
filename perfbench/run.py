"""The repository benchmark: one command for every workload.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload ingest-batched --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload and adds the traced per-layer
table.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable tables.  The exit code is 0 only when every
correctness gate passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import common

#: The end-to-end and per-layer metric names, in BENCHMARK.json order.
_SPEC_PATH = os.path.join(common.ROOT, "BENCHMARK.json")

WORKLOADS = ("ingest-batched", "ingest-single", "store-live", "sweep-paper")


def _metric_names(trace: bool):
    with open(_SPEC_PATH, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.ensure_source()
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload.startswith("ingest-"):
        import ingest as module
    elif args.workload == "store-live":
        import store_live as module
    else:
        import sweep_paper as module
    res = common.Result(args.workload, args.seed, trace)
    try:
        tables = module.run(args.workload, args.seed, args.seconds, trace,
                            res)
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload raised; no result", file=sys.stderr)
        return 1
    names = _metric_names(trace)
    for name, unit in names:
        if name not in res.metrics:
            # A layer this workload never calls: nothing ran, nothing
            # measured, reported as 0 with no samples.
            res.metric(name, 0.0, unit, 0, "layer idle on this workload")
        elif res.metrics[name][1] != unit:
            raise RuntimeError(f"{name}: unit {res.metrics[name][1]} "
                               f"!= {unit} in BENCHMARK.json")
    res.emit([n for n, _ in names], tables)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
