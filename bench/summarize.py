#!/usr/bin/env python3
"""Summarise repeated benchmark runs: median and quartile spread per metric.

    python3 bench/summarize.py [--out bench/BENCH_<tag>.json] RUN.json ...

Each argument is a result file that ``bench/run.py`` wrote to
``bench/out/``.  For every workload and metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median, and the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict


def summarize(paths) -> dict:
    runs = defaultdict(list)
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        runs[(doc["workload"], doc["trace"])].append(doc)
    out = {}
    for (workload, trace), docs in sorted(runs.items()):
        metrics = {}
        for name in docs[0]["metrics"]:
            values = [d["metrics"][name][0] for d in docs]
            row = {"unit": docs[0]["metrics"][name][1], "runs": len(values),
                   "median": statistics.median(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3,
                           spread=(q3 - q1) / row["median"] if row["median"] else 0.0)
            metrics[name] = row
        out[f"{workload}/trace{trace}"] = {
            "seeds": [d["seed"] for d in docs],
            "machine": docs[0]["machine"],
            "seconds": docs[0]["seconds"],
            "failed_share": sorted({d["failed"] / d["attempted"] for d in docs}),
            "all_correct": all(not d["checks_failed"] for d in docs),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--out", default=None, help="also write the summary as JSON")
    args = parser.parse_args(argv)
    summary = summarize(args.runs)
    for key, block in summary.items():
        print(f"{key}: {len(block['seeds'])} runs, failed share {block['failed_share']}, "
              f"all correct {block['all_correct']}")
        for name, row in block["metrics"].items():
            spread = f"{row['spread']:.3f}" if "spread" in row else "-"
            print(f"  {name:32s} median {row['median']:12.6g} {row['unit']:8s} spread {spread}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
