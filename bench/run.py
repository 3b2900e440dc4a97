#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of imvu.

Run from the root of a checkout:

    python3 bench/run.py --workload design-lp --seed 1 --seconds 20 --trace 0

A run sets up its workload several times (the median, scaled to the
reference speed measured by ``speed.py``, is ``setup_s``), then repeats
whole passes of the workload, at least two, until ``--seconds`` have
elapsed, and checks every pass's outputs.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` each pass runs twice on
the same inputs, once plain and once with span probes installed, the two
in alternating order, and it reports the per-layer metrics of the traced
passes and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Each run also writes its full result to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 5
# Every step gets at least one repetition to take the best of (pass_best_s).
MIN_PASSES = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# End-to-end metrics that apply to some workloads only.  They are printed on
# every run and listed with the per-layer metrics of BENCHMARK.json (0 where
# a workload has no such stage), from the untraced passes of a traced run.
WORKLOAD_METRICS = {
    "workload_s": "s", "design_s": "s", "account_s": "s", "validate_s": "s",
    "coords_per_s": "coord/s", "client_msgs_per_s": "msg/s",
    "round_ms_min": "ms", "round_ms_p50": "ms", "round_ms_p95": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, one set-up and one pass, for the benchmark's tests")
    return parser.parse_args(argv)


def _import_in_fresh_interpreter() -> None:
    """The import cost every CLI call pays, paid once more in a child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # no timeout: waiting with one polls every 50 ms, which would show in setup_s
    subprocess.run([sys.executable, "-c", "import imvu.cli"], env=env, check=True)


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def measure(args, work: Path) -> dict:
    import speed
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.quick)
    # The set-ups and the speed probes around them share one CPU, so that the
    # child interpreter runs where the probes measured.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        setup_s, setup_speed = [], [speed.factor()]
        for rep in range(1 if args.quick else SETUP_REPS):
            start = time.perf_counter()
            _import_in_fresh_interpreter()
            directory = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
            wl.setup(directory)
            setup_s.append(time.perf_counter() - start)
            setup_speed.append(speed.factor())
    finally:
        os.sched_setaffinity(0, cpus)
    # each set-up at the reference speed, as the steps of the table workloads
    setup_ref_s = [t * 2.0 / (a + b) for t, a, b in zip(setup_s, setup_speed, setup_speed[1:])]
    checks = {f"setup:{k}": v for k, v in wl.setup_checks().items()}

    plain, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    k = 0
    min_passes = 1 if args.quick else MIN_PASSES
    # a traced run makes whole pairs of passes, half of them traced first
    while (k < min_passes or time.perf_counter() - start < args.seconds
           or (tracer is not None and k % 2)):
        seed = workloads.pass_seed(args.seed, k)
        order = [None] if tracer is None else [None, tracer] if k % 2 == 0 else [tracer, None]
        runs = {}
        for probes in order:
            tag = "-traced" if probes else ""
            directory = work / f"pass{k}{tag}"
            directory.mkdir()
            if probes:
                probes.install()
            try:
                runs[tag] = wl.run(directory, seed)
            finally:
                if probes:
                    probes.uninstall()
            for name, result in wl.check(runs[tag]).items():
                checks[f"{name}#{k}{tag}"] = result
            shutil.rmtree(directory)
        plain.append(runs[""])
        if tracer is not None:
            traced.append(runs["-traced"])
            checks[f"trace_output_identical#{k}"] = (
                runs["-traced"].outputs == runs[""].outputs,
                "outputs of the traced and the plain pass")
        for p in runs.values():
            # keep only timings and counts: peak_rss_mb must not grow with the number of passes
            p.data, p.outputs = {}, None
        k += 1

    ops = [op for p in plain + traced for op in p.ops]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "machine": _machine(),
        "passes": len(plain),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "failures": sorted({f"{op.kind}: {op.detail}" for op in ops if not op.ok}),
        "checks_failed": {n: d for n, (ok, d) in checks.items() if not ok},
        "checks_passed": sum(ok for ok, _ in checks.values()),
        "setup_s_samples": setup_s,
        "setup_speed_samples": setup_speed,
        "pass_speed_samples": [p.speed for p in plain],
        "op_s_samples": [[op.seconds for op in p.ops] for p in plain],
        "pass_s_samples": [p.seconds for p in plain],
        "round_s_samples": [r for p in plain for r in p.round_s],
    }
    if tracer is None:
        result["metrics"] = _end_to_end(plain, setup_ref_s)
        result["workload_metrics"] = _workload_metrics(wl, plain)
    else:
        metrics = tracing.layer_metrics(tracer.summary(), len(traced))
        # each pair ran back to back, so the machine's drift mostly cancels in its ratio
        overhead = statistics.median(t.seconds / p.seconds - 1.0 for p, t in zip(plain, traced))
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        plain_metrics = _workload_metrics(wl, plain)
        for name in WORKLOAD_METRICS:
            metrics[name] = plain_metrics.get(name, (0.0, WORKLOAD_METRICS[name]))
        result["metrics"] = metrics
        result["traced_pass_s_samples"] = [t.seconds for t in traced]
        result["span_summary"] = tracer.summary()
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json")
    return result


def _pass_best_s(passes) -> float:
    """One pass with every step at its fastest repetition in the run."""
    best = {}
    for p in passes:
        for name, seconds in p.steps:
            best[name] = min(best.get(name, seconds), seconds)
    return sum(best[name] for name, _ in passes[0].steps)


def _end_to_end(passes, setup_s) -> dict:
    return {
        "pass_best_s": (_pass_best_s(passes), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _workload_metrics(wl, passes) -> dict:
    """Metrics that apply to some workloads only; reported, not gated."""
    out = {"workload_s": (statistics.median(p.seconds for p in passes), "s")}
    if hasattr(wl, "stage_seconds"):
        stages = [wl.stage_seconds(p) for p in passes]
        for key in stages[0]:
            out[key] = (statistics.median(s[key] for s in stages), "s")
    seconds = sum(p.seconds for p in passes)
    if passes[0].coords:
        out["coords_per_s"] = (sum(p.coords for p in passes) / seconds, "coord/s")
        out["client_msgs_per_s"] = (sum(p.msgs for p in passes) / seconds, "msg/s")
    rounds = [r for p in passes for r in p.round_s]
    if rounds:
        out["round_ms_min"] = (1e3 * min(rounds), "ms")
        out["round_ms_p50"] = (1e3 * statistics.median(rounds), "ms")
        if len(rounds) * 0.05 >= 10:
            out["round_ms_p95"] = (1e3 * statistics.quantiles(rounds, n=20)[-1], "ms")
    return out


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import imvu
    except ImportError as exc:
        print(f"error: cannot import imvu from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(imvu.__file__).resolve().parents:
        print(f"error: imported imvu from {imvu.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    name = f"run-{args.workload}-s{args.seed}-t{args.trace}{'-quick' if args.quick else ''}"
    with open(OUT / f"{name}.json", "w") as handle:
        json.dump(result, handle, indent=2, default=float)
        handle.write("\n")

    m = result["machine"]
    print(f"{args.workload}: {result['passes']} passes, seed {args.seed}, "
          f"nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    _print_table("per-layer metrics (per traced pass)" if args.trace else "end-to-end metrics",
                 result["metrics"])
    if "workload_metrics" in result:
        _print_table("workload metrics", result["workload_metrics"])
    print(f"pass seconds: {', '.join(f'{s:.4f}' for s in result['pass_s_samples'])}")
    if "span_summary" in result:
        print("spans (per run): calls, self s")
        for span, row in sorted(result["span_summary"].items()):
            print(f"  {span:34s} {row['calls']:10d} {row['self_s']:12.6f}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    print(f"checks: {result['checks_passed']} passed, {len(result['checks_failed'])} failed")
    for check, detail in result["checks_failed"].items():
        print(f"  FAILED {check}: {detail}")

    correct = not result["checks_failed"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
