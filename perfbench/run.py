"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload build|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Prints the metrics by name with their
units, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). A traced run also
writes its spans to ``.bench_run/traces/<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import sparkenv
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".bench_run")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["build", "sweep", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    sparkenv.configure(SRC, run_dir)
    import workloads

    tracer = Tracer(enabled=bool(args.trace))
    spark, start_s = sparkenv.start_session()
    try:
        jvm = sparkenv.jvm_pid(spark)
        run = workloads.Run(
            spark=spark,
            seed=args.seed,
            seconds=args.seconds,
            work_dir=os.path.join(run_dir, "work"),
            session_start_s=start_s,
            tracer=tracer,
        )
        t0 = time.perf_counter()
        outcome = workloads.WORKLOADS[args.workload](run)
        wall = time.perf_counter() - t0
        rss_driver = sparkenv.peak_rss_mb(os.getpid())
        rss_jvm = sparkenv.peak_rss_mb(jvm)
    finally:
        sparkenv.stop_session(spark)
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer.enabled:
        declared = workloads.LAYER_METRICS
        os.makedirs(os.path.join(RUN_ROOT, "traces"), exist_ok=True)
        spans_path = os.path.join(RUN_ROOT, "traces", f"{args.workload}-{args.seed}.json")
        tracer.dump(spans_path)
        outcome.notes.append(f"{len(tracer.spans)} spans written to {spans_path}")
    else:
        declared = workloads.END_TO_END
        outcome.values["peak_rss_mb"] = rss_driver + rss_jvm
    missing = set(declared) - set(outcome.values)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")

    print(f"[{args.workload}] seed={args.seed} trace={args.trace} wall={wall:.2f} s")
    for note in outcome.notes:
        print(f"[{args.workload}] {note}")
    print(
        f"[{args.workload}] peak_rss_mb = {rss_driver + rss_jvm:.6g} MiB "
        f"(VmHWM: driver {rss_driver:.6g} + JVM {rss_jvm:.6g})"
    )
    print(
        f"[{args.workload}] failed_frac = {outcome.failed / max(outcome.attempted, 1):.6g} "
        f"({outcome.failed} of {outcome.attempted} operations; "
        f"{outcome.known} of them the known RCA defect)"
    )
    for name, (unit, _) in declared.items():
        print(f"[{args.workload}] {name} = {outcome.values[name]:.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.values[name]), "unit": unit}
            for name, (unit, _) in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
