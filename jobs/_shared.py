"""Shared plumbing for the table jobs.

Each job reproduces one table of the paper's evaluation section. The
expensive pipeline (graph generation + threshold sweep) runs once and
is persisted under the run directory; ``ensure_results`` reuses it if
present, so the table jobs are cheap after ``run_all.py``.
"""
from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import pandas as pd  # noqa: E402

from repro.experiments import cleaning, runner  # noqa: E402
from repro.sparkutil import default_run_dir, get_spark  # noqa: E402


def ensure_results(spark, run_dir: str | None = None):
    """Load a previous full run, or execute the pipeline now."""
    run_dir = run_dir or default_run_dir()
    manifest_path = os.path.join(run_dir, "manifest.parquet")
    results_path = os.path.join(run_dir, "results.parquet")
    if os.path.exists(manifest_path) and os.path.exists(results_path):
        manifest, results = runner.load_results(run_dir)
    else:
        os.makedirs(run_dir, exist_ok=True)
        t0 = time.perf_counter()
        manifest = runner.build_all_graphs(spark, run_dir)
        t1 = time.perf_counter()
        results = runner.run_sweep(spark, manifest, run_dir)
        print(
            f"build_all_graphs {t1 - t0:.0f}s, "
            f"run_sweep {time.perf_counter() - t1:.0f}s"
        )
    return run_dir, manifest, results, cleaning.clean(results)


def print_table(title: str, frame: pd.DataFrame) -> None:
    print(f"\n=== {title} ===")
    with pd.option_context("display.width", 220, "display.max_columns", 60):
        print(frame.to_string(index=False))


def main_table(title: str, build):
    """Entry-point wrapper: session, results, build+print the table."""
    spark = get_spark(title)
    try:
        run_dir, manifest, results, clean_results = ensure_results(spark)
        frame = build(
            spark=spark,
            run_dir=run_dir,
            manifest=manifest,
            results=results,
            clean_results=clean_results,
        )
        print_table(title, frame)
    finally:
        spark.stop()
