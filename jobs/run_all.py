#!/usr/bin/env python
"""Full reproduction pipeline: build every similarity graph for all 10
dataset analogues, run the distributed threshold sweep, apply the
paper's cleaning rules and print Tables 2-9 (+ the Nemenyi analysis of
Figure 2). Results persist under REPRO_RUN_DIR (default ./runs/full)
so the per-table jobs can re-print instantly."""
import time

from _shared import ensure_results, print_table

from repro.experiments.tables import (
    nemenyi,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.sparkutil import get_spark

if __name__ == "__main__":
    spark = get_spark("run_all")
    t0 = time.time()
    run_dir, manifest, results, clean_results = ensure_results(spark)
    print(
        f"pipeline ready in {time.time() - t0:.0f}s: "
        f"{manifest.shape[0]} graphs built, "
        f"{clean_results['graph_id'].nunique()} retained after cleaning"
    )
    print_table("Table 2", table2())
    print_table("Table 3", table3(clean_results))
    print_table("Table 4", table4(clean_results))
    for metric in ("f1", "precision", "recall"):
        res = nemenyi(clean_results, metric)
        print(
            f"[Nemenyi {metric}] N={res.n} CD={res.critical_distance:.2f} "
            + ", ".join(f"{a}={r:.2f}" for a, r in res.mean_ranks.items())
        )
    print_table("Table 5", table5(clean_results))
    print_table("Table 6", table6(clean_results))
    print_table("Table 7", table7(manifest, results, run_dir))
    print_table("Table 8", table8(clean_results))
    print_table("Table 9", table9(clean_results))
    spark.stop()
