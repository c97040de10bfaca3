"""Experiment harness: graph generation, distributed threshold sweep,
the paper's result-cleaning rules and table builders."""
from .baselines import ditto_lite, zeroer_lite
from .cleaning import clean, drop_duplicates, drop_noisy, drop_zero_coverage
from .runner import (
    build_all_graphs,
    load_results,
    normalized_size,
    run_sweep,
)
from .tables import (
    PAPER_TABLE7,
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

__all__ = [
    "PAPER_TABLE7",
    "build_all_graphs",
    "clean",
    "ditto_lite",
    "drop_duplicates",
    "drop_noisy",
    "drop_zero_coverage",
    "load_results",
    "nemenyi",
    "normalized_size",
    "run_sweep",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "zeroer_lite",
]
