#!/usr/bin/env python
"""Table 7 — UMC (schema-agnostic TF-IDF cosine) vs matcher baselines."""
from _shared import main_table

from repro.experiments.tables import table7

if __name__ == "__main__":
    main_table(
        "Table 7: comparison with matching baselines",
        lambda manifest, results, run_dir, **kw: table7(manifest, results, run_dir),
    )
