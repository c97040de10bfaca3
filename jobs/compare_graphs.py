#!/usr/bin/env python
"""Check that two graph build output directories hold the same graphs.

    python jobs/compare_graphs.py DIR_A DIR_B

Compares every ``*.parquet`` file under the two directories, by path
relative to each:

* both directories hold the same set of files;
* each edge list (and ground truth) is equal in columns, dtypes and
  values, bit for bit; the pandas index is ignored;
* each ``manifest.parquet`` is equal row by row except its ``path``
  column, which names the directory the graph was written to.

Prints one line per difference and a summary; exits 1 if anything
differs. Run-time columns are not part of a build's output, so no
column but ``path`` is skipped.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import pandas as pd

MANIFEST = "manifest.parquet"


def parquet_files(root: str) -> set[str]:
    """Paths of the ``*.parquet`` files under ``root``, relative to it."""
    return {
        os.path.relpath(os.path.join(d, f), root)
        for d, _, files in os.walk(root)
        for f in files
        if f.endswith(".parquet")
    }


def frame_differences(a: pd.DataFrame, b: pd.DataFrame) -> list[str]:
    """Why two frames differ in columns, dtypes or values; empty if equal.

    Numeric columns must be equal byte for byte, so NaN equals NaN and
    -0.0 differs from 0.0; other columns compare with ``Series.equals``.
    """
    if list(a.columns) != list(b.columns):
        return [f"columns {list(a.columns)} != {list(b.columns)}"]
    if len(a) != len(b):
        return [f"rows {len(a)} != {len(b)}"]
    out = []
    for c in a.columns:
        x, y = a[c], b[c]
        if x.dtype != y.dtype:
            out.append(f"{c}: dtype {x.dtype} != {y.dtype}")
        elif x.dtype.kind in "biuf":
            bits = np.dtype(f"u{x.dtype.itemsize}")
            n = np.count_nonzero(x.to_numpy().view(bits) != y.to_numpy().view(bits))
            if n:
                out.append(f"{c}: {n} of {len(x)} values differ")
        elif not x.equals(y):
            out.append(f"{c}: values differ")
    return out


def compare(dir_a: str, dir_b: str) -> list[str]:
    """Every difference between the two build outputs, one line each."""
    files_a, files_b = parquet_files(dir_a), parquet_files(dir_b)
    out = [f"only in {dir_a}: {f}" for f in sorted(files_a - files_b)]
    out += [f"only in {dir_b}: {f}" for f in sorted(files_b - files_a)]
    for f in sorted(files_a & files_b):
        a, b = (
            pd.read_parquet(os.path.join(d, f)).reset_index(drop=True)
            for d in (dir_a, dir_b)
        )
        if os.path.basename(f) == MANIFEST:
            a, b = (m.drop(columns="path", errors="ignore") for m in (a, b))
        out += [f"{f}: {why}" for why in frame_differences(a, b)]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not os.path.isdir(d):
            parser.error(f"not a directory: {d}")
    diffs = compare(args.dir_a, args.dir_b)
    for line in diffs:
        print(line)
    n = len(parquet_files(args.dir_a) | parquet_files(args.dir_b))
    print(f"{n} files compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
