"""``jobs/compare_graphs.py``: what counts as the same build output."""
import importlib.util
import os

import numpy as np
import pandas as pd

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "jobs", "compare_graphs.py")
_spec = importlib.util.spec_from_file_location("compare_graphs", _PATH)
compare_graphs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_graphs)


def _write(root, edges, manifest_path):
    os.makedirs(root, exist_ok=True)
    edges.to_parquet(os.path.join(root, "D__g.parquet"))
    manifest = {"graph_id": ["D__g"], "n_edges": [len(edges)], "path": [manifest_path]}
    pd.DataFrame(manifest).to_parquet(os.path.join(root, "manifest.parquet"))


def test_equal_outputs_differ_only_in_manifest_path(tmp_path):
    edges = pd.DataFrame({"v1": [0, 1], "v2": [2, 3], "w": [0.0, 1.0]})
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    _write(a, edges, "a/D__g.parquet")
    _write(b, edges[edges["w"] >= 0], "b/D__g.parquet")  # another index, same values
    assert compare_graphs.compare(a, b) == []


def test_values_dtypes_signs_and_files_are_reported(tmp_path):
    edges = pd.DataFrame({"v1": [0, 1], "v2": [2, 3], "w": [0.0, 1.0]})
    a = str(tmp_path / "a")
    _write(a, edges, "p")
    for k, changed in enumerate(
        (
            edges.assign(w=[0.0, 0.5]),
            edges.assign(w=[-0.0, 1.0]),
            edges.assign(w=edges["w"].astype(np.float32)),
            edges[["v1", "w", "v2"]],
        )
    ):
        b = str(tmp_path / f"b{k}")
        _write(b, changed, "p")
        diffs = compare_graphs.compare(a, b)
        assert len(diffs) == 1 and diffs[0].startswith("D__g.parquet"), diffs
    extra = str(tmp_path / "extra")
    _write(extra, edges, "p")
    edges.to_parquet(os.path.join(extra, "D__gt.parquet"))
    assert compare_graphs.compare(a, extra) == [f"only in {extra}: D__gt.parquet"]
    assert compare_graphs.main([a, extra]) == 1
