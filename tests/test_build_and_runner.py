"""Integration: graph factory + distributed sweep on a tiny dataset."""
import json
import os

import numpy as np
import pandas as pd
import pytest

from repro.core.matchers import ALGORITHM_ORDER
from repro.datasets.generator import DatasetSpec, generate_pandas
from repro.experiments.runner import run_sweep
from repro.simgraph.build import FAMILIES, _emit, build_dataset_graphs, minmax
from repro.simgraph.strings import SCHEMA_BASED_MEASURES, schema_based_batch

TINY = DatasetSpec(
    name="TT", label="tiny", domain="restaurant", n1=30, n2=60, n_dups=15,
    category="SCR", attributes=("name",), seed=21,
)


@pytest.fixture(scope="module")
def built(spark, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("graphs"))
    manifest = build_dataset_graphs(spark, TINY, out)
    return out, manifest


class TestMinMax:
    def test_normalises_to_unit_interval(self):
        raw = pd.DataFrame({"v1": [1, 2, 3], "v2": [1, 2, 3], "w": [2.0, 4.0, 6.0]})
        out = minmax(raw)
        assert out["w"].tolist() == [0.0, 0.5, 1.0]

    def test_drops_nonpositive_raw_weights(self):
        raw = pd.DataFrame({"v1": [1, 2], "v2": [1, 2], "w": [0.0, 3.0]})
        out = minmax(raw)
        assert len(out) == 1

    def test_degenerate_all_equal(self):
        raw = pd.DataFrame({"v1": [1, 2], "v2": [1, 2], "w": [3.0, 3.0]})
        assert (minmax(raw)["w"] == 1.0).all()

    def test_empty(self):
        raw = pd.DataFrame({"v1": [], "v2": [], "w": []})
        assert minmax(raw).empty


class TestBuild:
    def test_all_families_produced(self, built):
        _, manifest = built
        assert set(manifest["family"]) == set(FAMILIES)

    def test_graph_files_exist_and_normalised(self, built):
        out, manifest = built
        for _, row in manifest.sample(8, random_state=0).iterrows():
            edges = pd.read_parquet(row["path"])
            assert set(edges.columns) == {"v1", "v2", "w"}
            assert len(edges) == row["n_edges"]
            if len(edges):
                assert edges["w"].between(0, 1).all()
                assert edges["w"].max() == pytest.approx(1.0)

    def test_ground_truth_persisted(self, built):
        out, _ = built
        gt = pd.read_parquet(os.path.join(out, "TT__gt.parquet"))
        assert len(gt) == TINY.n_dups

    def test_gt_coverage_counted(self, built):
        _, manifest = built
        # the schema-based syntactic graphs must cover most duplicates
        sb = manifest[manifest["family"] == "sb_syn"]
        assert (sb["gt_covered"] > 0.5 * TINY.n_dups).any()

    def test_edges_reference_valid_ids(self, built):
        _, manifest = built
        row = manifest.iloc[0]
        edges = pd.read_parquet(row["path"])
        assert edges["v1"].between(0, TINY.n1 - 1).all()
        assert edges["v2"].between(0, TINY.n2 - 1).all()

    def test_sb_syn_graphs_equal_kernel_on_all_pairs(self, built):
        """Every sb_syn graph is the string kernel run once on every
        (side-1, side-2) pair on the driver, then min-max normalised."""
        _, manifest = built
        df1, df2, _ = generate_pandas(TINY)
        attr = TINY.primary_attribute
        wide = schema_based_batch(
            list(np.repeat(df1[attr].to_numpy(), len(df2))),
            list(np.tile(df2[attr].to_numpy(), len(df1))),
        )
        wide.insert(0, "v2", np.tile(df2["id"].to_numpy(), len(df1)))
        wide.insert(0, "v1", np.repeat(df1["id"].to_numpy(), len(df2)))
        sb = manifest[manifest["family"] == "sb_syn"].set_index("measure")
        for measure, expected in _emit(wide, SCHEMA_BASED_MEASURES):
            got = pd.read_parquet(sb.loc[measure, "path"])
            pd.testing.assert_frame_equal(
                got.sort_values(["v1", "v2"]).reset_index(drop=True),
                expected.sort_values(["v1", "v2"]).reset_index(drop=True),
                check_dtype=False, check_exact=False, rtol=0, atol=1e-12,
            )

    def test_semantic_graphs_are_dense(self, built):
        _, manifest = built
        sem = manifest[
            (manifest["family"] == "sa_sem") & (manifest["measure"] == "euclid_sim")
        ]
        # the paper's Table 3: semantic inputs cover ~100% of all pairs
        assert (sem["n_edges"] == TINY.n1 * TINY.n2).all()


def test_build_jobs_and_tasks_per_family(spark, tmp_path):
    """sa_syn runs no Spark job; sb_syn, sb_sem and sa_sem run one job
    each, with one task per slice of side 1."""
    sc = spark.sparkContext
    for family, n_jobs in (("sa_syn", 0), ("sb_syn", 1), ("sb_sem", 1), ("sa_sem", 1)):
        group = f"build-{family}"
        sc.setJobGroup(group, group)
        try:
            build_dataset_graphs(spark, TINY, str(tmp_path), [family])
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        assert len(jobs) == n_jobs, family
        for job in jobs:
            tasks = sum(
                tracker.getStageInfo(sid).numTasks
                for sid in tracker.getJobInfo(job).stageIds
            )
            assert tasks == min(sc.defaultParallelism, TINY.n1), family


class TestRunSweep:
    @pytest.fixture(scope="class")
    def swept(self, spark, built):
        out, manifest = built
        sub = manifest.head(6)  # keep the test fast: 6 graphs x 8 algos
        results = run_sweep(spark, sub, out, timing_reps=1)
        return sub, results

    def test_one_row_per_graph_algorithm(self, swept):
        sub, results = swept
        assert len(results) == len(sub) * len(ALGORITHM_ORDER)

    def test_metadata_joined(self, swept):
        _, results = swept
        assert {"dataset", "family", "category", "n_edges"} <= set(results.columns)
        assert (results["dataset"] == "TT").all()

    def test_metrics_in_range(self, swept):
        _, results = swept
        for col in ("precision", "recall", "f1"):
            assert results[col].between(0, 1).all()
        assert results["best_t"].between(0.05, 1.0).all()
        assert (results["runtime_ms"] > 0).all()

    def test_results_persisted(self, swept, built):
        out, _ = built
        assert os.path.exists(os.path.join(out, "results.parquet"))

    def test_sweep_consistent_with_local(self, swept, built):
        """Every distributed (graph, algorithm) row equals a driver-side sweep."""
        from repro.core.sweep import sweep_graph

        out, _ = built
        sub, results = swept
        gt = pd.read_parquet(os.path.join(out, "TT__gt.parquet"))
        truth = set(zip(gt["v1"].astype(int), gt["v2"].astype(int)))
        got = {(r.graph_id, r.algorithm): r for r in results.itertuples()}
        for g in sub.itertuples():
            edges = pd.read_parquet(g.path)
            for local in sweep_graph(
                edges["v1"].to_numpy(), edges["v2"].to_numpy(),
                edges["w"].to_numpy(), truth, timing_reps=1,
            ):
                row = got[(g.graph_id, local["algorithm"])]
                key = (g.graph_id, local["algorithm"])
                assert row.best_t == local["best_t"], key
                assert row.n_predicted == local["n_predicted"], key
                assert row.n_correct == local["n_correct"], key
                assert json.loads(row.params) == local["params"], key

    def test_empty_manifest(self, spark, built, tmp_path):
        out, manifest = built
        results = run_sweep(spark, manifest.head(0), str(tmp_path))
        assert results.empty
        assert {"graph_id", "algorithm", "best_t", "f1", "params", "dataset",
                "family", "n_edges"} <= set(results.columns)
        assert os.path.exists(os.path.join(str(tmp_path), "results.parquet"))

    def test_one_job_one_task_per_bin(self, spark, built):
        """One Spark job, one task per core of the session (or per graph)."""
        out, manifest = built
        sc = spark.sparkContext
        for n_graphs in (2, 7):
            group = f"run-sweep-{n_graphs}"
            sc.setJobGroup(group, group)
            try:
                run_sweep(
                    spark, manifest.head(n_graphs), out,
                    algorithms=["CNC"], thresholds=[0.5], timing_reps=1,
                )
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            tracker = sc.statusTracker()
            jobs = tracker.getJobIdsForGroup(group)
            assert len(jobs) == 1, group
            tasks = sum(
                tracker.getStageInfo(sid).numTasks
                for sid in tracker.getJobInfo(jobs[0]).stageIds
            )
            assert tasks == min(sc.defaultParallelism, n_graphs), group
