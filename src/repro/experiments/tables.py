"""Builders for the paper's evaluation tables (2-9).

Every function takes the cleaned sweep results (and/or the manifest)
and returns a pandas frame shaped like the paper's table, so a job can
print the same rows the paper reports. EXPERIMENTS.md records the
paper's numbers next to the measured ones.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..analysis.stats import friedman_nemenyi
from ..core.matchers import ALGORITHM_ORDER
from ..datasets.generator import generate_pandas, profile_stats
from ..datasets.registry import DATASET_ORDER, SPECS
from .baselines import ditto_lite, zeroer_lite

_FAMILY_ORDER = ["sb_syn", "sa_syn", "sb_sem", "sa_sem"]
_CATEGORY_ORDER = ["BLC", "OSD", "SCR"]


# ------------------------------------------------------------------- Table 2
def table2() -> pd.DataFrame:
    """Technical characteristics of the dataset analogues."""
    rows = []
    for name in DATASET_ORDER:
        spec = SPECS[name]
        df1, df2, gt = generate_pandas(spec)
        s1, s2 = profile_stats(df1), profile_stats(df2)
        rows.append(
            {
                "dataset": name,
                "label": spec.label,
                "V1": s1["n_entities"],
                "V2": s2["n_entities"],
                "NVP1": s1["n_nvp"],
                "NVP2": s2["n_nvp"],
                "A1": s1["n_attributes"],
                "A2": s2["n_attributes"],
                "p1": round(s1["avg_profile"], 2),
                "p2": round(s2["avg_profile"], 2),
                "duplicates": len(gt),
                "cartesian": spec.n1 * spec.n2,
                "category": spec.category,
            }
        )
    return pd.DataFrame(rows)


# ------------------------------------------------------------------- Table 3
def table3(results: pd.DataFrame) -> pd.DataFrame:
    """#graphs and mean edge count per dataset x weight family."""
    graphs = results[
        ["graph_id", "dataset", "family", "n_edges"]
    ].drop_duplicates("graph_id")
    cross = {name: SPECS[name].n1 * SPECS[name].n2 for name in SPECS}
    rows = []
    for ds in DATASET_ORDER:
        row: dict = {"dataset": ds}
        for fam in _FAMILY_ORDER:
            sub = graphs[(graphs["dataset"] == ds) & (graphs["family"] == fam)]
            row[f"{fam}_n_graphs"] = len(sub)
            row[f"{fam}_mean_edges"] = float(sub["n_edges"].mean()) if len(sub) else np.nan
            row[f"{fam}_ratio"] = (
                float(sub["n_edges"].mean() / cross[ds]) if len(sub) else np.nan
            )
        rows.append(row)
    return pd.DataFrame(rows)


# ------------------------------------------------------------------- Table 4
def table4(results: pd.DataFrame) -> pd.DataFrame:
    """Macro-average P/R/F1 (mu, sigma) per algorithm, all graphs."""
    rows = []
    for algo in ALGORITHM_ORDER:
        sub = results[results["algorithm"] == algo]
        rows.append(
            {
                "algorithm": algo,
                "precision_mu": sub["precision"].mean(),
                "precision_sigma": sub["precision"].std(ddof=0),
                "recall_mu": sub["recall"].mean(),
                "recall_sigma": sub["recall"].std(ddof=0),
                "f1_mu": sub["f1"].mean(),
                "f1_sigma": sub["f1"].std(ddof=0),
            }
        )
    return pd.DataFrame(rows)


def nemenyi(results: pd.DataFrame, metric: str = "f1"):
    """Friedman/Nemenyi analysis behind Figure 2 (and Figs. 7-8)."""
    pivot = results.pivot_table(index="graph_id", columns="algorithm", values=metric)
    return friedman_nemenyi(pivot[ALGORITHM_ORDER])


# ------------------------------------------------------------------- Table 5
def _top_stats(sub: pd.DataFrame) -> pd.DataFrame:
    """#Top1 / mean delta (percentage points) / #Top2 per algorithm for
    one set of graphs; ties increment both counters (paper Sec. 6)."""
    top1: dict[str, int] = {a: 0 for a in ALGORITHM_ORDER}
    top2: dict[str, int] = {a: 0 for a in ALGORITHM_ORDER}
    deltas: dict[str, list[float]] = {a: [] for a in ALGORITHM_ORDER}
    for _, g in sub.groupby("graph_id"):
        f = g.set_index("algorithm")["f1"]
        best = f.max()
        winners = f[f == best].index
        lower = f[f < best]
        second = lower.max() if len(lower) else None
        for a in winners:
            top1[a] += 1
            if second is not None:
                deltas[a].append((best - second) * 100.0)
        if second is not None:
            for a in lower[lower == second].index:
                top2[a] += 1
    return pd.DataFrame(
        {
            "algorithm": ALGORITHM_ORDER,
            "top1": [top1[a] for a in ALGORITHM_ORDER],
            "delta_pp": [
                float(np.mean(deltas[a])) if deltas[a] else np.nan
                for a in ALGORITHM_ORDER
            ],
            "top2": [top2[a] for a in ALGORITHM_ORDER],
        }
    )


def table5(results: pd.DataFrame) -> pd.DataFrame:
    """#Top1 / delta / #Top2 per algorithm x family x BLC/OSD/SCR."""
    rows = []
    for fam in _FAMILY_ORDER:
        for cat in _CATEGORY_ORDER + ["OVL"]:
            sub = results[results["family"] == fam]
            if cat != "OVL":
                sub = sub[sub["category"] == cat]
            if sub.empty:
                continue
            stats = _top_stats(sub)
            stats.insert(0, "category", cat)
            stats.insert(0, "family", fam)
            rows.append(stats)
    return pd.concat(rows, ignore_index=True)


# ------------------------------------------------------------------- Table 6
def _mean_std_per_cell(results: pd.DataFrame, column: str, name: str) -> pd.DataFrame:
    """Mean and std of ``column`` per family x dataset x algorithm, as
    ``{name}_mu`` / ``{name}_sigma``, in the paper's row order."""
    agg = (
        results.groupby(["family", "dataset", "algorithm"])[column]
        .agg(["mean", "std"])
        .reset_index()
        .rename(columns={"mean": f"{name}_mu", "std": f"{name}_sigma"})
    )
    agg["dataset"] = pd.Categorical(agg["dataset"], DATASET_ORDER, ordered=True)
    agg["family"] = pd.Categorical(agg["family"], _FAMILY_ORDER, ordered=True)
    return agg.sort_values(["family", "dataset", "algorithm"]).reset_index(drop=True)


def table6(results: pd.DataFrame) -> pd.DataFrame:
    """Mean +- std run-time (ms) per algorithm x dataset x family."""
    return _mean_std_per_cell(results, "runtime_ms", "runtime_ms")


# ------------------------------------------------------------------- Table 7
#: F1 reported by the paper (Table 7) for the quoted systems.
PAPER_TABLE7 = {
    "D2": {"zeroer": 0.52, "ditto": 0.89, "umc": 0.95},
    "D3": {"zeroer": 0.48, "ditto": 0.76, "umc": 0.60},
    "D4": {"zeroer": 0.96, "ditto": 0.99, "umc": 0.99},
    "D5": {"zeroer": 0.86, "ditto": 0.96, "umc": 0.94},
}


def table7(
    manifest: pd.DataFrame,
    results: pd.DataFrame,
    out_dir: str,
    datasets: tuple[str, ...] = ("D2", "D3", "D4", "D5"),
) -> pd.DataFrame:
    """UMC (schema-agnostic TF-IDF cosine) vs the matcher baselines.

    Per the paper: UMC over cosine similarity with TF-IDF weights on
    schema-agnostic vector models; the representation model and the
    threshold are chosen per dataset (best over the vector models). The
    UMC rows are the sweep's own (``results``, before cleaning); the first
    graph in manifest order with the highest F1 is chosen. The baselines
    classify that graph's pairs without the 1-1 constraint.
    """
    import os

    umc = results[results["algorithm"] == "UMC"].set_index("graph_id")
    rows = []
    for ds in datasets:
        gt = pd.read_parquet(os.path.join(out_dir, f"{ds}__gt.parquet"))
        truth = set(zip(gt["v1"].astype(int), gt["v2"].astype(int)))
        cands = manifest[
            (manifest["dataset"] == ds)
            & (manifest["family"] == "sa_syn")
            & (manifest["model"].str.startswith("vector-"))
            & (manifest["measure"] == "cosine_tfidf")
        ]
        swept = umc.loc[cands["graph_id"]]
        best = int(np.argmax(swept["f1"].to_numpy()))  # the first maximum
        g, res = cands.iloc[best], swept.iloc[best]
        edges = pd.read_parquet(g["path"])
        v1 = edges["v1"].to_numpy()
        v2 = edges["v2"].to_numpy()
        w = edges["w"].to_numpy()
        rows.append(
            {
                "dataset": ds,
                "zeroer_lite_f1": zeroer_lite(v1, v2, w, truth).f1,
                "ditto_lite_f1": ditto_lite(v1, v2, w, truth).f1,
                "umc_f1": res["f1"],
                "umc_model": g["model"],
                "umc_t": res["best_t"],
                "paper_zeroer": PAPER_TABLE7[ds]["zeroer"],
                "paper_ditto": PAPER_TABLE7[ds]["ditto"],
                "paper_umc": PAPER_TABLE7[ds]["umc"],
            }
        )
    return pd.DataFrame(rows)


# ------------------------------------------------------------------- Table 8
def table8(results: pd.DataFrame) -> pd.DataFrame:
    """Optimal-threshold distribution per algorithm x family, plus the
    Pearson correlation with the normalised graph size."""
    from .runner import normalized_size

    results = results.copy()
    results["norm_size"] = normalized_size(results)
    rows = []
    for fam in _FAMILY_ORDER:
        for algo in ALGORITHM_ORDER:
            sub = results[
                (results["family"] == fam) & (results["algorithm"] == algo)
            ]
            if sub.empty:
                continue
            t = sub["best_t"]
            corr = (
                float(np.corrcoef(t, sub["norm_size"])[0, 1])
                if len(sub) > 2 and t.std() > 0 and sub["norm_size"].std() > 0
                else np.nan
            )
            rows.append(
                {
                    "family": fam,
                    "algorithm": algo,
                    "mean": t.mean(),
                    "std": t.std(ddof=0),
                    "min": t.min(),
                    "q1": t.quantile(0.25),
                    "q2": t.quantile(0.5),
                    "q3": t.quantile(0.75),
                    "max": t.max(),
                    "pearson_size": corr,
                }
            )
    return pd.DataFrame(rows)


# ------------------------------------------------------------------- Table 9
def table9(results: pd.DataFrame) -> pd.DataFrame:
    """Mean +- std optimal threshold per algorithm x dataset x family."""
    return _mean_std_per_cell(results, "best_t", "t")
