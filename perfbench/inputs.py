"""Seeded inputs of the benchmark workloads.

Every input is derived from the ``--seed`` argument alone: the dataset
analogue is ``dataclasses.replace(SPECS["D1"], ...)`` with that seed (the
registry itself is never mutated), the graph corpus is computed from that
dataset, and the serve request schedule is drawn with a generator seeded
from it. The program under test only ever receives the generated inputs.

D1 is scaled to 40 x 150 records (6,000 candidate pairs, D1's 1:5 side
ratio kept) so that a full four-family graph build fits in one run of the
benchmark; at this size the build is dominated by Spark per-task cost,
which is what a small-input user of the system pays.
"""
from __future__ import annotations

import dataclasses
import os

import numpy as np
import pandas as pd

from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS
from repro.core.matchers.base import UnionFind
from repro.core.sweep import THRESHOLDS
from repro.datasets.generator import DatasetSpec, generate_pandas
from repro.datasets.registry import SPECS
from repro.simgraph.build import _emit, _texts_attribute, _texts_schema_agnostic
from repro.simgraph.semantic import SEMANTIC_MEASURES, semantic_edges
from repro.simgraph.vectors import VECTOR_MEASURES, dense_vector_edges

from tracing import Tracer

ANALOGUE = "D1"
N1, N2, N_DUPS = 40, 150, 10

#: Model of the corpus's sparse multi-component graphs.
SPARSE_MODEL = "vector-token2"
#: Analogues whose sparse graphs the serve corpus holds. Serve latency
#: follows a sparse graph's label-propagation rounds, which one analogue's
#: sparse graphs share (they are one edge set under 4 measures) and which
#: ranged 3-6 across seeds; one sparse graph per analogue in each round
#: averages over 5 independent draws instead of taking one.
SERVE_ANALOGUES = 5
#: Reference matcher each natively-dataflow variant must agree with.
NATIVE_REFERENCE = {"cnc_native": "CNC", "exc_native": "EXC", "umc_native": "UMC"}
#: Serve request variants: the 8 algorithms through ``match_edges`` plus
#: the natively-dataflow implementations.
VARIANTS = tuple(ALGORITHM_ORDER) + tuple(NATIVE_REFERENCE)


def dataset_spec(seed: int) -> DatasetSpec:
    """The scaled D1 analogue for ``seed``."""
    return dataclasses.replace(
        SPECS[ANALOGUE], n1=N1, n2=N2, n_dups=N_DUPS, seed=seed
    )


def analogue_specs(spec: DatasetSpec, n: int) -> list[DatasetSpec]:
    """``spec`` and ``n - 1`` more analogues like it, named ``D1.1``, ...,
    with seeds drawn from ``spec.seed``."""
    seeds = np.random.SeedSequence(spec.seed).generate_state(n - 1) if n > 1 else []
    return [spec] + [
        dataclasses.replace(spec, name=f"{spec.name}.{k + 1}", seed=int(s))
        for k, s in enumerate(seeds)
    ]


def corpus_graphs(
    df1: pd.DataFrame, df2: pd.DataFrame, attr: str, dense: bool = True
) -> list[tuple[str, str, str, pd.DataFrame]]:
    """(family, model, measure, edges) of the sweep/serve corpus.

    Sparse multi-component graphs: the schema-agnostic token-2-gram vector
    model (the family of the known RCA mismatch). Near-dense
    single-component graphs, unless ``dense`` is false: pseudo-fastText over
    the primary attribute and over all values. Computed with the texts,
    kernels and min-max normalisation of ``simgraph.build``, on the driver,
    so that set-up is cheap enough to repeat.
    """
    sa1, sa2 = _texts_schema_agnostic(df1), _texts_schema_agnostic(df2)
    out = []
    wide = dense_vector_edges(sa1, sa2, "token", 2)
    for m, edges in _emit(wide, VECTOR_MEASURES):
        out.append(("sa_syn", SPARSE_MODEL, m, edges))
    if not dense:
        return out
    for family, t1, t2 in (
        ("sb_sem", _texts_attribute(df1, attr), _texts_attribute(df2, attr)),
        ("sa_sem", sa1, sa2),
    ):
        for m, edges in _emit(semantic_edges(t1, t2, "fasttext"), SEMANTIC_MEASURES):
            out.append((family, "fasttext", m, edges))
    return out


def write_corpus(
    spec: DatasetSpec, out_dir: str, tracer: Tracer, n_analogues: int = 1
) -> pd.DataFrame:
    """Generate the dataset and its graph corpus; return the manifest.

    With ``n_analogues`` > 1 the corpus also holds the sparse graphs of
    the further analogues of ``analogue_specs``. The layout matches
    ``simgraph.build.build_dataset_graphs``: one parquet edge list per
    graph, ``{name}__gt.parquet`` and a manifest row per graph, so
    ``experiments.runner.run_sweep`` consumes it unchanged.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for k, sub in enumerate(analogue_specs(spec, n_analogues)):
        with tracer.span("datasets.generate"):
            df1, df2, gt = generate_pandas(sub)
        gt.to_parquet(os.path.join(out_dir, f"{sub.name}__gt.parquet"))
        gt_pairs = set(zip(gt["v1"], gt["v2"]))
        with tracer.span("simgraph.corpus"):
            graphs = corpus_graphs(df1, df2, sub.primary_attribute, dense=k == 0)
        for family, model, measure, edges in graphs:
            graph_id = f"{sub.name}__{family}__{model}__{measure}"
            path = os.path.join(out_dir, f"{graph_id}.parquet")
            edges.to_parquet(path)
            rows.append(
                {
                    "graph_id": graph_id,
                    "dataset": sub.name,
                    "category": sub.category,
                    "family": family,
                    "model": model,
                    "measure": measure,
                    "n_edges": int(len(edges)),
                    "gt_covered": int(
                        sum(p in gt_pairs for p in zip(edges["v1"], edges["v2"]))
                    ),
                    "n_gt": int(len(gt_pairs)),
                    "path": path,
                }
            )
    return pd.DataFrame(rows)


def component_labels(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Connected-component label of each edge."""
    u1, i1 = np.unique(v1, return_inverse=True)
    u2, i2 = np.unique(v2, return_inverse=True)
    uf = UnionFind(len(u1) + len(u2))
    for a, b in zip(i1, i2 + len(u1)):
        uf.union(int(a), int(b))
    return np.array([uf.find(int(a)) for a in i1])


def component_profile(v1: np.ndarray, v2: np.ndarray) -> tuple[int, float]:
    """(number of connected components, edges in the largest ÷ edges)."""
    if len(v1) == 0:
        return 0, 0.0
    sizes = np.unique(component_labels(v1, v2), return_counts=True)[1]
    return len(sizes), float(sizes.max() / len(v1))


@dataclasses.dataclass(frozen=True)
class Request:
    """One serve request: an edge list of the corpus, a variant, a threshold."""

    graph_id: str
    variant: str
    t: float


def serve_schedule(
    manifest: pd.DataFrame, seed: int, n_rounds: int
) -> list[Request]:
    """Closed-loop request sequence, drawn with ``seed``.

    Each round sends every variant once and serves every dense
    single-component graph of the corpus once. The round's remaining slots
    go to sparse multi-component graphs, one per analogue in turn, each
    drawn at random from that analogue's graphs; at a few dozen edges
    against the dense graphs' thousands they leave the round's edge count
    nearly unchanged, so every round carries the same work. Which variant
    meets which graph is a seeded shuffle, so across seeds every variant
    meets both kinds, and the threshold is drawn per request, uniform over
    the paper's grid.
    """
    is_sparse = manifest["model"] == SPARSE_MODEL
    dense = sorted(manifest.loc[~is_sparse, "graph_id"])
    sparse = [
        sorted(ids) for _, ids in manifest[is_sparse].groupby("dataset")["graph_id"]
    ]
    extra = len(VARIANTS) - len(dense)
    if extra < 1 or not sparse:
        raise ValueError("serve needs fewer dense graphs than variants, and a sparse graph")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_rounds):
        picks = [sparse[i % len(sparse)] for i in range(extra)]
        slots = dense + [p[rng.integers(len(p))] for p in picks]
        for k, i in zip(rng.permutation(len(VARIANTS)), rng.permutation(len(slots))):
            out.append(
                Request(
                    graph_id=slots[i],
                    variant=VARIANTS[k],
                    t=float(THRESHOLDS[rng.integers(len(THRESHOLDS))]),
                )
            )
    return out


def per_component_rca(edges: pd.DataFrame, t: float) -> set[tuple[int, int]]:
    """Union of reference RCA run on each connected component alone.

    RCA picks its row or column scan once for the whole graph, so this can
    differ from RCA on the whole graph. It is what ``match_edges(...,
    "RCA")`` returns under the known defect: that path runs RCA per
    component.
    """
    rca = ALGORITHMS["RCA"]
    labels = component_labels(edges["v1"].to_numpy(), edges["v2"].to_numpy())
    out = set()
    for c in np.unique(labels):
        part = edges[labels == c]
        out |= {(int(a), int(b)) for a, b in rca(part["v1"], part["v2"], part["w"], t)}
    return out


def rca_probe(edges: dict[str, pd.DataFrame]) -> Request:
    """An RCA request on which per-component RCA differs from global RCA.

    The first (graph, threshold) in sorted order where
    ``per_component_rca`` differs from reference RCA is returned; if no
    graph of the corpus has such a case, RCA on the graph with the most
    components at t = 0.5.
    """
    rca = ALGORITHMS["RCA"]
    n_components = {
        g: component_profile(e["v1"].to_numpy(), e["v2"].to_numpy())[0]
        for g, e in edges.items()
    }
    for g in sorted(g for g, n in n_components.items() if n > 1):
        e = edges[g]
        for t in THRESHOLDS:
            whole = {(int(a), int(b)) for a, b in rca(e["v1"], e["v2"], e["w"], t)}
            if whole != per_component_rca(e, t):
                return Request(g, "RCA", float(t))
    most = max(edges, key=n_components.get)
    return Request(most, "RCA", 0.5)
