"""The benchmark workloads ``build``, ``sweep`` and ``serve``.

Each workload sets up its seeded input, warms up, then either measures
its end-to-end metrics with tracing off, or (traced run) executes one
unit of its work untraced and the same unit traced, reporting per-layer
metrics and the difference in wall time as the tracing overhead. Every
output is checked against a reference; wrong or raising operations are
counted as failed.
"""
from __future__ import annotations

import contextlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

import numpy as np
import pandas as pd

import repro.core.spark_match as spark_match
import repro.core.sweep as sweep_mod
from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS
from repro.core.sweep import sweep_graph
from repro.datasets.generator import generate_pandas
from repro.experiments.runner import run_sweep
from repro.simgraph.build import FAMILIES, _texts_attribute, build_dataset_graphs
from repro.simgraph.semantic import semantic_edges
from repro.simgraph.strings import schema_based_batch

from inputs import (
    NATIVE_REFERENCE,
    SERVE_ANALOGUES,
    VARIANTS,
    Request,
    component_profile,
    dataset_spec,
    per_component_rca,
    rca_probe,
    serve_schedule,
    write_corpus,
)
from sparkenv import CORES, EngineCounters
from tracing import Tracer, durations, summarize, tail_percentile

#: Input generations per run; set-up time reports their median.
SETUP_REPS = 3
#: Sweep tasks re-checked against a driver-side sweep_graph per run.
SWEEP_CHECK_SAMPLE = 12
#: Records per side of the fixed pair sample for the kernel-rate probes.
PROBE_SIDE = (20, 30)
#: Length of the drawn serve schedule, in rounds of one request per variant.
SERVE_MAX_ROUNDS = 20

#: End-to-end metrics (tracing off): name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Per-layer metrics (traced run): name -> (unit, better). A layer the
#: workload does not reach reports 0.
LAYER_METRICS = {
    "datasets.generate_s": ("s", "lower"),
    **{f"simgraph.{f}_s": ("s", "lower") for f in FAMILIES},
    "simgraph.edges_kept": ("count", "lower"),
    "simgraph.edge_yield": ("ratio", "higher"),
    "simgraph.strings_pairs_per_s": ("1/s", "higher"),
    "simgraph.semantic_pairs_per_s": ("1/s", "higher"),
    **{f"matchers.{a}.self_s": ("s", "lower") for a in ALGORITHM_ORDER},
    **{f"matchers.{a}.calls": ("count", "lower") for a in ALGORITHM_ORDER},
    "matchers.edges_scanned": ("count", "lower"),
    "metrics.prf_s": ("s", "lower"),
    "metrics.prf_calls": ("count", "lower"),
    "sweep.self_s": ("s", "lower"),
    "runner.load_s": ("s", "lower"),
    "runner.task_s_sum": ("s", "lower"),
    "runner.slowest_task_s": ("s", "lower"),
    "runner.parallel_efficiency": ("ratio", "higher"),
    "components.cc_s": ("s", "lower"),
    "components.n_components": ("count", "higher"),
    "components.largest_share": ("ratio", "lower"),
    "spark_match.group_s": ("s", "lower"),
    **{f"spark_match.{v}_s": ("s", "lower") for v in NATIVE_REFERENCE},
    "spark.jobs": ("count", "lower"),
    "spark.stages": ("count", "lower"),
    "spark.tasks": ("count", "lower"),
    "spark.tasks_failed": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Run:
    """What a workload needs from the entry point: session, seed, budget."""

    spark: object
    seed: int
    seconds: float
    work_dir: str
    session_start_s: float
    tracer: Tracer


@dataclass
class Outcome:
    """A workload's result: metrics by name, and its operation counts.

    ``failed`` counts every operation that raised or gave a wrong output;
    ``known`` counts those of them that are the known RCA defect exactly
    (see ``check_response``).
    """

    values: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known: int = 0

    def fail(self, what: str, known: bool = False) -> None:
        self.failed += 1
        self.known += known
        tag = "FAILED (known RCA defect)" if known else "FAILED"
        print(f"{tag}: {what}", file=sys.stderr)
        if known:
            self.notes.append(f"known RCA defect reproduced: {what}")

    @property
    def correct(self) -> bool:
        """No output was wrong other than by the known RCA defect."""
        return self.failed == self.known


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _paired(items, plain, traced) -> float:
    """Run each item untraced and traced, alternating which goes first so
    that warm-up drift cancels; returns the traced minus untraced wall (s)."""
    overhead = 0.0
    for i, item in enumerate(items):
        for use_trace in (False, True) if i % 2 == 0 else (True, False):
            dt = _timed(traced if use_trace else plain, item)[1]
            overhead += dt if use_trace else -dt
    return overhead


def _layers(**values: float) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload did not reach it."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    unknown = set(values) - set(out)
    if unknown:
        raise KeyError(f"undeclared layer metrics {sorted(unknown)}")
    out.update(values)
    return out


def _setup(run: Run, make_input) -> tuple[object, float]:
    """Generate the input SETUP_REPS times; (first input, set-up seconds).

    Set-up time is the session start plus the median generation time.
    """
    inputs, times = [], []
    for k in range(SETUP_REPS):
        made, dt = _timed(make_input, k)
        inputs.append(made)
        times.append(dt)
    return inputs[0], run.session_start_s + median(times)


def _kernel_rates(tracer: Tracer, df1: pd.DataFrame, df2: pd.DataFrame, attr: str):
    """Pairs/s of the string and semantic kernels on a fixed pair sample."""
    n1, n2 = PROBE_SIDE
    a, b = df1.head(n1), df2.head(n2)
    left = list(np.repeat(a[attr].to_numpy(), n2))
    right = list(np.tile(b[attr].to_numpy(), n1))
    t1, t2 = _texts_attribute(a, attr), _texts_attribute(b, attr)
    strings, semantic = [], []
    for _ in range(3):
        with tracer.span("simgraph.schema_based_batch"):
            strings.append(_timed(schema_based_batch, left, right)[1])
        with tracer.span("simgraph.semantic_edges"):
            semantic.append(_timed(semantic_edges, t1, t2, "fasttext")[1])
    pairs = n1 * n2
    return {
        "simgraph.strings_pairs_per_s": pairs / median(strings),
        "simgraph.semantic_pairs_per_s": pairs / median(semantic),
    }


# --------------------------------------------------------------------- build


def _check_build(manifest: pd.DataFrame, gt_pairs: set, out: Outcome) -> None:
    """Each manifest row's n_edges/gt_covered equal a recount of its parquet."""
    for row in manifest.itertuples():
        out.attempted += 1
        edges = pd.read_parquet(row.path)
        covered = sum(p in gt_pairs for p in zip(edges["v1"], edges["v2"]))
        if (row.n_edges, row.gt_covered) != (len(edges), covered):
            out.fail(
                f"{row.graph_id}: manifest ({row.n_edges}, {row.gt_covered}) "
                f"!= recount ({len(edges)}, {covered})"
            )


def build(run: Run) -> Outcome:
    """Graph construction: ``build_dataset_graphs`` over all four families."""
    out = Outcome()
    spec = dataset_spec(run.seed)

    def make_input(_k):
        with run.tracer.span("datasets.generate"):
            return generate_pandas(spec)

    (df1, df2, gt), setup_s = _setup(run, make_input)
    gt_pairs = set(zip(gt["v1"], gt["v2"]))
    pairs = spec.n1 * spec.n2
    out.notes.append(
        f"input: {spec.name} analogue seed={spec.seed} {spec.n1}x{spec.n2} "
        f"records, {pairs} candidate pairs, {len(gt_pairs)} true matches"
    )
    spark, k = run.spark, 0

    def one_build(families):
        nonlocal k
        k += 1
        target = os.path.join(run.work_dir, f"build-{k}")
        return build_dataset_graphs(spark, spec, target, families)

    if not run.tracer.enabled:
        walls, scored, t_start = [], 0, time.perf_counter()
        while True:  # whole passes, one call per family
            for fam in FAMILIES:
                try:
                    manifest, wall = _timed(one_build, [fam])
                except Exception:
                    traceback.print_exc()
                    out.attempted += 1
                    out.fail(f"build_dataset_graphs({fam}) raised")
                    continue
                walls.append(wall)
                scored += pairs * len(manifest)
                _check_build(manifest, gt_pairs, out)
                out.notes.append(
                    f"{fam}: {len(manifest)} graphs, "
                    f"{int(manifest['n_edges'].sum())} edges kept, {wall:.2f} s"
                )
            if time.perf_counter() - t_start >= run.seconds:
                break
        if not walls:
            raise RuntimeError("every build_dataset_graphs call raised")
        out.values.update(
            setup_s=setup_s,
            work_per_s=scored / sum(walls),
            op_p50_ms=1e3 * median(walls),
        )
        out.notes.append(
            f"build_pairs_per_s = {scored / sum(walls):.6g} pairs/s "
            f"(|V1 x V2| x graphs produced, {scored} pairs over "
            f"{len(walls)} per-family builds taking {sum(walls):.2f} s)"
        )
        return out

    # traced: warm up on the first family, then one call per family,
    # untraced and traced
    one_build(FAMILIES[:1])
    counters, parts = EngineCounters(spark, "perfbench-build"), []

    def traced_build(fam):
        with counters, run.tracer.span(f"simgraph.{fam}"):
            parts.append(one_build([fam]))

    overhead = _paired(FAMILIES, lambda fam: one_build([fam]), traced_build)
    manifest = pd.concat(parts, ignore_index=True)
    _check_build(manifest, gt_pairs, out)
    spans = summarize(run.tracer.spans)
    kept = int(manifest["n_edges"].sum())
    out.values = _layers(
        **{"datasets.generate_s": median(durations(run.tracer.spans, "datasets.generate"))},
        **{f"simgraph.{f}_s": spans[f"simgraph.{f}"]["total_s"] for f in FAMILIES},
        **{"simgraph.edges_kept": kept, "simgraph.edge_yield": kept / (pairs * len(manifest))},
        **_kernel_rates(run.tracer, df1, df2, spec.primary_attribute),
        **counters.totals(),
        **{"trace.overhead_s": overhead},
    )
    return out


# -------------------------------------------------------------------- corpus


def _corpus_setup(run: Run, out: Outcome, n_analogues: int = 1):
    """Set up the sweep/serve input; note its measured properties."""
    spec = dataset_spec(run.seed)
    manifest, setup_s = _setup(
        run,
        lambda k: write_corpus(
            spec, os.path.join(run.work_dir, f"corpus-{k}"), run.tracer, n_analogues
        ),
    )
    edges = {r.graph_id: pd.read_parquet(r.path) for r in manifest.itertuples()}
    profile = {
        g: component_profile(e["v1"].to_numpy(), e["v2"].to_numpy())
        for g, e in edges.items()
    }
    n_edges = manifest["n_edges"]
    comps = [c for c, _ in profile.values()]
    shares = [s for _, s in profile.values()]
    out.notes.append(
        f"input: {spec.name} analogue seed={spec.seed} {spec.n1}x{spec.n2}"
        + (f", sparse graphs of {n_analogues - 1} more analogues" if n_analogues > 1 else "")
        + f"; {len(manifest)} graphs; edges min/median/max "
        f"{n_edges.min()}/{int(n_edges.median())}/{n_edges.max()}; components "
        f"min/median/max {min(comps)}/{int(np.median(comps))}/{max(comps)}; "
        f"largest-component share min/median {min(shares):.3f}/{np.median(shares):.3f}"
    )
    return spec, manifest, edges, profile, setup_s


def _corpus_layers(run: Run, spec, manifest: pd.DataFrame) -> dict[str, float]:
    """Per-layer metrics of the corpus set-up (datasets and simgraph)."""
    df1, df2, _ = generate_pandas(spec)
    kept = int(manifest["n_edges"].sum())
    return {
        "datasets.generate_s": median(durations(run.tracer.spans, "datasets.generate")),
        "simgraph.edges_kept": kept,
        "simgraph.edge_yield": kept / (spec.n1 * spec.n2 * len(manifest)),
        **_kernel_rates(run.tracer, df1, df2, spec.primary_attribute),
    }


# --------------------------------------------------------------------- sweep

_SWEEP_CHECKED = ("best_t", "n_predicted", "n_correct")


@contextlib.contextmanager
def _traced_sweep_layers(tracer: Tracer):
    """Matchers and PRF as seen from ``repro.core.sweep``, wrapped in spans.

    Yields a one-element list counting the edges above each matcher call's
    threshold. The module's names are restored on exit; the shared
    ``ALGORITHMS`` registry itself is never modified.
    """
    scanned = [0]
    algorithms, prf = sweep_mod.ALGORITHMS, sweep_mod.prf_from_arrays

    def counted(name, fn):
        traced = tracer.wrap(f"matchers.{name}", fn)

        def call(v1, v2, w, t, **params):
            scanned[0] += int(np.count_nonzero(np.asarray(w) > t))
            return traced(v1, v2, w, t, **params)

        return call

    sweep_mod.ALGORITHMS = {a: counted(a, fn) for a, fn in algorithms.items()}
    sweep_mod.prf_from_arrays = tracer.wrap("metrics.prf", prf)
    try:
        yield scanned
    finally:
        sweep_mod.ALGORITHMS, sweep_mod.prf_from_arrays = algorithms, prf


def _sweep_tasks(manifest: pd.DataFrame) -> list[tuple[object, str]]:
    """(manifest row, algorithm) in ``run_sweep``'s order: biggest graphs first."""
    ordered = manifest.sort_values("n_edges", ascending=False)
    return [(g, algo) for g in ordered.itertuples() for algo in ALGORITHM_ORDER]


def _sweep_task(tracer: Tracer, g, algo: str, gt_path: str) -> dict:
    """One task of ``run_sweep``, replayed serially on the driver.

    Same per-task parquet loads and ``sweep_graph`` defaults as the
    runner's kernel: the single-threaded baseline, and the reference the
    runner's rows are checked against.
    """
    with tracer.span("runner.task"):
        with tracer.span("runner.load"):
            edges = pd.read_parquet(g.path)
            gt = pd.read_parquet(gt_path)
            truth = set(zip(gt["v1"].astype(int), gt["v2"].astype(int)))
        with tracer.span("sweep.sweep_graph"):
            (row,) = sweep_graph(
                edges["v1"].to_numpy(),
                edges["v2"].to_numpy(),
                edges["w"].to_numpy(),
                truth,
                algorithms=[algo],
            )
    return row


def _check_sweep(results: pd.DataFrame, n_tasks: int, reference: dict, out: Outcome):
    """Every task has a row; sampled rows' deterministic columns match."""
    out.attempted += n_tasks
    got = {(r.graph_id, r.algorithm): r for r in results.itertuples()}
    for _ in range(n_tasks - len(got)):
        out.fail("run_sweep returned fewer rows than tasks")
    for key, ref in reference.items():
        row = got.get(key)
        if row is None:
            out.fail(f"{key}: no run_sweep row")
        elif any(getattr(row, c) != ref[c] for c in _SWEEP_CHECKED):
            seen = {c: getattr(row, c) for c in _SWEEP_CHECKED}
            want = {c: ref[c] for c in _SWEEP_CHECKED}
            out.fail(f"{key}: run_sweep {seen} != sweep_graph {want}")


def sweep(run: Run) -> Outcome:
    """The paper's threshold sweep: ``run_sweep`` over the graph corpus."""
    out = Outcome()
    spec, manifest, _, _, setup_s = _corpus_setup(run, out)
    corpus_dir = os.path.dirname(manifest["path"].iloc[0])
    gt_path = os.path.join(corpus_dir, f"{spec.name}__gt.parquet")
    n_tasks = len(manifest) * len(ALGORITHM_ORDER)
    spark = run.spark
    # warm-up: Python workers, their imports and the JIT, on the sparse graphs
    run_sweep(spark, manifest[manifest["family"] == "sa_syn"], corpus_dir)

    if not run.tracer.enabled:
        rates, walls, results = [], [], []
        t_start = time.perf_counter()
        while True:
            try:
                res, wall = _timed(run_sweep, spark, manifest, corpus_dir)
            except Exception:
                traceback.print_exc()
                out.attempted += n_tasks
                out.fail("run_sweep raised")
            else:
                results.append(res)
                walls.append(wall)
                rates.append(n_tasks / wall)
            if time.perf_counter() - t_start >= run.seconds:
                break
        if not walls:
            raise RuntimeError("every run_sweep call raised")
        # the check runs after the timed section; runtime_ms is never compared
        tasks = _sweep_tasks(manifest)
        rng = np.random.default_rng(run.seed)
        off = Tracer(enabled=False)
        reference = {
            (g.graph_id, algo): _sweep_task(off, g, algo, gt_path)
            for g, algo in (
                tasks[i] for i in rng.choice(len(tasks), SWEEP_CHECK_SAMPLE, replace=False)
            )
        }
        for res in results:
            _check_sweep(res, n_tasks, reference, out)
        out.values.update(
            setup_s=setup_s, work_per_s=median(rates), op_p50_ms=1e3 * median(walls)
        )
        out.notes.append(
            f"sweep_tasks_per_s = {median(rates):.6g} tasks/s ({n_tasks} "
            f"(graph, algorithm) tasks per run_sweep call, median of {len(rates)} calls; "
            f"{SWEEP_CHECK_SAMPLE} sampled tasks re-checked per call)",
        )
        out.notes.append("run_sweep call walls (s): " + ", ".join(f"{w:.2f}" for w in walls))
        return out

    # traced: one run_sweep call, then every task replayed serially on the
    # driver, untraced and traced
    counters = EngineCounters(spark, "perfbench-sweep")
    with counters, run.tracer.span("runner.run_sweep"):
        res, wall_sweep = _timed(run_sweep, spark, manifest, corpus_dir)
    off, rows, scanned = Tracer(enabled=False), {}, 0

    def traced_task(task):
        nonlocal scanned
        g, algo = task
        with _traced_sweep_layers(run.tracer) as counted:
            rows[(g.graph_id, algo)] = _sweep_task(run.tracer, g, algo, gt_path)
        scanned += counted[0]

    overhead = _paired(
        _sweep_tasks(manifest),
        lambda task: _sweep_task(off, *task, gt_path),
        traced_task,
    )
    _check_sweep(res, n_tasks, rows, out)
    spans = summarize(run.tracer.spans)
    tasks = durations(run.tracer.spans, "runner.task")
    out.values = _layers(
        **_corpus_layers(run, spec, manifest),
        **{
            f"matchers.{a}.self_s": spans.get(f"matchers.{a}", {}).get("self_s", 0.0)
            for a in ALGORITHM_ORDER
        },
        **{
            f"matchers.{a}.calls": spans.get(f"matchers.{a}", {}).get("calls", 0)
            for a in ALGORITHM_ORDER
        },
        **{
            "matchers.edges_scanned": scanned,
            "metrics.prf_s": spans["metrics.prf"]["total_s"],
            "metrics.prf_calls": spans["metrics.prf"]["calls"],
            "sweep.self_s": spans["sweep.sweep_graph"]["self_s"],
            "runner.load_s": spans["runner.load"]["total_s"],
            "runner.task_s_sum": sum(tasks),
            "runner.slowest_task_s": max(tasks),
            "runner.parallel_efficiency": sum(tasks) / (wall_sweep * CORES),
            "trace.overhead_s": overhead,
        },
        **counters.totals(),
    )
    return out


# --------------------------------------------------------------------- serve


def _respond(spark, edges: pd.DataFrame, req) -> set[tuple[int, int]]:
    """One request: edge list in, matched pairs collected to the driver."""
    df = spark.createDataFrame(edges)
    if req.variant in NATIVE_REFERENCE:
        result = getattr(spark_match, req.variant)(df, req.t)
    else:
        result = spark_match.match_edges(df, req.variant, req.t)
    return {(int(r.v1), int(r.v2)) for r in result.collect()}


def _reference(edges: pd.DataFrame, req) -> set[tuple[int, int]]:
    """The reference matcher's pairs for the same edges and threshold."""
    algo = NATIVE_REFERENCE.get(req.variant, req.variant)
    pairs = ALGORITHMS[algo](
        edges["v1"].to_numpy(), edges["v2"].to_numpy(), edges["w"].to_numpy(), req.t
    )
    return {(int(a), int(b)) for a, b in pairs}


def check_response(edges: pd.DataFrame, req, got, out: Outcome) -> None:
    """Count the request; a raised (``got`` None) or wrong response fails.

    A wrong RCA response that equals ``per_component_rca`` on the same
    edges and threshold is the known RCA defect: it fails and is counted
    as known. Any other difference is an unexplained failure.
    """
    out.attempted += 1
    if got is None:
        out.fail(f"{req} raised")
    elif got != _reference(edges, req):
        known = req.variant == "RCA" and got == per_component_rca(edges, req.t)
        out.fail(f"{req}: response differs from the reference matcher", known)


def _serve_one(run: Run, req, edges, tracer: Tracer, out: Outcome | None) -> float:
    """Send one request and, unless ``out`` is None (an unrecorded
    request), check and count its response; returns its latency (s)."""
    t0 = time.perf_counter()
    try:
        with tracer.span("serve.request"):
            got = _respond(run.spark, edges[req.graph_id], req)
    except Exception:
        traceback.print_exc()
        got = None
    latency = time.perf_counter() - t0
    if out is not None:
        check_response(edges[req.graph_id], req, got, out)
    return latency


def _serve(run: Run, requests, edges, tracer: Tracer, out: Outcome | None) -> list[float]:
    """Closed loop, one client: each request is sent after the previous one
    returned. Returns the per-request latencies (s)."""
    return [_serve_one(run, req, edges, tracer, out) for req in requests]


@contextlib.contextmanager
def _traced_components(tracer: Tracer):
    """``connected_components`` as seen from ``spark_match``, in a span."""
    original = spark_match.connected_components
    spark_match.connected_components = tracer.wrap("components.cc", original)
    try:
        yield
    finally:
        spark_match.connected_components = original


def serve(run: Run) -> Outcome:
    """Request path: one ``match_edges``/``*_native`` call per request."""
    out = Outcome()
    spec, manifest, edges, profile, setup_s = _corpus_setup(run, out, SERVE_ANALOGUES)
    schedule = serve_schedule(manifest, run.seed, n_rounds=SERVE_MAX_ROUNDS)
    per_round = len(VARIANTS)
    # warm-up, outside the timed section: the first calls pay for worker
    # start-up and JIT on each code path (components + applyInPandas,
    # windows + checkpoints, joins). After two warm-up requests the first
    # four timed ones still ran 5-23% slower than the rest of the round;
    # five, one per native variant and two through match_edges, cover
    # every code path. The RCA request is a (graph, threshold) that the
    # known per-component RCA defect reaches, where the corpus has one;
    # every warm-up response is checked and counted.
    largest = manifest.loc[manifest["n_edges"].idxmax(), "graph_id"]
    warmup = [rca_probe(edges)] + [
        Request(largest, v, 0.5) for v in ("umc_native", "cnc_native", "exc_native", "UMC")
    ]
    _serve(run, warmup, edges, Tracer(enabled=False), out)
    out.notes.append(f"warm-up requests (checked, not timed): {warmup}")

    if not run.tracer.enabled:
        latencies, done = [], 0
        t_start = time.perf_counter()
        while done < len(schedule):
            batch = schedule[done : done + per_round]
            latencies += _serve(run, batch, edges, run.tracer, out)
            done += len(batch)
            if time.perf_counter() - t_start >= run.seconds:
                break
        served = schedule[:done]
        n_edges = sum(len(edges[r.graph_id]) for r in served)
        seen, repeats = {r.graph_id for r in warmup}, 0
        for r in served:
            repeats += r.graph_id in seen
            seen.add(r.graph_id)
        tail = tail_percentile(latencies)
        rule = (
            "highest percentile above the median with >=10 samples beyond it; "
            f"n={len(latencies)}"
        )
        tail_note = (
            f"match_tail_ms = {1e3 * tail[1]:.6g} ms at p{tail[0]:.1f} ({rule})"
            if tail
            else f"match_tail_ms undefined ({rule})"
        )
        out.values.update(
            setup_s=setup_s,
            work_per_s=n_edges / sum(latencies),
            op_p50_ms=1e3 * median(latencies),
        )
        out.notes += [
            f"match_p50_ms = {1e3 * median(latencies):.6g} ms (n={len(latencies)})",
            tail_note,
            f"match_edges_per_s = {n_edges / sum(latencies):.6g} edges/s "
            f"({n_edges} input edges / summed latency)",
            "requests repeating an edge list already seen (warm-up included): "
            f"{repeats}/{len(served)} "
            f"= {repeats / len(served):.3f}",
            "latency (ms) per request: "
            + ", ".join(f"{r.variant}={1e3 * lat:.0f}" for r, lat in zip(served, latencies)),
        ]
        return out

    # traced: each request of one round sent untraced and traced
    requests = schedule[:per_round]
    counters, traced, off = EngineCounters(run.spark, "perfbench-serve"), [], Tracer(False)

    def traced_request(item):
        run.tracer.request, req = item
        with counters, _traced_components(run.tracer):
            traced.append(_serve_one(run, req, edges, run.tracer, out))
        run.tracer.request = None

    overhead = _paired(
        list(enumerate(requests)),
        lambda item: _serve_one(run, item[1], edges, off, None),
        traced_request,
    )
    cc = [0.0] * len(requests)
    for s in run.tracer.spans:
        if s.name == "components.cc":
            cc[s.request] += s.end - s.start
    by_variant = {v: 0.0 for v in NATIVE_REFERENCE}
    group = 0.0
    for req, lat, cc_s in zip(requests, traced, cc):
        if req.variant in by_variant:
            by_variant[req.variant] += lat
        else:
            group += lat - cc_s
    out.values = _layers(
        **_corpus_layers(run, spec, manifest),
        **{
            "components.cc_s": sum(cc),
            "components.n_components": float(
                np.mean([profile[r.graph_id][0] for r in requests])
            ),
            "components.largest_share": float(
                np.mean([profile[r.graph_id][1] for r in requests])
            ),
            "spark_match.group_s": group,
            "trace.overhead_s": overhead,
        },
        **{f"spark_match.{v}_s": t for v, t in by_variant.items()},
        **counters.totals(),
    )
    return out


WORKLOADS = {"build": build, "sweep": sweep, "serve": serve}
