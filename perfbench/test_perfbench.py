"""Tests of the benchmark's own helpers (no Spark session needed).

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import os
import sys

import numpy as np
import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import repro.core.sweep as sweep_mod  # noqa: E402
from repro.core.matchers import ALGORITHMS  # noqa: E402

import workloads  # noqa: E402
from inputs import (  # noqa: E402
    VARIANTS,
    Request,
    analogue_specs,
    component_profile,
    dataset_spec,
    per_component_rca,
    rca_probe,
    serve_schedule,
)
from tracing import Span, Tracer, self_times, summarize, tail_percentile  # noqa: E402


# ------------------------------------------------------------- tail percentile


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))  # 1..100
    pct, value = tail_percentile(values)
    assert (pct, value) == (90.0, 90)
    assert sum(v > value for v in values) == 10


def test_tail_of_twenty_one_samples_is_just_above_the_median():
    values = [float(v) for v in range(21, 0, -1)]
    pct, value = tail_percentile(values)
    assert (pct, value) == (pytest.approx(100 * 11 / 21), 11.0)


def test_tail_is_undefined_without_a_percentile_above_the_median():
    assert tail_percentile([]) is None
    assert tail_percentile([3.0, 1.0, 2.0]) is None
    assert tail_percentile([float(v) for v in range(11)]) is None  # p9.1 = minimum
    assert tail_percentile([float(v) for v in range(20)]) is None  # p50 = median


# ------------------------------------------------------------------ self time


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 3.0, 0, None),
        Span(2, "b", 2.0, 5.0, 0, None),  # overlaps a: [1, 5] covered once
        Span(3, "c", 8.0, 12.0, 0, None),  # runs past the parent's end
        Span(4, "grandchild", 1.5, 2.5, 1, None),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_nests_spans_and_summarizes_self_time():
    tracer = Tracer()
    tracer.request = 7
    with tracer.span("outer"):
        tracer.wrap("inner", lambda: sum(range(1000)))()
    outer, inner = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert inner.request == outer.request == 7
    summary = summarize(tracer.spans)
    assert summary["inner"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_sweep_layer_wrapping_is_restored_and_leaves_the_registry_alone():
    algorithms, prf = sweep_mod.ALGORITHMS, sweep_mod.prf_from_arrays
    registry = dict(ALGORITHMS)
    tracer = Tracer()
    v1, v2, w = np.array([1, 2]), np.array([3, 4]), np.array([0.9, 0.2])
    with workloads._traced_sweep_layers(tracer) as scanned:
        rows = sweep_mod.sweep_graph(
            v1, v2, w, {(1, 3)}, algorithms=["UMC"], thresholds=[0.5], timing_reps=1
        )
    assert rows[0]["n_correct"] == 1
    assert scanned == [2]  # one sweep call + one timing call, 1 edge > 0.5 each
    assert {s.name for s in tracer.spans} == {"matchers.UMC", "metrics.prf"}
    assert sweep_mod.ALGORITHMS is algorithms
    assert sweep_mod.prf_from_arrays is prf
    assert ALGORITHMS == registry


# -------------------------------------------------------------- serve checks


def _edges():
    return pd.DataFrame(
        {"v1": [1, 1, 2], "v2": [10, 11, 11], "w": [0.9, 0.4, 0.8]}
    )


def test_wrong_serve_response_counts_as_failed():
    req = Request("g", "UMC", 0.5)
    right = {(1, 10), (2, 11)}
    out = workloads.Outcome()
    workloads.check_response(_edges(), req, right, out)
    assert (out.attempted, out.failed) == (1, 0)
    workloads.check_response(_edges(), req, {(1, 11)}, out)
    workloads.check_response(_edges(), req, None, out)  # the request raised
    assert (out.attempted, out.failed) == (3, 2)


def _two_components():
    # left {1, 2} x right {10, 11}: the column scan wins alone (1.3 to 0.5);
    # left {20, 21} x right {30, 31}: the row scan wins (1.35 to 0.5), by
    # enough that the row scan wins on the whole graph (1.85 to 1.8)
    return pd.DataFrame(
        {
            "v1": [1, 1, 2, 20, 21, 20],
            "v2": [10, 11, 10, 30, 30, 31],
            "w": [0.5, 0.4, 0.9, 0.5, 0.4, 0.95],
        }
    )


def test_known_rca_defect_fails_but_only_other_failures_make_a_run_incorrect():
    graph = _two_components()
    req = Request("whole", "RCA", float(sweep_mod.THRESHOLDS[0]))
    out = workloads.Outcome()
    workloads.check_response(graph, req, per_component_rca(graph, req.t), out)
    assert (out.attempted, out.failed, out.known) == (1, 1, 1)
    assert out.correct  # the defect shows in failed, and is named in the notes
    assert any("known RCA defect" in n for n in out.notes)
    workloads.check_response(graph, req, {(1, 10)}, out)  # wrong another way
    assert (out.attempted, out.failed, out.known) == (2, 2, 1)
    assert not out.correct
    # a wrong response is never the known defect outside RCA
    other = workloads.Outcome()
    cnc = Request("whole", "CNC", req.t)
    workloads.check_response(graph, cnc, per_component_rca(graph, req.t), other)
    assert (other.failed, other.known, other.correct) == (1, 0, False)


def test_native_variant_is_checked_against_its_reference_matcher():
    out = workloads.Outcome()
    workloads.check_response(_edges(), Request("g", "exc_native", 0.5), {(1, 10), (2, 11)}, out)
    assert out.failed == 0


# --------------------------------------------------------------------- inputs


def test_serve_schedule_is_seeded_and_every_round_holds_every_variant_and_graph():
    dense = ["d1", "d2", "d3"]
    sparse = {"A": ["a1", "a2"], "B": ["b1", "b2"], "C": ["c1"]}
    manifest = pd.DataFrame(
        {
            "graph_id": dense + [g for ids in sparse.values() for g in ids],
            "model": ["fasttext"] * 3 + ["vector-token2"] * 5,
            "dataset": ["A"] * 3 + [a for a, ids in sparse.items() for _ in ids],
        }
    )
    a = serve_schedule(manifest, 5, n_rounds=3)
    assert a == serve_schedule(manifest, 5, n_rounds=3)
    assert a != serve_schedule(manifest, 6, n_rounds=3)
    n = len(VARIANTS)
    for r in range(3):
        part = a[r * n : (r + 1) * n]
        assert sorted(q.variant for q in part) == sorted(VARIANTS)
        served = [q.graph_id for q in part]
        assert all(served.count(g) == 1 for g in dense)
        # the n - 3 sparse slots go to the analogues in turn: A, B, C, A, ...
        per_analogue = [sum(g in ids for g in served) for ids in sparse.values()]
        assert per_analogue == [3, 3, 2]
    # across seeds every variant meets every graph
    met = {(q.variant, q.graph_id) for s in range(60) for q in serve_schedule(manifest, s, 1)}
    assert met == {(v, g) for v in VARIANTS for g in manifest["graph_id"]}


def test_further_analogues_are_seeded_from_the_corpus_seed():
    spec = dataset_spec(7)
    specs = analogue_specs(spec, 3)
    assert specs[0] is spec
    assert [s.name for s in specs] == ["D1", "D1.1", "D1.2"]
    assert [s.seed for s in specs] == [s.seed for s in analogue_specs(dataset_spec(7), 3)]
    assert len({s.seed for s in specs}) == 3
    assert all((s.n1, s.n2) == (spec.n1, spec.n2) for s in specs)
    assert analogue_specs(spec, 1) == [spec]


def test_rca_probe_finds_where_per_component_rca_differs():
    graph = _two_components()
    single = graph.iloc[:3]
    probe = rca_probe({"whole": graph, "single": single})
    assert probe == Request("whole", "RCA", float(sweep_mod.THRESHOLDS[0]))
    rca = ALGORITHMS["RCA"]
    whole = {tuple(p) for p in rca(graph["v1"], graph["v2"], graph["w"], probe.t)}
    split = {tuple(p) for p in rca(single["v1"], single["v2"], single["w"], probe.t)}
    split |= {tuple(p) for p in rca(graph["v1"][3:], graph["v2"][3:], graph["w"][3:], probe.t)}
    assert whole != split
    assert split == per_component_rca(graph, probe.t)
    # no multi-component case: RCA on the most-fragmented graph at t = 0.5
    assert rca_probe({"single": single}) == Request("single", "RCA", 0.5)


def test_component_profile():
    n, share = component_profile(np.array([1, 1, 2, 5]), np.array([7, 8, 8, 9]))
    assert (n, share) == (2, 0.75)


# ----------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_declares_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        workloads.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        workloads.LAYER_METRICS
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
