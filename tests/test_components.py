"""Distributed connected components vs a union-find reference."""
import numpy as np
import pandas as pd
import pytest

from repro.core.components import connected_components, encode_global


def uf_reference(edges: list[tuple[int, int]]) -> dict[int, int]:
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def run_cc(spark, edges: list[tuple[int, int]]) -> dict[int, int]:
    df = spark.createDataFrame(
        pd.DataFrame({"src": [a for a, _ in edges], "dst": [b for _, b in edges]})
    )
    labels = connected_components(df).toPandas()
    return dict(zip(labels["node"], labels["component"]))


class TestConnectedComponents:
    def test_single_edge(self, spark):
        assert run_cc(spark, [(0, 1)]) == {0: 0, 1: 0}

    def test_chain(self, spark):
        # label 0 reaches the far end of the 65-node path in round 64
        for n in (5, 65):
            got = run_cc(spark, [(k, k + 1) for k in range(n - 1)])
            assert set(got.values()) == {0}, n

    def test_two_components(self, spark):
        got = run_cc(spark, [(0, 1), (2, 3)])
        assert got[0] == got[1] != got[2] == got[3]

    def test_matches_union_find_on_random_graph(self, spark):
        rng = np.random.default_rng(7)
        edges = [
            (int(a), int(b))
            for a, b in zip(rng.integers(0, 60, 150), rng.integers(60, 120, 150))
        ]
        got = run_cc(spark, edges)
        ref = uf_reference(edges)
        # same partition structure: nodes share a label iff they share one in ref
        by_got: dict[int, set] = {}
        by_ref: dict[int, set] = {}
        for n in ref:
            by_got.setdefault(got[n], set()).add(n)
            by_ref.setdefault(ref[n], set()).add(n)
        assert sorted(map(sorted, by_got.values())) == sorted(
            map(sorted, by_ref.values())
        )

    def test_component_is_min_node_id(self, spark):
        got = run_cc(spark, [(5, 9), (9, 3)])
        assert got == {5: 3, 9: 3, 3: 3}


class TestEncodeGlobal:
    def test_left_even_right_odd(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"v1": [0, 3], "v2": [0, 2], "w": [1.0, 1.0]}))
        enc = encode_global(df).toPandas()
        assert enc["src"].tolist() == [0, 6]
        assert enc["dst"].tolist() == [1, 5]

    def test_no_collisions_between_sides(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"v1": range(10), "v2": range(10), "w": [1.0] * 10})
        )
        enc = encode_global(df).toPandas()
        assert not set(enc["src"]) & set(enc["dst"])
