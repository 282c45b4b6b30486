"""Workload correctness and registry tests.

Every workload must compute the *right answer* on its synthetic input —
the phase behaviour SimProf analyses is only meaningful if the
dataflows really run.  Graph results are validated against networkx.
"""

from __future__ import annotations

import re
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from repro.datagen.seeds import GRAPH_INPUTS
from repro.workloads import (
    WORKLOADS,
    WorkloadInput,
    all_labels,
    get_workload,
    label_of,
    run_workload,
)
from repro.workloads.grep import DEFAULT_PATTERN
from repro.workloads.graph_common import (
    adjacency_lines,
    parse_adjacency_line,
    symmetrize,
)

SCALE = 0.05


class TestRegistry:
    def test_six_workloads(self):
        assert len(WORKLOADS) == 6
        assert set(WORKLOADS) == {"sort", "wc", "grep", "bayes", "cc", "rank"}

    def test_get_by_abbrev_and_name(self):
        assert get_workload("wc").name == "wordcount"
        assert get_workload("wordcount").abbrev == "wc"

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_workload("tpch")

    def test_labels(self):
        assert label_of("wc", "hadoop") == "wc_hp"
        assert label_of("cc", "spark") == "cc_sp"
        assert len(all_labels()) == 12

    def test_unknown_framework(self):
        with pytest.raises(ValueError):
            get_workload("wc").execute("flink", WorkloadInput())

    def test_workload_input_validation(self):
        with pytest.raises(ValueError):
            WorkloadInput(scale=0)


class TestGraphCommonHelpers:
    def test_symmetrize(self):
        edges = np.array([[0, 1], [2, 3]])
        sym = symmetrize(edges)
        as_set = {tuple(e) for e in sym}
        assert as_set == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_adjacency_roundtrip(self):
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        lines = adjacency_lines(edges, 3, "init")
        node, state, neighbors = parse_adjacency_line(lines[0])
        assert node == 0
        assert state == "init"
        assert neighbors == [1, 2]

    def test_adjacency_empty_neighbors(self):
        lines = adjacency_lines(np.empty((0, 2), dtype=np.int64), 2, "x")
        _node, _state, neighbors = parse_adjacency_line(lines[1])
        assert neighbors == []


class TestWordCountCorrectness:
    @pytest.mark.parametrize("framework", ["spark", "hadoop"])
    def test_counts_match_input(self, framework):
        wl = get_workload("wc")
        inp = WorkloadInput(scale=SCALE, seed=0)
        trace = wl.execute(framework, inp)
        fs_lines: list[str] = []
        # Re-synthesise the same input and recount it directly.
        from repro.datagen.text import TextSpec, synthesize_text
        from repro.workloads.wordcount import BASE_LINES, VOCAB, WORDS_PER_LINE

        lines = synthesize_text(
            TextSpec(
                n_lines=max(1000, int(BASE_LINES * SCALE)),
                vocab_size=VOCAB,
                words_per_line=WORDS_PER_LINE,
                zipf_s=1.02,
            ),
            0,
        )
        expected = Counter(w for l in lines for w in l.split())
        assert trace.meta["hdfs_bytes_written"] > 0
        assert sum(expected.values()) > 0  # sanity on the reference


class TestOutputsOnSharedRuns:
    """Deeper correctness checks on one shared run per workload."""

    def test_grep_spark_selects_matching_lines(self):
        from repro.spark.context import SparkConfig, SparkContext

        wl = get_workload("grep")
        ctx = SparkContext(SparkConfig(seed=0))
        meta = wl.prepare_input(ctx.fs, WorkloadInput(scale=SCALE, seed=0))
        wl.run_spark(ctx, meta)
        out = []
        for path in ctx.fs.ls("/out/grep/*"):
            out.extend(ctx.fs.read_all(path))
        regex = re.compile(DEFAULT_PATTERN)
        assert out, "grep selected nothing"
        assert all(regex.search(l) for l in out)
        total = sum(1 for l in ctx.fs.read_all(meta["path"]) if regex.search(l))
        assert len(out) == total

    def test_sort_spark_orders_globally(self):
        from repro.spark.context import SparkConfig, SparkContext

        wl = get_workload("sort")
        ctx = SparkContext(SparkConfig(seed=0))
        meta = wl.prepare_input(ctx.fs, WorkloadInput(scale=SCALE, seed=0))
        wl.run_spark(ctx, meta)
        keys = []
        for path in ctx.fs.ls("/out/sort/*"):
            for line in ctx.fs.read_all(path):
                keys.append(line.split("\t")[0])
        assert keys == sorted(keys)
        assert len(keys) == meta["n_lines"]

    def test_wordcount_hadoop_counts(self):
        from repro.hadoop.runtime import HadoopCluster, HadoopClusterConfig

        wl = get_workload("wc")
        cluster = HadoopCluster(HadoopClusterConfig(seed=0))
        meta = wl.prepare_input(cluster.fs, WorkloadInput(scale=SCALE, seed=0))
        expected = Counter(
            w for l in cluster.fs.read_all(meta["path"]) for w in l.split()
        )
        cluster.fs.bytes_read = 0
        wl.run_hadoop(cluster, meta)
        got: Counter = Counter()
        for path in cluster.fs.ls("/out/wordcount/*"):
            for line in cluster.fs.read_all(path):
                word, count = line.split("\t")
                got[word] += int(count)
        assert got == expected

    def test_bayes_spark_feature_counts(self):
        from repro.spark.context import SparkConfig, SparkContext
        from repro.workloads.bayes import parse_labeled

        wl = get_workload("bayes")
        ctx = SparkContext(SparkConfig(seed=0))
        meta = wl.prepare_input(ctx.fs, WorkloadInput(scale=SCALE, seed=0))
        wl.run_spark(ctx, meta)
        expected: Counter = Counter()
        for line in ctx.fs.read_all(meta["path"]):
            label, words = parse_labeled(line)
            for w in words:
                expected[f"{label}:{w}"] += 1
        got = {}
        for path in ctx.fs.ls("/out/bayes/features/*"):
            for line in ctx.fs.read_all(path):
                k, v = line.rsplit("\t", 1)
                got[k] = int(v)
        assert got == dict(expected)


class TestConnectedComponentsCorrectness:
    def _expected_labels(self, edges: np.ndarray, n: int) -> dict[int, int]:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(map(tuple, edges))
        labels = {}
        for comp in nx.connected_components(g):
            root = min(comp)
            for v in comp:
                labels[v] = root
        return labels

    def test_spark_cc_matches_networkx(self):
        from repro.spark.context import SparkConfig, SparkContext

        wl = get_workload("cc")
        ctx = SparkContext(SparkConfig(seed=0))
        meta = wl.prepare_input(ctx.fs, WorkloadInput(scale=SCALE, seed=0))
        wl.run_spark(ctx, meta)
        expected = self._expected_labels(meta["edges"], meta["n_vertices"])
        got = {}
        for path in ctx.fs.ls("/out/cc/*"):
            for line in ctx.fs.read_all(path):
                v, l = line.split("\t")
                got[int(v)] = int(l)
        assert got == expected

    def test_hadoop_cc_matches_networkx(self):
        from repro.hadoop.runtime import HadoopCluster, HadoopClusterConfig
        from repro.workloads.graph_common import (
            HADOOP_SCALE_DELTA,
            resolve_graph,
        )

        wl = get_workload("cc")
        cluster = HadoopCluster(HadoopClusterConfig(seed=0))
        inp = WorkloadInput(scale=SCALE, seed=0)
        meta = wl.prepare_input(cluster.fs, inp)
        wl.run_hadoop(cluster, meta)
        _g, h_edges, h_n = resolve_graph(inp, scale_delta=HADOOP_SCALE_DELTA)
        expected = self._expected_labels(symmetrize(h_edges), h_n)
        # Read the final iteration's labels.
        final = sorted(cluster.fs.ls("/in/cc/iter*"))[-1]
        got = {}
        for line in cluster.fs.read_all(final):
            node, state, _n = parse_adjacency_line(line)
            got[node] = int(state)
        assert got == expected


class TestPageRankCorrectness:
    def test_spark_pagerank_close_to_networkx(self):
        from repro.spark.context import SparkConfig, SparkContext
        from repro.workloads.pagerank import DAMPING, ITERATIONS

        wl = get_workload("rank")
        ctx = SparkContext(SparkConfig(seed=0))
        meta = wl.prepare_input(ctx.fs, WorkloadInput(scale=SCALE, seed=0))
        wl.run_spark(ctx, meta)
        got = {}
        for path in ctx.fs.ls("/out/rank/*"):
            for line in ctx.fs.read_all(path):
                v, r = line.split("\t")
                got[int(v)] = float(r)
        # Reference: same fixed-point iteration (the classic "Spark
        # PageRank" recurrence, contributions only along real edges).
        edges = meta["edges"]
        n = meta["n_vertices"]
        outdeg = np.maximum(np.bincount(edges[:, 0], minlength=n), 1).astype(float)
        ranks = np.ones(n)
        for _ in range(ITERATIONS):
            contribs = np.zeros(n)
            np.add.at(contribs, edges[:, 1], ranks[edges[:, 0]] / outdeg[edges[:, 0]])
            ranks = (1 - DAMPING) + DAMPING * contribs
        for v in range(n):
            assert got[v] == pytest.approx(ranks[v], abs=1e-4)

    def test_ranks_sum_reasonable(self):
        trace = run_workload("rank", "spark", scale=SCALE, seed=0)
        assert trace.total_instructions > 0


class TestTraceShapes:
    @pytest.mark.parametrize("name,framework", [
        ("wc", "spark"), ("wc", "hadoop"),
        ("grep", "spark"), ("sort", "hadoop"),
    ])
    def test_run_workload_produces_units(self, name, framework):
        trace = run_workload(name, framework, scale=SCALE, seed=0)
        assert trace.framework == framework
        assert trace.n_threads >= 1
        # Enough instructions for the test-scale profiler (10M units).
        assert max(t.total_instructions for t in trace.traces) > 100_000_000

    def test_graph_input_selection_changes_trace(self):
        a = run_workload("cc", "spark", scale=SCALE, seed=0,
                         graph=GRAPH_INPUTS["Road"], input_name="Road")
        b = run_workload("cc", "spark", scale=SCALE, seed=0,
                         graph=GRAPH_INPUTS["Facebook"], input_name="Facebook")
        assert a.input_name == "Road"
        assert a.total_instructions != b.total_instructions

    def test_determinism(self):
        t1 = run_workload("wc", "spark", scale=SCALE, seed=0)
        t2 = run_workload("wc", "spark", scale=SCALE, seed=0)
        assert t1.total_instructions == t2.total_instructions
        assert t1.total_cycles == t2.total_cycles
