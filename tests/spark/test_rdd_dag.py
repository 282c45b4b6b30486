"""Unit tests for RDD lineage and stage construction."""

from __future__ import annotations

import gc

import pytest

from repro.spark.context import SparkConfig, SparkContext
from repro.spark.dag import build_stages
from repro.spark.rdd import NarrowRDD, ShuffledRDD, UnionRDD


@pytest.fixture()
def ctx() -> SparkContext:
    return SparkContext(SparkConfig(n_executors=2, default_parallelism=2))


class TestLineage:
    def test_narrow_chain_preserves_partitions(self, ctx):
        base = ctx.parallelize(list(range(10)), 3)
        mapped = base.map(lambda x: x + 1).filter(lambda x: x > 2)
        assert mapped.num_partitions() == 3
        assert isinstance(mapped, NarrowRDD)

    def test_union_partitions_add(self, ctx):
        a = ctx.parallelize([1], 2)
        b = ctx.parallelize([2], 3)
        u = a.union(b)
        assert u.num_partitions() == 5

    def test_union_resolve_split(self, ctx):
        a = ctx.parallelize([1], 2)
        b = ctx.parallelize([2], 3)
        u = a.union(b)
        assert u.resolve_split(1) == (a, 1)
        assert u.resolve_split(2) == (b, 0)
        with pytest.raises(IndexError):
            u.resolve_split(5)

    def test_shuffle_partitions_from_config(self, ctx):
        pairs = ctx.parallelize([("a", 1)], 2)
        reduced = pairs.reduce_by_key(lambda a, b: a + b)
        assert reduced.num_partitions() == 2  # default_parallelism

    def test_map_side_combine_requires_aggregator(self, ctx):
        pairs = ctx.parallelize([("a", 1)], 2)
        with pytest.raises(ValueError):
            ShuffledRDD(
                ctx,
                pairs,
                partitioner=None,
                aggregator=None,
                map_side_combine=True,
                key_ordering=False,
                name="bad",
            )

    def test_rdd_ids_unique(self, ctx):
        a = ctx.parallelize([1])
        b = a.map(lambda x: x)
        c = b.filter(lambda x: True)
        assert len({a.rdd_id, b.rdd_id, c.rdd_id}) == 3

    def test_parallelize_rejects_zero_partitions(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([1], 0)


class TestBuildStages:
    def test_single_stage_job(self, ctx):
        rdd = ctx.parallelize([1, 2, 3], 2).map(lambda x: x)
        stages = build_stages(rdd)
        assert len(stages) == 1
        assert stages[0].is_result

    def test_shuffle_cuts_stage(self, ctx):
        rdd = (
            ctx.parallelize([("a", 1)], 2)
            .reduce_by_key(lambda a, b: a + b)
            .map_values(lambda v: v)
        )
        stages = build_stages(rdd)
        assert len(stages) == 2
        assert not stages[0].is_result
        assert stages[0].shuffle_dep is not None
        assert stages[-1].is_result

    def test_two_shuffles_three_stages(self, ctx):
        rdd = (
            ctx.parallelize([("a", 1)], 2)
            .reduce_by_key(lambda a, b: a + b)
            .map(lambda kv: (kv[1], kv[0]))
            .group_by_key()
        )
        stages = build_stages(rdd)
        assert len(stages) == 3
        assert stages[-1].is_result

    def test_shared_shuffle_parent_deduplicated(self, ctx):
        shuffled = ctx.parallelize([("a", 1)], 2).reduce_by_key(lambda a, b: a + b)
        left = shuffled.map_values(lambda v: (0, v), "l")
        right = shuffled.map_values(lambda v: (1, v), "r")
        final = left.union(right)
        stages = build_stages(final)
        # One shuffle-map stage (shared), one result stage.
        assert len(stages) == 2

    def test_topological_order(self, ctx):
        rdd = (
            ctx.parallelize([("a", 1)], 2)
            .group_by_key()
            .map_values(len)
            .sort_by_key()
        )
        stages = build_stages(rdd)
        seen = set()
        for stage in stages:
            for parent in stage.parents:
                assert parent.stage_id in seen
            seen.add(stage.stage_id)

    def test_stage_names(self, ctx):
        rdd = ctx.parallelize([("a", 1)], 2).reduce_by_key(lambda a, b: a + b)
        stages = build_stages(rdd)
        assert stages[0].name.startswith("shuffleMap:")
        assert stages[-1].name.startswith("result:")


class TestNoCyclicGarbage:
    """A finished Spark run is freed by reference counting alone.

    Automatic collection is paused for the run, so any cycle it leaves
    is still there when the explicit ``gc.collect()`` saves it into
    ``gc.garbage``.  Stdlib objects (``ast``/``inspect`` closures) are
    not the substrate's concern and are filtered out.
    """

    @pytest.mark.parametrize("workload", ["wc", "cc"])
    def test_run_leaves_no_spark_objects_in_cycles(self, workload):
        from repro.workloads import run_workload

        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_workload(workload, "spark", scale=0.01, seed=0)
            gc.collect()
            leaked = sorted(
                {
                    f"{type(obj).__module__}.{type(obj).__qualname__}"
                    for obj in gc.garbage
                    if str(type(obj).__module__).startswith("repro.")
                }
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []
