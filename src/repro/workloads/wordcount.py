"""WordCount: the canonical micro-benchmark (Figures 14 and 15).

Spark: ``textFile → flatMap(split) → map((w,1)) → reduceByKey(+) →
saveAsTextFile`` — with map-side combine, so the reduce work happens in
stage 1 inside ``Aggregator.combineValuesByKey`` (the paper's Figure 14
observation).

Hadoop: TokenizerMapper → IntSumReducer combiner (map-side reduce,
run during each sort-and-spill) → IntSumReducer — producing the three
Figure 15 phases: map, combine, sort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.datagen.text import TextSpec, synthesize_text
from repro.hadoop.api import Context, Mapper, Reducer
from repro.hadoop.job import HadoopJobConf
from repro.workloads.base import Workload, WorkloadInput

if TYPE_CHECKING:
    from repro.hadoop.runtime import HadoopCluster
    from repro.spark.context import SparkContext

__all__ = ["WordCount", "TokenizerMapper", "IntSumReducer"]

BASE_LINES = 48_000
# A 10 G corpus has a six-figure vocabulary; at our scale this makes the
# combiner maps grow through the (contended) LLC, reproducing the
# data-dependent reduce behaviour the paper analyses.
VOCAB = 150_000
WORDS_PER_LINE = 12.0


class TokenizerMapper(Mapper):
    """Hadoop's classic WordCount mapper."""

    frames = (
        ("org.apache.hadoop.mapreduce.Mapper", "run"),
        ("org.apache.hadoop.examples.WordCount$TokenizerMapper", "map"),
        ("java.util.StringTokenizer", "nextToken"),
    )
    inst_per_record = 300_000.0  # per input line: tokenize + emit pairs

    def map(self, key: Any, value: str, context: Context) -> None:
        for word in value.split():
            context.write(word, 1)


class IntSumReducer(Reducer):
    """Sums counts; used as both combiner and reducer."""

    frames = (
        ("org.apache.hadoop.mapreduce.Reducer", "run"),
        ("org.apache.hadoop.examples.WordCount$IntSumReducer", "reduce"),
    )
    inst_per_record = 60_000.0  # per value merged

    def reduce(self, key: Any, values: Any, context: Context) -> None:
        context.write(key, sum(values))


class WordCount(Workload):
    """Count word occurrences in a synthetic Zipf corpus."""

    name = "wordcount"
    abbrev = "wc"
    workload_type = "Microbench"
    paper_input = "10G text"
    spark_inst_scale = 4.0
    hadoop_inst_scale = 6.0

    def prepare_input(self, fs: Any, inp: WorkloadInput) -> dict[str, Any]:
        n_lines = max(1000, int(BASE_LINES * inp.scale))
        spec = TextSpec(
            n_lines=n_lines,
            vocab_size=VOCAB,
            words_per_line=WORDS_PER_LINE,
            zipf_s=float(inp.params.get("zipf_s", 1.02)),
        )
        lines = synthesize_text(spec, inp.seed)
        # One wave of big tasks: large per-task combiner maps / spill
        # buffers, like the paper's 128 MB-split deployment.
        fs.write("/in/wordcount", lines, block_records=max(500, n_lines // 8))
        return {"path": "/in/wordcount", "n_lines": n_lines}

    def run_spark(self, ctx: SparkContext, meta: dict[str, Any]) -> None:
        counts = (
            ctx.text_file(meta["path"])
            .flat_map(
                lambda line: line.split(),
                "org.apache.spark.examples.WordCount$$anonfun$1.apply",
                inst_per_record=300_000.0,
            )
            .map(
                lambda w: (w, 1),
                "org.apache.spark.examples.WordCount$$anonfun$2.apply",
                inst_per_record=90_000.0,
            )
            .reduce_by_key(lambda a, b: a + b)
        )
        counts.save_as_text_file("/out/wordcount")

    def run_hadoop(self, cluster: HadoopCluster, meta: dict[str, Any]) -> None:
        conf = HadoopJobConf(
            name="wordcount",
            mapper=TokenizerMapper(),
            combiner=IntSumReducer(),
            reducer=IntSumReducer(),
            # Fewer reducers -> larger per-partition spill sorts, like
            # the paper's tuned deployment (bigger buffers, fewer files).
            n_reduces=2,
            sort_buffer_bytes=float(meta["n_lines"]) * 120.0,
        )
        cluster.run_job(conf, meta["path"], "/out/wordcount")
