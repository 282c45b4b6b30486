"""NaiveBayes training on a labelled Zipf corpus.

Computes the sufficient statistics of a multinomial naive-Bayes text
classifier: per-(class, word) counts and per-class document counts —
two aggregation passes.  Spark runs them as two jobs on the same input
(feature counts via ``reduceByKey``, priors via ``reduceByKey`` on the
labels); Hadoop runs the feature-count job with a combiner, then a
second, smaller prior job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.datagen.text import TextSpec, synthesize_labeled_text
from repro.hadoop.api import Context, Mapper, Reducer
from repro.hadoop.job import HadoopJobConf
from repro.workloads.base import Workload, WorkloadInput
from repro.workloads.wordcount import IntSumReducer

if TYPE_CHECKING:
    from repro.hadoop.runtime import HadoopCluster
    from repro.spark.context import SparkContext

__all__ = ["NaiveBayes", "FeatureCountMapper", "PriorCountMapper"]

BASE_LINES = 40_000
N_CLASSES = 12


def parse_labeled(line: str) -> tuple[str, list[str]]:
    """Split a ``"label\\tword word ..."`` line."""
    label, _, text = line.partition("\t")
    return label, text.split()


class FeatureCountMapper(Mapper):
    """Emits ``((label, word), 1)`` for every token."""

    frames = (
        ("org.apache.hadoop.mapreduce.Mapper", "run"),
        ("org.apache.mahout.classifier.naivebayes.training.IndexInstancesMapper", "map"),
        ("org.apache.mahout.vectorizer.DocumentProcessor", "tokenize"),
    )
    inst_per_record = 380_000.0  # tokenization + feature hashing per line

    def map(self, key: Any, value: str, context: Context) -> None:
        label, words = parse_labeled(value)
        for w in words:
            context.write(f"{label}:{w}", 1)


class PriorCountMapper(Mapper):
    """Emits ``(label, 1)`` per document for the class priors."""

    frames = (
        ("org.apache.hadoop.mapreduce.Mapper", "run"),
        ("org.apache.mahout.classifier.naivebayes.training.WeightsMapper", "map"),
    )
    inst_per_record = 130_000.0

    def map(self, key: Any, value: str, context: Context) -> None:
        label, _, _ = value.partition("\t")
        context.write(label, 1)


class NaiveBayes(Workload):
    """Train naive-Bayes statistics over a labelled corpus."""

    name = "bayes"
    abbrev = "bayes"
    workload_type = "Machine Learning"
    paper_input = "10G text"
    spark_inst_scale = 4.0
    hadoop_inst_scale = 6.0

    def prepare_input(self, fs: Any, inp: WorkloadInput) -> dict[str, Any]:
        n_lines = max(1000, int(BASE_LINES * inp.scale))
        spec = TextSpec(n_lines=n_lines, vocab_size=16_000, zipf_s=1.05)
        lines = synthesize_labeled_text(spec, N_CLASSES, inp.seed)
        fs.write("/in/bayes", lines, block_records=max(500, n_lines // 16))
        return {"path": "/in/bayes", "n_lines": n_lines}

    def run_spark(self, ctx: SparkContext, meta: dict[str, Any]) -> None:
        data = ctx.text_file(meta["path"])
        features = (
            data.flat_map(
                lambda line: [
                    (f"{lbl}:{w}", 1)
                    for lbl, ws in (parse_labeled(line),)
                    for w in ws
                ],
                "org.apache.spark.mllib.classification.NaiveBayes$$anonfun$1.apply",
                inst_per_record=380_000.0,
            )
            .reduce_by_key(lambda a, b: a + b)
        )
        features.save_as_text_file("/out/bayes/features")
        priors = (
            data.map(
                lambda line: (line.partition("\t")[0], 1),
                "org.apache.spark.mllib.classification.NaiveBayes$$anonfun$2.apply",
                inst_per_record=130_000.0,
            )
            .reduce_by_key(lambda a, b: a + b)
        )
        priors.save_as_text_file("/out/bayes/priors")

    def run_hadoop(self, cluster: HadoopCluster, meta: dict[str, Any]) -> None:
        features = HadoopJobConf(
            name="bayes-features",
            mapper=FeatureCountMapper(),
            combiner=IntSumReducer(),
            reducer=IntSumReducer(),
            n_reduces=cluster.config.n_slots,
            sort_buffer_bytes=float(meta["n_lines"]) * 16.0,
        )
        cluster.run_job(features, meta["path"], "/out/bayes/features")
        priors = HadoopJobConf(
            name="bayes-priors",
            mapper=PriorCountMapper(),
            combiner=IntSumReducer(),
            reducer=IntSumReducer(),
            n_reduces=max(1, cluster.config.n_slots // 4),
        )
        cluster.run_job(priors, meta["path"], "/out/bayes/priors")
