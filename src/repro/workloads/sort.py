"""Sort: order text records by key.

Spark: ``textFile → map(extract key) → sortByKey → saveAsTextFile``
(range partition + per-partition sort).  Hadoop: the framework sort
does all the work — identity mapper, no combiner, identity reducer —
which is why the paper's sort_hp phase mix is dominated by sort and IO.
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

__all__ = ["Sort", "SortKeyMapper", "IdentityReducer"]

BASE_LINES = 52_000


def extract_key(line: str) -> tuple[str, str]:
    """Key-value split: the first token keys the record."""
    first, _, _rest = line.partition(" ")
    return (first, line)


class SortKeyMapper(Mapper):
    """Emits ``(first token, line)`` so the framework sort orders lines."""

    frames = (
        ("org.apache.hadoop.mapreduce.Mapper", "run"),
        ("org.apache.hadoop.examples.Sort$SortMapper", "map"),
    )
    inst_per_record = 160_000.0

    def map(self, key: Any, value: str, context: Context) -> None:
        k, v = extract_key(value)
        context.write(k, v)


class IdentityReducer(Reducer):
    """Passes sorted records through to the output."""

    frames = (
        ("org.apache.hadoop.mapreduce.Reducer", "run"),
        ("org.apache.hadoop.examples.Sort$SortReducer", "reduce"),
    )
    inst_per_record = 70_000.0

    def reduce(self, key: Any, values: Any, context: Context) -> None:
        for v in values:
            context.write(key, v)


class Sort(Workload):
    """Globally sort synthetic text lines by their first token."""

    name = "sort"
    abbrev = "sort"
    workload_type = "Microbench"
    paper_input = "10G text"
    spark_inst_scale = 35.0
    hadoop_inst_scale = 35.0

    def prepare_input(self, fs: Any, inp: WorkloadInput) -> dict[str, Any]:
        n_lines = max(1000, int(BASE_LINES * inp.scale))
        spec = TextSpec(
            n_lines=n_lines,
            vocab_size=30_000,
            zipf_s=float(inp.params.get("zipf_s", 1.0)),
            shuffle_ranks=bool(inp.params.get("shuffle_ranks", True)),
        )
        lines = synthesize_text(spec, inp.seed)
        fs.write("/in/sort", lines, block_records=max(500, n_lines // 16))
        return {"path": "/in/sort", "n_lines": n_lines}

    def run_spark(self, ctx: SparkContext, meta: dict[str, Any]) -> None:
        (
            ctx.text_file(meta["path"])
            .map(
                extract_key,
                "org.apache.spark.examples.Sort$$anonfun$1.apply",
                inst_per_record=160_000.0,
            )
            .sort_by_key()
            .map_values(lambda line: line, inst_per_record=40_000.0)
            .save_as_text_file("/out/sort")
        )

    def run_hadoop(self, cluster: HadoopCluster, meta: dict[str, Any]) -> None:
        conf = HadoopJobConf(
            name="sort",
            mapper=SortKeyMapper(),
            combiner=None,  # nothing to combine: keys are unique-ish lines
            reducer=IdentityReducer(),
            n_reduces=cluster.config.n_slots,
            sort_buffer_bytes=float(meta["n_lines"]) * 40.0,
        )
        cluster.run_job(conf, meta["path"], "/out/sort")
