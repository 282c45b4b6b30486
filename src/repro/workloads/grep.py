"""Grep: select lines matching a regular expression.

Map-only on both frameworks (the paper's grep_sp forms a single phase —
Figure 9).  The regex engine really runs, so the per-line compute is
data dependent (match early-out vs full scan).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any

from repro.datagen.text import TextSpec, synthesize_text
from repro.hadoop.api import Context, Mapper
from repro.hadoop.job import HadoopJobConf
from repro.workloads.base import Workload, WorkloadInput

if TYPE_CHECKING:
    from repro.hadoop.runtime import HadoopCluster
    from repro.spark.context import SparkContext

__all__ = ["Grep", "GrepMapper", "DEFAULT_PATTERN"]

BASE_LINES = 64_000
# Matches a couple of hot Zipf-rank word shapes: realistic selectivity.
DEFAULT_PATTERN = r"[a-z]*(ab|qu|zz)[a-z]{2,}"


class GrepMapper(Mapper):
    """Hadoop grep: emit matching lines."""

    frames = (
        ("org.apache.hadoop.mapreduce.Mapper", "run"),
        ("org.apache.hadoop.examples.Grep$RegexMapper", "map"),
        ("java.util.regex.Matcher", "find"),
    )
    inst_per_record = 140_000.0  # regex scan over the line (grep is IO-bound)

    def __init__(self, pattern: str = DEFAULT_PATTERN) -> None:
        self._regex = re.compile(pattern)

    def map(self, key: Any, value: str, context: Context) -> None:
        if self._regex.search(value):
            context.write(key, value)


class Grep(Workload):
    """Filter a synthetic corpus by a regular expression."""

    name = "grep"
    abbrev = "grep"
    workload_type = "Microbench"
    paper_input = "10G text"
    spark_inst_scale = 30.0
    hadoop_inst_scale = 30.0
    # grep does little per-record compute; its time goes to scanning the
    # input, so the IO path dominates (continuously mixed with the
    # regex work -- the single-phase behaviour of Figure 9).
    spark_config_overrides = {"io_read_inst_per_byte": 1300.0}
    hadoop_config_overrides = {}
    hadoop_job_overrides = {}

    def prepare_input(self, fs: Any, inp: WorkloadInput) -> dict[str, Any]:
        n_lines = max(1000, int(BASE_LINES * inp.scale))
        spec = TextSpec(n_lines=n_lines, vocab_size=20_000, zipf_s=1.05)
        lines = synthesize_text(spec, inp.seed)
        fs.write("/in/grep", lines, block_records=max(500, n_lines // 16))
        pattern = str(inp.params.get("pattern", DEFAULT_PATTERN))
        return {"path": "/in/grep", "n_lines": n_lines, "pattern": pattern}

    def run_spark(self, ctx: SparkContext, meta: dict[str, Any]) -> None:
        regex = re.compile(meta["pattern"])
        (
            ctx.text_file(meta["path"])
            .filter(
                lambda line: regex.search(line) is not None,
                "org.apache.spark.examples.Grep$$anonfun$1.apply",
                inst_per_record=140_000.0,
            )
            .save_as_text_file("/out/grep")
        )

    def run_hadoop(self, cluster: HadoopCluster, meta: dict[str, Any]) -> None:
        conf = HadoopJobConf(
            name="grep",
            mapper=GrepMapper(meta["pattern"]),
            reducer=None,  # map-only job
            n_reduces=0,
            **self.hadoop_job_overrides,
        )
        cluster.run_job(conf, meta["path"], "/out/grep")
