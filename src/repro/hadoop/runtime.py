"""The MapReduce runtime: task scheduling, spills, shuffle, merge.

Runs jobs the way a tuned single-node Hadoop deployment does:

* one short-lived executor thread per task, scheduled in waves onto the
  machine's hardware-thread slots (wave size = LLC contention);
* mappers stream records into a sort buffer; when the buffer fills, a
  *sort-and-spill* runs the instrumented quicksort over the buffered
  keys, applies the combiner per key group, compresses and writes the
  spill — the exact mechanism behind Figure 15's map/combine/sort
  phases;
* reducers fetch map outputs, merge the sorted runs, and stream key
  groups through the user reducer into HDFS.

Because each task thread dies with its task, :meth:`HadoopCluster.job_trace`
merges the traces of every task that ran on the same slot into one long
pseudo-thread, as the paper's profiler does for Hadoop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable

import numpy as np

from repro.algos.quicksort import instrumented_quicksort
from repro.faults.inject import ClusterFaultInjector, TaskFaults
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport
from repro.hadoop.api import Context, Reducer
from repro.hadoop.job import HadoopJobConf
from repro.hadoop.stacks import HadoopFrames
from repro.hdfs.filesystem import (
    SimulatedHDFS,
    estimate_block_bytes,
    estimate_record_bytes,
)
from repro.jvm.job import JobTrace, StageInfo
from repro.jvm.machine import AccessPattern, HardwareModel, MachineConfig, OpKind
from repro.jvm.methods import CallStack, MethodRegistry, StackTable
from repro.jvm.stream import (
    JobEnd,
    SegmentBatch,
    StageEvent,
    ThreadStart,
    TraceEvent,
    TraceStream,
    pump_events,
)
from repro.jvm.threads import ThreadTrace, TraceBuilder
from repro.spark.shuffle import ShuffleManager, stable_hash

__all__ = ["HadoopClusterConfig", "HadoopCluster"]

# Heap bytes one buffered key-value pair occupies beyond its payload
# (object headers, boxed fields, kvmeta slots).
JVM_PAIR_OVERHEAD = 48


class _NoKey:
    """Sentinel: no reduce group open yet."""

    __slots__ = ()


_NO_KEY = _NoKey()


@dataclass(frozen=True, slots=True)
class HadoopClusterConfig:
    """Cluster-level knobs (slots ≈ the testbed's hardware threads)."""

    n_slots: int = 8
    seed: int = 0
    machine: MachineConfig = field(default_factory=MachineConfig)
    gc_threshold_bytes: float = 32e6
    gc_inst: float = 2.5e6
    max_segment_inst: float = 4e6

    def __post_init__(self) -> None:
        if self.n_slots <= 0:
            raise ValueError("need at least one task slot")


class _TaskRun:
    """Trace-emission context of one short-lived task thread."""

    def __init__(
        self,
        cluster: "HadoopCluster",
        conf: HadoopJobConf,
        slot: int,
        base_stack: CallStack,
        contention: int,
    ) -> None:
        self.cluster = cluster
        self.conf = conf
        self.slot = slot
        self.base_stack = base_stack
        cluster._thread_counter += 1
        self.builder = TraceBuilder(
            cluster.stack_table,
            cluster.hardware,
            cluster._slot_rngs[slot],
            thread_id=cluster._thread_counter,
            core_id=slot,
            start_cycle=cluster._slot_clock[slot],
        )
        self.builder.set_contention(contention)
        self._alloc = 0.0

    def emit(
        self,
        stack: CallStack,
        kind: OpKind,
        access: AccessPattern,
        instructions: float,
        stage_id: int,
        task_id: int,
    ) -> None:
        """Emit chunked segments for one operation."""
        if instructions <= 0:
            return
        self.builder.emit_chunked(
            stack,
            kind,
            access,
            instructions,
            max_segment=self.cluster.config.max_segment_inst,
            stage_id=stage_id,
            task_id=task_id,
        )

    def account_alloc(self, nbytes: float, stage_id: int, task_id: int) -> None:
        """Allocation accounting with stop-the-world GC segments."""
        cfg = self.cluster.config
        self._alloc += nbytes
        if self._alloc >= cfg.gc_threshold_bytes:
            rng = self.cluster._slot_rngs[self.slot]
            live = 0.5 * cfg.gc_threshold_bytes * (0.8 + 0.4 * rng.random())
            self.emit(
                self.cluster.frames.gc_stack(self.base_stack),
                OpKind.GC,
                AccessPattern.pointer(live),
                cfg.gc_inst,
                stage_id,
                task_id,
            )
            self._alloc = 0.0

    def finish(self) -> ThreadTrace:
        """Close the task: advance the slot clock, return the trace."""
        trace = self.builder.trace
        cluster = self.cluster
        cluster._slot_clock[self.slot] = trace.end_cycle
        emit = cluster._stream_emit
        if emit is None:
            cluster._task_traces[self.slot].append(trace)
            return trace
        # Streaming mode: the slot's merged pseudo-thread is delivered
        # event by event instead of being retained.  The ThreadStart of
        # a slot goes out when its first task finishes; slot clocks are
        # monotonic and waves fill slots in ascending order, so this
        # matches job_trace()'s ThreadTrace.merged ordering exactly.
        if self.slot not in cluster._streamed_slots:
            cluster._streamed_slots.add(self.slot)
            emit(ThreadStart(self.slot, self.slot, trace.start_cycle))
        if len(trace):
            # Columnar flush: pack the task's segments once and clear.
            emit(SegmentBatch(self.slot, trace.drain_structured()))
        return trace


class HadoopCluster:
    """A simulated single-node Hadoop deployment."""

    def __init__(
        self,
        config: HadoopClusterConfig | None = None,
        fs: SimulatedHDFS | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.config = config or HadoopClusterConfig()
        self.fs = fs or SimulatedHDFS()
        # Null plans stay None so the fault-free path is untouched.
        self.faults: ClusterFaultInjector | None = None
        if faults is not None and faults.cluster_active:
            self.faults = ClusterFaultInjector(faults, "hadoop")
        self.registry = MethodRegistry()
        self.stack_table = StackTable(self.registry)
        self.frames = HadoopFrames(self.registry)
        self.hardware = HardwareModel(self.config.machine)
        self.shuffle = ShuffleManager()
        self._stages: list[StageInfo] = []
        # User counters aggregated per job: {job: {(group, name): value}}.
        self.counters: dict[str, dict[tuple[str, str], int]] = {}
        self._thread_counter = 0
        self._stage_counter = 0
        self._shuffle_counter = 0
        self._task_counter = 0
        self._slot_clock = [0] * self.config.n_slots
        self._task_traces: list[list[ThreadTrace]] = [
            [] for _ in range(self.config.n_slots)
        ]
        # Streaming mode: event sink plus the set of slots whose
        # ThreadStart has been emitted.
        self._stream_emit: Callable[[TraceEvent], None] | None = None
        self._streamed_slots: set[int] = set()
        seeds = np.random.SeedSequence(self.config.seed).spawn(self.config.n_slots)
        self._slot_rngs = [np.random.default_rng(s) for s in seeds]

    # -- helpers -----------------------------------------------------------

    def _batch_size(self, inst_per_record: float) -> int:
        # max_segment_inst is in final (post-instruction_scale) terms;
        # scale the per-record cost accordingly so batches stay well
        # below the profiler's snapshot period.
        scaled = inst_per_record * self.config.machine.instruction_scale
        if scaled <= 0:
            return 1024
        return max(1, min(4096, int(self.config.max_segment_inst / scaled)))

    def _waves(self, n_tasks: int) -> list[list[int]]:
        n = self.config.n_slots
        return [
            list(range(s, min(s + n, n_tasks))) for s in range(0, n_tasks, n)
        ]

    def _merge_counters(self, job_name: str, ctx: Context) -> None:
        """Fold one task context's counters into the job totals."""
        if not ctx.counters:
            return
        job = self.counters.setdefault(job_name, {})
        for key, value in ctx.counters.items():
            job[key] = job.get(key, 0) + value
        ctx.counters = {}

    def _record_stage(self, info: StageInfo) -> None:
        """Log stage metadata (and emit it when streaming)."""
        self._stages.append(info)
        if self._stream_emit is not None:
            self._stream_emit(StageEvent(info))

    @staticmethod
    def _as_kv(record: Any, offset: int) -> tuple[Any, Any]:
        """Input record convention: pairs pass through; anything else
        becomes ``(byte_offset, record)`` like TextInputFormat."""
        if isinstance(record, tuple) and len(record) == 2:
            return record
        return (offset, record)

    # -- job execution -------------------------------------------------------

    def run_job(
        self, conf: HadoopJobConf, input_path: str, output_path: str
    ) -> None:
        """Run one MapReduce job from ``input_path`` to ``output_path``."""
        n_maps = self.fs.stat(input_path).n_blocks
        shuffle_id = self._shuffle_counter
        self._shuffle_counter += 1

        map_stage = self._stage_counter
        self._stage_counter += 1
        self._record_stage(StageInfo(map_stage, f"{conf.name}:map", n_maps))
        for wave in self._waves(n_maps):
            contention = len(wave)
            for slot, map_idx in zip(range(len(wave)), wave):
                tf = self._task_faults(map_stage, map_idx)
                for _ in range(tf.n_failures if tf else 0):
                    self._run_doomed_map_attempt(
                        conf, input_path, map_idx, slot, contention,
                        map_stage, tf,
                    )
                self._run_map_task(
                    conf,
                    input_path,
                    output_path,
                    map_idx,
                    shuffle_id,
                    slot,
                    contention,
                    map_stage,
                    faults=tf,
                )

        if conf.is_map_only:
            return

        reduce_stage = self._stage_counter
        self._stage_counter += 1
        self._record_stage(
            StageInfo(reduce_stage, f"{conf.name}:reduce", conf.n_reduces)
        )
        for wave in self._waves(conf.n_reduces):
            contention = len(wave)
            for slot, reduce_idx in zip(range(len(wave)), wave):
                tf = self._task_faults(reduce_stage, reduce_idx)
                for _ in range(tf.n_failures if tf else 0):
                    self._run_doomed_reduce_attempt(
                        conf, reduce_idx, shuffle_id, slot, contention,
                        reduce_stage, tf,
                    )
                self._run_reduce_task(
                    conf,
                    output_path,
                    reduce_idx,
                    shuffle_id,
                    slot,
                    contention,
                    reduce_stage,
                    faults=tf,
                )

    # -- fault injection ----------------------------------------------------

    def _task_faults(self, stage_id: int, split: int) -> TaskFaults | None:
        if self.faults is None:
            return None
        return self.faults.task_faults(stage_id, split)

    def _run_doomed_map_attempt(
        self,
        conf: HadoopJobConf,
        input_path: str,
        map_idx: int,
        slot: int,
        contention: int,
        stage_id: int,
        tf: TaskFaults,
    ) -> None:
        """A failed map attempt: read the split, burn map work, die.

        The attempt re-reads its input split and gets through
        ``tf.wasted_fraction`` of the map cost before the (simulated)
        JVM dies.  Nothing is spilled, shuffled, or counted — the real
        attempt that follows redoes everything, so job outputs match a
        fault-free run exactly.
        """
        task_id = self._task_counter  # the real attempt reuses this id
        base = self.frames.map_task_stack()
        run = _TaskRun(self, conf, slot, base, contention)
        records, nbytes = self.fs.read_block(input_path, map_idx)
        run.account_alloc(nbytes, stage_id, task_id)
        run.emit(
            self.frames.hdfs_read(base),
            OpKind.IO,
            AccessPattern.sequential(max(1.0, float(nbytes))),
            nbytes * conf.io_read_inst_per_byte,
            stage_id,
            task_id,
        )
        run.emit(
            self.frames.mapper(base, conf.mapper.frames),
            OpKind.MAP,
            AccessPattern.sequential(max(1.0, _list_bytes(records))),
            conf.mapper.inst_per_record * len(records) * tf.wasted_fraction,
            stage_id,
            task_id,
        )
        run.finish()
        assert self.faults is not None
        self.faults.report.record(
            "hadoop.map",
            "task_failure",
            "reexecuted",
            thread_id=slot,
            stage_id=stage_id,
            index=map_idx,
            detail=f"wasted {tf.wasted_fraction:.2f} of map cost",
        )

    def _run_doomed_reduce_attempt(
        self,
        conf: HadoopJobConf,
        reduce_idx: int,
        shuffle_id: int,
        slot: int,
        contention: int,
        stage_id: int,
        tf: TaskFaults,
    ) -> None:
        """A failed reduce attempt: re-fetch map output partway, die."""
        task_id = self._task_counter  # the real attempt reuses this id
        base = self.frames.reduce_task_stack()
        run = _TaskRun(self, conf, slot, base, contention)
        fetch_stack = self.frames.fetch(base)
        for _recs, nbytes in self.shuffle.fetch(shuffle_id, reduce_idx):
            fetched = (
                nbytes * conf.compression_ratio
                if conf.compress_map_output
                else nbytes
            )
            run.emit(
                fetch_stack,
                OpKind.SHUFFLE,
                AccessPattern.sequential(max(1.0, float(fetched))),
                fetched * conf.shuffle_inst_per_byte * tf.wasted_fraction,
                stage_id,
                task_id,
            )
        run.finish()
        assert self.faults is not None
        self.faults.report.record(
            "hadoop.reduce",
            "task_failure",
            "reexecuted",
            thread_id=slot,
            stage_id=stage_id,
            index=reduce_idx,
            detail=f"wasted {tf.wasted_fraction:.2f} of fetch cost",
        )

    def _apply_task_faults(
        self,
        run: _TaskRun,
        tf: TaskFaults | None,
        stage_id: int,
        task_id: int,
    ) -> None:
        """Append straggler stall / GC pause to a finishing task."""
        if tf is None or self.faults is None:
            return
        plan = self.faults.plan
        if tf.straggler_factor:
            scale = self.config.machine.instruction_scale
            extra = (tf.straggler_factor - 1.0) * run.builder.retired
            run.emit(
                self.frames.with_frames(
                    run.base_stack,
                    (("org.apache.hadoop.mapred.Task", "reportProgress"),),
                ),
                OpKind.FRAMEWORK,
                AccessPattern.pointer(48e6),
                extra / scale,
                stage_id,
                task_id,
            )
            self.faults.report.record(
                "hadoop.task",
                "straggler",
                "absorbed",
                thread_id=run.slot,
                stage_id=stage_id,
                index=task_id,
                detail=f"slowdown x{tf.straggler_factor}",
            )
        if tf.gc_pause:
            run.emit(
                self.frames.gc_stack(run.base_stack),
                OpKind.GC,
                AccessPattern.pointer(0.75 * self.config.gc_threshold_bytes),
                plan.gc_pause_inst,
                stage_id,
                task_id,
            )
            self.faults.report.record(
                "hadoop.task",
                "gc_pause",
                "absorbed",
                thread_id=run.slot,
                stage_id=stage_id,
                index=task_id,
            )

    # -- map side ---------------------------------------------------------------

    def _run_map_task(
        self,
        conf: HadoopJobConf,
        input_path: str,
        output_path: str,
        map_idx: int,
        shuffle_id: int,
        slot: int,
        contention: int,
        stage_id: int,
        faults: TaskFaults | None = None,
    ) -> None:
        task_id = self._task_counter
        self._task_counter += 1
        base = self.frames.map_task_stack()
        run = _TaskRun(self, conf, slot, base, contention)

        records, nbytes = self.fs.read_block(input_path, map_idx)
        run.account_alloc(nbytes, stage_id, task_id)

        mapper = conf.mapper
        mapper.setup()
        map_stack = self.frames.mapper(base, mapper.frames)
        ctx = Context()
        buffer: list[tuple[Any, Any]] = []
        buffer_bytes = 0.0
        # One sorted-per-partition run per spill.
        spills: list[dict[int, list[tuple[Any, Any]]]] = []
        offset = 0
        bsize = self._batch_size(mapper.inst_per_record)
        n_batches = max(1, (len(records) + bsize - 1) // bsize)
        read_inst_per_batch = nbytes * conf.io_read_inst_per_byte / n_batches
        read_stack = self.frames.hdfs_read(base)
        for i in range(0, len(records), bsize):
            batch = records[i : i + bsize]
            # The record reader streams: input IO interleaves with map.
            run.emit(
                read_stack,
                OpKind.IO,
                AccessPattern.sequential(max(1.0, _list_bytes(batch))),
                read_inst_per_batch,
                stage_id,
                task_id,
            )
            for rec in batch:
                k, v = self._as_kv(rec, offset)
                offset += estimate_record_bytes(rec)
                mapper.map(k, v, ctx)
            out = ctx.drain()
            run.emit(
                map_stack,
                OpKind.MAP,
                AccessPattern.sequential(
                    max(1.0, _list_bytes(batch) + _list_bytes(out))
                ),
                mapper.inst_per_record * len(batch)
                + conf.inst_collect_per_record * len(out),
                stage_id,
                task_id,
            )
            if out:
                buffer.extend(out)
                out_bytes = _list_bytes(out)
                buffer_bytes += out_bytes
                run.account_alloc(out_bytes, stage_id, task_id)
            if not conf.is_map_only and buffer_bytes >= conf.sort_buffer_bytes:
                spills.append(
                    self._sort_and_spill(run, conf, buffer, stage_id, task_id)
                )
                buffer, buffer_bytes = [], 0.0
        mapper.cleanup(ctx)
        tail = ctx.drain()
        if tail:
            buffer.extend(tail)

        self._merge_counters(conf.name, ctx)
        if conf.is_map_only:
            self._write_output(run, conf, buffer, output_path, task_id, stage_id, "m")
            self._apply_task_faults(run, faults, stage_id, task_id)
            run.finish()
            return

        if buffer:
            spills.append(self._sort_and_spill(run, conf, buffer, stage_id, task_id))

        merged = self._merge_spills(run, conf, spills, stage_id, task_id)
        for part, recs in merged.items():
            self.shuffle.write_block(shuffle_id, map_idx, part, recs)
        self._apply_task_faults(run, faults, stage_id, task_id)
        run.finish()

    def _sort_and_spill(
        self,
        run: _TaskRun,
        conf: HadoopJobConf,
        buffer: list[tuple[Any, Any]],
        stage_id: int,
        task_id: int,
    ) -> dict[int, list[tuple[Any, Any]]]:
        """Partition + quicksort + combine one full map-output buffer."""
        base = run.base_stack
        # Partition pass: route each record to its reducer.
        parts: dict[int, list[tuple[Any, Any]]] = {}
        for rec in buffer:
            parts.setdefault(stable_hash(rec[0]) % conf.n_reduces, []).append(rec)
        run.emit(
            self.frames.with_frames(
                base, (("org.apache.hadoop.mapred.MapTask$MapOutputBuffer", "partition"),)
            ),
            OpKind.SHUFFLE,
            AccessPattern.sequential(max(1.0, _list_bytes(buffer))),
            conf.inst_partition_per_record * len(buffer),
            stage_id,
            task_id,
        )

        sort_stack = self.frames.sort_spill(base)
        out: dict[int, list[tuple[Any, Any]]] = {}
        for part, recs in sorted(parts.items()):
            # JVM object overhead: a buffered key-value pair costs far
            # more than its payload (headers, boxed fields, kvmeta).
            rec_bytes = estimate_record_bytes(recs[0]) + JVM_PAIR_OVERHEAD
            keys = np.array([k for k, _v in recs])

            def emit_pass(n: int, ws: int, _leaf: bool, _rb: int = rec_bytes) -> None:
                run.emit(
                    sort_stack,
                    OpKind.SORT,
                    AccessPattern.random(max(1.0, ws * _rb)),
                    conf.inst_sort_per_element * n,
                    stage_id,
                    task_id,
                )

            order = instrumented_quicksort(
                keys, emit_pass, rng=self.cluster_rng(run.slot)
            )
            sorted_recs = [recs[int(i)] for i in order]
            if conf.combiner is not None:
                sorted_recs = self._run_combiner(
                    run, conf, sorted_recs, stage_id, task_id
                )
            # IFile append runs as each partition finishes, so the spill
            # write interleaves with the sorting/combining of the next
            # partition (these sub-operations are "tightly coupled").
            raw = estimate_block_bytes(sorted_recs)
            comp = raw * conf.compression_ratio if conf.compress_map_output else raw
            run.emit(
                self.frames.spill_write(base),
                OpKind.IO,
                AccessPattern.sequential(max(1.0, raw)),
                raw * conf.inst_compress_per_byte
                + comp * conf.io_write_inst_per_byte,
                stage_id,
                task_id,
            )
            out[part] = sorted_recs
        return out

    def _run_combiner(
        self,
        run: _TaskRun,
        conf: HadoopJobConf,
        sorted_recs: list[tuple[Any, Any]],
        stage_id: int,
        task_id: int,
    ) -> list[tuple[Any, Any]]:
        combiner = conf.combiner
        assert combiner is not None
        stack = self.frames.combiner(run.base_stack, combiner.frames)
        ctx = Context()
        consumed = 0
        bsize = self._batch_size(combiner.inst_per_record)
        for _key, group in groupby(sorted_recs, key=lambda r: r[0]):
            values = [v for _k, v in group]
            combiner.reduce(_key, values, ctx)
            consumed += len(values)
            if consumed >= bsize:
                run.emit(
                    stack,
                    OpKind.REDUCE,
                    AccessPattern.random(max(1.0, _list_bytes(sorted_recs) * 0.5)),
                    combiner.inst_per_record * consumed,
                    stage_id,
                    task_id,
                )
                consumed = 0
        if consumed:
            run.emit(
                stack,
                OpKind.REDUCE,
                AccessPattern.random(max(1.0, _list_bytes(sorted_recs) * 0.5)),
                combiner.inst_per_record * consumed,
                stage_id,
                task_id,
            )
        return ctx.drain()

    def _merge_spills(
        self,
        run: _TaskRun,
        conf: HadoopJobConf,
        spills: list[dict[int, list[tuple[Any, Any]]]],
        stage_id: int,
        task_id: int,
    ) -> dict[int, list[tuple[Any, Any]]]:
        """Merge multiple sorted spill runs per partition (map side)."""
        if not spills:
            return {}
        if len(spills) == 1:
            return spills[0]
        merged: dict[int, list[tuple[Any, Any]]] = {}
        merge_stack = self.frames.merge_spills(run.base_stack)
        for part in sorted({p for s in spills for p in s}):
            runs = [s.get(part, []) for s in spills]
            out = list(heapq.merge(*runs, key=lambda r: r[0]))
            merged[part] = out
            run.emit(
                merge_stack,
                OpKind.SORT,
                AccessPattern.sequential(max(1.0, _list_bytes(out))),
                conf.inst_merge_per_record * len(out),
                stage_id,
                task_id,
            )
        return merged

    # -- reduce side --------------------------------------------------------------

    def _run_reduce_task(
        self,
        conf: HadoopJobConf,
        output_path: str,
        reduce_idx: int,
        shuffle_id: int,
        slot: int,
        contention: int,
        stage_id: int,
        faults: TaskFaults | None = None,
    ) -> None:
        task_id = self._task_counter
        self._task_counter += 1
        base = self.frames.reduce_task_stack()
        run = _TaskRun(self, conf, slot, base, contention)

        blocks = self.shuffle.fetch(shuffle_id, reduce_idx)
        fetch_stack = self.frames.fetch(base)
        total_bytes = 0.0
        for recs, nbytes in blocks:
            fetched = (
                nbytes * conf.compression_ratio
                if conf.compress_map_output
                else nbytes
            )
            total_bytes += nbytes
            run.emit(
                fetch_stack,
                OpKind.SHUFFLE,
                AccessPattern.sequential(max(1.0, float(fetched))),
                fetched * conf.shuffle_inst_per_byte
                + (nbytes * conf.inst_compress_per_byte if conf.compress_map_output else 0.0),
                stage_id,
                task_id,
            )
        run.account_alloc(total_bytes, stage_id, task_id)

        # The final merge feeds the reducer's iterator directly, and the
        # record writer flushes as groups complete: merge, reduce, and
        # output IO interleave at batch granularity (they are one
        # "reduce" phase in the paper's Hadoop analysis).
        runs_sorted = [recs for recs, _ in blocks]
        merged = list(heapq.merge(*runs_sorted, key=lambda r: r[0]))

        reducer = conf.reducer
        assert reducer is not None
        reducer.setup()
        merge_stack = self.frames.reduce_merge(base)
        reduce_stack = self.frames.reducer(base, reducer.frames)
        write_stack = self.frames.output_write(base)
        ctx = Context()
        lines: list[str] = []
        bsize = self._batch_size(
            conf.inst_merge_per_record + reducer.inst_per_record
        )
        cur_key: Any = _NO_KEY
        cur_vals: list[Any] = []
        for i in range(0, len(merged), bsize):
            batch = merged[i : i + bsize]
            run.emit(
                merge_stack,
                OpKind.SORT,
                AccessPattern.random(max(1.0, total_bytes * 0.25)),
                conf.inst_merge_per_record * len(batch),
                stage_id,
                task_id,
            )
            for k, v in batch:
                if k != cur_key:
                    if cur_key is not _NO_KEY:
                        reducer.reduce(cur_key, cur_vals, ctx)
                    cur_key, cur_vals = k, []
                cur_vals.append(v)
            run.emit(
                reduce_stack,
                OpKind.REDUCE,
                AccessPattern.random(max(1.0, total_bytes)),
                reducer.inst_per_record * len(batch),
                stage_id,
                task_id,
            )
            drained = ctx.drain()
            if drained:
                out_lines = [f"{k}\t{v}" for k, v in drained]
                nbytes = sum(len(s) + 1 for s in out_lines)
                lines.extend(out_lines)
                run.emit(
                    write_stack,
                    OpKind.IO,
                    AccessPattern.sequential(max(1.0, float(nbytes))),
                    nbytes * conf.io_write_inst_per_byte,
                    stage_id,
                    task_id,
                )
                run.account_alloc(float(nbytes), stage_id, task_id)
        if cur_key is not _NO_KEY:
            reducer.reduce(cur_key, cur_vals, ctx)
        reducer.cleanup(ctx)
        tail = ctx.drain()
        if tail:
            out_lines = [f"{k}\t{v}" for k, v in tail]
            nbytes = sum(len(s) + 1 for s in out_lines)
            lines.extend(out_lines)
            run.emit(
                write_stack,
                OpKind.IO,
                AccessPattern.sequential(max(1.0, float(nbytes))),
                nbytes * conf.io_write_inst_per_byte,
                stage_id,
                task_id,
            )
        self._merge_counters(conf.name, ctx)
        self.fs.append_block(f"{output_path}/part-r-{reduce_idx:05d}", lines)
        self._apply_task_faults(run, faults, stage_id, task_id)
        run.finish()

    def _write_output(
        self,
        run: _TaskRun,
        conf: HadoopJobConf,
        records: list[tuple[Any, Any]],
        output_path: str,
        task_idx: int,
        stage_id: int,
        kind: str,
    ) -> None:
        """TextOutputFormat: serialise records and write to HDFS."""
        lines = [f"{k}\t{v}" for k, v in records]
        nbytes = self.fs.append_block(
            f"{output_path}/part-{kind}-{task_idx:05d}", lines
        )
        run.emit(
            self.frames.output_write(run.base_stack),
            OpKind.IO,
            AccessPattern.sequential(max(1.0, float(nbytes))),
            nbytes * conf.io_write_inst_per_byte,
            stage_id,
            task_idx,
        )

    def cluster_rng(self, slot: int) -> np.random.Generator:
        """The RNG bound to a slot (deterministic per seed)."""
        return self._slot_rngs[slot]

    # -- trace export -----------------------------------------------------------

    def _trace_meta(self) -> dict[str, Any]:
        """Job-level metadata shared by the batch and streaming exports."""
        meta = {
            "n_slots": self.config.n_slots,
            "n_tasks": self._task_counter,
            "hdfs_bytes_read": self.fs.bytes_read,
            "hdfs_bytes_written": self.fs.bytes_written,
            "shuffle_bytes": self.shuffle.bytes_written,
        }
        if self.faults is not None:
            FaultReport.merged_meta(meta, self.faults.report)
        return meta

    def job_trace(self, workload: str, input_name: str = "default") -> JobTrace:
        """Merge per-slot task traces into pseudo-threads and package.

        The paper: "the profiler merges the profiled results from the
        executor threads running on the same core to mimic a long
        running executor thread in Spark."
        """
        merged = [
            ThreadTrace.merged(traces, thread_id=slot)
            for slot, traces in enumerate(self._task_traces)
            if traces
        ]
        return JobTrace(
            framework="hadoop",
            workload=workload,
            input_name=input_name,
            registry=self.registry,
            stack_table=self.stack_table,
            machine=self.config.machine,
            traces=merged,
            stages=list(self._stages),
            meta=self._trace_meta(),
        )

    def stream_trace(
        self,
        run: Callable[[], None],
        workload: str,
        input_name: str = "default",
        *,
        max_queue: int = 256,
    ) -> TraceStream:
        """Run ``run()`` while streaming its trace as events.

        Per-slot pseudo-threads (the batch path's ``ThreadTrace.merged``)
        are assembled incrementally: each finished task's segments go
        out as one batch under its slot's thread id, and the segments
        are dropped instead of retained, so a later :meth:`job_trace`
        sees no threads.
        """
        if self._stream_emit is not None:
            raise RuntimeError("a trace stream is already active on this cluster")

        def produce(emit: Callable[[TraceEvent], None]) -> None:
            self._stream_emit = emit
            self._streamed_slots = set()
            try:
                run()
                emit(JobEnd(self._trace_meta()))
            finally:
                self._stream_emit = None

        return TraceStream(
            framework="hadoop",
            workload=workload,
            input_name=input_name,
            registry=self.registry,
            stack_table=self.stack_table,
            machine=self.config.machine,
            events=pump_events(produce, max_queue=max_queue),
        )


def _list_bytes(records: list[Any]) -> float:
    """Estimated bytes of a record list (first record × count)."""
    if not records:
        return 0.0
    return float(estimate_record_bytes(records[0]) * len(records))
