"""The packed columnar segment format of the trace plane.

Everything that moves trace segments between layers — substrate flush,
the stream pump, the streaming profiler, the trace store — moves them
as one packed NumPy structured array per batch instead of per-segment
Python objects.  :data:`SEGMENT_DTYPE` is the wire format: eight
little-endian ``<i8`` identity/counter fields plus a ninth ``cold``
column, so a columnar round trip loses nothing a
:class:`~repro.jvm.threads.TraceSegment` carries.

Consumers operate on column slices (``arr["instructions"]``,
``arr["stack_id"]``) and never materialise per-segment objects on the
hot path; :func:`array_to_segments` exists as the one sanctioned
adapter back to the object world (parity tests, legacy callers).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

from repro.jvm.threads import (
    OP_KINDS_BY_CODE,
    SEGMENT_DTYPE,
    SEGMENT_FIELDS,
    TraceSegment,
    _segment_row,
)

__all__ = [
    "SEGMENT_DTYPE",
    "SEGMENT_FIELDS",
    "empty_segment_array",
    "segments_to_array",
    "array_to_segments",
    "pack_columns",
    "unpack_columns",
]

# SEGMENT_DTYPE, the columnar wire format, is defined next to the row
# builders in repro.jvm.threads.

#: Candidate column types at rest, narrowest first.
_NARROW_DTYPES = tuple(np.dtype(t) for t in ("<i1", "<i2", "<i4", "<i8"))


def empty_segment_array() -> np.ndarray:
    """A zero-length packed segment array."""
    return np.empty(0, dtype=SEGMENT_DTYPE)


def segments_to_array(segments: Iterable[TraceSegment]) -> np.ndarray:
    """Pack :class:`TraceSegment` objects into one structured array.

    The object-world → columnar adapter used by the legacy
    :class:`~repro.jvm.stream.SegmentBatch` constructor; one row per
    segment, ``op_kind`` coded via ``OP_KIND_CODES``.
    """
    rows = array("q")
    for s in segments:
        rows.extend(_segment_row(s))
    return np.frombuffer(rows, dtype=SEGMENT_DTYPE).copy()


def array_to_segments(data: np.ndarray) -> tuple[TraceSegment, ...]:
    """Materialise packed rows back into :class:`TraceSegment` objects.

    The one sanctioned columnar → object adapter: only the batch-trace
    assembler (``JobTrace.from_stream``), parity tests, and legacy
    consumers pay this cost — hot-path consumers stay on column slices.
    """
    return tuple(
        TraceSegment(
            stack_id=int(row["stack_id"]),
            op_kind=OP_KINDS_BY_CODE[int(row["op_kind"])],
            instructions=int(row["instructions"]),
            cycles=int(row["cycles"]),
            l1d_misses=int(row["l1d_misses"]),
            llc_misses=int(row["llc_misses"]),
            stage_id=int(row["stage_id"]),
            task_id=int(row["task_id"]),
            cold=bool(row["cold"]),
        )
        for row in data  # simprof: ignore[SPA008] -- the one sanctioned adapter
    )


def pack_columns(data: np.ndarray) -> tuple[np.ndarray, ...]:
    """The columns of a packed array, each narrowed for storage.

    One array per :data:`SEGMENT_FIELDS` entry, in field order, each in
    the smallest signed integer type that holds the column's minimum
    and maximum.  The choice follows the data: ``cold`` flags and
    ``op_kind`` codes fit one byte, counters wider than 32 bits stay
    64-bit.  :func:`unpack_columns` inverts it exactly.
    """
    columns = []
    for name in SEGMENT_FIELDS:
        column = data[name]
        dtype = _NARROW_DTYPES[0]
        if len(column):
            lo, hi = int(column.min()), int(column.max())
            dtype = next(
                d
                for d in _NARROW_DTYPES
                if np.iinfo(d).min <= lo and hi <= np.iinfo(d).max
            )
        columns.append(column.astype(dtype))
    return tuple(columns)


def unpack_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The :data:`SEGMENT_DTYPE` array :func:`pack_columns` was given."""
    out = np.empty(len(columns[0]), dtype=SEGMENT_DTYPE)
    for name, column in zip(SEGMENT_FIELDS, columns):
        out[name] = column
    return out
