"""The packed columnar segment format of the trace plane.

Everything that moves trace segments between layers — substrate flush,
the stream pump, the shared-memory channel, the fault guard, the
streaming profiler — moves them as one packed NumPy structured array
per batch instead of per-segment Python objects.  :data:`SEGMENT_DTYPE`
is the wire format: the eight little-endian ``<i8`` identity/counter
fields the batch checksum covers (the same eight the historical
``struct`` pack used), plus a ninth ``cold`` column so a columnar round
trip loses nothing a :class:`~repro.jvm.threads.TraceSegment` carries.

Consumers operate on column slices (``arr["instructions"]``,
``arr["stack_id"]``) and never materialise per-segment objects on the
hot path; :func:`array_to_segments` exists as the one sanctioned
adapter back to the object world (``JobTrace.from_stream``, parity
tests, legacy callers).

:func:`segment_checksum` folds the packed bytes of the eight checksum
fields through a single :func:`zlib.crc32` call.  Because CRC-32 over a
concatenation equals CRC-32 chained over its parts, the value is
bit-identical to the historical per-segment pack-and-fold loop (kept in
:mod:`repro.jvm._reference` as the parity oracle), so old and new
format batches verify interchangeably in a mixed stream.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Iterable, Sequence, Union

import numpy as np

from repro.jvm.threads import (
    OP_KINDS_BY_CODE,
    SEGMENT_DTYPE,
    SEGMENT_FIELDS,
    TraceSegment,
    _N_FIELDS,
    _segment_row,
)

__all__ = [
    "SEGMENT_DTYPE",
    "SEGMENT_FIELDS",
    "CHECKSUM_FIELDS",
    "empty_segment_array",
    "segments_to_array",
    "array_to_segments",
    "pack_columns",
    "unpack_columns",
    "segment_checksum",
]

# SEGMENT_DTYPE, the columnar wire format, is defined next to the row
# builders in repro.jvm.threads.  Field order of its first eight entries
# is load-bearing: it matches the historical ``struct.Struct("<qqqqqqqq")``
# pack, which is what keeps :func:`segment_checksum` values identical
# across the object-path and columnar-path encoders.

#: The fields the batch checksum covers (everything but ``cold``, which
#: is profiling metadata the historical pack never included).
CHECKSUM_FIELDS: tuple[str, ...] = SEGMENT_FIELDS[:8]

_N_CHECKSUM = len(CHECKSUM_FIELDS)

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


def segment_checksum(
    segments: Union[np.ndarray, Sequence[TraceSegment]],
) -> int:
    """CRC-32 over the packed checksum fields of a segment batch.

    Accepts either a packed :data:`SEGMENT_DTYPE` array or a legacy
    sequence of :class:`TraceSegment` objects (converted first), and
    folds the little-endian bytes of the eight :data:`CHECKSUM_FIELDS`
    through one :func:`zlib.crc32` call.  Deterministic across
    processes (unlike salted ``hash()``), cheap enough to compute at
    emission and again at consumption, and bit-identical to the
    historical per-segment pack loop
    (:func:`repro.jvm._reference.reference_segment_checksum`) for any
    batch content — which is what lets mixed old/new-format streams
    share one verification path.
    """
    if not isinstance(segments, np.ndarray):
        segments = segments_to_array(segments)
    elif segments.dtype != SEGMENT_DTYPE:
        raise TypeError(
            f"expected a SEGMENT_DTYPE array, got dtype {segments.dtype!r}"
        )
    n = len(segments)
    if n == 0:
        return 0
    flat = np.ascontiguousarray(segments).view(np.int64).reshape(n, _N_FIELDS)
    return zlib.crc32(np.ascontiguousarray(flat[:, :_N_CHECKSUM]).tobytes())
