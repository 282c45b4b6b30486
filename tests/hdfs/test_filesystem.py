"""Unit and property tests for the simulated HDFS."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hdfs.filesystem import (
    SimulatedHDFS,
    estimate_block_bytes,
    estimate_record_bytes,
)


def _reference_record_bytes(record) -> int:
    """The isinstance chain alone, without the exact-type pair fast path."""
    if isinstance(record, str):
        return len(record) + 1
    if isinstance(record, bytes):
        return len(record) + 1
    if isinstance(record, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(record, np.ndarray):
        return int(record.nbytes)
    if isinstance(record, (tuple, list)):
        return sum(_reference_record_bytes(f) for f in record) + len(record)
    if isinstance(record, dict):
        return sum(
            _reference_record_bytes(k) + _reference_record_bytes(v)
            for k, v in record.items()
        )
    return max(8, sys.getsizeof(record) // 4)


class _Opaque:
    """A record type the estimator knows nothing about."""


_SCALARS = st.one_of(
    st.text(max_size=12),
    st.binary(max_size=12),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.text(max_size=8).map(np.str_),
    st.integers(0, 16).map(lambda n: np.zeros(n, dtype=np.int32)),
    st.builds(_Opaque),
)

_RECORDS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=8,
)

# Blocks of one record kind as well as mixed ones.
_BLOCKS = st.one_of(
    st.lists(_RECORDS, max_size=20),
    st.lists(st.text(max_size=12), max_size=40),
    st.lists(st.one_of(st.text(max_size=12), st.binary(max_size=12)), max_size=40),
    st.lists(st.one_of(st.integers(), st.floats()), max_size=40),
    st.lists(st.tuples(st.text(max_size=8), st.integers()), max_size=40),
)


class TestEstimateRecordBytes:
    def test_string(self):
        assert estimate_record_bytes("hello") == 6  # +newline

    def test_bytes(self):
        assert estimate_record_bytes(b"abc") == 4

    def test_numbers(self):
        assert estimate_record_bytes(7) == 8
        assert estimate_record_bytes(3.14) == 8
        assert estimate_record_bytes(np.int64(7)) == 8

    def test_ndarray_uses_nbytes(self):
        arr = np.zeros(10, dtype=np.int64)
        assert estimate_record_bytes(arr) == 80

    def test_tuple_sums_fields(self):
        assert estimate_record_bytes(("ab", 1)) == 3 + 8 + 2

    def test_dict(self):
        assert estimate_record_bytes({"a": 1}) == 2 + 8

    def test_unknown_object_positive(self):
        class Thing:
            pass

        assert estimate_record_bytes(Thing()) > 0

    @given(
        st.recursive(
            st.one_of(st.text(max_size=10), st.integers(), st.floats(allow_nan=False)),
            lambda children: st.lists(children, max_size=4).map(tuple),
            max_leaves=10,
        )
    )
    @settings(max_examples=50)
    def test_always_positive(self, record):
        assert estimate_record_bytes(record) >= 0

    @given(_RECORDS)
    @settings(max_examples=150)
    def test_fast_paths_match_the_isinstance_chain(self, record):
        assert estimate_record_bytes(record) == _reference_record_bytes(record)

    def test_bool_and_numpy_scalars_take_the_chain(self):
        for record in (True, np.int64(3), np.float32(1.5), np.str_("abc")):
            assert estimate_record_bytes(record) == _reference_record_bytes(record)
        assert estimate_record_bytes((True, np.str_("ab"))) == 8 + 3 + 2


class TestEstimateBlockBytes:
    @given(_BLOCKS)
    @settings(max_examples=150)
    def test_equals_the_per_record_sum(self, block):
        assert estimate_block_bytes(block) == sum(
            map(estimate_record_bytes, block)
        )

    def test_homogeneous_blocks(self):
        assert estimate_block_bytes([]) == 0
        assert estimate_block_bytes(["ab", "cde"]) == 3 + 4
        assert estimate_block_bytes(["ab", b"c"]) == 3 + 2
        assert estimate_block_bytes([1, 2.5, 3]) == 24
        # bool is sized by the chain, to 8 like a plain int.
        assert estimate_block_bytes([1, True]) == 16


class TestSimulatedHDFS:
    def test_write_chops_into_blocks(self):
        fs = SimulatedHDFS(block_records=10)
        f = fs.write("/a", [f"line{i}" for i in range(25)])
        assert f.n_blocks == 3
        assert [len(b) for b in f.blocks] == [10, 10, 5]
        assert f.n_records == 25

    def test_write_block_records_override(self):
        fs = SimulatedHDFS(block_records=10)
        f = fs.write("/a", range(20), block_records=5)
        assert f.n_blocks == 4

    def test_read_block_roundtrip(self):
        fs = SimulatedHDFS(block_records=4)
        fs.write("/a", list(range(10)))
        records, nbytes = fs.read_block("/a", 1)
        assert records == [4, 5, 6, 7]
        assert nbytes == 32

    def test_read_block_out_of_range(self):
        fs = SimulatedHDFS()
        fs.write("/a", [1])
        with pytest.raises(IndexError):
            fs.read_block("/a", 5)

    def test_read_all(self):
        fs = SimulatedHDFS(block_records=3)
        fs.write("/a", list(range(7)))
        assert fs.read_all("/a") == list(range(7))

    def test_missing_file_raises(self):
        fs = SimulatedHDFS()
        with pytest.raises(FileNotFoundError):
            fs.stat("/nope")
        with pytest.raises(FileNotFoundError):
            fs.read_all("/nope")

    def test_exists_and_delete(self):
        fs = SimulatedHDFS()
        fs.write("/a", [1])
        assert fs.exists("/a")
        fs.delete("/a")
        assert not fs.exists("/a")
        fs.delete("/a")  # idempotent

    def test_ls_glob(self):
        fs = SimulatedHDFS()
        fs.write("/out/part-0", [1])
        fs.write("/out/part-1", [1])
        fs.write("/in/data", [1])
        assert fs.ls("/out/*") == ["/out/part-0", "/out/part-1"]
        assert len(fs.ls()) == 3

    def test_overwrite_replaces(self):
        fs = SimulatedHDFS()
        fs.write("/a", [1, 2, 3])
        fs.write("/a", [9])
        assert fs.read_all("/a") == [9]

    def test_append_block(self):
        fs = SimulatedHDFS()
        fs.append_block("/a", ["x"])
        fs.append_block("/a", ["y", "z"])
        assert fs.read_all("/a") == ["x", "y", "z"]
        assert fs.stat("/a").n_blocks == 2

    def test_write_blocks_preserves_layout(self):
        fs = SimulatedHDFS()
        f = fs.write_blocks("/a", [[1, 2], [3]])
        assert f.n_blocks == 2
        assert f.blocks[1] == [3]

    def test_io_accounting(self):
        fs = SimulatedHDFS(block_records=5)
        f = fs.write("/a", ["hello"] * 10)
        assert fs.bytes_written == f.total_bytes
        fs.read_all("/a")
        assert fs.bytes_read == f.total_bytes

    def test_rejects_bad_block_records(self):
        with pytest.raises(ValueError):
            SimulatedHDFS(block_records=0)

    @given(st.lists(st.text(max_size=20), max_size=60), st.integers(1, 10))
    @settings(max_examples=40)
    def test_roundtrip_property(self, records, block_records):
        fs = SimulatedHDFS(block_records=block_records)
        fs.write("/p", records)
        assert fs.read_all("/p") == records
