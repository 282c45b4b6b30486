"""Bit-parity of generated traces against pinned digests.

The pins below were recorded from the per-segment object writer (one
``CostResult`` and one ``TraceSegment`` per emitted batch, HDFS sizes
summed record by record) before the write side became columnar.  Each
pin is the sha256 of every thread's ``(thread_id, core_id,
start_cycle)`` header and ``to_structured()`` bytes, in trace order,
plus the job's HDFS and shuffle byte counters.  Any change to pricing,
to the RNG draw order or to record sizing moves at least one of them.

``PROFILE_PINS`` holds, per fig7 label, the ``content_digest()`` of the
job profile that ``profile_trace`` cuts from the same trace under
``ProfilerConfig(seed=0)``.  They were recorded from the batch
snapshotter/window-reader profiler, before batch profiling moved onto
the incremental unit cutter, so they hold the cutter to the units the
old path produced.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.profiler import ProfilerConfig, profile_trace
from repro.experiments.common import all_label_pairs
from repro.workloads import label_of, run_workload

# label -> (trace sha256, hdfs_bytes_read, hdfs_bytes_written, shuffle_bytes)
FIG7_PINS = {
    "sort_hp": (
        "37b197c50120d51db1c43c38f08d54ea06c7957c2eb644a45da0c949f5844c6a",
        87891, 184811, 98920,
    ),
    "wc_hp": (
        "23f6cd095e5f2975465d17bcb8712c5e2f0e9f168e24115b896d728e6f4310e5",
        103564, 154785, 103341,
    ),
    "grep_hp": (
        "fcd9217d7810d22ecbaa74bec8da5b3a06a10644603e62fb4297b0f058c65186",
        75710, 84050, 0,
    ),
    "bayes_hp": (
        "0d0bb1179035a78575038318278cc655ac2efdb5b9bbdb24f54b90906ede0f37",
        178376, 168769, 183398,
    ),
    "cc_hp": (
        "59f5522caaf92653808f146be02243c5c0a1c6c09644cbdc77091f70c48a9f4c",
        7018, 8184, 25906,
    ),
    "rank_hp": (
        "bb99372130bfe639827c6e2a810b166ccf897c82071ea135b29be1c0f57e638c",
        12152, 13178, 35756,
    ),
    "sort_sp": (
        "223e22af79f443e92686019b2da8bcd389b7a4044eb2181f980ea093313dec1a",
        175782, 184811, 98920,
    ),
    "wc_sp": (
        "9f6200474b332e9b0d0cd68b01e890be51c651db0833a8e3c9f1d5b4f08efca6",
        103564, 154785, 103341,
    ),
    "grep_sp": (
        "bde4604077533f8331c29836d19bb05703a72e13eec032352956d034cc355e02",
        75710, 83551, 0,
    ),
    "bayes_sp": (
        "5125c2cbfd986861db7accc81e9664bde3ca1eaa633f4183ea14735e69a5c4a0",
        178376, 168769, 133707,
    ),
    "cc_sp": (
        "fcde067b2caeb0d889c7f15fec5d6d551f50875bdb918c29b3a87a0c72efea5a",
        0, 4164, 419944,
    ),
    "rank_sp": (
        "ab1352f4255033568dd68b1d6116268b78ca5f86389dc6458d34baa145374977",
        0, 7271, 932640,
    ),
}

# label -> profile_trace(trace, ProfilerConfig(seed=0)).content_digest()
PROFILE_PINS = {
    "sort_hp": "cec4c9c05c9cc491f7ae9bcece3e3c612753db8b04e2484fe6f56c979c6b0b2e",
    "wc_hp": "86f498aeb1e133a9f527c50fa183cbdd3a412e6c093dc0ed818fb534a399fda2",
    "grep_hp": "a3a12082f7c13f11df39432d4a5f7483c256252fb00b78c6b25105893b377ef7",
    "bayes_hp": "8daf01e17ca82cf36d7c55121f1a2365dcbf5522a0093e7d0f7d0adeb197399f",
    "cc_hp": "a037a3f4899d386be1f6f8590f02190e7bbe149277ab0d7abe54302bb76e9e8b",
    "rank_hp": "1eb3cf2665346304bf076508beca608eb7cc7535503690cc4a3a54589c6f0470",
    "sort_sp": "10aa4d55152d79ab5477e32fdd21af0cfeeebd1997030ed293389e19beb754e6",
    "wc_sp": "d510f296261cef2c8f5c2b165027fa0c059eefb4f9aef110f51ae31d25502a5e",
    "grep_sp": "26f46ac73da4d9597ed2c30d29e78529a9c87a270aedd28b0f36c4a16e14534e",
    "bayes_sp": "5ff130a40a17542b95fc2e4b2682e9c06dc327ef13e91f48aab12f8b8de17b5a",
    "cc_sp": "d66e5b1433390eb46edf25728fc5c52e1dc12a5eeffd2ac5f03459402aab1429",
    "rank_sp": "fdb48285fa64aca6e7f2d3d17e88912dd62fb402f28d1a82cc863d0731b81bc1",
}

# The same digests at scale 0.1, for the four largest trace-gen runs.
SCALE_01_PINS = {
    "wc_sp": (
        "ef881eed9179ad448e84e66cfdd066425e8000efd8887847b4595105436478eb",
        494082, 666160, 470425,
    ),
    "wc_hp": (
        "12aa24642a26fd3ea51c66ece300cd35e80611d1c8ee0f0dcdf11996e89dd7f8",
        494082, 666160, 470425,
    ),
    "sort_hp": (
        "79e2dd4ab335416f25299b3354143e9187594db5c2be98eccbc4eba018c0155f",
        464946, 976412, 521866,
    ),
    "cc_sp": (
        "9b85dcf4abb2d41dccfb4ce5ba1c0c4b0822a62b2a6fd9640dd1da7d6abb80c2",
        0, 99794, 8525624,
    ),
}

_FRAMEWORKS = {"hp": "hadoop", "sp": "spark"}


def _fingerprint(job) -> tuple[str, int, int, int]:
    h = hashlib.sha256()
    for t in job.traces:
        h.update(f"{t.thread_id}:{t.core_id}:{t.start_cycle}:".encode())
        h.update(t.to_structured().tobytes())
    return (
        h.hexdigest(),
        job.meta["hdfs_bytes_read"],
        job.meta["hdfs_bytes_written"],
        job.meta["shuffle_bytes"],
    )


@pytest.mark.parametrize("workload, framework", all_label_pairs())
def test_fig7_traces_match_pins(workload, framework):
    label = label_of(workload, framework)
    job = run_workload(workload, framework, scale=0.01, seed=0)
    assert _fingerprint(job) == FIG7_PINS[label]
    profile = profile_trace(job, ProfilerConfig(seed=0))
    assert profile.content_digest() == PROFILE_PINS[label]


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(SCALE_01_PINS))
def test_scale_01_traces_match_pins(label):
    workload, suffix = label.split("_")
    job = run_workload(workload, _FRAMEWORKS[suffix], scale=0.1, seed=0)
    assert _fingerprint(job) == SCALE_01_PINS[label]
