"""Benchmark-harness fixtures.

Each ``bench_*`` module regenerates one paper table/figure at full
scale, prints the rows/series the paper reports (run with ``-s`` to see
them; the printed output is the reproduction artifact), and times a
representative computational kernel with pytest-benchmark.

Workload profiles flow through the :mod:`repro.runtime` engine: the
first benchmark session pays the simulation cost once and every later
session (or later figure in the same session) reuses the cached
artifacts.  Set ``SIMPROF_JOBS`` to fan the cache misses out over a
process pool.  The session summary prints the store's hit/miss
counters so cross-figure reuse is visible.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig
from repro.runtime.provenance import provenance_stats
from repro.runtime.store import default_store


@pytest.fixture(scope="session")
def full_cfg() -> ExperimentConfig:
    """Full-scale configuration (the paper's setup)."""
    return ExperimentConfig()


@pytest.fixture(scope="session", autouse=True)
def cache_session_report():
    """Print artifact-store traffic for the session (visible under -s)."""
    store = default_store()
    yield
    stats = store.stats
    reuse = provenance_stats(store)
    emit(
        "Artifact store",
        f"session: {stats.memory_hits} memory hits, {stats.disk_hits} disk "
        f"hits, {stats.misses} misses, {stats.puts} writes\n"
        f"lifetime node reuse: {reuse['hits']} hit(s) / {reuse['misses']} "
        f"miss(es) over {reuse['runs']} graph run(s) ({store.root})",
    )


def emit(title: str, text: str) -> None:
    """Print a figure table with a separator (shown under ``-s``)."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}\n")
