"""Phase-formation fast-path benchmark: fast vs pre-fast-path reference.

Sweeps the unit count n from 10² to 10⁵ (10⁴ in ``--quick`` mode) over
a deterministic synthetic profile with planted phase structure, and for
every n times the three phase-formation stages twice — once through the
optimised fast path and once through the
:mod:`repro.core._reference` implementations it replaced:

* ``featurize`` — matrix assembly (one batched scatter-add vs the
  per-unit/per-stack Python loop);
* ``select``    — feature selection (shared, unchanged code: timed once
  and charged to both sides);
* ``sweep``     — the silhouette k-sweep (one shared
  ``SilhouetteDistances`` build + sweep-result reuse vs per-k distance
  rebuilds + a refit of the winning k).

Every scale asserts the fast path's output is *bit-identical* to the
reference: same feature-matrix bytes, same chosen k, same assignment
and centre bytes (silhouette scores are ``allclose`` — their summation
order changed).

Writes ``BENCH_phase.json`` with wall-clock seconds and peak traced
memory (tracemalloc, KiB) per stage plus the process peak RSS.  Run as
a script, not under pytest::

    PYTHONPATH=src python benchmarks/bench_phase_perf.py --quick

``--check-baseline`` compares the fast end-to-end wall-clock at
n = 10⁴ against ``benchmarks/baselines/phase_perf_baseline.json`` and
exits non-zero on a > 2x regression (the CI ``phase-perf-smoke`` gate).

``--scale`` additionally benchmarks the stages that scale to a
10⁶-unit job — featurize (fast vs reference, bit-parity asserted) and
select — at n = 10⁶.  The silhouette sweep is deliberately excluded
there: even the subsampled estimator holds a ``max_points x n``
distance matrix, which at n = 10⁶ is ~24 GB.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core._reference import (
    reference_build_feature_matrix,
    reference_choose_k,
)
from repro.core.clustering import select_phases
from repro.core.features import build_feature_matrix, select_features
from repro.core.units import JobProfile, SamplingUnit, ThreadProfile
from repro.jvm.machine import MachineConfig
from repro.jvm.methods import CallStack, MethodRegistry, StackTable

SEED = 0
TOP_K = 100
K_MAX = 20
QUICK_NS = (100, 1_000, 10_000)
FULL_NS = (100, 1_000, 10_000, 100_000)
SCALE_N = 1_000_000
BASELINE_N = 10_000
BASELINE_PATH = Path(__file__).parent / "baselines" / "phase_perf_baseline.json"
REGRESSION_FACTOR = 2.0

UNIT_SIZE = 1_000_000
SNAPSHOTS_PER_UNIT = 50
N_GROUPS = 5
OPS_PER_GROUP = 8
STACKS_PER_GROUP = 10
STACKS_PER_UNIT = 6


def make_job(n_units: int, *, seed: int = SEED) -> JobProfile:
    """Synthetic profile with ``N_GROUPS`` planted phases.

    Deterministic under ``seed``: each unit draws its stacks from its
    group's stack pool and its CPI from a group-specific band, so the
    group methods correlate with IPC and survive feature selection.
    """
    rng = np.random.default_rng(seed)
    registry = MethodRegistry()
    table = StackTable(registry)
    root = registry.intern("bench.Executor", "run")
    task = registry.intern("bench.Task", "invoke")
    shared_ops = [registry.intern("bench.Shared", f"util{i}") for i in range(4)]
    group_stacks: list[list[int]] = []
    for g in range(N_GROUPS):
        ops = [
            registry.intern(f"bench.Group{g}", f"op{i}")
            for i in range(OPS_PER_GROUP)
        ]
        sids = []
        for s in range(STACKS_PER_GROUP):
            frames = [root, task, shared_ops[s % len(shared_ops)]]
            for d in range(2 + s % 4):
                frames.append(ops[(s + d) % OPS_PER_GROUP])
            sids.append(table.intern(CallStack(tuple(frames))))
        group_stacks.append(sids)

    units: list[SamplingUnit] = []
    for i in range(n_units):
        g = int(rng.integers(0, N_GROUPS))
        pool = group_stacks[g]
        picked = rng.choice(len(pool), size=STACKS_PER_UNIT, replace=False)
        sids = np.sort(np.array([pool[c] for c in picked], dtype=np.int64))
        counts = rng.multinomial(
            SNAPSHOTS_PER_UNIT, np.full(len(sids), 1.0 / len(sids))
        ).astype(np.float64)
        cpi = max(0.05, 0.5 + 0.3 * g + float(rng.normal(0.0, 0.02)))
        units.append(
            SamplingUnit(
                index=i,
                stack_ids=sids,
                stack_counts=counts,
                instructions=float(UNIT_SIZE),
                cycles=float(UNIT_SIZE) * cpi,
                l1d_misses=UNIT_SIZE / 100,
                llc_misses=UNIT_SIZE / 1000,
            )
        )
    profile = ThreadProfile(
        thread_id=0,
        unit_size=UNIT_SIZE,
        snapshot_period=UNIT_SIZE // SNAPSHOTS_PER_UNIT,
        units=units,
    )
    return JobProfile(
        workload="phasebench",
        framework="spark",
        input_name=f"n{n_units}",
        profile=profile,
        registry=registry,
        stack_table=table,
        machine=MachineConfig(),
    )


def timed(fn):
    """(result, wall-clock seconds, tracemalloc peak KiB) of ``fn()``."""
    tracemalloc.start()
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return out, elapsed, peak / 1024.0


def run_scale(n: int) -> dict:
    """Benchmark one unit count; returns the JSON row (parity asserted)."""
    job = make_job(n)

    Xf, t_fast_feat, m_fast_feat = timed(lambda: build_feature_matrix(job))
    Xr, t_ref_feat, m_ref_feat = timed(
        lambda: reference_build_feature_matrix(job)
    )
    features_bitwise = Xf.dtype == Xr.dtype and np.array_equal(Xf, Xr)
    assert features_bitwise, f"feature matrices diverge at n={n}"

    ipc = job.profile.ipc()
    (ids, _scores), t_select, m_select = timed(
        lambda: select_features(Xf, ipc, top_k=TOP_K)
    )
    X_sel = np.ascontiguousarray(Xf[:, ids])

    fast, t_fast_sweep, m_fast_sweep = timed(
        lambda: select_phases(X_sel, k_max=K_MAX, seed=SEED)
    )
    ref, t_ref_sweep, m_ref_sweep = timed(
        lambda: reference_choose_k(X_sel, k_max=K_MAX, seed=SEED)
    )
    k_fast, scores_fast, result_fast = fast
    k_ref, scores_ref, result_ref = ref

    assert k_fast == k_ref, f"phase count diverges at n={n}: {k_fast} != {k_ref}"
    assert sorted(scores_fast) == sorted(scores_ref)
    assert all(
        np.isclose(scores_fast[k], scores_ref[k], rtol=1e-9, atol=1e-12)
        for k in sorted(scores_fast)
    ), f"silhouette scores diverge at n={n}"
    if result_fast is None or result_ref is None:
        assignments_bitwise = centers_bitwise = (
            result_fast is None and result_ref is None
        )
    else:
        assignments_bitwise = np.array_equal(
            result_fast.assignments, result_ref.assignments
        )
        centers_bitwise = np.array_equal(
            result_fast.centers, result_ref.centers
        )
    assert assignments_bitwise, f"assignments diverge at n={n}"
    assert centers_bitwise, f"centres diverge at n={n}"

    fast_total = t_fast_feat + t_select + t_fast_sweep
    ref_total = t_ref_feat + t_select + t_ref_sweep
    return {
        "n": n,
        "d_selected": int(len(ids)),
        "k": k_fast,
        "stages": {
            "featurize": {
                "fast_s": round(t_fast_feat, 4),
                "ref_s": round(t_ref_feat, 4),
                "fast_peak_kib": round(m_fast_feat, 1),
                "ref_peak_kib": round(m_ref_feat, 1),
            },
            "select": {
                "shared_s": round(t_select, 4),
                "peak_kib": round(m_select, 1),
            },
            "sweep": {
                "fast_s": round(t_fast_sweep, 4),
                "ref_s": round(t_ref_sweep, 4),
                "fast_peak_kib": round(m_fast_sweep, 1),
                "ref_peak_kib": round(m_ref_sweep, 1),
            },
        },
        "fast_total_s": round(fast_total, 4),
        "ref_total_s": round(ref_total, 4),
        "speedup": round(ref_total / fast_total, 2) if fast_total > 0 else None,
        "parity": {
            "features_bitwise": features_bitwise,
            "k_equal": k_fast == k_ref,
            "assignments_bitwise": assignments_bitwise,
            "centers_bitwise": centers_bitwise,
            "scores_allclose": True,
        },
    }


def run_featurize_scale(n: int = SCALE_N) -> dict:
    """Featurize + select at the 10⁶-unit scale (sweep excluded).

    The columnar trace plane feeds this stage, so it is the one held to
    the full job length; parity with the reference featurizer stays
    bit-exact even here.
    """
    job = make_job(n)
    Xf, t_fast, m_fast = timed(lambda: build_feature_matrix(job))
    Xr, t_ref, m_ref = timed(lambda: reference_build_feature_matrix(job))
    assert Xf.dtype == Xr.dtype and np.array_equal(
        Xf, Xr
    ), f"feature matrices diverge at n={n}"
    del Xr
    ipc = job.profile.ipc()
    (ids, _scores), t_select, m_select = timed(
        lambda: select_features(Xf, ipc, top_k=TOP_K)
    )
    return {
        "n": n,
        "d_selected": int(len(ids)),
        "featurize": {
            "fast_s": round(t_fast, 4),
            "ref_s": round(t_ref, 4),
            "fast_peak_kib": round(m_fast, 1),
            "ref_peak_kib": round(m_ref, 1),
            "speedup": round(t_ref / t_fast, 2) if t_fast > 0 else None,
        },
        "select": {"shared_s": round(t_select, 4), "peak_kib": round(m_select, 1)},
        "sweep": None,  # max_points x n distances: infeasible at this n
        "parity": {"features_bitwise": True},
    }


def check_baseline(rows: list[dict]) -> int:
    """Exit status of the >2x regression gate at n = BASELINE_N."""
    row = next((r for r in rows if r["n"] == BASELINE_N), None)
    if row is None:
        print(f"baseline check skipped: n={BASELINE_N} not in sweep")
        return 0
    if not BASELINE_PATH.exists():
        print(f"baseline check skipped: {BASELINE_PATH} missing")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    allowed = baseline["fast_total_s"] * REGRESSION_FACTOR
    actual = row["fast_total_s"]
    if actual > allowed:
        print(
            f"REGRESSION: fast phase formation at n={BASELINE_N} took "
            f"{actual:.2f}s > {REGRESSION_FACTOR:.0f}x baseline "
            f"({baseline['fast_total_s']:.2f}s)"
        )
        return 1
    print(
        f"baseline ok: {actual:.2f}s <= {REGRESSION_FACTOR:.0f}x "
        f"{baseline['fast_total_s']:.2f}s at n={BASELINE_N}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="stop the sweep at n=10^4"
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help=f"fail on >{REGRESSION_FACTOR:.0f}x regression at n={BASELINE_N}",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help=f"also benchmark featurize + select at n={SCALE_N} (no sweep)",
    )
    parser.add_argument("--out", default="BENCH_phase.json")
    args = parser.parse_args(argv)

    ns = QUICK_NS if args.quick else FULL_NS
    rows = []
    for n in ns:
        row = run_scale(n)
        rows.append(row)
        print(
            f"n={n:>6}: fast {row['fast_total_s']:>8.3f}s | "
            f"ref {row['ref_total_s']:>8.3f}s | "
            f"speedup {row['speedup']:>5.1f}x | k={row['k']} "
            f"(d={row['d_selected']})"
        )

    scale_row = None
    if args.scale:
        scale_row = run_featurize_scale()
        feat = scale_row["featurize"]
        print(
            f"n={scale_row['n']:>7} (featurize only): "
            f"fast {feat['fast_s']:>8.3f}s | ref {feat['ref_s']:>8.3f}s | "
            f"speedup {feat['speedup']:>5.1f}x (d={scale_row['d_selected']})"
        )

    payload = {
        "benchmark": "phase-formation-fast-path",
        "quick": args.quick,
        "scale": scale_row,
        "seed": SEED,
        "k_max": K_MAX,
        "top_k": TOP_K,
        "generator": {
            "groups": N_GROUPS,
            "stacks_per_unit": STACKS_PER_UNIT,
            "snapshots_per_unit": SNAPSHOTS_PER_UNIT,
        },
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sweep": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")

    if args.check_baseline:
        return check_baseline(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
