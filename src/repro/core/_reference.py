"""Pre-fast-path reference implementations of the core hot paths.

These are the straightforward per-loop versions the optimised code in
:mod:`repro.core.clustering`, :mod:`repro.core.features`, and
:mod:`repro.core.profiler` replaced: a per-stack scatter-add
featurizer, a per-cluster-loop silhouette that recomputes its distance
block for every evaluation, a Lloyd loop with no fixed-point early
exit, a serial k-sweep that refits k-means for the chosen k, the
per-segment streaming unit cutter, a stratified sampler that masks
the units once per phase and statistic, and a feature selector that
asks scipy for every F-critical value.  They are kept for two reasons:

* **parity** — the property tests assert the fast path produces
  bit-identical feature matrices and phase selections (and
  ``allclose``-equal silhouette scores, whose summation order changed);
* **benchmarking** — ``benchmarks/bench_phase_perf.py`` times fast vs
  reference on identical inputs to report the speedup.

Nothing here is exported from :mod:`repro.core`; production code must
not import this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import KMeansResult, _kmeanspp_init, _pairwise_sq_dists
from repro.core.features import _f_critical, univariate_regression_scores
from repro.core.profiler import ProfilerConfig
from repro.core.sampling import (
    StratifiedEstimate,
    optimal_allocation,
    stratified_standard_error,
)
from repro.core.units import JobProfile, SamplingUnit
from repro.jvm.threads import TraceSegment

__all__ = [
    "reference_build_feature_matrix",
    "reference_select_features",
    "reference_silhouette_score",
    "reference_kmeans",
    "reference_choose_k",
    "reference_stratified_sample",
    "ReferenceUnitCutter",
]


class ReferenceUnitCutter:
    """The pre-columnar per-segment unit cutter (the parity oracle).

    The scalar incremental cutter the columnar
    :class:`repro.core.profiler._UnitCutter` replaced, preserved
    verbatim: one :meth:`feed` call per :class:`TraceSegment` object,
    running float64 ``+=`` counters, one lazy RNG draw per poll gap,
    and per-boundary two-point ``np.interp`` calls.  The columnar
    parity suite feeds both cutters identical streams and asserts
    bit-identical units.
    """

    __slots__ = (
        "thread_id",
        "_cfg",
        "total",
        "_cum_i",
        "_cum_c",
        "_cum_l1",
        "_cum_llc",
        "_prev_b",
        "_prev_c",
        "_prev_l1",
        "_prev_llc",
        "_next_boundary",
        "_rng",
        "_first",
        "_gap_sum",
        "_point_int",
        "_counts",
    )

    def __init__(self, thread_id: int, cfg: ProfilerConfig) -> None:
        self.thread_id = thread_id
        self._cfg = cfg
        self.total = 0  # integer instruction counter (the JVMTI clock)
        self._cum_i = 0.0  # float64 cumulative counters (the perf columns)
        self._cum_c = 0.0
        self._cum_l1 = 0.0
        self._cum_llc = 0.0
        # Counter values interpolated at the last processed boundary.
        self._prev_b = 0
        self._prev_c = 0.0
        self._prev_l1 = 0.0
        self._prev_llc = 0.0
        # Boundary 0 goes through the same deferred machinery so a
        # zero-instruction prefix folds into its left endpoint exactly
        # as np.interp's last-duplicate rule would have it.
        self._next_boundary = 0
        # Poll timer state: the first poll fires one period in, each
        # later one period * U(1 - jitter, 1 + jitter) after the last.
        self._first = cfg.snapshot_period
        if cfg.snapshot_jitter == 0.0:
            self._rng = None
            self._gap_sum = 0.0
        else:
            self._rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, thread_id & 0x7FFFFFFF])
            )
            self._gap_sum = 0.0
        self._point_int = self._first
        # unit index -> {stack_id: count}; only units whose closing
        # boundary has not streamed past yet are resident.
        self._counts: dict[int, dict[int, int]] = {}

    def _advance_point(self) -> None:
        if self._rng is None:
            self._point_int += self._cfg.snapshot_period
            return
        cfg = self._cfg
        # One lazy draw per gap: scalar uniform() calls consume the
        # PCG64 stream exactly like the columnar cutter's chunked
        # uniform(size=n) draws, element for element.
        gap = cfg.snapshot_period * self._rng.uniform(
            1.0 - cfg.snapshot_jitter, 1.0 + cfg.snapshot_jitter
        )
        self._gap_sum += gap
        self._point_int = int(float(self._first) + self._gap_sum)

    def _emit_unit(
        self, b: int, c_b: float, l1_b: float, llc_b: float
    ) -> SamplingUnit:
        unit_size = self._cfg.unit_size
        index = b // unit_size - 1
        counts = self._counts.pop(index, None)
        if counts:
            items = sorted(counts.items())
            ids = np.array([k for k, _ in items], dtype=np.int64)
            cnt = np.array([v for _, v in items], dtype=np.int64)
        else:
            ids = np.array([], dtype=np.int64)
            cnt = np.array([], dtype=np.int64)
        unit = SamplingUnit(
            index=index,
            stack_ids=ids,
            stack_counts=cnt,
            instructions=float(b) - float(self._prev_b),
            cycles=c_b - self._prev_c,
            l1d_misses=l1_b - self._prev_l1,
            llc_misses=llc_b - self._prev_llc,
        )
        self._prev_b = b
        self._prev_c = c_b
        self._prev_l1 = l1_b
        self._prev_llc = llc_b
        self._next_boundary = b + unit_size
        return unit

    def feed(self, seg: TraceSegment) -> list[SamplingUnit]:
        """Account one segment; return any units it completed."""
        cfg = self._cfg
        x0 = self._cum_i
        c0 = self._cum_c
        l10 = self._cum_l1
        llc0 = self._cum_llc
        self._cum_i += float(seg.instructions)
        self._cum_c += float(seg.cycles)
        self._cum_l1 += float(seg.l1d_misses)
        self._cum_llc += float(seg.llc_misses)
        total_new = self.total + seg.instructions
        self.total = total_new

        # Snapshots landing in this segment: consume-when-passed.
        point = self._point_int
        if point < total_new:
            stack_id = seg.stack_id
            unit_size = cfg.unit_size
            while point < total_new:
                bucket = self._counts.setdefault(point // unit_size, {})
                bucket[stack_id] = bucket.get(stack_id, 0) + 1
                self._advance_point()
                point = self._point_int

        if total_new <= self._next_boundary:
            return []
        # Unit boundaries this segment streamed past.  np.interp over
        # the segment's own two-point window matches the global call.
        x1 = self._cum_i
        out: list[SamplingUnit] = []
        while total_new > self._next_boundary:
            b = self._next_boundary
            fb = float(b)
            xw = (x0, x1)
            c_b = float(np.interp(fb, xw, (c0, self._cum_c)))
            l1_b = float(np.interp(fb, xw, (l10, self._cum_l1)))
            llc_b = float(np.interp(fb, xw, (llc0, self._cum_llc)))
            if b == 0:
                # Boundary 0 opens the first unit; it emits nothing.
                self._prev_c = c_b
                self._prev_l1 = l1_b
                self._prev_llc = llc_b
                self._next_boundary = cfg.unit_size
            else:
                out.append(self._emit_unit(b, c_b, l1_b, llc_b))
        return out

    def flush(self) -> list[SamplingUnit]:
        """Emit a boundary sitting exactly on the final total, if any."""
        out: list[SamplingUnit] = []
        if self.total > 0 and self._next_boundary == self.total:
            # Exact-multiple trace: global interpolation at the last
            # abscissa returns the final cumulative values.
            out.append(
                self._emit_unit(
                    self._next_boundary, self._cum_c, self._cum_l1, self._cum_llc
                )
            )
        self._counts.clear()  # trailing partial unit is dropped
        return out


def reference_build_feature_matrix(
    job: JobProfile, *, normalize: bool = True
) -> np.ndarray:
    """Per-unit, per-stack loop featurizer (the pre-fast-path version)."""
    n_methods = len(job.registry)
    units = job.profile.units
    X = np.zeros((len(units), n_methods), dtype=np.float64)
    frames_cache: dict[int, np.ndarray] = {}
    table = job.stack_table
    for i, unit in enumerate(units):
        row = X[i]
        for sid, count in zip(unit.stack_ids, unit.stack_counts):
            frames = frames_cache.get(int(sid))
            if frames is None:
                frames = np.fromiter(table.frames_of(int(sid)), dtype=np.intp)
                frames_cache[int(sid)] = frames
            np.add.at(row, frames, float(count))
        if normalize:
            total = row.sum()
            if total > 0:
                row /= total
    return X


def reference_select_features(
    X: np.ndarray,
    ipc: np.ndarray,
    top_k: int = 100,
    significance: float = 0.01,
    mean_appearances: np.ndarray | None = None,
    min_appearances: float = 0.5,
    min_r2: float = 0.10,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature selection with scipy's critical value for every call."""
    n, n_features = X.shape
    scores = univariate_regression_scores(X, ipc)
    if n_features == 0 or n < 3:
        return np.empty(0, dtype=np.intp), scores
    f_crit = _f_critical(min(1.0, significance / n_features), max(1, n - 2))
    f_floor = min_r2 / (1.0 - min_r2) * (n - 2)
    eligible = scores > max(f_crit, f_floor)
    if mean_appearances is not None:
        eligible &= mean_appearances >= min_appearances
    passing = np.nonzero(eligible)[0]
    order = np.argsort(-scores[passing], kind="stable")
    chosen = passing[order[:top_k]]
    return np.sort(chosen), scores


def reference_silhouette_score(
    X: np.ndarray,
    assignments: np.ndarray,
    *,
    max_points: int = 3000,
    seed: int = 0,
) -> float:
    """Per-cluster-loop silhouette; rebuilds its distances every call."""
    n = len(X)
    labels = np.unique(assignments)
    if len(labels) < 2 or n < 3:
        return 0.0
    if n > max_points:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=max_points, replace=False))
    else:
        idx = np.arange(n)

    sizes = {int(lab): int((assignments == lab).sum()) for lab in labels}
    mean_d = np.empty((len(idx), len(labels)))
    for j, lab in enumerate(labels):
        members = X[assignments == lab]
        d = np.sqrt(_pairwise_sq_dists(X[idx], members))
        mean_d[:, j] = d.mean(axis=1)

    label_pos = {int(lab): j for j, lab in enumerate(labels)}
    s = np.zeros(len(idx))
    for i, point in enumerate(idx):
        own = int(assignments[point])
        j_own = label_pos[own]
        size_own = sizes[own]
        if size_own <= 1:
            s[i] = 0.0
            continue
        a = mean_d[i, j_own] * size_own / (size_own - 1)
        b = np.min(np.delete(mean_d[i], j_own))
        denom = max(a, b)
        s[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(s.mean())


def reference_kmeans(
    X: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_init: int = 4,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> KMeansResult:
    """Lloyd's loop without the fixed-point early exit or shared norms."""
    if k <= 0:
        raise ValueError("k must be positive")
    n = len(X)
    if n == 0:
        raise ValueError("cannot cluster zero points")
    k = min(k, n)
    rng = np.random.default_rng(seed)

    best: KMeansResult | None = None
    for _run in range(n_init):
        centers = _kmeanspp_init(X, k, rng)
        assignments = np.zeros(n, dtype=np.int64)
        prev_inertia = np.inf
        for _it in range(max_iter):
            dists = _pairwise_sq_dists(X, centers)
            assignments = dists.argmin(axis=1)
            inertia = float(dists[np.arange(n), assignments].sum())
            for j in range(k):
                members = assignments == j
                if members.any():
                    centers[j] = X[members].mean(axis=0)
                else:
                    farthest = int(dists[np.arange(n), assignments].argmax())
                    centers[j] = X[farthest]
            if prev_inertia - inertia <= tol * max(prev_inertia, 1.0):
                break
            prev_inertia = inertia
        dists = _pairwise_sq_dists(X, centers)
        assignments = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), assignments].sum())
        if best is None or inertia < best.inertia:
            best = KMeansResult(centers.copy(), assignments, inertia)
    assert best is not None
    return best


def reference_choose_k(
    X: np.ndarray,
    *,
    k_max: int = 20,
    score_threshold: float = 0.9,
    min_structure: float = 0.40,
    seed: int = 0,
) -> tuple[int, dict[int, float], KMeansResult | None]:
    """Serial sweep with per-k distance rebuilds; refits the winner.

    Returns ``(k, scores_by_k, refit_result)`` so callers can compare
    the refitted model against the fast path's reused sweep result.
    """
    n = len(X)
    if n < 3 or np.allclose(X, X[0]):
        return 1, {1: 0.0}, None
    scores: dict[int, float] = {}
    results: dict[int, KMeansResult] = {}
    k_cap = min(k_max, n - 1)
    for k in range(2, k_cap + 1):
        result = reference_kmeans(X, k, seed=seed)
        results[k] = result
        if len(np.unique(result.assignments)) < 2:
            scores[k] = 0.0
            continue
        scores[k] = reference_silhouette_score(X, result.assignments, seed=seed)
    if not scores:
        return 1, {1: 0.0}, None
    best = max(scores.values())
    if best < min_structure:
        return 1, scores, None
    cutoff = score_threshold * best
    for k in sorted(scores):
        if scores[k] >= cutoff:
            # The pre-fast-path pipeline refit k-means for the chosen k
            # (a bit-identical recomputation the fast path now skips).
            return k, scores, reference_kmeans(X, k, seed=seed)
    k = max(scores, key=scores.get)
    return k, scores, reference_kmeans(X, k, seed=seed)


def reference_stratified_sample(
    assignments: np.ndarray,
    cpi: np.ndarray,
    n: int,
    *,
    rng: np.random.Generator | None = None,
    k: int | None = None,
) -> StratifiedEstimate:
    """Per-phase boolean masks for N_h, s_h and the members (three each)."""
    if rng is None:
        rng = np.random.default_rng(0)
    if len(assignments) != len(cpi):
        raise ValueError("assignments and cpi disagree on unit count")
    k = k if k is not None else int(assignments.max()) + 1
    N_h = np.array(
        [(assignments == h).sum() for h in range(k)], dtype=np.int64
    )
    s_h = np.array(
        [
            cpi[assignments == h].std(ddof=1) if N_h[h] > 1 else 0.0
            for h in range(k)
        ]
    )
    alloc = optimal_allocation(N_h, s_h, n)

    selected: list[int] = []
    means = np.zeros(k)
    sample_stds = np.zeros(k)
    for h in range(k):
        if alloc[h] == 0:
            continue
        members = np.nonzero(assignments == h)[0]
        chosen = rng.choice(members, size=int(alloc[h]), replace=False)
        selected.extend(int(c) for c in chosen)
        vals = cpi[chosen]
        means[h] = vals.mean()
        sample_stds[h] = vals.std(ddof=1) if len(vals) > 1 else 0.0

    N = N_h.sum()
    estimate = float((N_h / N) @ means)
    se = stratified_standard_error(N_h, alloc, s_h)
    return StratifiedEstimate(
        selected=np.array(sorted(selected), dtype=np.int64),
        allocation=alloc,
        stratum_sizes=N_h,
        estimate=estimate,
        standard_error=se,
    )
