"""Stratified random sampling with optimal allocation (Section III-C).

Given phases (strata) with sizes ``N_h`` and CPI standard deviations
``σ_h``, SimProf allocates a total sample of ``n`` simulation points as

    n_h = n · (N_h σ_h) / Σ_i (N_i σ_i)                      (Eq. 1)

then draws a simple random sample inside each phase.  The stratified
estimator of the mean CPI is ``Σ_h (N_h/N) ȳ_h`` with standard error

    SE = (1/N) sqrt( Σ_h N_h² (1 − n_h/N_h) s_h² / n_h )     (Eq. 4)

and the confidence interval ``ȳ ± z · SE`` (Eqs. 2–3).  The sample-size
solver inverts the same formula for a target relative error, which is
how the Figure 8 sample sizes are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.runtime.instrument import stage_timer

__all__ = [
    "optimal_allocation",
    "phase_sample_size",
    "select_points",
    "stratified_sample",
    "stratified_standard_error",
    "required_sample_size",
    "StratifiedEstimate",
    "z_for_confidence",
]


#: ``z_for_confidence`` of the levels the program uses: the exact
#: floats ``scipy.special.ndtri(0.5 + c / 2)`` returns, so a warm run
#: never imports scipy.  (``statistics.NormalDist.inv_cdf`` differs in
#: the last ulp.)
_Z_TABLE = {0.997: 2.9677379253417717}


def z_for_confidence(confidence: float) -> float:
    """Two-sided normal z-score for a confidence level (0.997 → ≈3)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = _Z_TABLE.get(confidence)
    if z is not None:
        return z
    # ndtri is the standard-normal quantile that ``scipy.stats.norm.ppf``
    # evaluates, without importing ``scipy.stats``.
    from scipy import special

    return float(special.ndtri(0.5 + confidence / 2.0))


def optimal_allocation(
    stratum_sizes: np.ndarray, stratum_stds: np.ndarray, n: int
) -> np.ndarray:
    """Eq. 1: Neyman allocation of ``n`` points over the strata.

    Refinements a usable implementation needs on top of the formula:

    * at least one point per non-empty stratum (the stratified mean is
      undefined for an unsampled stratum),
    * no more points than a stratum has units (sampling is without
      replacement),
    * all-zero variances fall back to proportional allocation,
    * integer rounding by largest remainder.
    """
    N_h = np.asarray(stratum_sizes, dtype=np.float64)
    s_h = np.asarray(stratum_stds, dtype=np.float64)
    if len(N_h) != len(s_h):
        raise ValueError("sizes and stds disagree on stratum count")
    if np.any(N_h < 0) or np.any(s_h < 0):
        raise ValueError("sizes and stds must be non-negative")
    nonempty = N_h > 0
    n_min = int(nonempty.sum())
    if n < n_min:
        raise ValueError(
            f"sample size {n} cannot cover {n_min} non-empty strata"
        )
    n = min(n, int(N_h.sum()))

    weights = N_h * s_h
    if weights.sum() <= 0:
        weights = N_h.astype(np.float64)
    weights = np.where(nonempty, weights, 0.0)

    alloc = np.where(nonempty, 1.0, 0.0)  # the minimum-one floor
    remaining = n - alloc.sum()
    # Distribute the remainder by Neyman weights, respecting caps, in a
    # few passes (each pass re-normalises over uncapped strata).
    for _pass in range(len(N_h) + 1):
        if remaining <= 0:
            break
        room = np.maximum(N_h - alloc, 0.0)
        w = np.where(room > 0, weights, 0.0)
        if w.sum() <= 0:
            w = np.where(room > 0, room, 0.0)
            if w.sum() <= 0:
                break
        share = np.minimum(remaining * w / w.sum(), room)
        # Largest-remainder integerisation of this pass's share.
        floor = np.floor(share)
        leftover = int(round(min(remaining, share.sum()) - floor.sum()))
        frac_order = np.argsort(-(share - floor), kind="stable")
        add = floor.copy()
        for idx in frac_order[:max(0, leftover)]:
            if add[idx] < room[idx]:
                add[idx] += 1
        alloc += add
        remaining = n - alloc.sum()
        if add.sum() == 0:
            break
    return alloc.astype(np.int64)


def multimetric_allocation(
    stratum_sizes: np.ndarray,
    stratum_stds_per_metric: np.ndarray,
    metric_means: np.ndarray,
    n: int,
) -> np.ndarray:
    """Allocation that bounds the *worst* metric's relative error.

    Single-metric Neyman allocation (Eq. 1) optimises one variance; a
    sample tuned for CPI can leave a second counter (e.g. LLC MPKI)
    poorly estimated when its variance sits in different strata.  This
    greedy marginal allocation starts from one point per non-empty
    stratum and repeatedly gives the next point to the stratum that
    most reduces the currently-worst metric's relative standard error —
    a minimax version of optimal allocation.

    Parameters
    ----------
    stratum_sizes:
        ``N_h`` per stratum.
    stratum_stds_per_metric:
        Array of shape ``(n_metrics, n_strata)``: ``σ`` of each metric
        within each stratum.
    metric_means:
        Population mean per metric (normalises the errors so metrics on
        different scales are comparable).
    n:
        Total sample size.
    """
    N_h = np.asarray(stratum_sizes, dtype=np.float64)
    stds = np.atleast_2d(np.asarray(stratum_stds_per_metric, dtype=np.float64))
    means = np.asarray(metric_means, dtype=np.float64)
    if stds.shape[1] != len(N_h):
        raise ValueError("stds and sizes disagree on stratum count")
    if len(means) != len(stds):
        raise ValueError("means and stds disagree on metric count")
    if np.any(means <= 0):
        raise ValueError("metric means must be positive for normalisation")
    nonempty = N_h > 0
    n_min = int(nonempty.sum())
    if n < n_min:
        raise ValueError(f"sample size {n} cannot cover {n_min} strata")
    n = min(n, int(N_h.sum()))

    alloc = np.where(nonempty, 1.0, 0.0)
    N = N_h.sum()

    def rel_variances(a: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(
                a > 0,
                N_h**2 * (1.0 - a / np.maximum(N_h, 1.0))
                * stds**2 / np.maximum(a, 1.0),
                0.0,
            )
        return terms.sum(axis=1) / (N**2 * means**2)

    for _ in range(int(n - alloc.sum())):
        current = rel_variances(alloc)
        worst = int(np.argmax(current))
        # Marginal gain of one more point in each stratum, for the
        # worst metric.
        room = (alloc < N_h) & nonempty
        if not room.any():
            break
        gains = np.full(len(N_h), -np.inf)
        for h in np.nonzero(room)[0]:
            trial = alloc.copy()
            trial[h] += 1
            gains[h] = current[worst] - rel_variances(trial)[worst]
        alloc[int(np.argmax(gains))] += 1
    return alloc.astype(np.int64)


def stratified_standard_error(
    stratum_sizes: np.ndarray,
    sample_sizes: np.ndarray,
    sample_stds: np.ndarray,
) -> float:
    """Eq. 4: SE of the stratified mean (with finite-population term).

    Each sampled stratum adds N_h²(1 − n_h/N_h)s_h²/n_h; strata with no
    sample add nothing.  A stratum with one sample is no exception: it
    adds N_h²(1 − 1/N_h)s_h², zero only when it is fully sampled
    (N_h = 1).  One sample cannot estimate s_h, so the formula needs it
    from outside: the paper takes s_h from the profiled CPIs, and
    callers pass population stds.
    """
    N_h = np.asarray(stratum_sizes, dtype=np.float64)
    n_h = np.asarray(sample_sizes, dtype=np.float64)
    s_h = np.asarray(sample_stds, dtype=np.float64)
    if not len(N_h) == len(n_h) == len(s_h):
        raise ValueError("sizes, sample sizes and stds disagree on stratum count")
    N = N_h.sum()
    if N <= 0:
        raise ValueError("empty population")
    mask = n_h > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            mask,
            N_h**2 * (1.0 - n_h / np.maximum(N_h, 1.0)) * s_h**2 / np.maximum(n_h, 1.0),
            0.0,
        )
    return float(np.sqrt(terms.sum()) / N)


@dataclass(frozen=True)
class StratifiedEstimate:
    """A drawn sample and its stratified estimator."""

    selected: np.ndarray  # unit indices (the simulation points)
    allocation: np.ndarray  # n_h per phase
    stratum_sizes: np.ndarray
    estimate: float  # stratified mean CPI
    standard_error: float

    @property
    def sample_size(self) -> int:
        """Total number of simulation points."""
        return int(self.allocation.sum())

    def margin_of_error(self, confidence: float = 0.997) -> float:
        """Eq. 3: z · SE at the given confidence level."""
        return z_for_confidence(confidence) * self.standard_error

    def confidence_interval(self, confidence: float = 0.997) -> tuple[float, float]:
        """Eq. 2: estimate ± margin of error."""
        m = self.margin_of_error(confidence)
        return (self.estimate - m, self.estimate + m)


def stratified_sample(
    assignments: np.ndarray,
    cpi: np.ndarray,
    n: int,
    *,
    rng: np.random.Generator | None = None,
    k: int | None = None,
) -> StratifiedEstimate:
    """Draw the SimProf sample: optimal allocation + per-phase SRS.

    ``assignments`` maps units to phases ``0..k-1``; ``cpi`` is the
    profiled CPI of every unit (used for the allocation σ_h and for the
    estimate of the selected points — in a real deployment the selected
    points would be *simulated* and their CPI measured there).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if len(assignments) != len(cpi):
        raise ValueError("assignments and cpi disagree on unit count")
    k = k if k is not None else int(assignments.max()) + 1
    N_h = np.bincount(assignments, minlength=k)[:k].astype(np.int64)
    # One stable sort groups the units, each phase's in ascending order.
    order = np.argsort(assignments, kind="stable")
    groups = np.split(order, np.cumsum(N_h))[:k]
    s_h = np.array(
        [
            cpi[groups[h]].std(ddof=1) if N_h[h] > 1 else 0.0
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
        members = groups[h]
        chosen = rng.choice(members, size=int(alloc[h]), replace=False)
        selected.extend(int(c) for c in chosen)
        vals = cpi[chosen]
        means[h] = vals.mean()
        sample_stds[h] = vals.std(ddof=1) if len(vals) > 1 else 0.0

    N = N_h.sum()
    estimate = float((N_h / N) @ means)
    # The SE uses the profiled (population) stds, as the paper does.
    se = stratified_standard_error(N_h, alloc, s_h)
    return StratifiedEstimate(
        selected=np.array(sorted(selected), dtype=np.int64),
        allocation=alloc,
        stratum_sizes=N_h,
        estimate=estimate,
        standard_error=se,
    )


def select_points(
    job: Any, model: Any, n_points: int, *, rng: np.random.Generator
) -> StratifiedEstimate:
    """Stage 3: draw ``n_points`` simulation points over a phase model.

    ``job`` is a :class:`~repro.core.units.JobProfile` and ``model`` its
    :class:`~repro.core.phases.PhaseModel`.  The sample takes at least
    one point per phase and at most one per unit.
    """
    cpi = job.profile.cpi()
    n = max(min(n_points, len(cpi)), model.k)
    with stage_timer("sampling") as rec:
        est = stratified_sample(model.assignments, cpi, n, rng=rng, k=model.k)
        rec.add(points=len(est.selected))
    return est


def phase_sample_size(
    job: Any, model: Any, *, relative_error: float, confidence: float = 0.997
) -> int:
    """Figure 8: points needed for a target error over a phase model.

    The stratified solver (Eq. 1 + 4) over the model's per-phase sizes
    and CPI standard deviations, at the job's oracle mean CPI.
    """
    phases = model.phase_stats(job.profile.cpi())
    sizes = np.array([s.n_units for s in phases], dtype=np.float64)
    stds = np.array([s.cpi_std for s in phases])
    return required_sample_size(
        sizes,
        stds,
        job.oracle_cpi(),
        relative_error=relative_error,
        confidence=confidence,
    )


def required_sample_size(
    stratum_sizes: np.ndarray,
    stratum_stds: np.ndarray,
    population_mean: float,
    *,
    relative_error: float,
    confidence: float = 0.997,
    n_max: int | None = None,
) -> int:
    """Smallest n with z·SE ≤ relative_error · mean under Eq. 1 + Eq. 4.

    Starts from the closed-form Neyman solution with finite-population
    correction and walks to the exact minimum under the integer
    allocation (the min-one-per-stratum floor makes the closed form an
    approximation).
    """
    if relative_error <= 0:
        raise ValueError("relative_error must be positive")
    N_h = np.asarray(stratum_sizes, dtype=np.float64)
    s_h = np.asarray(stratum_stds, dtype=np.float64)
    N = N_h.sum()
    n_total = int(N)
    n_min = int((N_h > 0).sum())
    if n_max is None:
        n_max = n_total
    z = z_for_confidence(confidence)
    target_se = relative_error * population_mean / z

    def se_at(n: int) -> float:
        alloc = optimal_allocation(N_h, s_h, n)
        return stratified_standard_error(N_h, alloc, s_h)

    # Closed form: n0 = (Σ N_h s_h)^2 / (N^2 V + Σ N_h s_h^2).
    V = target_se**2
    num = float((N_h * s_h).sum()) ** 2
    den = N**2 * V + float((N_h * s_h**2).sum())
    n0 = int(np.ceil(num / den)) if den > 0 else n_min
    n = int(np.clip(n0, n_min, n_max))

    if se_at(n) <= target_se:
        while n > n_min and se_at(n - 1) <= target_se:
            n -= 1
        return n
    while n < n_max and se_at(n) > target_se:
        n = min(n_max, max(n + 1, int(n * 1.1)))
    # Walk back to the boundary.
    while n > n_min and se_at(n - 1) <= target_se:
        n -= 1
    return n
