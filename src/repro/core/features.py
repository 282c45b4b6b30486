"""Feature vectors from call stacks (Section III-B, first half).

Every sampling unit becomes a vector over *methods*: dimension j counts
how often method j appeared in the unit's call-stack snapshots (a
snapshot contributes one count to every frame on its stack).  Rows are
normalised to frequencies so units with different snapshot counts stay
comparable.

Because the raw space easily has hundreds of dimensions dominated by
frames common to every unit (thread entry, task runner), SimProf keeps
only the top-K methods most correlated with performance, selected by a
univariate linear-regression test against per-unit IPC (K = 100 in the
paper).  The surviving dimensions are remembered *by fully-qualified
method name*, so units profiled from a different run (whose registry
assigns different ids) can be projected into the same space — the
mechanism the input-sensitivity test relies on.

Featurization is CSR-style array code, not per-stack Python loops: the
units' ``stack_ids``/``stack_counts`` are stacked into one flat
(row, column, value) triplet stream and scattered into the matrix with
a single ``np.add.at``, which keeps the accumulation order — and hence
the float result — identical to the row-by-row formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.units import JobProfile, SamplingUnit
from repro.jvm.methods import MethodRegistry, StackTable

__all__ = [
    "FEATURIZER_VERSION",
    "build_feature_matrix",
    "univariate_regression_scores",
    "select_features",
    "FeatureSpace",
    "UnitFeaturizer",
]

#: Bumped when the featurization arithmetic or its output shape changes.
#: It is part of the featurize stage's params, so bumping it re-keys
#: every featurize entry and the phase fits downstream of it.
FEATURIZER_VERSION = "v1"


def _batch_featurize(
    units: Sequence[SamplingUnit],
    table: StackTable,
    n_cols: int,
    col_of_mid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter all units into a ``(n_units, n_cols)`` matrix at once.

    ``col_of_mid`` maps method ids to matrix columns (entries < 0 are
    dropped); None means the identity mapping over the full registry.
    Returns ``(X, frame_totals)`` where ``frame_totals[i]`` is unit i's
    total snapshot frame count (counting frames whose methods fall
    outside the column mapping — the normaliser
    :meth:`FeatureSpace.project_job` uses).

    The (row, column, value) triplets are emitted in (unit, stack,
    frame) order, exactly the order the per-unit loop accumulated in,
    and applied with one unbuffered ``np.add.at`` — so the result is
    bit-identical to the loop formulation.
    """
    n_units = len(units)
    X = np.zeros((n_units, n_cols), dtype=np.float64)
    frame_totals = np.zeros(n_units, dtype=np.float64)
    if n_units == 0:
        return X, frame_totals
    stacks_per_unit = np.array(
        [len(u.stack_ids) for u in units], dtype=np.intp
    )
    if int(stacks_per_unit.sum()) == 0:
        return X, frame_totals
    sids_cat = np.concatenate(
        [np.asarray(u.stack_ids, dtype=np.intp) for u in units]
    )
    counts_cat = np.concatenate(
        [np.asarray(u.stack_counts, dtype=np.float64) for u in units]
    )
    unit_cat = np.repeat(np.arange(n_units, dtype=np.intp), stacks_per_unit)

    # Per-stack CSR: mapped columns of every distinct stack, flattened.
    used = np.unique(sids_cat)
    starts = np.zeros(int(used[-1]) + 1, dtype=np.intp)
    mapped_len = np.zeros(int(used[-1]) + 1, dtype=np.intp)
    full_len = np.zeros(int(used[-1]) + 1, dtype=np.float64)
    chunks: list[np.ndarray] = []
    pos = 0
    for sid in used:
        frames = np.asarray(table.frames_of(int(sid)), dtype=np.intp)
        full_len[sid] = len(frames)
        if col_of_mid is not None:
            cols = col_of_mid[frames]
            cols = cols[cols >= 0]
        else:
            cols = frames
        starts[sid] = pos
        mapped_len[sid] = len(cols)
        pos += len(cols)
        chunks.append(cols)
    cols_flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.intp)

    # Ragged gather: expand each stack occurrence to its column run.
    lengths = mapped_len[sids_cat]
    offsets = np.cumsum(lengths) - lengths
    flat_pos = np.arange(int(lengths.sum()), dtype=np.intp) - np.repeat(
        offsets, lengths
    )
    cols = cols_flat[np.repeat(starts[sids_cat], lengths) + flat_pos]
    rows = np.repeat(unit_cat, lengths)
    vals = np.repeat(counts_cat, lengths)
    np.add.at(X, (rows, cols), vals)
    frame_totals = np.bincount(
        unit_cat, weights=counts_cat * full_len[sids_cat], minlength=n_units
    )
    return X, frame_totals


def build_feature_matrix(job: JobProfile, *, normalize: bool = True) -> np.ndarray:
    """Dense ``(n_units, n_methods)`` method-frequency matrix.

    Row i is the frequency distribution of methods over the snapshots of
    unit i (rows sum to ~1; an all-zero row means the unit had no
    snapshots, which cannot happen with period ≤ unit size).  With
    ``normalize=False`` the rows are raw appearance counts (one count
    per snapshot whose stack contains the method).
    """
    X, _totals = _batch_featurize(
        job.profile.units, job.stack_table, len(job.registry)
    )
    if normalize:
        sums = X.sum(axis=1, keepdims=True)
        np.divide(X, sums, out=X, where=sums > 0)
    return X


def univariate_regression_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F-scores of a per-feature univariate linear regression on ``y``.

    Identical to scikit-learn's ``f_regression``: the squared Pearson
    correlation ``r²`` mapped to ``F = r² / (1 − r²) · (n − 2)``.
    Constant features (including the frames shared by every stack)
    score 0 — exactly the elimination the paper describes.
    """
    n = len(y)
    if n != len(X):
        raise ValueError("X and y disagree on the number of units")
    if n < 3:
        return np.zeros(X.shape[1])
    xc = X - X.mean(axis=0)
    yc = y - y.mean()
    x_norm = np.sqrt((xc**2).sum(axis=0))
    y_norm = np.sqrt((yc**2).sum())
    denom = x_norm * y_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(denom > 0, xc.T @ yc / np.where(denom > 0, denom, 1.0), 0.0)
    r2 = np.clip(r**2, 0.0, 1.0 - 1e-12)
    return r2 / (1.0 - r2) * (n - 2)


def _f_critical(q: float, dfd: int) -> float:
    """Upper-``q`` critical value of the F(1, ``dfd``) distribution.

    ``fdtri(1, dfd, 1 - q)`` is what ``scipy.stats.f.isf(q, 1, dfd)``
    evaluates, bit for bit, without importing ``scipy.stats``.
    """
    from scipy import special

    return float(special.fdtri(1, dfd, 1.0 - q))


def select_features(
    X: np.ndarray,
    ipc: np.ndarray,
    top_k: int = 100,
    significance: float = 0.01,
    mean_appearances: np.ndarray | None = None,
    min_appearances: float = 0.5,
    min_r2: float = 0.10,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (sorted) and scores of the top-K IPC-correlated methods.

    Three filters beyond the top-K ranking:

    * methods must be *statistically* related to performance — the
      regression F-score must clear a Bonferroni-corrected critical
      value;
    * the relation must be *practically* relevant — the method must
      explain at least ``min_r2`` of the IPC variance (the paper's
      selection exists to keep performance-relevant methods, so a
      workload with essentially flat IPC, like grep, retains nothing
      and collapses to one phase downstream);
    * methods must be *resolvable* by the snapshot poller — a method
      seen in well under one snapshot per unit on average yields a
      quantised 0-or-1 feature that is sampling noise, not phase
      structure (``mean_appearances`` carries the raw per-unit counts).
    """
    n, n_features = X.shape
    scores = univariate_regression_scores(X, ipc)
    if n_features == 0 or n < 3:
        return np.empty(0, dtype=np.intp), scores
    f_crit = _f_critical(min(1.0, significance / n_features), max(1, n - 2))
    # Invert F = r²/(1−r²)·(n−2) at the effect-size floor.
    f_floor = min_r2 / (1.0 - min_r2) * (n - 2)
    eligible = scores > max(f_crit, f_floor)
    if mean_appearances is not None:
        eligible &= mean_appearances >= min_appearances
    passing = np.nonzero(eligible)[0]
    order = np.argsort(-scores[passing], kind="stable")
    chosen = passing[order[:top_k]]
    return np.sort(chosen), scores


@dataclass
class FeatureSpace:
    """The selected method space of a training run.

    ``method_ids`` index the *training* registry; ``method_fqns`` name
    the same methods portably.  ``transform`` slices a full training
    matrix; ``project_job`` rebuilds the same columns for any profile
    (matching methods by name).
    """

    method_ids: np.ndarray
    method_fqns: tuple[str, ...]
    scores: np.ndarray

    @staticmethod
    def fit(
        job: JobProfile, top_k: int = 100
    ) -> tuple["FeatureSpace", np.ndarray]:
        """Select the space from a training profile.

        Returns ``(space, X_selected)`` where ``X_selected`` is the
        training matrix restricted to the selected methods.
        """
        raw = build_feature_matrix(job, normalize=False)
        totals = raw.sum(axis=1, keepdims=True)
        X = np.divide(raw, np.where(totals > 0, totals, 1.0))
        ipc = job.profile.ipc()
        ids, scores = select_features(
            X, ipc, top_k=top_k, mean_appearances=raw.mean(axis=0)
        )
        fqns = tuple(job.registry.fqn(int(m)) for m in ids)
        return FeatureSpace(ids, fqns, scores[ids]), X[:, ids]

    @property
    def n_features(self) -> int:
        """Dimensionality of the selected space."""
        return len(self.method_ids)

    def snapshot(self) -> dict:
        """Codec-safe capture of the (immutable) space definition."""
        return {
            "kind": "feature-space",
            "method_ids": np.asarray(self.method_ids, dtype=np.int64),
            "method_fqns": list(self.method_fqns),
            "scores": np.asarray(self.scores, dtype=np.float64),
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "FeatureSpace":
        if state.get("kind") != "feature-space":
            raise ValueError(f"not a feature-space snapshot: {state.get('kind')!r}")
        return cls(
            method_ids=np.asarray(state["method_ids"], dtype=np.intp),
            method_fqns=tuple(state["method_fqns"]),
            scores=np.asarray(state["scores"], dtype=np.float64),
        )

    def transform(self, X_full: np.ndarray) -> np.ndarray:
        """Restrict a full training-registry matrix to the space."""
        return X_full[:, self.method_ids]

    def _column_mapping(self, registry: MethodRegistry) -> np.ndarray:
        """``method id -> column`` array for any registry (-1 = dropped)."""
        col_of_fqn = {fqn: j for j, fqn in enumerate(self.method_fqns)}
        col_of_mid = np.full(len(registry), -1, dtype=np.intp)
        for mid in range(len(registry)):
            j = col_of_fqn.get(registry.fqn(mid))
            if j is not None:
                col_of_mid[mid] = j
        return col_of_mid

    def project_job(self, job: JobProfile) -> np.ndarray:
        """Feature matrix of any profile in this space (match by FQN).

        Methods of ``job`` that are not in the space are ignored; space
        methods absent from ``job`` contribute zero columns.  Rows are
        normalised by the unit's *total* snapshot frame count so
        frequencies remain comparable to training rows.  Computed in
        one batched scatter-add; equals a matrix built from successive
        :meth:`UnitFeaturizer.row` calls exactly.
        """
        X, frame_totals = _batch_featurize(
            job.profile.units,
            job.stack_table,
            self.n_features,
            self._column_mapping(job.registry),
        )
        totals = frame_totals[:, None]
        np.divide(X, totals, out=X, where=totals > 0)
        return X


class UnitFeaturizer:
    """Projects sampling units into a :class:`FeatureSpace` one at a time.

    The streaming twin of :meth:`FeatureSpace.project_job`: same
    FQN-keyed column mapping, same per-stack frame cache, same
    total-frame-count normalisation — applied row by row so live
    classification never needs the whole profile.  Each row is one
    scatter-add over the unit's stacked stack ids (not a per-stack
    loop), and a full matrix built from successive :meth:`row` calls
    equals ``project_job`` exactly.
    """

    def __init__(
        self,
        space: FeatureSpace,
        registry: MethodRegistry,
        stack_table: StackTable,
    ) -> None:
        self.space = space
        self._registry = registry
        self._col_of_fqn = {fqn: j for j, fqn in enumerate(space.method_fqns)}
        self._col_of_mid = np.full(0, -1, dtype=np.intp)
        self._extend_mapping()
        self._table = stack_table
        self._frames_cache: dict[int, tuple[np.ndarray, int]] = {}

    def _extend_mapping(self) -> None:
        # In live mode the registry keeps interning methods while the
        # job runs, so the id → column mapping is grown on demand; ids
        # are append-only, which keeps existing entries valid.
        old = len(self._col_of_mid)
        new = np.full(len(self._registry), -1, dtype=np.intp)
        new[:old] = self._col_of_mid
        for mid in range(old, len(self._registry)):
            j = self._col_of_fqn.get(self._registry.fqn(mid))
            if j is not None:
                new[mid] = j
        self._col_of_mid = new

    def _stack_columns(self, sid: int) -> tuple[np.ndarray, int]:
        """Cached ``(mapped columns, raw frame count)`` of one stack."""
        cached = self._frames_cache.get(sid)
        if cached is None:
            frames = np.fromiter(self._table.frames_of(sid), dtype=np.intp)
            if len(frames) and int(frames.max()) >= len(self._col_of_mid):
                self._extend_mapping()
            cols = self._col_of_mid[frames]
            cols = cols[cols >= 0]
            cached = (cols, len(frames))
            self._frames_cache[sid] = cached
        return cached

    def row_into(self, unit: SamplingUnit, row: np.ndarray) -> np.ndarray:
        """Fill ``row`` (zeroed, length ``n_features``) with one unit."""
        n_stacks = len(unit.stack_ids)
        if n_stacks == 0:
            return row
        counts = np.asarray(unit.stack_counts, dtype=np.float64)
        chunks: list[np.ndarray] = []
        lengths = np.empty(n_stacks, dtype=np.intp)
        full_len = np.empty(n_stacks, dtype=np.float64)
        for i, sid in enumerate(unit.stack_ids):
            cols, n_frames = self._stack_columns(int(sid))
            chunks.append(cols)
            lengths[i] = len(cols)
            full_len[i] = n_frames
        np.add.at(row, np.concatenate(chunks), np.repeat(counts, lengths))
        total = float((counts * full_len).sum())
        if total > 0:
            row /= total
        return row

    def row(self, unit: SamplingUnit) -> np.ndarray:
        """The unit's feature row in the space."""
        return self.row_into(unit, np.zeros(self.space.n_features))

    # -- snapshot protocol -------------------------------------------

    def snapshot(self) -> dict:
        """Capture the space identity; the caches are derived state.

        The id → column mapping and the per-stack frame cache are
        deterministic functions of the space, the registry, and the
        stack table, all of which a resumed job reconstructs — so the
        snapshot carries only enough to validate the pairing.
        """
        return {
            "kind": "unit-featurizer",
            "space": self.space.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Validate the space pairing and rebuild the derived caches."""
        if state.get("kind") != "unit-featurizer":
            raise ValueError(
                f"not a unit-featurizer snapshot: {state.get('kind')!r}"
            )
        space = FeatureSpace.from_snapshot(state["space"])
        if tuple(space.method_fqns) != tuple(self.space.method_fqns):
            raise ValueError("snapshot feature space does not match instance")
        self._col_of_fqn = {
            fqn: j for j, fqn in enumerate(self.space.method_fqns)
        }
        self._col_of_mid = np.full(0, -1, dtype=np.intp)
        self._extend_mapping()
        self._frames_cache = {}
