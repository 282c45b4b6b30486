"""Phase model: the outcome of phase formation.

Bundles the selected feature space, the cluster centres, and the
per-unit phase assignments, and computes the per-phase statistics the
rest of the pipeline consumes (weights, CPI mean/std/CoV).  The model
can classify units from *other* profiles (nearest centre in the shared
feature space) — the unit-classification step of the input-sensitivity
test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.clustering import OnlineKMeans, select_phases
from repro.core.features import FeatureSpace, UnitFeaturizer
from repro.core.units import JobProfile, SamplingUnit
from repro.jvm.methods import MethodRegistry, StackTable
from repro.runtime.instrument import stage_timer

__all__ = ["PhaseStats", "PhaseModel"]


@dataclass(frozen=True, slots=True)
class PhaseStats:
    """Summary of one phase over a profile."""

    phase_id: int
    n_units: int
    weight: float
    cpi_mean: float
    cpi_std: float

    @property
    def cpi_cov(self) -> float:
        """Coefficient of variation of CPI within the phase."""
        return self.cpi_std / self.cpi_mean if self.cpi_mean > 0 else 0.0


@dataclass
class PhaseModel:
    """Phases of a training profile.

    ``centers`` live in the selected feature space; ``assignments`` maps
    each training unit to its phase.
    """

    space: FeatureSpace
    centers: np.ndarray
    assignments: np.ndarray
    silhouette_by_k: dict[int, float]
    # Mean feature row over all training units; used to rank a phase's
    # characteristic methods by *lift* so frames common to every stack
    # (thread entry, task runner) do not dominate the readout.
    global_mean: np.ndarray | None = None
    # Optional SimPoint-style random projection applied before
    # clustering; centres then live in the projected space and
    # classification projects likewise.  None = identity (the default).
    projection: np.ndarray | None = None
    # Per-phase mean rows in the *original* feature space (equal to
    # ``centers`` when no projection is used); this is what
    # ``top_methods`` interprets, since projected axes have no names.
    feature_centers: np.ndarray | None = None

    @property
    def k(self) -> int:
        """Number of phases."""
        return len(self.centers)

    @staticmethod
    def fit(
        job: JobProfile,
        *,
        top_k: int = 100,
        max_phases: int = 20,
        score_threshold: float = 0.9,
        seed: int = 0,
        projection_dims: int | None = None,
        features: "tuple[FeatureSpace, np.ndarray] | None" = None,
    ) -> "PhaseModel":
        """Phase formation: vectorise, select features, cluster.

        ``projection_dims`` enables the SimPoint-style random projection
        before clustering (an ablation variant; None = off).
        ``features`` supplies a precomputed ``FeatureSpace.fit(job,
        top_k)`` pair (the provenance graph's featurize stage, which
        books the ``feature-selection`` time) instead of fitting one
        here; the fitted model is the same either way.
        """
        if features is None:
            with stage_timer("feature-selection") as rec:
                space, X = FeatureSpace.fit(job, top_k=top_k)
                rec.add(features=space.n_features)
        else:
            space, X = features
        if space.n_features == 0:
            # No method correlates with performance: the whole run is
            # one phase (the grep case).
            return PhaseModel(
                space=space,
                centers=np.zeros((1, 0)),
                assignments=np.zeros(len(job.profile.units), dtype=np.int64),
                silhouette_by_k={1: 0.0},
                global_mean=np.zeros(0),
            )
        projection: np.ndarray | None = None
        X_cluster = X
        if projection_dims is not None and space.n_features > projection_dims:
            rng = np.random.default_rng(seed)
            projection = rng.uniform(
                -1.0, 1.0, size=(space.n_features, projection_dims)
            ) / np.sqrt(projection_dims)
            X_cluster = X @ projection
        with stage_timer("k-means") as rec:
            k, scores, result = select_phases(
                X_cluster,
                k_max=max_phases,
                score_threshold=score_threshold,
                seed=seed,
            )
            if k == 1 or result is None:
                centers = X_cluster.mean(axis=0, keepdims=True)
                assignments = np.zeros(len(X_cluster), dtype=np.int64)
            else:
                centers = result.centers
                assignments = result.assignments
            rec.add(phases=k)
        feature_centers = np.vstack(
            [
                X[assignments == h].mean(axis=0)
                if (assignments == h).any()
                else np.zeros(space.n_features)
                for h in range(k)
            ]
        )
        return PhaseModel(
            space=space,
            centers=centers,
            assignments=assignments,
            silhouette_by_k=scores,
            global_mean=X.mean(axis=0),
            projection=projection,
            feature_centers=feature_centers,
        )

    @staticmethod
    def fit_stream(
        space: FeatureSpace,
        rows: Iterable[np.ndarray],
        *,
        k: int,
        seed: int = 0,
        init_size: int | None = None,
    ) -> "PhaseModel":
        """Online phase formation over a stream of feature rows.

        The live-mode counterpart of :meth:`fit`: rows arrive one at a
        time and update an :class:`~repro.core.clustering.OnlineKMeans`
        instead of being clustered in batch, so memory stays
        O(k · features) however long the job runs.  ``k`` must be given
        (silhouette-based selection needs all rows, which an online pass
        does not keep); warm-up rows are labelled right after seeding.
        Approximate by construction — assignments reflect the centres
        as each row arrived — so unlike ``analyze_stream`` this mode is
        *not* bit-identical to the batch path.
        """
        if space.n_features == 0:
            n = sum(1 for _ in rows)
            return PhaseModel(
                space=space,
                centers=np.zeros((1, 0)),
                assignments=np.zeros(n, dtype=np.int64),
                silhouette_by_k={1: 0.0},
                global_mean=np.zeros(0),
            )
        okm = OnlineKMeans(k, seed=seed, init_size=init_size)
        labels: list[int] = []
        total = np.zeros(space.n_features)
        n = 0
        for row in rows:
            row = np.asarray(row, dtype=np.float64)
            n += 1
            total += row
            lab = okm.learn_one(row)
            init_labels = okm.take_init_labels()
            if init_labels is not None:
                labels.extend(int(v) for v in init_labels)
            elif lab is not None:
                labels.append(lab)
        if not okm.ready:
            # Short stream: seed from whatever was buffered (raises the
            # usual "no data" error on an empty stream).
            okm.centers
            init_labels = okm.take_init_labels()
            if init_labels is not None:
                labels.extend(int(v) for v in init_labels)
        centers = okm.centers.copy()
        return PhaseModel(
            space=space,
            centers=centers,
            assignments=np.array(labels, dtype=np.int64),
            silhouette_by_k={len(centers): 0.0},
            global_mean=total / n,
            # Online centres are running means in the original feature
            # space (no projection in live mode), so they double as the
            # interpretable per-phase rows.
            feature_centers=centers,
        )

    # -- snapshot protocol --------------------------------------------------

    def snapshot(self) -> dict:
        """Codec-safe capture of the fitted model, space included."""
        return {
            "kind": "phase-model",
            "space": self.space.snapshot(),
            "centers": self.centers,
            "assignments": self.assignments,
            "silhouette_by_k": sorted(
                [int(k), float(v)] for k, v in self.silhouette_by_k.items()
            ),
            "global_mean": self.global_mean,
            "projection": self.projection,
            "feature_centers": self.feature_centers,
        }

    def restore(self, state: dict) -> None:
        """Rebuild the model in place from :meth:`snapshot` output."""
        if state.get("kind") != "phase-model":
            raise ValueError(f"not a phase-model snapshot: {state.get('kind')!r}")
        self.space = FeatureSpace.from_snapshot(state["space"])
        self.centers = np.asarray(state["centers"], dtype=np.float64)
        self.assignments = np.asarray(state["assignments"], dtype=np.int64)
        self.silhouette_by_k = {
            int(k): float(v) for k, v in state["silhouette_by_k"]
        }

        def _opt(value) -> np.ndarray | None:
            return None if value is None else np.asarray(value, dtype=np.float64)

        self.global_mean = _opt(state["global_mean"])
        self.projection = _opt(state["projection"])
        self.feature_centers = _opt(state["feature_centers"])

    @classmethod
    def from_snapshot(cls, state: dict) -> "PhaseModel":
        """Construct a model directly from :meth:`snapshot` output."""
        model = cls(
            space=FeatureSpace.from_snapshot(state["space"]),
            centers=np.zeros((1, 0)),
            assignments=np.zeros(0, dtype=np.int64),
            silhouette_by_k={},
        )
        model.restore(state)
        return model

    # -- classification -----------------------------------------------------

    def classify(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centre phase assignment for feature rows ``X``.

        ``X`` is in the selected-feature space; if the model was fitted
        with a random projection, rows are projected first.
        """
        if self.projection is not None:
            X = X @ self.projection
        d = (
            (X**2).sum(axis=1)[:, None]
            + (self.centers**2).sum(axis=1)[None, :]
            - 2.0 * X @ self.centers.T
        )
        return d.argmin(axis=1)

    def classify_job(self, job: JobProfile) -> np.ndarray:
        """Classify another profile's units into this model's phases."""
        return self.classify(self.space.project_job(job))

    def classify_stream(
        self,
        units: Iterable[SamplingUnit],
        *,
        registry: MethodRegistry,
        stack_table: StackTable,
    ) -> Iterator[int]:
        """Classify units one at a time as they stream in (live mode).

        Yields the phase id of each unit the moment it arrives —
        vectorisation and normalisation match :meth:`classify_job`
        row for row, so the label sequence equals the batch result.
        ``registry``/``stack_table`` interpret the units' stack ids
        (take them from the :class:`~repro.jvm.stream.TraceStream`).
        """
        featurizer = UnitFeaturizer(self.space, registry, stack_table)
        # One reusable row buffer: live mode classifies unit by unit,
        # so a fresh allocation per unit would dominate the loop.
        row = np.zeros((1, self.space.n_features))
        for unit in units:
            row.fill(0.0)
            featurizer.row_into(unit, row[0])
            yield int(self.classify(row)[0])

    # -- statistics -----------------------------------------------------------

    def phase_stats(
        self, cpi: np.ndarray, assignments: np.ndarray | None = None
    ) -> list[PhaseStats]:
        """Per-phase CPI statistics for a profile.

        ``assignments`` defaults to the training assignments; pass the
        output of :meth:`classify_job` for a reference input.  Phases
        with no units get zero stats (they can legitimately be empty on
        a reference input).
        """
        if assignments is None:
            assignments = self.assignments
        if len(cpi) != len(assignments):
            raise ValueError("cpi and assignments disagree on unit count")
        n = len(cpi)
        out: list[PhaseStats] = []
        for h in range(self.k):
            members = cpi[assignments == h]
            if len(members) == 0:
                out.append(PhaseStats(h, 0, 0.0, 0.0, 0.0))
                continue
            out.append(
                PhaseStats(
                    phase_id=h,
                    n_units=len(members),
                    weight=len(members) / n,
                    cpi_mean=float(members.mean()),
                    # ddof=1 matches the paper's s_h (sample std).
                    cpi_std=float(members.std(ddof=1)) if len(members) > 1 else 0.0,
                )
            )
        return out

    def top_methods(self, phase_id: int, n: int = 5) -> list[tuple[str, float]]:
        """Most characteristic methods of a phase.

        This is the paper's Section III-D.2 trick: the heavy dimensions
        of the centre name the methods of the phase.  Methods are ranked
        by lift over the global mean frequency, so frames present in
        every stack (thread entry, task runner) rank at ~1 while the
        phase-specific operations rank high.  Returns
        ``(fqn, lift)`` pairs.
        """
        if not 0 <= phase_id < self.k:
            raise IndexError(f"phase {phase_id} out of range")
        center = (
            self.feature_centers[phase_id]
            if self.feature_centers is not None
            else self.centers[phase_id]
        )
        # Only methods with real presence in the phase qualify —
        # otherwise an ultra-rare frame (a one-off GC safepoint) gets an
        # enormous lift from a near-zero global mean.
        floor = max(0.005, 0.05 * float(center.max(initial=0.0)))
        if self.global_mean is not None:
            eps = 1e-9
            score = np.where(
                center >= floor, (center + eps) / (self.global_mean + eps), 0.0
            )
        else:
            score = np.where(center >= floor, center, 0.0)
        order = np.argsort(-score, kind="stable")[:n]
        return [
            (self.space.method_fqns[j], float(score[j]))
            for j in order
            if score[j] > 0
        ]
