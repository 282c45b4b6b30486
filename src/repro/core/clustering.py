"""k-means clustering and phase-count selection (Section III-B).

SimProf clusters the unit feature vectors with k-means, scores each
k ∈ [1, 20] with the silhouette coefficient, and picks the *smallest*
k whose score reaches 90 % of the best — favouring fewer phases when
the structure is flat (grep collapses to a single phase this way).

Implemented from scratch on NumPy: k-means++ seeding, Lloyd iterations
with vectorised distance computation (squared row norms computed once
per fit and shared across restarts and iterations), empty-cluster
re-seeding to the farthest point, and a fixed-point early stop when no
centre moves between iterations.

The silhouette is computed from a :class:`SilhouetteDistances`
structure: the point-to-point distance matrix is assembled **once** per
feature matrix and shared across every silhouette evaluation of the
k-sweep, instead of being recomputed for each candidate k.  Scoring is
exact for up to ``max_points`` points; larger inputs use a seeded,
deterministic subsampled estimator — the silhouette is averaged over a
uniform without-replacement subsample of ``max_points`` scored points,
while each scored point's per-cluster mean distances remain exact over
*all* points.  Under a fixed seed the estimator is bit-stable: the
subsample indices, the distance matrix, and every derived score are
byte-identical across runs, so every k-sweep of one matrix produces
byte-identical ``(k, scores)`` results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KMeansResult",
    "kmeans",
    "OnlineKMeans",
    "SilhouetteDistances",
    "silhouette_score",
    "pick_k",
    "sweep_k",
    "select_phases",
    "choose_k",
    "random_projection",
]


def random_projection(
    X: np.ndarray, dims: int = 15, seed: int = 0
) -> np.ndarray:
    """SimPoint-style random linear projection to ``dims`` dimensions.

    SimPoint projects its basic-block vectors to ~15 dimensions before
    clustering to keep k-means cheap on million-dimension inputs.  Our
    regression-selected space is already small, so this is offered as
    an ablation variant, not the default.  Entries are i.i.d. uniform
    on [-1, 1] as in the original; pairwise distances are preserved in
    expectation (Johnson–Lindenstrauss).
    """
    if dims <= 0:
        raise ValueError("dims must be positive")
    n_features = X.shape[1]
    if n_features <= dims:
        return X.copy()
    rng = np.random.default_rng(seed)
    P = rng.uniform(-1.0, 1.0, size=(n_features, dims))
    return X @ P / np.sqrt(dims)


@dataclass(frozen=True)
class KMeansResult:
    """Result of one k-means run."""

    centers: np.ndarray
    assignments: np.ndarray
    inertia: float

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centers)

    def cluster_sizes(self) -> np.ndarray:
        """Units per cluster."""
        return np.bincount(self.assignments, minlength=self.k)


def _pairwise_sq_dists(
    X: np.ndarray,
    C: np.ndarray,
    *,
    x_sq: np.ndarray | None = None,
    c_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances, ``(n, k)``.

    ``x_sq``/``c_sq`` accept precomputed squared row norms so callers
    that evaluate many distance blocks against the same points (the
    k-means restarts, the silhouette builder) pay for them once.

    Accumulated in place on the GEMM output: the fused
    ``x_sq[:, None] + c_sq[None, :] - 2 X Cᵀ`` expression materialises
    two extra ``(n, k)`` temporaries, which at silhouette-builder shape
    (3000 × 10⁵) is gigabytes of fresh pages and dominated the build
    wall-clock by ~40x.  The in-place order is deterministic — the same
    inputs always give byte-identical output — but its *rounding* order
    differs from the fused expression, so results agree with a fused
    reformulation to ``allclose``, not bitwise.
    """
    # ||x||^2 + ||c||^2 - 2 x.c  (clipped: rounding can go barely negative)
    if x_sq is None:
        x_sq = (X**2).sum(axis=1)
    if c_sq is None:
        c_sq = (C**2).sum(axis=1)
    d = X @ C.T
    d *= -2.0
    d += x_sq[:, None]
    d += c_sq[None, :]
    return np.maximum(d, 0.0, out=d)


def _kmeanspp_init(
    X: np.ndarray,
    k: int,
    rng: np.random.Generator,
    *,
    x_sq: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++ seeding (row norms shared across candidate draws)."""
    n = len(X)
    if x_sq is None:
        x_sq = (X**2).sum(axis=1)
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[rng.integers(0, n)]
    closest = _pairwise_sq_dists(X, centers[:1], x_sq=x_sq).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All points coincide with an existing centre.
            centers[j:] = centers[0]
            return centers
        probs = closest / total
        idx = rng.choice(n, p=probs)
        centers[j] = X[idx]
        closest = np.minimum(
            closest,
            _pairwise_sq_dists(X, centers[j : j + 1], x_sq=x_sq).ravel(),
        )
    return centers


def kmeans(
    X: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_init: int = 4,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> KMeansResult:
    """Lloyd's k-means with k-means++ seeding; best of ``n_init`` runs.

    The squared row norms of ``X`` are computed once and reused by
    every seeding pass and Lloyd iteration of every restart.  Lloyd
    iterations stop early both on relative inertia improvement
    (``tol``) and at the exact fixed point — when no centre moved at
    all, the next iteration would reproduce the same assignments and
    inertia, so breaking immediately is bit-identical to continuing.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n = len(X)
    if n == 0:
        raise ValueError("cannot cluster zero points")
    k = min(k, n)
    rng = np.random.default_rng(seed)
    x_sq = (X**2).sum(axis=1)

    best: KMeansResult | None = None
    for _run in range(n_init):
        centers = _kmeanspp_init(X, k, rng, x_sq=x_sq)
        assignments = np.zeros(n, dtype=np.int64)
        prev_inertia = np.inf
        for _it in range(max_iter):
            dists = _pairwise_sq_dists(X, centers, x_sq=x_sq)
            assignments = dists.argmin(axis=1)
            inertia = float(dists[np.arange(n), assignments].sum())
            # Recompute centres; re-seed any emptied cluster on the
            # point farthest from its centre.
            prev_centers = centers.copy()
            for j in range(k):
                members = assignments == j
                if members.any():
                    centers[j] = X[members].mean(axis=0)
                else:
                    farthest = int(dists[np.arange(n), assignments].argmax())
                    centers[j] = X[farthest]
            if prev_inertia - inertia <= tol * max(prev_inertia, 1.0):
                break
            if np.array_equal(centers, prev_centers):
                # Exact fixed point: a further iteration would recompute
                # identical distances and break on the inertia test.
                break
            prev_inertia = inertia
        dists = _pairwise_sq_dists(X, centers, x_sq=x_sq)
        assignments = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), assignments].sum())
        if best is None or inertia < best.inertia:
            best = KMeansResult(centers.copy(), assignments, inertia)
    assert best is not None
    return best


class OnlineKMeans:
    """Incremental (mini-batch-style) k-means for streaming unit rows.

    Follows the web-scale mini-batch scheme: the first ``init_size``
    rows are buffered and seeded with k-means++, after which every row
    updates its nearest centre with a per-centre learning rate of
    ``1/count`` — the running mean of the rows assigned to it.  Unlike
    the batch :func:`kmeans` it never revisits old rows, so memory is
    O(k · features) regardless of stream length.  This powers the live
    (Pac-Sim-style) classification mode; the batch path remains the
    reference for bit-exact reproduction.
    """

    def __init__(self, k: int, *, seed: int = 0, init_size: int | None = None) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._rng = np.random.default_rng(seed)
        self._init_size = init_size if init_size is not None else max(3 * k, 32)
        if self._init_size < 1:
            raise ValueError("init_size must be positive")
        self._buffer: list[np.ndarray] = []
        self._centers: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._init_labels: np.ndarray | None = None
        self.n_seen = 0

    @property
    def ready(self) -> bool:
        """Whether centres exist (the warm-up buffer has been seeded)."""
        return self._centers is not None

    @property
    def centers(self) -> np.ndarray:
        """Current centres; seeds from the buffer if still warming up."""
        self._ensure_centers()
        assert self._centers is not None
        return self._centers

    def _initialize(self) -> None:
        X = np.vstack(self._buffer)
        k = min(self.k, len(X))
        self._centers = _kmeanspp_init(X, k, self._rng)
        self._counts = np.zeros(k, dtype=np.int64)
        labels = np.empty(len(X), dtype=np.int64)
        for i, x in enumerate(X):
            labels[i] = self._update(x)
        self._init_labels = labels
        self._buffer = []

    def _ensure_centers(self) -> None:
        if self._centers is not None:
            return
        if not self._buffer:
            raise ValueError("no data: the stream produced no rows")
        self._initialize()

    def _update(self, x: np.ndarray) -> int:
        assert self._centers is not None and self._counts is not None
        d = ((self._centers - x) ** 2).sum(axis=1)
        j = int(d.argmin())
        self._counts[j] += 1
        self._centers[j] += (x - self._centers[j]) / self._counts[j]
        self.n_seen += 1
        return j

    def learn_one(self, x: np.ndarray) -> int | None:
        """Fold one row in; returns its label, or ``None`` while warming up.

        The call that fills the warm-up buffer triggers seeding and
        still returns ``None`` — the labels of every buffered row
        (including that one) are then available once from
        :meth:`take_init_labels`, preserving stream order.
        """
        x = np.asarray(x, dtype=np.float64)
        if self._centers is None:
            self._buffer.append(x)
            if len(self._buffer) >= self._init_size:
                self._initialize()
            return None
        return self._update(x)

    def take_init_labels(self) -> np.ndarray | None:
        """Labels of the warm-up rows, once, right after seeding."""
        labels = self._init_labels
        self._init_labels = None
        return labels

    def partial_fit(self, X: np.ndarray) -> "OnlineKMeans":
        """Fold a batch of rows in (scikit-learn-style convenience)."""
        for x in np.asarray(X, dtype=np.float64):
            self.learn_one(x)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centre labels for ``X`` (does not move the centres)."""
        self._ensure_centers()
        assert self._centers is not None
        return _pairwise_sq_dists(
            np.asarray(X, dtype=np.float64), self._centers
        ).argmin(axis=1)

    # -- snapshot protocol -------------------------------------------

    def snapshot(self) -> dict:
        """Capture centres, counts, warm-up buffer and RNG position."""
        from repro.runtime.snapshot import rng_state

        return {
            "kind": "online-kmeans",
            "k": self.k,
            "init_size": self._init_size,
            "n_seen": self.n_seen,
            "rng": rng_state(self._rng),
            "buffer": list(self._buffer),
            "centers": self._centers,
            "counts": self._counts,
            "init_labels": self._init_labels,
        }

    def restore(self, state: dict) -> None:
        """Rebuild from :meth:`snapshot` output (same ``k``/``init_size``)."""
        from repro.runtime.snapshot import restore_rng

        if state.get("kind") != "online-kmeans":
            raise ValueError(f"not an online-kmeans snapshot: {state.get('kind')!r}")
        if int(state["k"]) != self.k or int(state["init_size"]) != self._init_size:
            raise ValueError(
                "snapshot configuration (k/init_size) does not match instance"
            )
        self.n_seen = int(state["n_seen"])
        self._rng = restore_rng(state["rng"])
        self._buffer = [
            np.asarray(row, dtype=np.float64) for row in state["buffer"]
        ]
        centers = state["centers"]
        self._centers = None if centers is None else np.asarray(centers, np.float64)
        counts = state["counts"]
        self._counts = None if counts is None else np.asarray(counts, np.int64)
        labels = state["init_labels"]
        self._init_labels = None if labels is None else np.asarray(labels, np.int64)


@dataclass(frozen=True)
class SilhouetteDistances:
    """Shared distance structure for silhouette scoring.

    Holds the (sub)sampled-rows-to-all-points distance matrix that
    every silhouette evaluation over the same feature matrix consumes,
    so a k-sweep assembles it once instead of once per candidate k.

    ``idx`` are the *scored* point indices: all of them when
    ``n <= max_points`` (the exact silhouette), else a seeded uniform
    without-replacement subsample of ``max_points`` indices, sorted.
    ``dist[i, j]`` is the exact Euclidean distance from scored point
    ``idx[i]`` to point ``j`` — per-cluster mean distances stay exact
    even in the subsampled estimator; only the set of points whose
    silhouette values are averaged is subsampled.  Everything here is a
    pure function of ``(X, max_points, seed)``, so two builds (e.g. in
    different sweep worker processes) are byte-identical.
    """

    idx: np.ndarray
    dist: np.ndarray
    n: int
    exact: bool

    @classmethod
    def build(
        cls, X: np.ndarray, *, max_points: int = 3000, seed: int = 0
    ) -> "SilhouetteDistances":
        """Assemble the structure for ``X`` (one distance computation)."""
        n = len(X)
        if n > max_points:
            rng = np.random.default_rng(seed)
            idx = np.sort(rng.choice(n, size=max_points, replace=False))
            exact = False
        else:
            idx = np.arange(n)
            exact = True
        x_sq = (X**2).sum(axis=1)
        dist = _pairwise_sq_dists(X[idx], X, x_sq=x_sq[idx], c_sq=x_sq)
        np.sqrt(dist, out=dist)
        return cls(idx=idx, dist=dist, n=n, exact=exact)

    def score(self, assignments: np.ndarray) -> float:
        """Mean silhouette of a clustering over the scored points.

        Fully vectorised: the per-cluster mean distances fall out of one
        GEMM against the one-hot membership matrix, so a score costs
        O(m·n·k) BLAS flops instead of k strided column gathers.  A pure
        function of ``(self, assignments)`` — repeated evaluations are
        byte-identical; only the summation *order* differs from a
        per-point loop, so loop reformulations agree to ``allclose``
        rather than bitwise.
        """
        assignments = np.asarray(assignments)
        if len(assignments) != self.n:
            raise ValueError("assignments disagree with the distance structure")
        labels, inv = np.unique(assignments, return_inverse=True)
        if len(labels) < 2 or self.n < 3:
            return 0.0
        sizes = np.bincount(inv, minlength=len(labels))
        m = len(self.idx)
        # Mean distance from each scored point to every cluster.
        onehot = np.zeros((self.n, len(labels)))
        onehot[np.arange(self.n), inv] = 1.0
        mean_d = (self.dist @ onehot) / sizes

        rows = np.arange(m)
        own = inv[self.idx]
        size_own = sizes[own]
        scored = size_own > 1
        # Within-cluster mean excludes the point itself.
        a = np.zeros(m)
        np.divide(
            mean_d[rows, own] * size_own,
            size_own - 1,
            out=a,
            where=scored,
        )
        masked = mean_d.copy()
        masked[rows, own] = np.inf
        b = masked.min(axis=1)
        denom = np.maximum(a, b)
        s = np.zeros(m)
        np.divide(b - a, denom, out=s, where=scored & (denom != 0))
        return float(s.mean())


def silhouette_score(
    X: np.ndarray,
    assignments: np.ndarray,
    *,
    max_points: int = 3000,
    seed: int = 0,
    distances: SilhouetteDistances | None = None,
) -> float:
    """Mean silhouette coefficient of a clustering.

    Exact for up to ``max_points`` points; larger inputs are scored on
    a seeded uniform subsample (distances to *all* points are still
    exact — only the averaged index set is subsampled).  ``seed`` only
    affects the subsample selection; the exact path never draws from
    it.  Pass a prebuilt :class:`SilhouetteDistances` (which already
    fixed the index set) to share the distance computation across many
    evaluations — ``max_points``/``seed`` are then ignored.
    """
    if distances is None:
        distances = SilhouetteDistances.build(
            X, max_points=max_points, seed=seed
        )
    return distances.score(assignments)


def pick_k(
    scores: dict[int, float],
    *,
    score_threshold: float = 0.9,
    min_structure: float = 0.40,
) -> int:
    """The paper's phase-count decision rule over a silhouette table.

    Returns the smallest k whose score reaches ``score_threshold`` of
    the best; 1 when even the best score is below ``min_structure`` (no
    real cluster structure).  When no k clears the cutoff — possible
    with a threshold above 1, or all-negative scores under a permissive
    ``min_structure`` — the tie-break is explicit: the *smallest* k
    among those achieving the best score, independent of dict order.
    """
    if not scores:
        return 1
    best = max(scores.values())
    if best < min_structure:
        return 1
    cutoff = score_threshold * best
    qualifying = [k for k in sorted(scores) if scores[k] >= cutoff]
    if qualifying:
        return qualifying[0]
    return min(k for k, v in scores.items() if v == best)


def _evaluate_k(
    X: np.ndarray,
    k: int,
    *,
    seed: int,
    distances: SilhouetteDistances,
) -> tuple[float, KMeansResult]:
    """Fit one candidate k and silhouette-score it (shared distances)."""
    result = kmeans(X, k, seed=seed)
    if len(np.unique(result.assignments)) < 2:
        return 0.0, result
    return distances.score(result.assignments), result


def sweep_k(
    X: np.ndarray,
    *,
    k_max: int = 20,
    seed: int = 0,
    max_points: int = 3000,
) -> tuple[dict[int, float], dict[int, KMeansResult]]:
    """Silhouette-score every k in [2, min(k_max, n-1)].

    Returns ``(scores_by_k, results_by_k)``, both in ascending k.  The
    pairwise-distance structure is built once and shared across all
    evaluations.  The sweep runs in the calling process: parallelism
    lives one level up, where the runner fans whole stage nodes out.
    """
    n = len(X)
    ks = list(range(2, min(k_max, n - 1) + 1))
    scores: dict[int, float] = {}
    results: dict[int, KMeansResult] = {}
    if not ks:
        return scores, results
    distances = SilhouetteDistances.build(X, max_points=max_points, seed=seed)
    for k in ks:
        scores[k], results[k] = _evaluate_k(
            X, k, seed=seed, distances=distances
        )
    return scores, results


def select_phases(
    X: np.ndarray,
    *,
    k_max: int = 20,
    score_threshold: float = 0.9,
    min_structure: float = 0.40,
    seed: int = 0,
    max_points: int = 3000,
) -> tuple[int, dict[int, float], KMeansResult | None]:
    """Pick the phase count *and* return the chosen k's fitted clustering.

    The sweep already ran k-means for every candidate k, so callers
    (:meth:`repro.core.phases.PhaseModel.fit`) reuse the winning
    :class:`KMeansResult` instead of fitting again.  Returns
    ``(k, scores_by_k, result)``; ``result`` is None when k = 1 (no
    clustering was selected).
    """
    n = len(X)
    if n < 3 or np.allclose(X, X[0]):
        return 1, {1: 0.0}, None
    scores, results = sweep_k(X, k_max=k_max, seed=seed, max_points=max_points)
    if not scores:
        return 1, {1: 0.0}, None
    k = pick_k(
        scores, score_threshold=score_threshold, min_structure=min_structure
    )
    if k == 1:
        return 1, scores, None
    return k, scores, results[k]


def choose_k(
    X: np.ndarray,
    *,
    k_max: int = 20,
    score_threshold: float = 0.9,
    min_structure: float = 0.40,
    seed: int = 0,
    max_points: int = 3000,
) -> tuple[int, dict[int, float]]:
    """Pick the number of phases (paper rule).

    Scores each k in [2, k_max] with the silhouette coefficient and
    returns the smallest k whose score is at least ``score_threshold``
    of the best.  If even the best silhouette is below
    ``min_structure`` — set above the ~0.35 a k-means split of one
    isotropic blob scores, so "no real cluster structure" — the run is
    a single phase (k = 1), which is how a uniform workload like grep
    ends up with one phase in Figure 9.

    Returns ``(k, scores_by_k)``.
    """
    k, scores, _result = select_phases(
        X,
        k_max=k_max,
        score_threshold=score_threshold,
        min_structure=min_structure,
        seed=seed,
        max_points=max_points,
    )
    return k, scores
