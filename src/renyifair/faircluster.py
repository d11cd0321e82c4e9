"""Fair K-means under the disparate impact doctrine.

Lloyd-style alternation with a group-balance term in the assignment rule:
point ``n`` joins the cluster minimizing

    ||x_n - c_k||^2 - lam * (w_k - s_n)^2,

where ``w_k`` is the running proportion of the privileged group (s = 1) in
cluster ``k``.  The proportions are refreshed after every single point move
(``per_point`` mode); updating them only once per sweep (``per_sweep``) is
kept as a switch because it demonstrably oscillates: on a small symmetric
instance the assignments swap forever between two mirror states, which the
per-point update escapes.

Only ``per_point`` with ``lam > 0`` needs a point-by-point loop.  In
``per_sweep`` mode, and at ``lam = 0`` where the balance term vanishes, the
proportions are fixed for the whole sweep, so every point's choice is one
row of a single vectorised argmin.

The combined objective (clustering loss minus ``lam`` times the squared
balance residuals) is not guaranteed monotone under this interleaving, so
the loop caps the sweep count and stops on assignment cycles as well as on
fixed points.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

W_UPDATE_MODES = ("per_point", "per_sweep")
INIT_MODES = ("random_assignment", "kmeanspp")


@dataclass(frozen=True)
class ClusterConfig:
    n_clusters: int
    lam: float = 0.0
    max_sweeps: int = 200
    seed: int = 0
    w_update_mode: str = "per_point"
    init: str = "random_assignment"

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.w_update_mode not in W_UPDATE_MODES:
            raise ValueError(f"unknown w_update_mode {self.w_update_mode!r}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class ClusterState:
    """Assignments in {1..K}, centers, and per-cluster privileged proportions.

    ``proportions[k]`` equals ``priv_counts[k] / counts[k]`` for nonempty
    clusters; an emptied cluster keeps its last center and its proportion is
    pinned to the global privileged share so the assignment score stays
    defined.
    """

    assignments: np.ndarray
    centers: np.ndarray
    proportions: np.ndarray
    counts: np.ndarray
    priv_counts: np.ndarray
    global_priv: float

    def check_consistent(self) -> None:
        k = len(self.counts)
        counts = np.bincount(self.assignments - 1, minlength=k)
        if not np.array_equal(counts, self.counts):
            raise AssertionError("counts inconsistent with assignments")


@dataclass
class ClusterTrace:
    """Per-sweep objective diagnostics and termination flags."""

    sweep: list = field(default_factory=list)
    kmeans_loss: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    w_std: list = field(default_factory=list)
    moves: list = field(default_factory=list)
    assignment_hashes: list = field(default_factory=list)
    converged: bool = False
    cycled: bool = False
    cycle_period: int = 0

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("sweep,kmeans_loss,objective,w_std,moves\n")
            for row in zip(self.sweep, self.kmeans_loss, self.objective,
                           self.w_std, self.moves):
                fh.write(f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r},{row[4]}\n")


def assign_point(x, s: int, centers, proportions, lam: float) -> int:
    """Best cluster (1-based) for one point; ties go to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    diffs = np.asarray(centers, dtype=np.float64) - x
    scores = np.einsum("kp,kp->k", diffs, diffs) - lam * (np.asarray(proportions) - s) ** 2
    return int(np.argmin(scores)) + 1


def update_proportions_incremental(state: ClusterState, s: int,
                                   from_k: int, to_k: int) -> ClusterState:
    """O(1) refresh of counts and proportions after moving one point.

    ``s`` is the moved point's attribute (0 or 1); ``from_k``/``to_k`` are
    1-based.  Matches a full recomputation from the assignments exactly.
    """
    if from_k == to_k:
        return state
    f, t = from_k - 1, to_k - 1
    if state.counts[f] <= 0:
        raise ValueError("count underflow: cluster bookkeeping is inconsistent")
    state.counts[f] -= 1
    state.priv_counts[f] -= s
    state.counts[t] += 1
    state.priv_counts[t] += s
    for k in (f, t):
        if state.counts[k] > 0:
            state.proportions[k] = state.priv_counts[k] / state.counts[k]
        else:
            state.proportions[k] = state.global_priv
    return state


def _tally(assignments, sensitive, k: int, global_priv: float):
    """Counts, privileged counts and proportions recomputed from assignments."""
    counts = np.bincount(assignments - 1, minlength=k)
    priv = np.bincount(assignments - 1, weights=sensitive, minlength=k)
    w = np.full(k, global_priv, dtype=np.float64)
    nz = counts > 0
    w[nz] = priv[nz] / counts[nz]
    return counts.astype(np.int64), priv.astype(np.int64), w


def _state_from_assignments(points, sensitive, k: int, assignments) -> ClusterState:
    if assignments.shape != (points.shape[0],) or assignments.min() < 1 or assignments.max() > k:
        raise ValueError("initial assignments must be length N with values in 1..K")
    global_priv = float(sensitive.mean())
    counts, priv, w = _tally(assignments, sensitive, k, global_priv)
    centers = np.empty((k, points.shape[1]))
    grand_mean = points.mean(axis=0)
    for j in range(k):
        centers[j] = points[assignments == j + 1].mean(axis=0) if counts[j] else grand_mean
    return ClusterState(
        assignments=assignments.astype(np.int64),
        centers=centers,
        proportions=w,
        counts=counts,
        priv_counts=priv,
        global_priv=global_priv,
    )


def _init_state(points, sensitive, cfg: ClusterConfig, rng) -> ClusterState:
    n, _ = points.shape
    k = cfg.n_clusters
    if cfg.init == "random_assignment":
        assignments = rng.integers(0, k, size=n) + 1
    else:
        centers = _kmeanspp_centers(points, k, rng)
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignments = np.argmin(d2, axis=1) + 1
    return _state_from_assignments(points, sensitive, k, assignments.astype(np.int64))


def _kmeanspp_centers(points, k, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[int(rng.integers(n))]
        else:
            centers[j] = points[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _objective(points, sensitive, state: ClusterState, lam: float) -> tuple[float, float]:
    """Clustering loss and the penalized objective at the current state."""
    idx = state.assignments - 1
    loss = float(((points - state.centers[idx]) ** 2).sum())
    resid = state.proportions[idx] - sensitive
    return loss, loss - lam * float((resid * resid).sum())


def fair_kmeans(points, sensitive, cfg: ClusterConfig,
                initial_assignments=None) -> tuple[ClusterState, ClusterTrace]:
    """Alternating fair K-means.

    Each sweep scores every point against the current centers with the
    balance-adjusted distance, reassigns it, refreshes the proportions
    (immediately in ``per_point`` mode, after the full pass in
    ``per_sweep``), then recomputes the centers.  When the proportions are
    fixed for the sweep (``per_sweep``, or ``lam == 0`` in either mode) the
    pass is one vectorised argmin followed by one tally; only ``per_point``
    with ``lam > 0`` walks the points one at a time.  Terminates when a
    sweep moves nothing, when the assignment vector revisits a previous
    state (a cycle), or at ``max_sweeps``.

    ``initial_assignments`` (1-based) overrides the configured
    initialization; centers start at the implied cluster means.
    """
    x = np.asarray(points, dtype=np.float64)
    s = np.asarray(sensitive)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("points must be a nonempty N x p matrix")
    n = x.shape[0]
    if s.shape != (n,) or not np.all((s == 0) | (s == 1)):
        raise ValueError("sensitive must be length N with values in {0, 1}")
    if cfg.n_clusters > n:
        raise ValueError(f"n_clusters={cfg.n_clusters} exceeds the number of points {n}")
    s = s.astype(np.float64)

    rng = np.random.default_rng(cfg.seed)
    if initial_assignments is not None:
        state = _state_from_assignments(x, s, cfg.n_clusters,
                                        np.asarray(initial_assignments, dtype=np.int64))
    else:
        state = _init_state(x, s, cfg, rng)
    trace = ClusterTrace()
    # Assignments alone do not determine the dynamics when a cluster is
    # empty (its kept center is history), so the cycle key includes centers.
    seen = {state.assignments.tobytes() + state.centers.tobytes(): 0}
    per_point = cfg.w_update_mode == "per_point" and cfg.lam != 0

    for sweep in range(1, cfg.max_sweeps + 1):
        prev = state.assignments.copy()
        d2 = ((x[:, None, :] - state.centers[None, :, :]) ** 2).sum(axis=2)
        if per_point:
            for i in range(n):
                scores = d2[i] - cfg.lam * (state.proportions - s[i]) ** 2
                k_new = int(np.argmin(scores)) + 1
                k_old = int(state.assignments[i])
                if k_new != k_old:
                    state.assignments[i] = k_new
                    update_proportions_incremental(state, int(s[i]), k_old, k_new)
        else:
            scores = d2 - cfg.lam * (state.proportions[None, :] - s[:, None]) ** 2
            state.assignments = np.argmin(scores, axis=1) + 1
            state.counts, state.priv_counts, state.proportions = _tally(
                state.assignments, s, cfg.n_clusters, state.global_priv)
        # Each point is visited once per sweep, so the moves are the changed entries.
        moves = int(np.count_nonzero(state.assignments != prev))

        for j in range(cfg.n_clusters):
            members = state.assignments == j + 1
            if members.any():
                state.centers[j] = x[members].mean(axis=0)

        loss, obj = _objective(x, s, state, cfg.lam)
        active = state.counts > 0
        trace.sweep.append(sweep)
        trace.kmeans_loss.append(loss)
        trace.objective.append(obj)
        trace.w_std.append(float(np.std(state.proportions[active])))
        trace.moves.append(moves)
        trace.assignment_hashes.append(
            hashlib.sha1(state.assignments.tobytes()).hexdigest()[:16])

        key = state.assignments.tobytes() + state.centers.tobytes()
        if moves == 0:
            trace.converged = True
            break
        if key in seen:
            trace.cycled = True
            trace.cycle_period = sweep - seen[key]
            break
        seen[key] = sweep

    return state, trace


def toy_dataset(seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Five well-separated 2-D blobs with two single-group blobs.

    500 points per blob; the blob spread is 5% of the smallest center gap,
    so plain K-means recovers the blobs.  Blob 2 is entirely privileged
    (s=1) and blob 4 entirely unprivileged (s=0); the rest get fair coins.
    Returns ``(points, sensitive, centers)``.
    """
    rng = np.random.default_rng(seed)
    n_blobs, per_blob = 5, 500
    centers = rng.uniform(0.0, 10.0, size=(n_blobs, 2))
    gaps = [np.linalg.norm(centers[i] - centers[j])
            for i in range(n_blobs) for j in range(i + 1, n_blobs)]
    sigma = 0.05 * min(gaps)
    points = np.concatenate([
        centers[b] + sigma * rng.standard_normal((per_blob, 2))
        for b in range(n_blobs)
    ])
    sensitive = rng.integers(0, 2, size=n_blobs * per_blob)
    sensitive[per_blob * 1: per_blob * 2] = 1
    sensitive[per_blob * 3: per_blob * 4] = 0
    return points, sensitive.astype(np.int64), centers
