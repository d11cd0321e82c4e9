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

Each sweep takes one of two routes, and both give the same bits as
scoring the points one at a time:

* ``per_sweep`` mode, and either mode at ``lam = 0`` (where the balance
  term vanishes): the proportions are fixed for the whole sweep, so every
  point's choice is one row of a single vectorised argmin.  At ``lam = 0``
  the squared distances are the scores: ``d2 - 0.0 * (w - s) ** 2`` is
  ``d2`` bit for bit, since ``d2 >= +0.0`` and the product is ``+0.0``.
* ``per_point`` mode at ``lam > 0``: a block scan.  The proportions change
  only when a point moves, so a block of points is scored with one argmin,
  the first point whose choice differs from its cluster is moved, and the
  scan resumes after it with refreshed proportions.  Every point before
  that move saw exactly the proportions the one-at-a-time loop would have
  used, so nothing else in the block needs redoing.  A move touches only
  its two clusters, so the sweep keeps the counts and proportions as
  Python numbers and rewrites two columns of the penalty table; those
  are the same IEEE-double operations as the array form, so the bits
  agree too (see ``_per_point_pass``).

After each sweep, and at the start, a nonempty cluster's center is the
mean of its points; from 2 features on the sums are one ``np.bincount``
per feature, which gives the bits of numpy's masked mean (see
``_update_centers``).  An emptied cluster keeps its last center, and one
empty from the start sits at the grand mean.

The combined objective (clustering loss minus ``lam`` times the squared
balance residuals) is not guaranteed monotone under this interleaving, so
the loop caps the sweep count and stops on assignment cycles as well as on
fixed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

W_UPDATE_MODES = ("per_point", "per_sweep")
INIT_MODES = ("random_assignment", "kmeanspp")

# Points scored per argmin call in a ``per_point`` sweep (see _per_point_pass).
# Median of 15 interleaved rounds on the 10k x 5 census clustering view, a
# round being the three calls at lam 1/10/100 (K=14, kmeanspp, 8 sweeps; one
# pinned core of a 2-vCPU Xeon, numpy 2.4.6), once per core:
# 16 -> 0.31/0.31 s, 32 -> 0.28/0.29 s, 64 -> 0.29/0.29 s, 128 -> 0.30/0.31 s,
# 256 -> 0.37/0.38 s.  32 and 64 lie within the host's spread of each other.
_SCAN_BLOCK = 64
# Row g of the balance penalty belongs to sensitive value g.
_GROUP_VALUES = np.array([[0.0], [1.0]])


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
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
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


@dataclass
class ClusterTrace:
    """Per-sweep objective diagnostics and termination flags."""

    sweep: list = field(default_factory=list)
    kmeans_loss: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    w_std: list = field(default_factory=list)
    moves: list = field(default_factory=list)
    converged: bool = False
    cycled: bool = False
    cycle_period: int = 0


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
    # An empty cluster starts at the grand mean.
    centers = np.tile(points.mean(axis=0), (k, 1))
    _update_centers(points, assignments, counts, centers)
    return ClusterState(
        assignments=assignments.astype(np.int64),
        centers=centers,
        proportions=w,
        counts=counts,
        priv_counts=priv,
        global_priv=global_priv,
    )


def _update_centers(points, assignments, counts, centers) -> None:
    """Move each nonempty cluster's center to the mean of its points, in place.

    ``counts`` are the cluster sizes of the 1-based ``assignments``; an
    empty cluster's row is left as it is.  From 2 features on, the sums
    are one ``np.bincount`` per feature, which adds the points in order
    into sums that start at 0.0.  That is how numpy adds the whole rows of
    ``points[members].mean(axis=0)`` (a C-contiguous copy), and both divide
    by the count, so the bits agree.  With one feature numpy sums pairwise
    from 9 rows on, so that case keeps the masked mean.
    """
    full = np.flatnonzero(counts)
    if points.shape[1] < 2:
        for j in full:
            centers[j] = points[assignments == j + 1].mean(axis=0)
        return
    idx = assignments - 1
    for f in range(points.shape[1]):
        sums = np.bincount(idx, weights=points[:, f], minlength=centers.shape[0])
        centers[full, f] = sums[full] / counts[full]


def _sq_distances(points, centers) -> np.ndarray:
    """The N x K squared distances, summed over the features left to right from 0.0.

    One feature at a time, without the N x K x p temporary of
    ``((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)``.
    Below 8 features that is numpy's own order, so the bits match the
    expression; from 8 on numpy sums pairwise, and the two differ by at
    most p ulps relative.
    """
    d2 = np.zeros((points.shape[0], centers.shape[0]))
    for j in range(points.shape[1]):
        d = points[:, j, None] - centers[None, :, j]
        d *= d
        d2 += d
    return d2


def _init_state(points, sensitive, cfg: ClusterConfig, rng) -> ClusterState:
    n, _ = points.shape
    k = cfg.n_clusters
    if cfg.init == "random_assignment":
        assignments = rng.integers(0, k, size=n) + 1
    else:
        centers = _kmeanspp_centers(points, k, rng)
        d2 = _sq_distances(points, centers)
        assignments = np.argmin(d2, axis=1) + 1
    return _state_from_assignments(points, sensitive, k, assignments.astype(np.int64))


def _kmeanspp_centers(points, k, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = _sq_distances(points, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[int(rng.integers(n))]
        else:
            centers[j] = points[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, _sq_distances(points, centers[j:j + 1])[:, 0])
    return centers


def _objective(points, sensitive, state: ClusterState, lam: float) -> tuple[float, float]:
    """Clustering loss and the penalized objective at the current state."""
    idx = state.assignments - 1
    loss = float(((points - state.centers[idx]) ** 2).sum())
    resid = state.proportions[idx] - sensitive
    return loss, loss - lam * float((resid * resid).sum())


def _per_point_pass(d2, s_int, state: ClusterState, lam: float) -> None:
    """One ``per_point`` sweep as a block scan (see the module docstring).

    ``pen[g]`` is ``lam * (w - g) ** 2``, the same elementwise operations as
    the one-point score ``d2[i] - lam * (w - s_i) ** 2``, so each scored row
    is bit-identical to scoring that point alone.  A move from ``f`` to
    ``t`` changes only ``w[f]``, ``w[t]`` and those two columns of ``pen``,
    so the sweep keeps the counts and proportions in Python lists and
    rewrites just the four penalty entries.  That is bit-identical to the
    array bookkeeping: Python ints and floats do the same IEEE-double
    operations as numpy's int64 and float64, int true division is correctly
    rounded for counts below 2**53 (as numpy's int64 division is), and
    ``lam * (d * d)`` is how numpy evaluates ``lam * d ** 2``.
    """
    n = d2.shape[0]
    counts = state.counts.tolist()
    priv = state.priv_counts.tolist()
    w = state.proportions.tolist()
    pen = lam * (state.proportions[None, :] - _GROUP_VALUES) ** 2
    assigned = state.assignments - 1
    i = 0
    while i < n:
        stop = min(i + _SCAN_BLOCK, n)
        choice = (d2[i:stop] - pen.take(s_int[i:stop], axis=0)).argmin(axis=1)
        changed = choice != assigned[i:stop]
        first = int(changed.argmax())
        if not changed[first]:
            i = stop
            continue
        i += first
        f, t, s = int(assigned[i]), int(choice[first]), int(s_int[i])
        if counts[f] <= 0:
            raise ValueError("count underflow: cluster bookkeeping is inconsistent")
        assigned[i] = t
        counts[f] -= 1
        priv[f] -= s
        counts[t] += 1
        priv[t] += s
        for k in (f, t):
            wk = priv[k] / counts[k] if counts[k] > 0 else state.global_priv
            w[k] = wk
            # Rows 0 and 1 of pen: (w - 0) ** 2 is w * w, (w - 1) ** 2 is d * d.
            d = wk - 1.0
            pen[0, k] = lam * (wk * wk)
            pen[1, k] = lam * (d * d)
        i += 1
    state.assignments = assigned + 1
    state.counts = np.array(counts, dtype=np.int64)
    state.priv_counts = np.array(priv, dtype=np.int64)
    state.proportions = np.array(w, dtype=np.float64)


def fair_kmeans(points, sensitive, cfg: ClusterConfig,
                initial_assignments=None) -> tuple[ClusterState, ClusterTrace]:
    """Alternating fair K-means.

    Each sweep scores every point against the current centers with the
    balance-adjusted distance, reassigns it, refreshes the proportions
    (immediately in ``per_point`` mode, after the full pass in
    ``per_sweep``), then recomputes the centers.  When the proportions are
    fixed for the sweep (``per_sweep``, or ``lam == 0`` in either mode) the
    pass is one vectorised argmin followed by one tally; ``per_point`` with
    ``lam > 0`` runs the block scan of ``_per_point_pass``, which stops at
    each move and is exact because the proportions are constant between
    moves.  Terminates when a sweep moves nothing, when the assignment
    vector revisits a previous state (a cycle), or at ``max_sweeps``.

    ``initial_assignments`` (1-based) overrides the configured
    initialization; centers start at the implied cluster means.
    """
    x = np.asarray(points, dtype=np.float64)
    s = np.asarray(sensitive)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("points must be a nonempty N x p matrix")
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValueError(f"points must be finite, got {x[bad][0].item()!r}")
    n = x.shape[0]
    if s.shape != (n,) or not np.all((s == 0) | (s == 1)):
        raise ValueError("sensitive must be length N with values in {0, 1}")
    if cfg.n_clusters > n:
        raise ValueError(f"n_clusters={cfg.n_clusters} exceeds the number of points {n}")
    s_int = s.astype(np.int64)
    s = s.astype(np.float64)

    rng = np.random.default_rng(cfg.seed)
    if initial_assignments is not None:
        a = np.asarray(initial_assignments)
        labels = a.astype(np.int64)
        bad = labels != a
        if bad.any():
            raise ValueError(f"initial assignments must be integers, got {a[bad][0].item()!r}")
        state = _state_from_assignments(x, s, cfg.n_clusters, labels)
    else:
        state = _init_state(x, s, cfg, rng)
    trace = ClusterTrace()
    # Assignments alone do not determine the dynamics when a cluster is
    # empty (its kept center is history), so the cycle key includes centers.
    seen = {state.assignments.tobytes() + state.centers.tobytes(): 0}
    per_point = cfg.w_update_mode == "per_point" and cfg.lam != 0

    for sweep in range(1, cfg.max_sweeps + 1):
        prev = state.assignments.copy()
        d2 = _sq_distances(x, state.centers)
        if per_point:
            _per_point_pass(d2, s_int, state, cfg.lam)
        else:
            # At lam = 0 the penalty is +0.0 and d2 >= +0.0, so d2 is the score.
            scores = d2 if cfg.lam == 0 else (
                d2 - cfg.lam * (state.proportions[None, :] - s[:, None]) ** 2)
            state.assignments = np.argmin(scores, axis=1) + 1
            state.counts, state.priv_counts, state.proportions = _tally(
                state.assignments, s, cfg.n_clusters, state.global_priv)
        # Each point is visited once per sweep, so the moves are the changed entries.
        moves = int(np.count_nonzero(state.assignments != prev))

        _update_centers(x, state.assignments, state.counts, state.centers)

        loss, obj = _objective(x, s, state, cfg.lam)
        active = state.counts > 0
        trace.sweep.append(sweep)
        trace.kmeans_loss.append(loss)
        trace.objective.append(obj)
        trace.w_std.append(float(np.std(state.proportions[active])))
        trace.moves.append(moves)

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
