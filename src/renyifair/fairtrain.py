"""Min-max training of fair classifiers.

The objective is cross entropy plus ``lam`` times a fairness penalty, and
every penalty is the inner maximum of a tractable adversarial problem:

* ``dp_discrete``: demographic parity for a d-valued sensitive attribute.
  The adversary is the second right singular vector ``v`` of the empirical
  Q matrix between the soft output and the groups; the penalty is
  ``lam * ||Q v||^2`` and ``v`` is refreshed from an exact SVD before
  every descent step.
* ``dp_binary``: demographic parity for a binary attribute.  The adversary
  is a weight per class with a closed-form maximizer
  ``w_i = sum_n stilde_n F_i(x_n) / (2 sum_n F_i(x_n))`` (stilde = +/-1),
  so each outer step is preceded by an exact inner solve.
* ``eo``: equalized odds; the same demographic-parity penalty on each
  label-conditioned subset (closed form when d = 2, SVD otherwise), summed.
* ``pearson`` / ``hsic``: baseline regularizers on the positive-class soft
  score, for comparison; both only capture (co)variance-level dependence.

The adversary is held fixed while the parameter gradient is taken, exactly
matching the alternation of the descent-ascent scheme; nothing
differentiates through the SVD.  Every penalty returns its unscaled value
and its gradient with respect to the soft outputs; :func:`train` applies
``lam`` once and pulls the gradient back through the same forward pass that
gave the cross entropy.

The logged sigma2 comes from the step's own inner solve: the second singular
value of Q on the SVD route, ``sqrt(max(rho^2, 0))`` on the closed-form
route, and for ``eo`` the root of the summed squares over label slices.
``none``, ``pearson`` and ``hsic`` take it from an SVD of the empirical Q.
The marginal floor clamps Q's marginals on the SVD route and each class's
predicted mass in the denominator of ``w`` on the closed-form route; while
it clamps nothing the two routes agree to rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import maxcorr
from .maxcorr import DEFAULT_MARGINAL_FLOOR, GroupIndex
# ``forward`` is unused here but stays importable as ``fairtrain.forward``:
# perfbench/smoke.py checks that its tracer wraps this binding.
from .model import Batch, ModelParams, forward, loss_grad_and_vjp  # noqa: F401

logger = logging.getLogger(__name__)

FAIRNESS_MODES = ("none", "dp_discrete", "dp_binary", "eo", "pearson", "hsic")

# Below this variance the score column is treated as constant (degenerate
# but independent) by the baseline penalties.
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    lam: float = 0.0
    eta: float = 0.1
    iters: int = 5000
    fairness_mode: str = "none"
    batch_size: int | None = None
    floor: float = DEFAULT_MARGINAL_FLOOR
    seed: int = 0
    grad_tol: float = 0.0
    eo_min_group: int = 30

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.floor <= 0:
            raise ValueError("floor must be positive")
        if self.fairness_mode not in FAIRNESS_MODES:
            raise ValueError(f"unknown fairness mode {self.fairness_mode!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when set")
        if self.eo_min_group < 1:
            raise ValueError(
                f"eo_min_group must be at least 1, got {self.eo_min_group}: an "
                "equalized-odds slice needs every sensitive group present")


@dataclass
class TrainTrace:
    """Per-iteration diagnostics plus the final parameters.

    ``sigma2`` is the empirical maximal correlation between the soft output
    and the sensitive attribute, from the step's inner solve: the second
    singular value of Q (``dp_discrete``, ``eo`` with d > 2) or the closed
    form's ``sqrt(max(rho^2, 0))`` (``dp_binary``, ``eo`` with d = 2), as the
    root sum of squares over label slices for ``eo``; ``none``, ``pearson``
    and ``hsic`` take it from an SVD of the floored empirical Q.
    ``adversary`` holds the inner maximizer used for the step (``v``, ``w``,
    or a per-label dict).
    """

    iteration: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    penalty: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    sigma2: list = field(default_factory=list)
    adversary: list = field(default_factory=list)
    final_params: ModelParams | None = None
    diverged: bool = False
    stopped_early: bool = False

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,loss,penalty,grad_norm,sigma2\n")
            for row in zip(self.iteration, self.loss, self.penalty,
                           self.grad_norm, self.sigma2):
                fh.write(",".join(repr(float(v)) if i else str(int(v))
                                  for i, v in enumerate(row)) + "\n")


def s_tilde(sensitive) -> np.ndarray:
    """Map group labels {1, 2} to the signs {-1, +1}."""
    s = np.asarray(sensitive, dtype=np.float64)
    if np.any((s != 1) & (s != 2)):
        raise ValueError("binary sensitive labels must be in {1, 2}")
    return 2.0 * (s - 1.0) - 1.0


def inner_w_closed_form(soft_probs, stilde, floor: float = DEFAULT_MARGINAL_FLOOR) -> np.ndarray:
    """Exact maximizer of the binary inner problem, one weight per class.

    ``w_i = mean(stilde * F_i) / (2 * max(mean(F_i), floor))``; the floor on
    the denominator keeps the update finite for classes with vanishing
    predicted mass.  With the floor inactive every ``|w_i| <= 1/2``.
    """
    f = np.asarray(soft_probs, dtype=np.float64)
    st = np.asarray(stilde, dtype=np.float64)
    if f.ndim != 2 or st.shape != (f.shape[0],):
        raise ValueError("soft_probs must be N x c with matching stilde")
    if np.any(np.abs(st) != 1.0):
        raise ValueError("stilde entries must be +1 or -1")
    num = (st[:, None] * f).mean(axis=0)
    den = np.maximum(f.mean(axis=0), floor)
    return num / (2.0 * den)


def _binary_inner_value(soft_probs, stilde, w) -> tuple[float, float]:
    """Centered inner value and the implied squared correlation.

    Returns ``(q(1-q) - gamma(w), rho_sq)`` where ``gamma`` is the quadratic
    the inner problem minimizes and ``q`` the empirical P(S=1).  Centering by
    the independence value ``q(1-q)`` makes the penalty zero for predictors
    independent of the attribute.
    """
    f = np.asarray(soft_probs, dtype=np.float64)
    st = np.asarray(stilde, dtype=np.float64)
    m = f.mean(axis=0)
    t = (st[:, None] * f).mean(axis=0)
    gamma = float(np.sum(w * w * m) - np.sum(w * t) + 0.25)
    q = float((st.mean() + 1.0) / 2.0)
    qq = q * (1.0 - q)
    centered = qq - gamma
    rho_sq = centered / qq if qq > 0 else 0.0
    return centered, rho_sq


def _binary_seed(stilde, w, scale: float) -> np.ndarray:
    """d(penalty)/dF for the binary surrogate at fixed ``w``."""
    st = np.asarray(stilde, dtype=np.float64)
    return (np.outer(st, w) - (w * w)[None, :]) * scale


def _discrete_penalty(probs, sensitive, floor, n_groups, groups: GroupIndex | None = None):
    """SVD inner maximization for one group of samples.

    Returns ``(value, seed, sigma2, v)`` where ``value = ||Q v||^2`` and
    ``seed`` is d(value)/dF with the adversary ``v`` held fixed.  ``groups``
    indexes ``sensitive`` over 1..n_groups; it is built here when not given.
    """
    if groups is None:
        groups = maxcorr.group_index(sensitive, n_groups)
    n = probs.shape[0]
    qm = maxcorr.q_from_groups(probs, groups, floor)
    svd = maxcorr.svd_small(qm.q)
    v = svd.right_vectors[:, 1].copy()
    sigma2 = float(svd.singular_values[1])
    r = qm.q @ v
    value = float(r @ r)

    p_class = qm.row_marginal
    p_group = qm.col_marginal
    # p_class is the class mean floored, so this is "mean > floor".
    active = p_class > floor
    a = 2.0 * r / np.sqrt(p_class)
    b = np.where(active, r * r / p_class, 0.0)
    g = (v / np.sqrt(p_group))[groups.codes]
    seed = (np.outer(g, a) - b[None, :]) / n
    return value, seed, sigma2, v


def _dp_penalty(probs, sensitive, floor, groups: GroupIndex | None):
    """Demographic-parity penalty on one set of rows.

    Returns ``(value, seed, sigma2_sq, adversary)``.  Without a group index
    the inner maximum is solved in closed form for the binary weights ``w``
    and ``sigma2_sq`` is the implied squared correlation, clipped at 0; with
    one, the SVD route (:func:`_discrete_penalty`) squares the second
    singular value of Q.
    """
    if groups is None:
        st = s_tilde(sensitive)
        w = inner_w_closed_form(probs, st, floor)
        value, rho_sq = _binary_inner_value(probs, st, w)
        return value, _binary_seed(st, w, 1.0 / st.size), max(rho_sq, 0.0), w
    value, seed, sigma2, v = _discrete_penalty(probs, sensitive, floor, groups.n_groups, groups)
    return value, seed, sigma2 * sigma2, v


def pearson_penalty(soft_probs, sensitive) -> tuple[float, np.ndarray]:
    """Squared Pearson correlation between the positive-class score and S.

    Returns the value and its gradient with respect to the soft probability
    matrix (nonzero only in the positive-class column).  A score column with
    variance below the floor counts as independent and yields exactly 0.
    """
    f = np.asarray(soft_probs, dtype=np.float64)
    st = s_tilde(sensitive)
    x = f[:, 1]
    n = len(x)
    xc = x - x.mean()
    yc = st - st.mean()
    vx = float(np.mean(xc * xc))
    vy = float(np.mean(yc * yc))
    seed = np.zeros_like(f)
    if vx <= VARIANCE_FLOOR or vy <= VARIANCE_FLOOR:
        return 0.0, seed
    cxy = float(np.mean(xc * yc))
    rho = cxy / np.sqrt(vx * vy)
    drho_dx = (yc - (cxy / vx) * xc) / (n * np.sqrt(vx * vy))
    seed[:, 1] = 2.0 * rho * drho_dx
    return float(rho * rho), seed


def hsic_penalty(soft_probs, sensitive, groups: GroupIndex | None = None) -> tuple[float, np.ndarray]:
    """Biased empirical HSIC between the positive-class score and S.

    With a linear kernel on the score and a delta kernel on the groups the
    statistic reduces to a sum of squared centered within-group score sums.
    Nonnegative, and zero for a constant score.  ``groups`` indexes
    ``sensitive`` (built here over 1..max when not given); an empty group
    adds exact zeros.
    """
    f = np.asarray(soft_probs, dtype=np.float64)
    x = f[:, 1]
    n = len(x)
    xc = x - x.mean()
    seed = np.zeros_like(f)
    if float(np.mean(xc * xc)) <= VARIANCE_FLOOR:
        return 0.0, seed
    if groups is None:
        s = np.asarray(sensitive)
        groups = maxcorr.group_index(s, int(s.max()))
    totals = [float(xc[rows].sum()) for rows in groups.rows]
    value = sum(t * t for t in totals) / (n * n)
    mix = sum(t * rows.size for t, rows in zip(totals, groups.rows)) / n
    seed[:, 1] = 2.0 * (np.array(totals)[groups.codes] - mix) / (n * n)
    return float(value), seed


def _eo_slices(batch: Batch, n_groups: int, eo_min_group: int, warned: set) -> list[np.ndarray]:
    """Index arrays of the label slices large enough for a conditional penalty.

    Groups are counted over the full alphabet ``1..n_groups``, so a slice of
    a minibatch that lacks a group is skipped like any other small slice.
    """
    slices = []
    for y in range(1, batch.n_classes + 1):
        idx = np.flatnonzero(batch.labels == y)
        if idx.size == 0:
            continue
        group_counts = np.bincount(batch.sensitive[idx] - 1, minlength=n_groups)
        if group_counts.min() < eo_min_group:
            if y not in warned:
                warned.add(y)
                logger.warning(
                    "equalized-odds slice y=%d skipped: smallest group has %d "
                    "samples (< %d)", y, int(group_counts.min()), eo_min_group,
                )
            continue
        slices.append(idx)
    return slices


@dataclass(frozen=True)
class _RowIndex:
    """What the penalty needs of one batch's rows; fixed while theta moves.

    ``groups`` indexes the batch's groups (None for ``dp_binary`` and
    ``eo``).  ``slices`` holds, for ``eo``, each label slice large enough to
    penalize with its own group index, or None where the binary closed form
    serves (d = 2).
    """

    groups: GroupIndex | None
    slices: tuple[tuple[np.ndarray, GroupIndex | None], ...] = ()


def _row_index(sub: Batch, cfg: TrainConfig, n_groups: int, warned: set) -> _RowIndex:
    mode = cfg.fairness_mode
    if mode == "dp_binary":
        return _RowIndex(None)
    if mode == "eo":
        return _RowIndex(None, tuple(
            (idx, None if n_groups == 2 else maxcorr.group_index(sub.sensitive[idx], n_groups))
            for idx in _eo_slices(sub, n_groups, cfg.eo_min_group, warned)))
    return _RowIndex(maxcorr.group_index(sub.sensitive, n_groups))


def _penalty(probs, sub: Batch, cfg: TrainConfig, index: _RowIndex):
    """Unscaled ``(value, seed, sigma2_sq, adversary)`` of the configured penalty.

    ``seed`` is d(value)/dF with the adversary held fixed (None for
    ``none``).  ``sigma2_sq`` is the squared maximal correlation from the
    inner solve, summed over label slices for ``eo``; it is None where no
    adversary is solved, and the caller then computes sigma2 from Q.
    """
    mode = cfg.fairness_mode
    if mode in ("dp_discrete", "dp_binary"):
        return _dp_penalty(probs, sub.sensitive, cfg.floor, index.groups)
    if mode == "eo":
        total, seed, sq_sum, adversaries = 0.0, np.zeros_like(probs), 0.0, {}
        for idx, groups in index.slices:
            value, sl_seed, sl_sq, adversaries[int(sub.labels[idx[0]])] = _dp_penalty(
                probs[idx], sub.sensitive[idx], cfg.floor, groups)
            total += value
            seed[idx] += sl_seed
            sq_sum += sl_sq
        return total, seed, sq_sum, adversaries
    if mode == "pearson":
        return (*pearson_penalty(probs, sub.sensitive), None, None)
    if mode == "hsic":
        return (*hsic_penalty(probs, sub.sensitive, index.groups), None, None)
    return 0.0, None, None, None


def _validate_mode(cfg: TrainConfig, batch: Batch) -> None:
    d = batch.n_groups
    if cfg.fairness_mode in ("dp_binary", "pearson", "hsic") and d != 2:
        raise ValueError(f"{cfg.fairness_mode} requires a binary sensitive attribute, got d={d}")
    if cfg.fairness_mode == "dp_discrete" and d < 2:
        raise ValueError("dp_discrete requires at least two sensitive groups")


def train(params: ModelParams, batch: Batch, cfg: TrainConfig) -> TrainTrace:
    """Gradient descent on cross entropy plus the configured fairness penalty.

    Each iteration solves the inner maximization exactly (SVD or closed
    form), then takes one descent step on the parameters with the adversary
    fixed.  One forward pass per step feeds the loss, the penalty and both
    backward passes (cross entropy, then the penalty's pullback, summed in
    that order).  With ``lam == 0`` the iterate sequence is bitwise
    identical to plain gradient descent under the same seed.  Runs for
    ``cfg.iters`` steps or until the full objective gradient norm drops to
    ``cfg.grad_tol``; a non-finite loss stops the run with the trace flagged
    as diverged.  A run that uses all its steps ends with a diagnostic row
    at the last iterate on the full batch.

    The rows each penalty needs (group index, label slices) are indexed once
    per batch: once per run on the full batch, once per step on minibatches.
    """
    _validate_mode(cfg, batch)
    n_groups = batch.n_groups
    warned: set = set()
    full_index: list[_RowIndex] = []  # the full batch's, built on first use
    trace = TrainTrace()
    rng = np.random.default_rng(cfg.seed)
    order = np.array([], dtype=np.int64)
    cursor = 0

    def next_batch() -> Batch:
        nonlocal order, cursor
        if cfg.batch_size is None or cfg.batch_size >= batch.n:
            return batch
        if cursor + cfg.batch_size > len(order):
            order = rng.permutation(batch.n)
            cursor = 0
        idx = order[cursor: cursor + cfg.batch_size]
        cursor += cfg.batch_size
        return batch.subset(idx)

    def row_index(sub: Batch) -> _RowIndex:
        if sub is not batch:
            return _row_index(sub, cfg, n_groups, warned)
        if not full_index:
            full_index.append(_row_index(batch, cfg, n_groups, warned))
        return full_index[0]

    def step(theta: ModelParams, sub: Batch):
        """Objective gradient at ``theta`` on ``sub`` and its trace row."""
        probs, loss, grad, vjp = loss_grad_and_vjp(theta, sub)
        index = row_index(sub)
        value, seed, sigma2_sq, adversary = _penalty(probs, sub, cfg, index)
        if sigma2_sq is None:
            sigma2 = maxcorr.second_singular_value(
                maxcorr.q_from_groups(probs, index.groups, cfg.floor))
        else:
            sigma2 = float(np.sqrt(sigma2_sq))
        if cfg.lam != 0.0 and seed is not None:
            grad = grad + vjp(cfg.lam * seed)
        return grad, (loss, float(cfg.lam * value), float(np.linalg.norm(grad)), sigma2, adversary)

    def record(t: int, row) -> None:
        columns = (trace.loss, trace.penalty, trace.grad_norm, trace.sigma2, trace.adversary)
        trace.iteration.append(t)
        for column, value in zip(columns, row):
            column.append(value)

    theta = params
    for t in range(cfg.iters):
        grad, row = step(theta, next_batch())
        loss, _, grad_norm, _, _ = row
        if not np.isfinite(loss) or not np.isfinite(grad_norm):
            trace.diverged = True
            break
        record(t, row)
        if cfg.grad_tol > 0 and grad_norm <= cfg.grad_tol:
            trace.stopped_early = True
            break
        theta = theta.with_theta(theta.theta - cfg.eta * grad)
    else:
        _, row = step(theta, batch)
        if np.isfinite(row[0]):
            record(cfg.iters, row)

    trace.final_params = theta
    return trace

