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
``none``, ``pearson`` and ``hsic`` only log it, from
``maxcorr.second_singular_value`` of the empirical Q: with two classes or
two groups and no marginal floored that is the Frobenius norm of the
deflated Q, within 1e-15 of LAPACK, and LAPACK's sigma2 otherwise.  On a
batch that lacks a group (a minibatch, or a training split without some
declared group), ``dp_discrete`` and the three baselines take Q over the
groups present (logged once per run); with one group left sigma2 is 0.0,
and so are ``dp_discrete``'s value and seed.  The marginal floor
clamps Q's marginals on the SVD route and each class's predicted mass in
the denominator of ``w`` on the closed-form route; while it clamps nothing
the two routes agree to rounding.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import maxcorr
from .maxcorr import DEFAULT_MARGINAL_FLOOR, GroupIndex
# ``forward`` is unused here but stays importable as ``fairtrain.forward``:
# perfbench/smoke.py checks that its tracer wraps this binding.
from .model import Batch, ModelParams, _column_mean, _columnwise, forward, loss_grad_and_vjp  # noqa: F401

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
        for name in ("lam", "eta", "floor", "grad_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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
        if self.batch_size is not None and (
                not isinstance(self.batch_size, numbers.Integral)
                or isinstance(self.batch_size, bool) or self.batch_size < 1):
            raise ValueError(f"batch_size must be a positive integer when set, got {self.batch_size!r}")
        if self.eo_min_group < 1:
            raise ValueError(
                f"eo_min_group must be at least 1, got {self.eo_min_group}: an "
                "equalized-odds slice needs every sensitive group present")


@dataclass
class TrainTrace:
    """Per-iteration diagnostics plus the final parameters.

    ``sigma2`` is the step's empirical maximal correlation between the soft
    output and the sensitive attribute, by the rule in the module docstring.
    """

    iteration: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    penalty: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    sigma2: list = field(default_factory=list)
    final_params: ModelParams | None = None
    diverged: bool = False
    stopped_early: bool = False


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
    return _maximizer(*_binary_means(f, st), floor)


def _binary_means(f, st):
    """``(mean(F), mean(stilde * F))`` down the columns: all the closed form reads of F."""
    # F * stilde has the bits of stilde * F: IEEE multiplication commutes.
    return _column_mean(f), _column_mean(_columnwise(np.multiply, f, st[:, None]))


def _maximizer(m, t, floor):
    """``w`` of :func:`inner_w_closed_form` from the two column means."""
    return t / (2.0 * np.maximum(m, floor))


def _centered_value(m, t, w, q):
    """Centered inner value and the implied squared correlation.

    Returns ``(q(1-q) - gamma(w), rho_sq)`` from the column means, where
    ``gamma`` is the quadratic the inner problem minimizes and ``q`` the
    empirical P(S=1).  Centering by the independence value ``q(1-q)`` makes
    the penalty zero for predictors independent of the attribute.
    """
    gamma = float(np.sum(w * w * m) - np.sum(w * t) + 0.25)
    qq = q * (1.0 - q)
    centered = qq - gamma
    rho_sq = centered / qq if qq > 0 else 0.0
    return centered, rho_sq


def _outer_minus(col, row, sub) -> np.ndarray:
    """``col[:, None] * row - sub``, bit for bit, through the column kernels."""
    prod = _columnwise(np.multiply, np.broadcast_to(col[:, None], (col.size, row.size)), row)
    return _columnwise(np.subtract, prod, sub, out=prod)


def _binary_seed(stilde, w, scale: float) -> np.ndarray:
    """d(penalty)/dF for the binary surrogate at fixed ``w``."""
    seed = _outer_minus(np.asarray(stilde, dtype=np.float64), w, w * w)
    seed *= scale
    return seed


def _discrete_penalty(probs, groups: GroupIndex, floor):
    """SVD inner maximization for the rows ``groups`` indexes.

    Returns ``(value, seed, sigma2, v)`` where ``value = ||Q v||^2`` and
    ``seed`` is d(value)/dF with the adversary ``v`` held fixed.
    """
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
    seed = _outer_minus((v / np.sqrt(p_group)).take(groups.codes), a, b)
    seed /= n
    return value, seed, sigma2, v


def _dp_penalty(sensitive, floor, n_groups, closed_form):
    """Demographic-parity penalty on one set of rows: ``probs -> (value, seed, sigma2_sq)``.

    The rows are indexed here, once: ``s_tilde`` and its share of group 2
    for the binary closed form, the group index for the SVD route.  Each
    closed-form step takes the two column means once, for both ``w`` and
    the value.  ``sigma2_sq`` is the square of the sigma2 the module
    docstring defines, so that ``eo`` can sum it.
    """
    if closed_form:
        st = s_tilde(sensitive)
        q = float((st.mean() + 1.0) / 2.0)

        def penalty(probs):
            m, t = _binary_means(probs, st)
            w = _maximizer(m, t, floor)
            value, rho_sq = _centered_value(m, t, w, q)
            return value, _binary_seed(st, w, 1.0 / st.size), max(rho_sq, 0.0)
        return penalty
    return _svd_penalty(maxcorr.group_index(sensitive, n_groups), floor)


def _svd_penalty(groups: GroupIndex, floor):
    """The SVD route of :func:`_dp_penalty` on the rows ``groups`` indexes.

    With one group there is nothing to correlate with: the value, the seed
    and sigma2 are zero.
    """
    if groups.n_groups < 2:
        return lambda probs: (0.0, np.zeros_like(probs), 0.0)

    def penalty(probs):
        value, seed, sigma2, _ = _discrete_penalty(probs, groups, floor)
        return value, seed, sigma2 * sigma2
    return penalty


def _sigma2_from_square(dp):
    """A :func:`_dp_penalty` that gives sigma2 rather than its square."""

    def penalty(probs):
        value, seed, sigma2_sq = dp(probs)
        return value, seed, float(np.sqrt(sigma2_sq))
    return penalty


def pearson_penalty(soft_probs, sensitive) -> tuple[float, np.ndarray]:
    """Squared Pearson correlation between the positive-class score and S.

    Returns the value and its gradient with respect to the soft probability
    matrix (nonzero only in the positive-class column).  A score column with
    variance below the floor counts as independent and yields exactly 0.
    """
    return _pearson(sensitive)(soft_probs)


def _pearson(sensitive):
    """:func:`pearson_penalty` on one set of rows: ``probs -> (value, seed)``.

    The sensitive side (signs, centred signs, their variance) is built
    here, once.
    """
    st = s_tilde(sensitive)
    yc = st - st.mean()
    vy = float(np.mean(yc * yc))

    def penalty(soft_probs):
        f = np.asarray(soft_probs, dtype=np.float64)
        x = f[:, 1]
        n = len(x)
        xc = x - np.add.reduce(x) / n
        vx = float(np.add.reduce(xc * xc) / n)
        seed = np.zeros_like(f)
        if vx <= VARIANCE_FLOOR or vy <= VARIANCE_FLOOR:
            return 0.0, seed
        cxy = float(np.add.reduce(xc * yc) / n)
        rho = cxy / np.sqrt(vx * vy)
        drho_dx = (yc - (cxy / vx) * xc) / (n * np.sqrt(vx * vy))
        seed[:, 1] = 2.0 * rho * drho_dx
        return float(rho * rho), seed
    return penalty


def hsic_penalty(soft_probs, sensitive, groups: GroupIndex | None = None) -> tuple[float, np.ndarray]:
    """Biased empirical HSIC between the positive-class score and S.

    With a linear kernel on the score and a delta kernel on the groups the
    statistic reduces to a sum of squared centered within-group score sums.
    Nonnegative, and zero for a constant score.  ``groups`` indexes
    ``sensitive`` (built here over the binary groups 1..2 when not given,
    and a label outside them raises).
    """
    f = np.asarray(soft_probs, dtype=np.float64)
    x = f[:, 1]
    n = len(x)
    xc = x - np.add.reduce(x) / n
    seed = np.zeros_like(f)
    if float(np.add.reduce(xc * xc) / n) <= VARIANCE_FLOOR:
        return 0.0, seed
    if groups is None:
        s_tilde(sensitive)  # rejects a label outside {1, 2}
        groups = maxcorr.group_index(sensitive, 2)
    totals = [float(xc.take(rows).sum()) for rows in groups.rows]
    value = sum(t * t for t in totals) / (n * n)
    mix = sum(t * rows.size for t, rows in zip(totals, groups.rows)) / n
    seed[:, 1] = 2.0 * (np.array(totals).take(groups.codes) - mix) / (n * n)
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


def _penalty_on(sub: Batch, cfg: TrainConfig, warned: set):
    """The configured penalty on ``sub``'s rows: ``probs -> (value, seed, sigma2)``.

    ``value`` is unscaled and ``seed`` is d(value)/dF with the adversary held
    fixed (None for ``none``).  Groups range over ``sub``'s declared
    alphabet.  The rows are indexed once here, so the returned function
    serves every step on ``sub``.
    """
    mode, n_groups = cfg.fairness_mode, sub.n_groups
    if mode in ("dp_binary", "pearson", "hsic") and n_groups != 2:
        raise ValueError(f"{mode} requires a binary sensitive attribute, got d={n_groups}")
    if mode == "dp_discrete" and n_groups < 2:
        raise ValueError("dp_discrete requires at least two sensitive groups")
    if mode == "dp_binary":
        return _sigma2_from_square(_dp_penalty(sub.sensitive, cfg.floor, n_groups, True))
    if mode == "eo":
        slices = [(idx, _dp_penalty(sub.sensitive[idx], cfg.floor, n_groups, n_groups == 2))
                  for idx in _eo_slices(sub, n_groups, cfg.eo_min_group, warned)]

        @functools.cache
        def positions(c):
            """Each slice's flat positions ``idx * c + j`` in a C-ordered N x c seed."""
            return [(idx[:, None] * c + np.arange(c)).ravel() for idx, _ in slices]

        def penalty(probs):
            total, seed, sq_sum = 0.0, np.zeros(probs.size), 0.0
            for (idx, dp), pos in zip(slices, positions(probs.shape[1])):
                value, sl_seed, sl_sq = dp(probs.take(idx, axis=0))
                total += value
                seed[pos] = sl_seed.reshape(-1)
                sq_sum += sl_sq
            seed += 0.0  # each -0.0 to 0.0 in one pass, cheaper than += per slice
            return total, seed.reshape(probs.shape), float(np.sqrt(sq_sum))
        return penalty
    groups = maxcorr.group_index(sub.sensitive, n_groups)
    if groups.n_groups < n_groups and "groups" not in warned:
        warned.add("groups")
        logger.warning("%s on a batch that lacks a sensitive group: "
                       "Q is taken over the %d of %d groups present",
                       "dp_discrete penalty" if mode == "dp_discrete" else "sigma2 diagnostic",
                       groups.n_groups, n_groups)
    if mode == "dp_discrete":
        return _sigma2_from_square(_svd_penalty(groups, cfg.floor))
    if mode == "pearson":
        baseline = _pearson(sub.sensitive)
    elif mode == "hsic":
        baseline = lambda probs: hsic_penalty(probs, sub.sensitive, groups)
    else:
        baseline = lambda probs: (0.0, None)

    def penalty(probs):
        value, seed = baseline(probs)
        return value, seed, maxcorr.second_singular_value(
            maxcorr.q_from_groups(probs, groups, cfg.floor))
    return penalty


def _batches(batch: Batch, size: int | None, rng):
    """Each step's batch: ``batch`` itself, or ``size`` rows at a time from one
    fresh permutation per epoch (an epoch's last rows, fewer than ``size``, left out)."""
    if size is None or size >= batch.n:
        return itertools.repeat(batch)
    return (batch.subset(order[i:i + size])
            for order in map(rng.permutation, itertools.repeat(batch.n))
            for i in range(0, batch.n - size + 1, size))


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

    The rows each penalty needs (signs, group index, label slices) are
    indexed once per batch: once per run on the full batch, once per step on
    minibatches.
    """
    warned: set = set()
    trace = TrainTrace()

    @functools.cache
    def full_penalty():
        return _penalty_on(batch, cfg, warned)

    def step(theta: ModelParams, sub: Batch):
        """Objective gradient at ``theta`` on ``sub`` and its trace row."""
        probs, loss, grad, vjp = loss_grad_and_vjp(theta, sub)
        penalty = full_penalty() if sub is batch else _penalty_on(sub, cfg, warned)
        value, seed, sigma2 = penalty(probs)
        if cfg.lam != 0.0 and seed is not None:
            grad = grad + vjp(cfg.lam * seed)
        return grad, (loss, float(cfg.lam * value), math.sqrt(grad.dot(grad)), sigma2)

    def record(t: int, row) -> None:
        trace.iteration.append(t)
        for column, value in zip((trace.loss, trace.penalty, trace.grad_norm, trace.sigma2), row):
            column.append(value)

    theta = params
    batches = _batches(batch, cfg.batch_size, np.random.default_rng(cfg.seed))
    # A diverging run overflows the grad-norm product; ``diverged`` reports it.
    with np.errstate(over="ignore"):
        for t, sub in zip(range(cfg.iters), batches):
            grad, row = step(theta, sub)
            loss, _, grad_norm, _ = row
            if not math.isfinite(loss) or not math.isfinite(grad_norm):
                trace.diverged = True
                break
            record(t, row)
            if cfg.grad_tol > 0 and grad_norm <= cfg.grad_tol:
                trace.stopped_early = True
                break
            theta = theta.with_theta(theta.theta - cfg.eta * grad)
        else:
            _, row = step(theta, batch)
            if math.isfinite(row[0]):
                record(cfg.iters, row)

    trace.final_params = theta
    return trace

