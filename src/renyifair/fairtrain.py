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
gave the cross entropy, in the one backward pass that takes its gradient.
Each penalty's builder takes the batch's ``maxcorr.GroupIndex`` (codes and
per-group counts; one per ``eo`` label slice), the one record of which rows
are in which group.

Every penalty gives ``(value, seed, sigma2_sq)`` from the step's own inner
solve, and the logged sigma2 is ``sqrt(sigma2_sq)``: the bits of sigma2
itself, unless sigma2 < 1.5e-154 and its square underflows.  The square
is sigma2^2 of Q on the SVD route (:func:`_svd_route`: ``dp_discrete``, and
``eo`` at d > 2), ``max(rho^2, 0)`` on the closed-form route
(:func:`_closed_form`: ``dp_binary``, and ``eo`` at d = 2), summed over
label slices for ``eo``, and for ``none``, ``pearson`` and ``hsic``, which
only log it, the square of ``maxcorr.second_singular_value`` of the
empirical Q.  On a batch that lacks a group (a minibatch, or a training
split without some declared group), ``dp_discrete`` and the three baselines
take Q over the groups present (logged once per run); with one group left
(``n_groups < 2`` on the index) sigma2 is 0.0, and so are the value and
seed on both routes (every ``eo`` slice holds every group).  The marginal
floor clamps Q's marginals on the SVD route and each class's predicted mass
in the denominator of ``w`` on the closed-form route; while it clamps
nothing the two routes agree to rounding.  Each seed is the gradient of its
value where the inner maximizer is unique (Danskin), except on the
closed-form route under a clamped class: ``w`` is floored but the value
reads the unfloored mass, so there the seed is not the value's gradient.
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


# A finished run settled when its last grad_norm and the range of its sigma2
# over the last SETTLE_WINDOW rows are both below SETTLE_TOL.
SETTLE_WINDOW = 500
SETTLE_TOL = 1e-3


def run_status(trace: TrainTrace) -> tuple[str, bool]:
    """Why a finished run stopped, and whether it settled.

    The reason is ``"diverged"`` (a non-finite loss or gradient norm),
    ``"grad_tol"`` (the gradient norm reached ``grad_tol``) or ``"iters"``
    (every step taken).  A run settled when its last logged grad_norm is
    below ``SETTLE_TOL`` and its sigma2 moved by less than ``SETTLE_TOL``
    (largest minus smallest) over its last ``SETTLE_WINDOW`` rows; a
    diverged run never settled.  A fixed step can end a run that still
    cycles, so its final iterate alone does not say that it found a fixed
    point.
    """
    reason = "diverged" if trace.diverged else "grad_tol" if trace.stopped_early else "iters"
    tail = trace.sigma2[-SETTLE_WINDOW:]
    settled = (reason != "diverged" and bool(tail) and trace.grad_norm[-1] < SETTLE_TOL
               and max(tail) - min(tail) < SETTLE_TOL)
    return reason, settled


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


def _outer_minus(col, row, sub) -> np.ndarray:
    """``col[:, None] * row - sub``, bit for bit, through the column kernels."""
    prod = _columnwise(np.multiply, np.broadcast_to(col[:, None], (col.size, row.size)), row)
    return _columnwise(np.subtract, prod, sub, out=prod)


def _no_penalty(probs):
    """A batch left with one group has nothing to correlate with: all three are zero."""
    return 0.0, np.zeros_like(probs), 0.0


def _closed_form(groups: GroupIndex, floor):
    """The binary closed form on the rows ``groups`` indexes: ``probs -> (value, seed, sigma2_sq)``.

    The signs and ``q(1-q)``, q being group 2's share, are built here, once.
    Each step takes the two column means once, for ``w`` and the value
    ``q(1-q) - gamma(w)``, gamma being the quadratic the inner problem
    minimizes: zero for a predictor independent of the attribute, and
    ``q(1-q)`` times sigma2^2.  With one group, :func:`_no_penalty`.
    """
    if groups.n_groups < 2:
        return _no_penalty
    st = 2.0 * groups.codes - 1.0
    q = float((st.mean() + 1.0) / 2.0)
    qq = q * (1.0 - q)

    def penalty(probs):
        m, t = _binary_means(probs, st)
        w = _maximizer(m, t, floor)
        value = qq - float(np.sum(w * w * m) - np.sum(w * t) + 0.25)
        seed = _outer_minus(st, w, w * w)
        seed *= 1.0 / st.size
        return value, seed, max(value / qq, 0.0)
    return penalty


def _svd_route(groups: GroupIndex, floor):
    """The SVD route on the rows ``groups`` indexes: ``probs -> (value, seed, sigma2_sq)``.

    ``value = ||Q v||^2`` for the second right singular vector ``v`` of Q,
    and ``seed`` is d(value)/dF with ``v`` and the floored marginals held
    fixed; with one group, :func:`_no_penalty`.
    """
    if groups.n_groups < 2:
        return _no_penalty

    def penalty(probs):
        qm = maxcorr.q_from_groups(probs, groups, floor)
        svd = maxcorr.svd_small(qm.q)
        v = svd.right_vectors[:, 1].copy()
        sigma2 = float(svd.singular_values[1])
        r = qm.q @ v
        p_class = qm.row_marginal
        # p_class is the class mean floored, so this is "mean > floor".
        a = 2.0 * r / np.sqrt(p_class)
        b = np.where(p_class > floor, r * r / p_class, 0.0)
        seed = _outer_minus((v / np.sqrt(qm.col_marginal)).take(groups.codes), a, b)
        seed /= probs.shape[0]
        return float(r @ r), seed, sigma2 * sigma2
    return penalty


def pearson_penalty(soft_probs, sensitive) -> tuple[float, np.ndarray]:
    """Squared Pearson correlation between the positive-class score and S.

    Returns the value and its gradient with respect to the soft probability
    matrix (nonzero only in the positive-class column).  A score column with
    variance below the floor counts as independent and yields exactly 0.
    """
    s_tilde(sensitive)  # rejects a label outside {1, 2}
    return _pearson(maxcorr.group_index(sensitive, 2))(soft_probs)


def _pearson(groups: GroupIndex):
    """:func:`pearson_penalty` on the rows ``groups`` indexes: ``probs -> (value, seed)``.

    The sensitive side (signs, centred signs, their variance) is built
    here, once.
    """
    st = 2.0 * groups.codes - 1.0
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
    if groups is None:
        s_tilde(sensitive)  # rejects a label outside {1, 2}
        groups = maxcorr.group_index(sensitive, 2)
    return _hsic(groups)(soft_probs)


def _hsic(groups: GroupIndex):
    """:func:`hsic_penalty` on the rows of ``groups``, listed once: ``probs -> (value, seed)``."""
    rows = [np.flatnonzero(groups.codes == j) for j in range(groups.n_groups)]

    def penalty(soft_probs):
        f = np.asarray(soft_probs, dtype=np.float64)
        x = f[:, 1]
        n = len(x)
        xc = x - np.add.reduce(x) / n
        seed = np.zeros_like(f)
        if float(np.add.reduce(xc * xc) / n) <= VARIANCE_FLOOR:
            return 0.0, seed
        totals = [float(xc.take(r).sum()) for r in rows]
        value = sum(t * t for t in totals) / (n * n)
        mix = sum(t * r.size for t, r in zip(totals, rows)) / n
        seed[:, 1] = 2.0 * (np.array(totals).take(groups.codes) - mix) / (n * n)
        return float(value), seed
    return penalty


def _eo_slices(batch: Batch, n_groups: int, eo_min_group: int, warned: set) -> list:
    """``(rows, group index)`` of each label slice large enough for a conditional penalty.

    Groups are counted over the full alphabet ``1..n_groups``, so a slice of
    a minibatch that lacks a group is skipped like any other small slice.
    """
    slices = []
    for y in range(1, batch.n_classes + 1):
        idx = np.flatnonzero(batch.labels == y)
        if idx.size == 0:
            continue
        groups = maxcorr.group_index(batch.sensitive[idx], n_groups)
        smallest = int(groups.counts.min()) if groups.n_groups == n_groups else 0
        if smallest < eo_min_group:
            if y not in warned:
                warned.add(y)
                logger.warning(
                    "equalized-odds slice y=%d skipped: smallest group has %d "
                    "samples (< %d)", y, smallest, eo_min_group,
                )
            continue
        slices.append((idx, groups))
    return slices


def _penalty_on(sub: Batch, cfg: TrainConfig, warned: set, n_classes: int):
    """The configured penalty on ``sub``'s rows: ``probs -> (value, seed, sigma2_sq)``.

    ``value`` is unscaled, ``seed`` is d(value)/dF (N x ``n_classes``) with
    the adversary held fixed (None for ``none``) and ``sigma2_sq`` is the
    square of the logged sigma2.  Groups range over ``sub``'s declared
    alphabet.  The rows are indexed once here, so the returned function
    serves every step on ``sub``.
    """
    mode, n_groups = cfg.fairness_mode, sub.n_groups
    if mode in ("dp_binary", "pearson", "hsic") and n_groups != 2:
        raise ValueError(f"{mode} requires a binary sensitive attribute, got d={n_groups}")
    if mode == "dp_discrete" and n_groups < 2:
        raise ValueError("dp_discrete requires at least two sensitive groups")
    if mode == "eo":
        route = _closed_form if n_groups == 2 else _svd_route
        # Each slice's flat positions ``idx * c + j`` in a C-ordered N x c seed.
        slices = [(idx, (idx[:, None] * n_classes + np.arange(n_classes)).ravel(),
                   route(groups, cfg.floor))
                  for idx, groups in _eo_slices(sub, n_groups, cfg.eo_min_group, warned)]

        def penalty(probs):
            total, seed, sq_sum = 0.0, np.zeros(probs.size), 0.0
            for idx, pos, dp in slices:
                value, sl_seed, sl_sq = dp(probs.take(idx, axis=0))
                total += value
                seed[pos] = sl_seed.reshape(-1)
                sq_sum += sl_sq
            seed += 0.0  # each -0.0 to 0.0 in one pass, cheaper than += per slice
            return total, seed.reshape(probs.shape), sq_sum
        return penalty
    groups = maxcorr.group_index(sub.sensitive, n_groups)
    if mode == "dp_binary":
        return _closed_form(groups, cfg.floor)
    if groups.n_groups < n_groups and "groups" not in warned:
        warned.add("groups")
        logger.warning("%s on a batch that lacks a sensitive group: "
                       "Q is taken over the %d of %d groups present",
                       "dp_discrete penalty" if mode == "dp_discrete" else "sigma2 diagnostic",
                       groups.n_groups, n_groups)
    if mode == "dp_discrete":
        return _svd_route(groups, cfg.floor)
    if mode == "pearson":
        baseline = _pearson(groups)
    elif mode == "hsic":
        baseline = _hsic(groups)
    else:
        baseline = lambda probs: (0.0, None)

    def penalty(probs):
        value, seed = baseline(probs)
        s = maxcorr.second_singular_value(maxcorr.q_from_groups(probs, groups, cfg.floor))
        return value, seed, s * s
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
    fixed.  One forward pass per step feeds the loss and the penalty, and one
    backward pass gives the cross-entropy gradient plus the penalty's
    pullback, with the bits of the two taken apart and summed in that order
    (see the ``model`` module docstring).  With ``lam == 0`` the penalty is
    not pulled back and the iterate sequence is bitwise
    identical to plain gradient descent under the same seed.  Runs for
    ``cfg.iters`` steps or until the full objective gradient norm drops to
    ``cfg.grad_tol``.  A non-finite loss or soft output (checked before the
    penalty sees the outputs), gradient norm or updated theta (one
    ``isfinite`` scan, after which the iterate is taken over without the
    ``ModelParams`` checks) stops the run with the trace flagged as
    diverged, in every mode; ``final_params`` is then the last finite
    iterate.  A run that uses all its steps ends with a diagnostic row at
    the last iterate on the full batch, or is flagged as diverged when that
    row is not finite.

    Each penalty reads one group index of its rows (one per label slice for
    ``eo``), built once per batch: once per run on the full batch, once per
    step on minibatches.
    """
    warned: set = set()
    trace = TrainTrace()

    @functools.cache
    def full_penalty():
        return _penalty_on(batch, cfg, warned, params.n_classes)

    def step(theta: ModelParams, sub: Batch):
        """Objective gradient at ``theta`` on ``sub`` and its trace row.

        Outputs that are not finite (overflowing logits) give no gradient
        and a row of nan past the loss: the penalty never sees them.
        """
        probs, loss, backward = loss_grad_and_vjp(theta, sub)
        if not (math.isfinite(loss) and np.isfinite(probs).all()):
            return None, (loss, math.nan, math.nan, math.nan)
        penalty = full_penalty() if sub is batch else _penalty_on(sub, cfg, warned, theta.n_classes)
        value, seed, sigma2_sq = penalty(probs)
        grad = backward(cfg.lam * seed if cfg.lam != 0.0 and seed is not None else None)
        return grad, (loss, float(cfg.lam * value), math.sqrt(grad.dot(grad)), math.sqrt(sigma2_sq))

    def finite(row) -> bool:
        return math.isfinite(row[0]) and math.isfinite(row[2])

    def record(t: int, row) -> None:
        trace.iteration.append(t)
        for column, value in zip((trace.loss, trace.penalty, trace.grad_norm, trace.sigma2), row):
            column.append(value)

    theta = params
    batches = _batches(batch, cfg.batch_size, np.random.default_rng(cfg.seed))
    # A diverging run overflows the logits, the softmax or the grad-norm
    # product; ``diverged`` reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, sub in zip(range(cfg.iters), batches):
            grad, row = step(theta, sub)
            if not finite(row):
                trace.diverged = True
                break
            record(t, row)
            if cfg.grad_tol > 0 and row[2] <= cfg.grad_tol:
                trace.stopped_early = True
                break
            updated = theta.theta - cfg.eta * grad
            if not np.isfinite(updated).all():
                trace.diverged = True
                break
            theta = theta._with_finite_theta(updated)
        else:
            _, row = step(theta, batch)
            if finite(row):
                record(cfg.iters, row)
            else:
                trace.diverged = True

    trace.final_params = theta
    return trace

