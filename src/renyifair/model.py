"""Differentiable soft classifiers with analytic gradients.

Two architectures, both producing probability-simplex rows:

* ``linear``: softmax(W x + b), i.e. multinomial logistic regression.
* ``one_hidden``: softmax(W2 tanh(W1 x + b1) + b2), a single tanh hidden
  layer.

Parameters live in one flat float64 vector so optimizers and checkpoints
never deal with shapes; gradients are hand-derived and checked against
central finite differences in the test suite.  No autodiff framework is
used anywhere.

A training step needs the soft outputs, the cross-entropy gradient and the
pullback of a penalty through the outputs; :func:`loss_grad_and_vjp`
returns all of them from one forward pass.  :func:`forward`,
:func:`loss_and_grad` and :func:`jacobian_probs` are the same pieces one at
a time.

With a handful of classes a step costs numpy call overhead more than
arithmetic, so the softmax and pullback reduce each row with c - 1
column-wise ufunc calls.  That matches numpy's ``axis=1`` reduce bit for bit
only below 8 columns: from 8 on numpy's pairwise sum unrolls by 8 and adds
in another order, so wider outputs keep the generic reduce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

ARCHITECTURES = ("linear", "one_hidden")

# Probabilities are floored here before log() so the cross entropy of a
# fully saturated wrong prediction stays finite.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector plus the shape metadata to unpack it."""

    arch: str
    theta: np.ndarray
    input_dim: int
    n_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.arch == "linear" and self.hidden_dim != 0:
            raise ValueError("linear model must have hidden_dim=0")
        if self.arch == "one_hidden" and self.hidden_dim < 1:
            raise ValueError("one_hidden model needs hidden_dim >= 1")
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (n_params(self.arch, self.input_dim, self.n_classes, self.hidden_dim),):
            raise ValueError(
                f"theta has length {theta.size}, expected "
                f"{n_params(self.arch, self.input_dim, self.n_classes, self.hidden_dim)}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta has non-finite entries")
        theta = theta.copy()
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    def with_theta(self, theta: np.ndarray) -> "ModelParams":
        return replace(self, theta=theta)


@dataclass(frozen=True)
class Batch:
    """Feature matrix with labels in {1..c} and sensitive groups in {1..d}."""

    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        s = np.asarray(self.sensitive, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError("features must be N x p")
        n = x.shape[0]
        if y.shape != (n,) or s.shape != (n,):
            raise ValueError("labels/sensitive lengths do not match features")
        if n and (y.min() < 1 or s.min() < 1):
            raise ValueError("labels and sensitive values are 1-based")
        for name, arr in (("features", x), ("labels", y), ("sensitive", s)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max())

    @property
    def n_groups(self) -> int:
        return int(self.sensitive.max())

    def subset(self, idx: np.ndarray) -> "Batch":
        return Batch(self.features[idx], self.labels[idx], self.sensitive[idx])


def n_params(arch: str, input_dim: int, n_classes: int, hidden_dim: int = 0) -> int:
    if arch == "linear":
        return n_classes * input_dim + n_classes
    return hidden_dim * input_dim + hidden_dim + n_classes * hidden_dim + n_classes


def init_params(
    arch: str,
    input_dim: int,
    n_classes: int,
    hidden_dim: int = 0,
    seed: int = 0,
) -> ModelParams:
    """Seeded uniform(-r, r) weights with r = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    if arch == "linear":
        r = np.sqrt(6.0 / (input_dim + n_classes))
        w = rng.uniform(-r, r, size=(n_classes, input_dim))
        theta = np.concatenate([w.ravel(), np.zeros(n_classes)])
    elif arch == "one_hidden":
        r1 = np.sqrt(6.0 / (input_dim + hidden_dim))
        r2 = np.sqrt(6.0 / (hidden_dim + n_classes))
        w1 = rng.uniform(-r1, r1, size=(hidden_dim, input_dim))
        w2 = rng.uniform(-r2, r2, size=(n_classes, hidden_dim))
        theta = np.concatenate([w1.ravel(), np.zeros(hidden_dim), w2.ravel(), np.zeros(n_classes)])
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    return ModelParams(arch=arch, theta=theta, input_dim=input_dim,
                       n_classes=n_classes, hidden_dim=hidden_dim)


def zero_params(arch: str, input_dim: int, n_classes: int, hidden_dim: int = 0) -> ModelParams:
    theta = np.zeros(n_params(arch, input_dim, n_classes, hidden_dim))
    return ModelParams(arch=arch, theta=theta, input_dim=input_dim,
                       n_classes=n_classes, hidden_dim=hidden_dim)


def _unpack_linear(params: ModelParams):
    c, p = params.n_classes, params.input_dim
    w = params.theta[: c * p].reshape(c, p)
    b = params.theta[c * p :]
    return w, b


def _unpack_hidden(params: ModelParams):
    c, p, h = params.n_classes, params.input_dim, params.hidden_dim
    t = params.theta
    o = 0
    w1 = t[o : o + h * p].reshape(h, p); o += h * p
    b1 = t[o : o + h]; o += h
    w2 = t[o : o + c * h].reshape(c, h); o += c * h
    b2 = t[o : o + c]
    return w1, b1, w2, b2


# Widest output reduced column by column (see the module docstring).
_COLUMNWISE_MAX_C = 7


def _row_reduce(ufunc: np.ufunc, m: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(m, axis=1, keepdims=True)``, bit for bit.

    Below 8 columns numpy reduces a row left to right from the ufunc's
    identity (``0.0 + m[:, 0]`` for a sum, which turns -0.0 into 0.0), and
    so does the column loop here.
    """
    c = m.shape[1]
    if c > _COLUMNWISE_MAX_C:
        return ufunc.reduce(m, axis=1, keepdims=True)
    out = m[:, 0] if ufunc.identity is None else ufunc(ufunc.identity, m[:, 0])
    for j in range(1, c):
        out = ufunc(out, m[:, j])
    return out[:, None]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - _row_reduce(np.maximum, logits)
    e = np.exp(z)
    return e / _row_reduce(np.add, e)


def _forward_internals(params: ModelParams, x: np.ndarray):
    """Probabilities plus the hidden activations the backward pass needs."""
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"features have shape {x.shape}, expected (N, {params.input_dim})")
    if params.arch == "linear":
        w, b = _unpack_linear(params)
        return _softmax(x @ w.T + b), None
    w1, b1, w2, b2 = _unpack_hidden(params)
    hidden = np.tanh(x @ w1.T + b1)
    return _softmax(hidden @ w2.T + b2), hidden


def forward(params: ModelParams, features) -> np.ndarray:
    """Soft class probabilities, one simplex row per sample."""
    x = np.asarray(features, dtype=np.float64)
    probs, _ = _forward_internals(params, x)
    return probs


def _backward_from_dlogits(params: ModelParams, x: np.ndarray,
                           dlogits: np.ndarray, hidden) -> np.ndarray:
    """Accumulate d(objective)/d(theta) given d(objective)/d(logits)."""
    if params.arch == "linear":
        gw = dlogits.T @ x
        gb = dlogits.sum(axis=0)
        return np.concatenate([gw.ravel(), gb])
    w1, b1, w2, b2 = _unpack_hidden(params)
    gw2 = dlogits.T @ hidden
    gb2 = dlogits.sum(axis=0)
    dhidden = (dlogits @ w2) * (1.0 - hidden * hidden)
    gw1 = dhidden.T @ x
    gb1 = dhidden.sum(axis=0)
    return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def _pullback(params: ModelParams, x: np.ndarray, probs: np.ndarray,
              hidden) -> Callable[[np.ndarray], np.ndarray]:
    """Vector-Jacobian product of the soft outputs of one forward pass."""

    def vjp(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != probs.shape:
            raise ValueError(f"u has shape {u.shape}, expected {probs.shape}")
        inner = _row_reduce(np.add, u * probs)
        dlogits = (u - inner) * probs
        return _backward_from_dlogits(params, x, dlogits, hidden)

    return vjp


def loss_grad_and_vjp(
    params: ModelParams, batch: Batch,
) -> tuple[np.ndarray, float, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Everything one training step needs, from a single forward pass.

    Returns ``(probs, loss, grad, vjp)``: the soft outputs, the mean cross
    entropy and its gradient, and the pullback :func:`jacobian_probs`
    would return.  ``grad`` and each ``vjp(u)`` are separate backward passes.
    """
    x = batch.features
    n = batch.n
    probs, hidden = _forward_internals(params, x)
    if batch.labels.max() > params.n_classes:
        raise ValueError("label outside the model's class range")
    y0 = batch.labels - 1
    picked = probs[np.arange(n), y0]
    loss = float(-np.mean(np.log(np.maximum(picked, PROB_FLOOR))))
    dlogits = probs.copy()
    dlogits[np.arange(n), y0] -= 1.0
    dlogits /= n
    grad = _backward_from_dlogits(params, x, dlogits, hidden)
    return probs, loss, grad, _pullback(params, x, probs, hidden)


def loss_and_grad(params: ModelParams, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean cross entropy and its gradient with respect to theta."""
    _, loss, grad, _ = loss_grad_and_vjp(params, batch)
    return loss, grad


def jacobian_probs(params: ModelParams, features) -> Callable[[np.ndarray], np.ndarray]:
    """Vector-Jacobian product of the soft outputs.

    Returns ``vjp`` with ``vjp(u) = sum_n sum_i u[n, i] * dF_i(theta, x_n)/dtheta``
    for any N x c weight matrix ``u``, without materializing per-sample
    Jacobians.  The softmax pullback of ``u`` is
    ``(u - (u . F) 1) * F`` row by row.
    """
    x = np.asarray(features, dtype=np.float64)
    return _pullback(params, x, *_forward_internals(params, x))


def save_params(params: ModelParams, path) -> None:
    """Text checkpoint: a header line with the shapes, then one value per line."""
    lines = [
        f"arch={params.arch} input_dim={params.input_dim} "
        f"n_classes={params.n_classes} hidden_dim={params.hidden_dim}"
    ]
    lines.extend(repr(float(v)) for v in params.theta)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> ModelParams:
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(item.split("=", 1) for item in header.split())
        theta = np.array([float(line) for line in fh if line.strip()])
    return ModelParams(
        arch=fields["arch"],
        theta=theta,
        input_dim=int(fields["input_dim"]),
        n_classes=int(fields["n_classes"]),
        hidden_dim=int(fields["hidden_dim"]),
    )
