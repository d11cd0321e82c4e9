"""Differentiable soft classifiers with analytic gradients.

Two architectures, both producing probability-simplex rows:

* ``linear``: softmax(W x + b), i.e. multinomial logistic regression.
* ``one_hidden``: softmax(W2 tanh(W1 x + b1) + b2), a single tanh hidden
  layer.

Both are stacks of layers, so a linear model is a one-layer stack.  The
architecture is read once, into the layer widths (``[p, c]`` or
``[p, h, c]``); one forward loop and one backward loop serve both.
Parameters live in one flat float64 vector, each layer's W then b, input
layer first, so optimizers and checkpoints never deal with shapes;
gradients are hand-derived and checked against central finite differences
in the test suite.  No autodiff framework is used anywhere.

A training step needs the soft outputs, the cross entropy, and its
gradient plus the pullback of a penalty through the outputs;
:func:`loss_grad_and_vjp` returns them from one forward pass and takes the
summed gradient in one backward pass.  :func:`forward`,
:func:`loss_and_grad` and :func:`jacobian_probs` are the same pieces one at
a time.

The one backward pass keeps the bits of two passes added.  The
cross-entropy dlogits and the penalty's pullback dlogits, each N x c, go
side by side into one C-ordered N x 2c array D; a layer takes ``D.T @ a``
and :func:`_column_sum` of D once, and each gradient block is its two
halves added, cross entropy first.  Each output row of a GEMM adds over
the batch rows in its own order whatever the other rows hold, and the
column sums (below) start each column from 0.0 at any width of 2 or more.
OpenBLAS picks its kernel and thread split by shape, so that holds only in
part, and :func:`_fused` joins the parts only where it was measured (numpy 2.4,
scipy-openblas 0.3.31, 2-vCPU AVX-512 Xeon, 1 and 2 BLAS threads): parts 2
to 5 wide, layer inputs at least 2 wide, and each part's own GEMM past the
small-matrix bound M*N*K = 100^3.  The bits moved outside it: a product
below the bound whose fused twin is above it, a part or input one column
wide (numpy takes gemv), 6 to 8 classes from 194 input columns at one
thread, and 9 classes up to 31 columns at two.  Elsewhere a layer takes one
GEMM per part, as two passes did; below the bound the copy into D would
cost about what the second GEMM saves.

With a handful of classes a step costs numpy call overhead more than
arithmetic, so the softmax and pullback reduce each row with c - 1
column-wise ufunc calls.  That matches numpy's ``axis=1`` reduce bit for bit
only below 8 columns: from 8 on numpy's pairwise sum unrolls by 8 and adds
in another order, so wider outputs keep the generic reduce.

Sums down the columns of a tall N x c array (the bias gradients here, the
column means of the penalties) have the mirror problem: numpy's ``axis=0``
reduce of a C-contiguous array walks it one row at a time with an inner
loop only c long.  :func:`_column_sum` hands such an array with at least
two columns to ``np.einsum("ij->j", m)`` instead.  The output's stride along
the rows is 0, so einsum's iterator keeps the row axis outermost; its inner
loop runs along the c columns and adds each row into c sums that start at
0.0.  That is numpy's own left-to-right order from the identity, so the
bits are numpy's, and no N x c temporary is made.  A single column (numpy
sums it pairwise from 9 rows on), any other layout and zero rows take
numpy's ``sum(axis=0)``.

Elementwise ops on a narrow N x c array (c classes, or the hidden width for
the hidden bias) have the same cost: numpy broadcasts a c-long row or an
N x 1 column with an inner loop only c long, one loop call per row.
:func:`_columnwise` does such an op one strided column at a time up to 4
columns, where that is measured to be faster, and leaves wider arrays to
numpy's broadcast.  Each element meets the same IEEE operation on the same
operands either way, so the bits are numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    """Feature matrix with labels in {1..c} and sensitive groups in {1..d}.

    The batch owns its alphabet sizes ``n_classes`` (c) and ``n_groups``
    (d), which :meth:`subset` carries.  The dataset reader declares them;
    left unset they are the largest label and group present.  A value
    above a declared size is rejected.

    Every stored array is C-contiguous, float64 features and int64 labels
    and sensitive values, and read-only.  An array that owns its data and
    is already C-contiguous of that dtype is taken over, not copied: it is
    marked read-only in place and stored.  So a caller that hands one over
    must not write through another view of it afterwards.  Anything else
    (a view or slice, another layout or dtype, a list) is copied.
    """

    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    n_classes: int | None = None
    n_groups: int | None = None
    _label_index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        for size, arr in (("n_classes", y), ("n_groups", s)):
            top, declared = int(arr.max()) if n else 0, getattr(self, size)
            if declared is not None and top > declared:
                raise ValueError(f"a value {top} exceeds the declared {size}={declared}")
            object.__setattr__(self, size, top if declared is None else int(declared))
        for name, arr in (("features", x), ("labels", y), ("sensitive", s)):
            if not (arr.flags.owndata and arr.flags.c_contiguous):
                arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "Batch":
        return Batch(self.features[idx], self.labels[idx], self.sensitive[idx],
                     self.n_classes, self.n_groups)

    def label_index(self, n_classes: int) -> np.ndarray:
        """Flat position ``n * n_classes + labels[n] - 1`` of each row's label
        in an N x n_classes array.

        Built once per class count and kept with the batch, so a run builds
        the index once, not on every step.  A batch that declares more than
        ``n_classes`` classes raises.
        """
        flat = self._label_index.get(n_classes)
        if flat is None:
            if self.n_classes > n_classes:
                raise ValueError(f"label outside the model's class range: the batch "
                                 f"declares {self.n_classes} classes, the model has {n_classes}")
            flat = np.arange(self.n) * n_classes + (self.labels - 1)
            flat.flags.writeable = False
            self._label_index[n_classes] = flat
        return flat


def _widths(arch: str, input_dim: int, n_classes: int, hidden_dim: int = 0) -> list[int]:
    """Layer widths from input to output: ``[p, c]`` or ``[p, h, c]``."""
    if arch == "linear":
        return [input_dim, n_classes]
    if arch == "one_hidden":
        return [input_dim, hidden_dim, n_classes]
    raise ValueError(f"unknown architecture {arch!r}")


def n_params(arch: str, input_dim: int, n_classes: int, hidden_dim: int = 0) -> int:
    widths = _widths(arch, input_dim, n_classes, hidden_dim)
    return sum(fan_out * fan_in + fan_out for fan_in, fan_out in zip(widths, widths[1:]))


def init_params(
    arch: str,
    input_dim: int,
    n_classes: int,
    hidden_dim: int = 0,
    seed: int = 0,
) -> ModelParams:
    """Seeded uniform(-r, r) weights, r = sqrt(6 / (fan_in + fan_out)), per layer; zero biases."""
    rng = np.random.default_rng(seed)
    widths = _widths(arch, input_dim, n_classes, hidden_dim)
    blocks = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        blocks += [rng.uniform(-r, r, size=(fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    return ModelParams(arch=arch, theta=np.concatenate(blocks), input_dim=input_dim,
                       n_classes=n_classes, hidden_dim=hidden_dim)


def _layers(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(W, b)`` views of theta, input layer first."""
    widths = _widths(params.arch, params.input_dim, params.n_classes, params.hidden_dim)
    layers, o = [], 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        w_end = o + fan_out * fan_in
        layers.append((params.theta[o:w_end].reshape(fan_out, fan_in),
                       params.theta[w_end:w_end + fan_out]))
        o = w_end + fan_out
    return layers


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


# Widest array combined column by column: any width keeps the bits, and timed at
# N = 2000 and 29,378 the column loop wins up to 4 columns (BENCH_26.json).
_ELEMENTWISE_MAX_C = 4


def _columnwise(ufunc: np.ufunc, m: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """``ufunc(m, v, out=out)``, bit for bit, for a float64 N x c ``m``, a c-long or N x 1 ``v``."""
    c = m.shape[1]
    if c > _ELEMENTWISE_MAX_C:
        return ufunc(m, v, out=out)
    if out is None:
        out = np.empty(m.shape)
    for j in range(c):
        ufunc(m[:, j], v[j] if v.ndim == 1 else v[:, 0], out=out[:, j])
    return out


def _column_sum(m: np.ndarray) -> np.ndarray:
    """``m.sum(axis=0)``, bit for bit (see the module docstring)."""
    if m.shape[0] and m.shape[1] >= 2 and m.flags.c_contiguous:
        return np.einsum("ij->j", m)
    return m.sum(axis=0)


def _column_mean(m: np.ndarray) -> np.ndarray:
    """``m.mean(axis=0)``, bit for bit: numpy's mean is the sum over N."""
    return _column_sum(m) / m.shape[0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = _columnwise(np.subtract, logits, _row_reduce(np.maximum, logits))
    np.exp(e, out=e)
    return _columnwise(np.true_divide, e, _row_reduce(np.add, e), out=e)


def _forward_internals(params: ModelParams, x: np.ndarray):
    """Probabilities plus each layer's input: ``x``, then the tanh activations."""
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"features have shape {x.shape}, expected (N, {params.input_dim})")
    *hidden, (w, b) = _layers(params)
    inputs = [x]
    for wk, bk in hidden:
        inputs.append(np.tanh(_columnwise(np.add, inputs[-1] @ wk.T, bk)))
    logits = inputs[-1] @ w.T
    return _softmax(_columnwise(np.add, logits, b, out=logits)), inputs


def forward(params: ModelParams, features) -> np.ndarray:
    """Soft class probabilities, one simplex row per sample."""
    x = np.asarray(features, dtype=np.float64)
    probs, _ = _forward_internals(params, x)
    return probs


# The fused backward's reach (see the module docstring): parts up to this
# wide, whose own GEMM is past OpenBLAS's small-matrix bound on M*N*K.
_FUSED_MAX_C = 5
_SMALL_GEMM_MNK = 100 ** 3


def _fused(parts: tuple[np.ndarray, ...], a: np.ndarray) -> np.ndarray | None:
    """The two N x c ``parts`` side by side in one C-ordered N x 2c array, or
    None where one GEMM over it is not known to keep each part's bits.

    Each row is copied as one ``8c``-byte void element: numpy's
    ``concatenate(axis=1)`` walks such narrow rows with an inner loop only
    c long, 349 µs against 64 µs at 29,378 x 2 (pinned timeit, 2-vCPU Xeon).
    """
    if len(parts) != 2:
        return None
    n, c = parts[0].shape
    if (not 2 <= c <= _FUSED_MAX_C or a.shape[1] < 2 or n * c * a.shape[1] <= _SMALL_GEMM_MNK
            or not all(part.flags.c_contiguous for part in parts)):
        return None
    out = np.empty((n, 2 * c))
    row = np.dtype((np.void, 8 * c))
    rows = out.view(row)
    for j, part in enumerate(parts):
        rows[:, j] = part.view(row)[:, 0]
    return out


def _layer_grads(parts: tuple[np.ndarray, ...], a: np.ndarray) -> list[np.ndarray]:
    """One layer's flat W gradient and b gradient, summed over the dlogits ``parts``."""
    d = _fused(parts, a)
    if d is not None:
        c = parts[0].shape[1]
        wt, sums = d.T @ a, _column_sum(d)
        return [(wt[:c] + wt[c:]).ravel(), sums[:c] + sums[c:]]
    first, *rest = parts
    w_grad, b_grad = (first.T @ a).ravel(), _column_sum(first)
    for part in rest:
        w_grad, b_grad = w_grad + (part.T @ a).ravel(), b_grad + _column_sum(part)
    return [w_grad, b_grad]


def _backward_from_dlogits(params: ModelParams, inputs: list[np.ndarray],
                           *parts: np.ndarray) -> np.ndarray:
    """d(objective)/d(theta) given d(objective)/d(logits), output layer first.

    Given two dlogits ``parts`` it returns the sum of their gradients, with
    the bits of one call per part added, from one pass (see the module
    docstring).
    """
    grads = []
    for k in reversed(range(len(inputs))):
        a = inputs[k]
        grads[:0] = _layer_grads(parts, a)
        if k:
            w, _ = _layers(params)[k]
            parts = tuple((part @ w) * (1.0 - a * a) for part in parts)
    return np.concatenate(grads)


def _softmax_pullback(probs: np.ndarray, u) -> np.ndarray:
    """The dlogits of ``sum(u * probs)``: ``(u - (u . F) 1) * F`` row by row.

    ``u`` is read C-ordered, so the bits do not depend on its layout.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    if u.shape != probs.shape:
        raise ValueError(f"u has shape {u.shape}, expected {probs.shape}")
    dlogits = _columnwise(np.subtract, u, _row_reduce(np.add, u * probs))
    dlogits *= probs
    return dlogits


def loss_grad_and_vjp(
    params: ModelParams, batch: Batch,
) -> tuple[np.ndarray, float, Callable[[np.ndarray | None], np.ndarray]]:
    """Everything one training step needs, from a single forward pass.

    Returns ``(probs, loss, backward)``: the soft outputs, the mean cross
    entropy, and ``backward(u)``, the cross-entropy gradient plus the
    pullback of ``u`` through the soft outputs (the ``vjp(u)`` of
    :func:`jacobian_probs`), from one backward pass.  ``backward(None)`` is
    the cross-entropy gradient alone.  The sum has the bits of the two
    gradients taken apart and added (see the module docstring).  The labels
    are picked out through the batch's flat :meth:`Batch.label_index`, a
    gather and a scatter with the bits of a 2-D fancy index.
    """
    probs, inputs = _forward_internals(params, batch.features)
    flat = batch.label_index(probs.shape[1])
    picked = probs.take(flat)
    loss = float(-(np.add.reduce(np.log(np.maximum(picked, PROB_FLOOR))) / batch.n))
    dlogits = probs.copy()
    dlogits.reshape(-1)[flat] -= 1.0
    dlogits /= batch.n

    def backward(u=None) -> np.ndarray:
        if u is None:
            return _backward_from_dlogits(params, inputs, dlogits)
        return _backward_from_dlogits(params, inputs, dlogits, _softmax_pullback(probs, u))

    return probs, loss, backward


def loss_and_grad(params: ModelParams, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean cross entropy and its gradient with respect to theta."""
    _, loss, backward = loss_grad_and_vjp(params, batch)
    return loss, backward(None)


def jacobian_probs(params: ModelParams, features) -> Callable[[np.ndarray], np.ndarray]:
    """Vector-Jacobian product of the soft outputs.

    Returns ``vjp`` with ``vjp(u) = sum_n sum_i u[n, i] * dF_i(theta, x_n)/dtheta``
    for any N x c weight matrix ``u``, without materializing per-sample
    Jacobians.  The softmax pullback of ``u`` is
    ``(u - (u . F) 1) * F`` row by row.
    """
    x = np.asarray(features, dtype=np.float64)
    probs, inputs = _forward_internals(params, x)
    return lambda u: _backward_from_dlogits(params, inputs, _softmax_pullback(probs, u))


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
    """Read a :func:`save_params` checkpoint.

    A header item that is not ``key=value``, a missing or non-integer shape,
    a body line that is not a number or a body of the wrong length raises a
    ValueError naming the file and the key, the 1-based line or the counts.
    """
    with open(path) as fh:
        header = fh.readline().split()
        body = [(number, line.strip()) for number, line in enumerate(fh, start=2) if line.strip()]
    fields = {}
    for item in header:
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"checkpoint {path}: header item {item!r} is not key=value")
        fields[key] = value

    def field(key, convert=int):
        if key not in fields:
            raise ValueError(f"checkpoint {path}: header lacks {key!r}")
        try:
            return convert(fields[key])
        except ValueError:
            raise ValueError(f"checkpoint {path}: header {key}={fields[key]!r} is not an integer") from None

    shape = dict(arch=field("arch", str), input_dim=field("input_dim"),
                 n_classes=field("n_classes"), hidden_dim=field("hidden_dim"))
    theta = np.empty(len(body))
    for k, (number, text) in enumerate(body):
        try:
            theta[k] = float(text)
        except ValueError:
            raise ValueError(f"checkpoint {path}: line {number} {text!r} is not a number") from None
    try:
        return ModelParams(theta=theta, **shape)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
