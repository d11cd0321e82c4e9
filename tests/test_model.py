"""Soft classifiers: forward contracts, analytic gradients, checkpoints."""

import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import zero_params
from renyifair import model as md


def fd_grad(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for k in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        g[k] = (f(up) - f(down)) / (2 * h)
    return g


def rel_err(a, b):
    scale = max(np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


def random_batch(rng, n=15, p=4, c=3, d=2):
    return md.Batch(rng.normal(size=(n, p)),
                    rng.integers(1, c + 1, n),
                    rng.integers(1, d + 1, n))


def naive_forward(params, x):
    """Loop-based reference evaluator, no shared code with the library path."""
    import math
    out = np.zeros((len(x), params.n_classes))
    t = params.theta
    c, p, h = params.n_classes, params.input_dim, params.hidden_dim
    for n, row in enumerate(x):
        if params.arch == "linear":
            logits = [sum(t[i * p + j] * row[j] for j in range(p)) + t[c * p + i]
                      for i in range(c)]
        else:
            hid = [math.tanh(sum(t[k * p + j] * row[j] for j in range(p)) + t[h * p + k])
                   for k in range(h)]
            base = h * p + h
            logits = [sum(t[base + i * h + k] * hid[k] for k in range(h))
                      + t[base + c * h + i] for i in range(c)]
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        z = sum(exps)
        out[n] = [e / z for e in exps]
    return out


class TestForward:
    def test_zero_params_uniform(self):
        params = zero_params("linear", 3, 4)
        probs = md.forward(params, np.random.default_rng(0).normal(size=(6, 3)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_saturation(self):
        params = md.ModelParams("linear", np.array([50.0, 0.0, -50.0, 0.0, 0.0, 0.0]),
                                input_dim=2, n_classes=2)
        probs = md.forward(params, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(probs[0], [1.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize("arch,hid", [("linear", 0), ("one_hidden", 6)])
    def test_simplex_rows_and_naive_oracle(self, arch, hid):
        rng = np.random.default_rng(1)
        params = md.init_params(arch, 4, 3, hidden_dim=hid, seed=2)
        x = rng.normal(size=(10, 4))
        probs = md.forward(params, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs, naive_forward(params, x), atol=1e-12)

    @pytest.mark.parametrize("arch,hid", [("linear", 0), ("one_hidden", 5)])
    def test_bitwise_equal_explicit_formulas(self, arch, hid):
        rng = np.random.default_rng(12)
        p, c = 4, 3
        params = md.init_params(arch, p, c, hidden_dim=hid, seed=13)
        t = rng.normal(size=params.theta.size)  # nonzero biases too
        x = 3.0 * rng.normal(size=(200, p))
        if arch == "linear":
            logits = x @ t[:c * p].reshape(c, p).T + t[c * p:]
        else:
            o = hid * p + hid
            hidden = np.tanh(x @ t[:hid * p].reshape(hid, p).T + t[hid * p:o])
            logits = hidden @ t[o:o + c * hid].reshape(c, hid).T + t[o + c * hid:]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = e / e.sum(axis=1, keepdims=True)
        assert md.forward(params.with_theta(t), x).tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        params = zero_params("linear", 3, 2)
        with pytest.raises(ValueError, match="shape"):
            md.forward(params, np.zeros((2, 5)))


class TestLossAndGrad:
    def test_zero_params_binary_loss_is_ln2(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, c=2)
        loss, _ = md.loss_and_grad(zero_params("linear", 4, 2), batch)
        assert abs(loss - np.log(2)) <= 1e-12

    def test_separated_saturated_loss_small(self):
        x = np.array([[1.0], [-1.0]] * 10)
        y = np.array([2, 1] * 10)
        params = md.ModelParams("linear", np.array([-30.0, 30.0, 0.0, 0.0]),
                                input_dim=1, n_classes=2)
        loss, _ = md.loss_and_grad(params, md.Batch(x, y, np.ones(20, dtype=int)))
        assert loss <= 1e-4

    @pytest.mark.parametrize("arch,hid", [("linear", 0), ("one_hidden", 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, arch, hid, seed):
        rng = np.random.default_rng(seed)
        params = md.init_params(arch, 4, 3, hidden_dim=hid, seed=seed)
        batch = random_batch(rng)
        _, grad = md.loss_and_grad(params, batch)
        ref = fd_grad(lambda t: md.loss_and_grad(params.with_theta(t), batch)[0],
                      params.theta.copy())
        assert rel_err(grad, ref) <= 1e-5

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(5)
        params = md.init_params("linear", 4, 3, seed=6)
        batch = random_batch(rng)
        loss, _ = md.loss_and_grad(params, batch)
        theta = params.theta.copy()
        theta[4 * 3:] += 7.5  # same constant on every class bias
        shifted, _ = md.loss_and_grad(params.with_theta(theta), batch)
        assert abs(loss - shifted) <= 1e-10


def fancy_index_loss_and_dlogits(probs, labels):
    """Cross entropy and its dlogits through a 2-D fancy index of the labels."""
    n = len(labels)
    picked = probs[np.arange(n), labels - 1]
    loss = float(-np.mean(np.log(np.maximum(picked, md.PROB_FLOOR))))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels - 1] -= 1.0
    return loss, dlogits / n


class TestLabelIndex:
    """``loss_grad_and_vjp`` picks the labels through the batch's flat index."""

    @pytest.mark.parametrize("arch,hid", [("linear", 0), ("one_hidden", 4)])
    def test_top_label_below_class_count_matches_fancy_index(self, arch, hid):
        rng = np.random.default_rng(4)
        batch = md.Batch(rng.normal(size=(40, 4)), rng.integers(1, 3, 40), np.ones(40, dtype=int))
        assert batch.n_classes == 2
        params = md.init_params(arch, 4, 3, hidden_dim=hid, seed=5)
        probs, loss, backward = md.loss_grad_and_vjp(params, batch)
        grad = backward(None)
        want_loss, dlogits = fancy_index_loss_and_dlogits(probs, batch.labels)
        _, inputs = md._forward_internals(params, batch.features)
        want_grad = md._backward_from_dlogits(params, inputs, dlogits)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()
        np.testing.assert_array_equal(batch.label_index(3), np.arange(40) * 3 + batch.labels - 1)

    def test_index_built_once_per_class_count(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, c=2)
        assert batch.label_index(2) is batch.label_index(2)
        assert batch.label_index(3) is not batch.label_index(2)
        assert batch.subset(np.arange(5)).label_index(2) is not batch.label_index(2)

    def test_label_above_class_count_raises(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, c=3)
        assert batch.n_classes == 3
        with pytest.raises(ValueError, match="label outside the model's class range"):
            md.loss_grad_and_vjp(md.init_params("linear", 4, 2, seed=0), batch)


class TestJacobianProbs:
    @pytest.mark.parametrize("arch,hid", [("linear", 0), ("one_hidden", 5)])
    def test_one_hot_columns_match_fd(self, arch, hid):
        rng = np.random.default_rng(7)
        params = md.init_params(arch, 3, 3, hidden_dim=hid, seed=8)
        x = rng.normal(size=(6, 3))
        vjp = md.jacobian_probs(params, x)
        for n, i in [(0, 0), (3, 2), (5, 1)]:
            u = np.zeros((6, 3))
            u[n, i] = 1.0
            ref = fd_grad(lambda t: md.forward(params.with_theta(t), x)[n, i],
                          params.theta.copy())
            assert rel_err(vjp(u), ref) <= 1e-5

    def test_row_sum_is_constant(self):
        rng = np.random.default_rng(9)
        params = md.init_params("one_hidden", 4, 3, hidden_dim=4, seed=10)
        x = rng.normal(size=(8, 4))
        out = md.jacobian_probs(params, x)(np.ones((8, 3)))
        assert np.abs(out).max() <= 1e-12

    def test_linear_closed_form(self):
        # For softmax-linear, the VJP is sum_n outer((u_n - (u_n.F_n)1)*F_n, x_n)
        # for the weight block and the same row factors summed for biases.
        rng = np.random.default_rng(11)
        params = md.init_params("linear", 3, 2, seed=12)
        x = rng.normal(size=(7, 3))
        u = rng.normal(size=(7, 2))
        probs = md.forward(params, x)
        row = (u - np.sum(u * probs, axis=1, keepdims=True)) * probs
        expected = np.concatenate([(row.T @ x).ravel(), row.sum(axis=0)])
        np.testing.assert_allclose(md.jacobian_probs(params, x)(u), expected, atol=1e-12)


@pytest.mark.parametrize("case, message", [
    (lambda: md.ModelParams("cnn", np.zeros(6), 2, 2), "unknown architecture 'cnn'"),
    (lambda: md.ModelParams("linear", np.zeros(6), 2, 2, hidden_dim=3),
     "linear model must have hidden_dim=0"),
    (lambda: md.ModelParams("one_hidden", np.zeros(6), 2, 2), "one_hidden model needs hidden_dim >= 1"),
    (lambda: md.n_params("cnn", 2, 2), "unknown architecture 'cnn'"),
    (lambda: md.jacobian_probs(md.init_params("linear", 2, 3, seed=0), np.zeros((4, 2)))(
        np.zeros((4, 2))), "u has shape (4, 2), expected (4, 3)"),
], ids=["architecture", "linear_hidden", "one_hidden_width", "n_params_architecture",
        "vjp_shape"])
def test_check_messages(case, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        case()


class _UfuncSpy:
    """Stands in for a ufunc and records whether it was reduced or called,
    and the operands of each call."""

    def __init__(self, ufunc):
        self.ufunc = ufunc
        self.identity = ufunc.identity
        self.used = []
        self.operands = []

    def reduce(self, *args, **kwargs):
        self.used.append("reduce")
        return self.ufunc.reduce(*args, **kwargs)

    def __call__(self, *args, **kwargs):
        self.used.append("call")
        self.operands.append(args)
        return self.ufunc(*args, **kwargs)


def awkward_matrix(rng, n, c):
    """Mixed magnitudes plus signed zeros, the inputs where order shows."""
    m = rng.normal(size=(n, c)) * 10.0 ** rng.integers(-6, 6, size=(n, c))
    m[rng.random((n, c)) < 0.1] = -0.0
    m[rng.random((n, c)) < 0.1] = 0.0
    return m


class TestRowReductions:
    """The small-c column loop must give the bits of numpy's ``axis=1`` path."""

    @pytest.mark.parametrize("c", [2, 3, 5, 7])
    def test_softmax_and_pullback_bitwise_equal_axis1_formulas(self, c):
        rng = np.random.default_rng(c)
        for arch, hid in (("linear", 0), ("one_hidden", 4)):
            params = md.init_params(arch, 3, c, hidden_dim=hid, seed=c)
            x = 3.0 * rng.normal(size=(500, 3))
            logits = 20.0 * rng.normal(size=(500, c))
            z = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(z)
            assert md._softmax(logits).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

            probs, inputs = md._forward_internals(params, x)
            u = awkward_matrix(rng, 500, c)
            dlogits = (u - np.sum(u * probs, axis=1, keepdims=True)) * probs
            want = md._backward_from_dlogits(params, inputs, dlogits)
            assert md.jacobian_probs(params, x)(u).tobytes() == want.tobytes()

    @pytest.mark.parametrize("c", [1, 2, 3, 5, 7])
    def test_column_loop_below_eight(self, c):
        m = awkward_matrix(np.random.default_rng(c), 300, c)
        for ufunc in (np.add, np.maximum):
            spy = _UfuncSpy(ufunc)
            got = md._row_reduce(spy, m)
            assert "reduce" not in spy.used
            assert got.tobytes() == ufunc.reduce(m, axis=1, keepdims=True).tobytes()

    @pytest.mark.parametrize("c", [8, 10])
    def test_generic_reduce_from_eight(self, c):
        rng = np.random.default_rng(c)
        m = awkward_matrix(rng, 300, c)
        for ufunc in (np.add, np.maximum):
            spy = _UfuncSpy(ufunc)
            got = md._row_reduce(spy, m)
            assert spy.used == ["reduce"]
            assert got.tobytes() == ufunc.reduce(m, axis=1, keepdims=True).tobytes()
        # Here a left-to-right column loop would round differently.
        loop = m[:, :1] + 0.0
        for j in range(1, c):
            loop = loop + m[:, j:j + 1]
        assert loop.tobytes() != np.add.reduce(m, axis=1, keepdims=True).tobytes()
        logits = 20.0 * rng.normal(size=(300, c))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert md._softmax(logits).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()


def special_columns(m):
    """``m`` with an all -0.0 first column, an inf in the second and a nan in the last."""
    m = m.copy()
    m[:, 0] = -0.0
    m[-1, 1] = np.inf
    m[0, -1] = np.nan
    return m


class TestColumnwise:
    """``_columnwise`` must give the bits of numpy's class-axis broadcast."""

    UFUNCS = (np.add, np.subtract, np.multiply, np.true_divide)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 40), st.booleans(), st.booleans(),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_broadcast(self, c, n, column, alias, special, seed):
        rng = np.random.default_rng(seed)
        m = awkward_matrix(rng, n, c)
        v = awkward_matrix(rng, n, 1) if column else awkward_matrix(rng, 1, c)[0]
        if special:
            m = special_columns(m) if c > 1 else m
            v.reshape(-1)[rng.integers(0, v.size, 3)] = [-0.0, np.inf, np.nan]
        for ufunc in self.UFUNCS:
            with np.errstate(all="ignore"):
                want = ufunc(m, v)
                out = m.copy() if alias else None
                got = md._columnwise(ufunc, m if out is None else out, v, out=out)
            assert out is None or got is out
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c", [1, 2, 4, 5, 8, 10])
    def test_column_calls_up_to_four_one_broadcast_from_five(self, c):
        rng = np.random.default_rng(c)
        m = awkward_matrix(rng, 50, c)
        for v in (awkward_matrix(rng, 1, c)[0], awkward_matrix(rng, 50, 1)):
            spy = _UfuncSpy(np.subtract)
            got = md._columnwise(spy, m, v)
            assert got.tobytes() == (m - v).tobytes()
            if c <= md._ELEMENTWISE_MAX_C:
                assert len(spy.operands) == c
                assert all(np.ndim(x) <= 1 for args in spy.operands for x in args)
            else:
                assert spy.used == ["call"] and spy.operands[0][0] is m


@pytest.fixture
def einsum_calls(monkeypatch):
    """Records the subscripts of every ``np.einsum`` call."""
    calls = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return calls


class TestColumnReductions:
    """``_column_sum`` must give the bits of numpy's ``axis=0`` sum."""

    @pytest.mark.parametrize("n", [1, 8, 9, 2000])
    @pytest.mark.parametrize("c", [2, 3, 5, 7, 11, 112])
    def test_einsum_bitwise_equal_axis0_sum(self, c, n, einsum_calls):
        m = awkward_matrix(np.random.default_rng(100 * c + n), n, c)
        for case in (m, special_columns(m)):
            einsum_calls.clear()
            assert md._column_sum(case).tobytes() == case.sum(axis=0).tobytes()
            assert einsum_calls == ["ij->j"]
            assert md._column_mean(case).tobytes() == case.mean(axis=0).tobytes()

    @pytest.mark.parametrize("n", [1, 9, 2000])
    @pytest.mark.parametrize("c", [1, 2, 5, 7])
    def test_no_n_by_c_temporary(self, c, n):
        m = awkward_matrix(np.random.default_rng(7 * c + n), n, c)
        for case in (m, special_columns(m)) if c > 1 else (m,):
            tracemalloc.start()
            try:
                got = md._column_sum(case)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got.tobytes() == case.sum(axis=0).tobytes()
            if n == 2000:
                # Only c-long results: no N x c array beside the input.
                assert peak < case.nbytes / 4

    @pytest.mark.parametrize("layout", ["one column", "fortran", "strided rows",
                                        "column slice", "zero rows"])
    def test_numpy_sum_otherwise(self, layout, einsum_calls):
        m = awkward_matrix(np.random.default_rng(5), 300, 4)
        case = {"one column": m[:, :1].copy(),
                "fortran": np.asfortranarray(m),
                "strided rows": m[::2],
                "column slice": m[:, 1:3],
                "zero rows": m[:0]}[layout]
        assert md._column_sum(case).tobytes() == case.sum(axis=0).tobytes()
        assert einsum_calls == []
        if case.shape[0]:
            assert md._column_mean(case).tobytes() == case.mean(axis=0).tobytes()

    @pytest.mark.parametrize("layout", ["one column", "fortran"])
    def test_einsum_rounds_differently_there(self, layout):
        # A single column einsum sums pairwise, and a Fortran-order array
        # puts the row axis innermost: neither is numpy's C-order sum.
        m = awkward_matrix(np.random.default_rng(1), 300, 1 if layout == "one column" else 4)
        case = np.asfortranarray(m) if layout == "fortran" else m
        assert np.einsum("ij->j", case).tobytes() != m.sum(axis=0).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), c=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
           special=st.booleans())
    def test_property_bitwise_equal_axis0_sum_and_mean(self, n, c, seed, special):
        m = awkward_matrix(np.random.default_rng(seed), n, c)
        if special and c > 1:
            m = special_columns(m)
        assert md._column_sum(m).tobytes() == m.sum(axis=0).tobytes()
        assert md._column_mean(m).tobytes() == m.mean(axis=0).tobytes()

    @pytest.mark.parametrize("arch,hid", [("linear", 0), ("one_hidden", 4), ("one_hidden", 9)])
    def test_backward_bitwise_equal_axis0_sums(self, arch, hid):
        rng = np.random.default_rng(hid)
        params = md.init_params(arch, 3, 3, hidden_dim=hid, seed=hid)
        x = 3.0 * rng.normal(size=(500, 3))
        probs, inputs = md._forward_internals(params, x)
        dlogits = awkward_matrix(rng, 500, 3)
        got = md._backward_from_dlogits(params, inputs, dlogits)
        if arch == "linear":
            want = np.concatenate([(dlogits.T @ x).ravel(), dlogits.sum(axis=0)])
        else:
            _, hidden = inputs
            w2 = params.theta[4 * hid:7 * hid].reshape(3, hid)
            dhidden = (dlogits @ w2) * (1.0 - hidden * hidden)
            want = np.concatenate([(dhidden.T @ x).ravel(), dhidden.sum(axis=0),
                                   (dlogits.T @ hidden).ravel(), dlogits.sum(axis=0)])
        assert got.tobytes() == want.tobytes()


def two_dlogits_backward(n, c, p, arch, hid, seed):
    """One backward pass over two awkward dlogits, and the two passes added."""
    rng = np.random.default_rng(seed)
    params = md.init_params(arch, p, c, hidden_dim=hid, seed=seed)
    _, inputs = md._forward_internals(params, 3.0 * rng.normal(size=(n, p)))
    d1, d2 = awkward_matrix(rng, n, c), awkward_matrix(rng, n, c)
    want = (md._backward_from_dlogits(params, inputs, d1)
            + md._backward_from_dlogits(params, inputs, d2))
    return md._backward_from_dlogits(params, inputs, d1, d2), want


# Run in a fresh interpreter, whose BLAS reads its thread count at start-up.
CENSUS_SHAPE_CHECK = """
import numpy as np
from renyifair import model as md
rng = np.random.default_rng(23)
x = rng.normal(size=(29378, 112))
for c in (2, 5):
    params = md.init_params("linear", 112, c, seed=c)
    _, inputs = md._forward_internals(params, x)
    d1, d2 = (rng.normal(size=(29378, c)) * 10.0 ** rng.integers(-6, 6, size=(29378, c))
              for _ in range(2))
    assert md._fused((d1, d2), x) is not None, c
    want = (md._backward_from_dlogits(params, inputs, d1)
            + md._backward_from_dlogits(params, inputs, d2))
    assert md._backward_from_dlogits(params, inputs, d1, d2).tobytes() == want.tobytes(), c
"""


class TestOnePassBackward:
    """One backward pass over two dlogits has the bits of two passes added."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), c=st.integers(2, 9), p=st.integers(1, 120),
           layers=st.sampled_from([("linear", 0), ("one_hidden", 1), ("one_hidden", 2),
                                   ("one_hidden", 5), ("one_hidden", 8)]),
           seed=st.integers(0, 2 ** 32 - 1))
    # Shapes that fuse: a linear model's layer, and a one_hidden model's
    # hidden layer (its output layer sits below the bound).
    @example(n=3000, c=3, p=120, layers=("linear", 0), seed=1)
    @example(n=2000, c=5, p=112, layers=("one_hidden", 5), seed=2)
    def test_property_bitwise_equal_two_passes_added(self, n, c, p, layers, seed):
        got, want = two_dlogits_backward(n, c, p, *layers, seed)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,c,p,arch,hid", [(600_000, 2, 1, "linear", 0),
                                                (29_378, 2, 40, "one_hidden", 1)])
    def test_one_column_wide_parts_and_inputs_past_the_bound(self, n, c, p, arch, hid):
        # A 600,000 x 1 input, and a hidden part one column wide: numpy takes
        # gemv for one part and gemm for two, which round differently.
        got, want = two_dlogits_backward(n, c, p, arch, hid, seed=5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,p,c,fused", [(2000, 112, 5, True), (3000, 120, 3, True),
                                             (2000, 112, 6, False), (400, 3, 3, False),
                                             (3000, 1, 2, False)])
    def test_fuses_only_where_measured(self, n, p, c, fused):
        rng = np.random.default_rng(3)
        parts = (awkward_matrix(rng, n, c), awkward_matrix(rng, n, c))
        assert (md._fused(parts, rng.normal(size=(n, p))) is not None) == fused

    @pytest.mark.parametrize("n,p,c,arch,hid", [(3000, 120, 3, "linear", 0),
                                                (300, 4, 3, "one_hidden", 5)])
    def test_step_backward_is_cross_entropy_gradient_plus_vjp(self, n, p, c, arch, hid):
        rng = np.random.default_rng(n)
        batch = random_batch(rng, n=n, p=p, c=c)
        params = md.init_params(arch, p, c, hidden_dim=hid, seed=4)
        u = awkward_matrix(rng, n, c)
        _, grad = md.loss_and_grad(params, batch)
        _, _, backward = md.loss_grad_and_vjp(params, batch)
        want = grad + md.jacobian_probs(params, batch.features)(u)
        assert backward(None).tobytes() == grad.tobytes()
        assert backward(u).tobytes() == want.tobytes()

    @pytest.mark.parametrize("c", [3, 5, 8])
    def test_vjp_bits_do_not_depend_on_the_layout_of_u(self, c):
        # From 5 classes the broadcast subtract kept u's Fortran order, and a
        # Fortran-ordered dlogits took other sums and another GEMM operand.
        rng = np.random.default_rng(c)
        batch = random_batch(rng, n=500, p=4, c=c)
        params = md.init_params("linear", 4, c, seed=c)
        u = rng.normal(size=(500, c))
        vjp = md.jacobian_probs(params, batch.features)
        _, _, backward = md.loss_grad_and_vjp(params, batch)
        for f in (vjp, backward):
            assert f(np.asfortranarray(u)).tobytes() == f(u).tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_census_shape_under_each_blas_thread_count(self, threads):
        # The thread count can move a GEMM's bits, so each count is checked
        # on its own: one pass and two passes must agree under it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(md.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", CENSUS_SHAPE_CHECK], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


class TestWithTheta:
    """``with_theta`` checks and stores ``theta`` as construction does."""

    def params(self):
        return md.init_params("one_hidden", 3, 2, hidden_dim=4, seed=3)

    def build(self, params, theta):
        return md.ModelParams(params.arch, theta, params.input_dim, params.n_classes,
                              params.hidden_dim)

    def test_equals_construction(self):
        params = self.params()
        before = params.theta.tobytes()
        theta = params.theta - 0.5
        got, want = params.with_theta(theta), self.build(params, theta)
        assert type(got) is md.ModelParams
        for name in ("arch", "input_dim", "n_classes", "hidden_dim"):
            assert getattr(got, name) == getattr(want, name)
        assert got.theta.dtype == np.float64
        assert got.theta.tobytes() == want.theta.tobytes()
        assert not got.theta.flags.writeable and not np.shares_memory(got.theta, theta)
        theta[0] = 7.0
        assert got.theta.tobytes() == want.theta.tobytes()
        assert params.theta.tobytes() == before

    def test_with_finite_theta_equals_with_theta_without_a_copy(self):
        # The training update's constructor: the same fields and bytes as
        # with_theta, the given array itself, made read-only.
        params = self.params()
        before = params.theta.tobytes()
        theta = params.theta - 0.5
        got, want = params._with_finite_theta(theta), params.with_theta(theta.copy())
        assert type(got) is md.ModelParams
        for name in ("arch", "input_dim", "n_classes", "hidden_dim"):
            assert getattr(got, name) == getattr(want, name)
        assert got.theta is theta and not theta.flags.writeable
        assert got.theta.tobytes() == want.theta.tobytes()
        assert params.theta.tobytes() == before

    def test_converts_like_construction(self):
        params = self.params()
        theta = [1] * params.theta.size
        got, want = params.with_theta(theta), self.build(params, theta)
        assert got.theta.dtype == np.float64
        assert got.theta.tobytes() == want.theta.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_raises_the_construction_error(self, bad):
        params = self.params()
        theta = params.theta.copy()
        theta[5] = bad
        with pytest.raises(ValueError) as want:
            self.build(params, theta)
        with pytest.raises(ValueError) as got:
            params.with_theta(theta)
        assert str(got.value) == str(want.value) == "theta has non-finite entries"

    @pytest.mark.parametrize("shape", [(25,), (27,), (26, 1), ()])
    def test_other_shape_raises_the_construction_error(self, shape):
        params = self.params()
        assert params.theta.shape == (26,)
        theta = np.zeros(shape)
        with pytest.raises(ValueError) as want:
            self.build(params, theta)
        with pytest.raises(ValueError) as got:
            params.with_theta(theta)
        assert str(got.value) == str(want.value)


FIELDS = ("features", "labels", "sensitive")


class TestBatchHandOver:
    """``Batch`` takes over an owned C-contiguous array of its dtype and copies anything else."""

    def owned(self, rng, n=12, p=3):
        return rng.normal(size=(n, p)), rng.integers(1, 3, n), rng.integers(1, 4, n)

    def test_owned_arrays_taken_over_read_only(self):
        given = self.owned(np.random.default_rng(0))
        batch = md.Batch(*given)
        for name, arr in zip(FIELDS, given):
            stored = getattr(batch, name)
            assert np.shares_memory(stored, arr)
            assert not stored.flags.writeable and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    @pytest.mark.parametrize("part", ["row_slice", "column_slice", "fortran", "list",
                                      "float32", "int32"])
    def test_anything_else_copied_to_c_order(self, part):
        x, y, s = self.owned(np.random.default_rng(1))
        wide = np.random.default_rng(2).normal(size=(12, 5))
        given = {"row_slice": (x[::2], y[::2], s[::2]),
                 "column_slice": (wide[:, 1:4], y, s),
                 "fortran": (np.asfortranarray(x), y, s),
                 "list": (x.tolist(), y.tolist(), s.tolist()),
                 "float32": (x.astype(np.float32), y, s),
                 "int32": (x, y.astype(np.int32), s.astype(np.int32))}[part]
        copied = {"row_slice": FIELDS, "column_slice": ("features",),
                  "fortran": ("features",), "list": FIELDS, "float32": ("features",),
                  "int32": ("labels", "sensitive")}[part]
        batch = md.Batch(*given)
        for name, arr in zip(FIELDS, given):
            stored = getattr(batch, name)
            assert stored.flags.c_contiguous and not stored.flags.writeable
            np.testing.assert_array_equal(stored, arr)
            if name in copied:
                assert not np.shares_memory(stored, np.asarray(arr))
                if isinstance(arr, np.ndarray):
                    assert arr.flags.writeable

    def test_subset_shares_nothing_with_its_parent(self):
        batch = md.Batch(*self.owned(np.random.default_rng(3)))
        for idx in (np.array([4, 0, 7]), np.arange(12) % 3 == 0):
            sub = batch.subset(idx)
            for name in FIELDS:
                assert not np.shares_memory(getattr(sub, name), getattr(batch, name))
                assert not getattr(sub, name).flags.writeable

    @pytest.mark.parametrize("given,message", [
        ((np.zeros(4), np.ones(4), np.ones(4)), "features must be N x p"),
        ((np.zeros((4, 2)), np.ones(3), np.ones(4)), "lengths do not match"),
        ((np.zeros((4, 2)), np.ones(4), np.ones((4, 1))), "lengths do not match"),
        ((np.zeros((4, 2)), np.array([1, 0, 1, 1]), np.ones(4)), "1-based"),
        ((np.zeros((4, 2)), np.ones(4), np.array([1, 2, 0, 1])), "1-based"),
    ])
    def test_checks_still_raise(self, given, message):
        with pytest.raises(ValueError, match=message):
            md.Batch(*given)


class TestCheckpoints:
    @pytest.mark.parametrize("arch,hid", [("linear", 0), ("one_hidden", 3)])
    def test_round_trip(self, tmp_path, arch, hid):
        params = md.init_params(arch, 5, 2, hidden_dim=hid, seed=13)
        path = tmp_path / "params.txt"
        md.save_params(params, path)
        loaded = md.load_params(path)
        assert loaded.arch == params.arch
        assert loaded.input_dim == params.input_dim
        assert loaded.hidden_dim == params.hidden_dim
        np.testing.assert_array_equal(loaded.theta, params.theta)

    @pytest.mark.parametrize("header,message", [
        ("arch=linear input_dim=5 n_classes=2", r"header lacks 'hidden_dim'"),
        ("arch=linear input_dim=5 n_classes 2 hidden_dim=0", r"header item 'n_classes' is not key=value"),
        ("arch=linear input_dim=five n_classes=2 hidden_dim=0", r"header input_dim='five' is not an integer"),
    ])
    def test_malformed_header_names_file_and_key(self, tmp_path, header, message):
        path = tmp_path / "params.txt"
        path.write_text(header + "\n" + "0.0\n" * 12)
        with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(str(path))}: {message}$"):
            md.load_params(path)

    @pytest.mark.parametrize("body,message", [
        ("0.5\n\nabc\n0.0\n", r"line 4 'abc' is not a number"),
        ("0.5\n0.25\n", r"theta has length 2, expected 6"),
    ])
    def test_malformed_body_names_file_and_line_or_counts(self, tmp_path, body, message):
        path = tmp_path / "params.txt"
        path.write_text("arch=linear input_dim=2 n_classes=2 hidden_dim=0\n" + body)
        with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(str(path))}: {message}$"):
            md.load_params(path)

    def test_deterministic_init(self):
        a = md.init_params("one_hidden", 4, 3, hidden_dim=5, seed=1)
        b = md.init_params("one_hidden", 4, 3, hidden_dim=5, seed=1)
        np.testing.assert_array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("arch,hid", [("linear", 0), ("one_hidden", 5)])
    def test_init_bitwise_equal_explicit_draws(self, arch, hid):
        p, c, seed = 4, 3, 7
        rng = np.random.default_rng(seed)
        if arch == "linear":
            r = np.sqrt(6.0 / (p + c))
            blocks = [rng.uniform(-r, r, (c, p)).ravel(), np.zeros(c)]
        else:
            r1, r2 = np.sqrt(6.0 / (p + hid)), np.sqrt(6.0 / (hid + c))
            blocks = [rng.uniform(-r1, r1, (hid, p)).ravel(), np.zeros(hid),
                      rng.uniform(-r2, r2, (c, hid)).ravel(), np.zeros(c)]
        got = md.init_params(arch, p, c, hidden_dim=hid, seed=seed).theta
        assert got.tobytes() == np.concatenate(blocks).tobytes()

    def test_param_count_validation(self):
        with pytest.raises(ValueError, match="length"):
            md.ModelParams("linear", np.zeros(5), input_dim=2, n_classes=2)
