"""Soft classifiers: forward contracts, analytic gradients, checkpoints."""

import numpy as np
import pytest

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
        params = md.zero_params("linear", 3, 4)
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

    def test_dimension_mismatch(self):
        params = md.zero_params("linear", 3, 2)
        with pytest.raises(ValueError, match="shape"):
            md.forward(params, np.zeros((2, 5)))


class TestLossAndGrad:
    def test_zero_params_binary_loss_is_ln2(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, c=2)
        loss, _ = md.loss_and_grad(md.zero_params("linear", 4, 2), batch)
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


class _UfuncSpy:
    """Stands in for a ufunc and records whether it was reduced or called."""

    def __init__(self, ufunc):
        self.ufunc = ufunc
        self.identity = ufunc.identity
        self.used = []

    def reduce(self, *args, **kwargs):
        self.used.append("reduce")
        return self.ufunc.reduce(*args, **kwargs)

    def __call__(self, *args):
        self.used.append("call")
        return self.ufunc(*args)


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

            probs, hidden = md._forward_internals(params, x)
            u = awkward_matrix(rng, 500, c)
            dlogits = (u - np.sum(u * probs, axis=1, keepdims=True)) * probs
            want = md._backward_from_dlogits(params, x, dlogits, hidden)
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

    def test_deterministic_init(self):
        a = md.init_params("one_hidden", 4, 3, hidden_dim=5, seed=1)
        b = md.init_params("one_hidden", 4, 3, hidden_dim=5, seed=1)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_param_count_validation(self):
        with pytest.raises(ValueError, match="length"):
            md.ModelParams("linear", np.zeros(5), input_dim=2, n_classes=2)
