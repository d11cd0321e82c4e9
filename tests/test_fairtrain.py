"""Min-max trainers: inner solves, penalty gradients, reductions, baselines."""

import logging
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import binary_objective, binary_seed, eo_penalty_scatter_rows, zero_params
from renyifair import data, maxcorr as mc, model as md, fairtrain as ft


def fd_grad(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for k in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        g[k] = (f(up) - f(down)) / (2 * h)
    return g


def golden_section_max(f, lo=-5.0, hi=5.0, tol=1e-9):
    """Derivative-free 1-D maximizer, independent of any closed form."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while abs(b - a) > tol:
        if f(c) > f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


def random_probs(rng, n, c):
    p = rng.random((n, c)) + 0.05
    return p / p.sum(axis=1, keepdims=True)


class TestInnerWClosedForm:
    def test_worked_example(self):
        w = ft.inner_w_closed_form(np.array([[0.6, 0.4], [0.2, 0.8]]),
                                   np.array([1.0, -1.0]), floor=1e-12)
        np.testing.assert_allclose(w, [0.25, -1 / 6], atol=1e-12)

    def test_all_positive_group_gives_half(self):
        rng = np.random.default_rng(0)
        probs = random_probs(rng, 12, 3)
        w = ft.inner_w_closed_form(probs, np.ones(12), floor=1e-12)
        np.testing.assert_allclose(w, 0.5, atol=1e-12)

    def test_group_symmetric_probs_give_zero(self):
        probs = np.tile([0.3, 0.7], (10, 1))
        st_ = np.array([1.0, -1.0] * 5)
        np.testing.assert_allclose(
            ft.inner_w_closed_form(probs, st_, floor=1e-12), 0.0, atol=1e-12)

    def test_hard_one_hot_counting_identity(self):
        rng = np.random.default_rng(1)
        n, c = 60, 3
        y = rng.integers(0, c, n)
        s01 = rng.integers(0, 2, n)
        probs = np.zeros((n, c))
        probs[np.arange(n), y] = 1.0
        w = ft.inner_w_closed_form(probs, 2.0 * s01 - 1.0, floor=1e-12)
        for i in range(c):
            pos = np.sum((y == i) & (s01 == 1))
            neg = np.sum((y == i) & (s01 == 0))
            assert abs(w[i] - (pos - neg) / (2 * (pos + neg))) <= 1e-12

    def test_matches_numerical_maximizer(self):
        # The inner objective is separable, so maximize each coordinate by
        # golden-section search and compare.
        rng = np.random.default_rng(2)
        probs = random_probs(rng, 25, 4)
        st_ = np.where(rng.random(25) < 0.5, -1.0, 1.0)
        w = ft.inner_w_closed_form(probs, st_, floor=1e-12)
        m = probs.mean(axis=0)
        t = (st_[:, None] * probs).mean(axis=0)
        for i in range(4):
            oracle = golden_section_max(lambda wi: -wi * wi * m[i] + wi * t[i])
            assert abs(w[i] - oracle) <= 1e-6

    def test_bound_without_floor(self):
        rng = np.random.default_rng(3)
        w = ft.inner_w_closed_form(random_probs(rng, 40, 5),
                                   np.where(rng.random(40) < 0.5, -1.0, 1.0),
                                   floor=1e-12)
        assert np.all(np.abs(w) <= 0.5 + 1e-12)

    def test_danskin_stationarity(self):
        rng = np.random.default_rng(4)
        probs = random_probs(rng, 30, 3)
        st_ = np.where(rng.random(30) < 0.5, -1.0, 1.0)
        w = ft.inner_w_closed_form(probs, st_, floor=1e-12)
        m = probs.mean(axis=0)
        t = (st_[:, None] * probs).mean(axis=0)
        # gradient of the inner concave quadratic at its maximizer
        assert np.abs(t - 2.0 * w * m).max() <= 1e-8


class TestClosedFormPenalty:
    """The training penalty takes each column mean once; its bits must equal
    the ``mean(axis=0)`` formula's, with the floor active or not."""

    @pytest.mark.parametrize("floor_active", [False, True])
    @pytest.mark.parametrize("c", [2, 3, 7, 9])
    def test_bitwise_equal_public_closed_form(self, c, floor_active):
        rng = np.random.default_rng(10 * c + floor_active)
        n, floor = 400, 1e-6
        probs = random_probs(rng, n, c)
        if floor_active:
            probs[:, 0] *= 1e-9
            probs /= probs.sum(axis=1, keepdims=True)
        assert (probs.mean(axis=0) < floor).any() == floor_active
        sensitive = rng.integers(1, 3, n)
        value, seed, sigma2_sq = ft._closed_form(mc.group_index(sensitive, 2), floor)(probs)
        stv = ft.s_tilde(sensitive)
        m, t = probs.mean(axis=0), (stv[:, None] * probs).mean(axis=0)
        w = t / (2.0 * np.maximum(m, floor))
        q = (stv.mean() + 1.0) / 2.0
        qq = q * (1.0 - q)
        centered = qq - (np.sum(w * w * m) - np.sum(w * t) + 0.25)
        rho_sq = centered / qq
        assert ft.inner_w_closed_form(probs, stv, floor).tobytes() == w.tobytes()
        assert np.float64(value).tobytes() == np.float64(centered).tobytes()
        assert np.float64(sigma2_sq).tobytes() == np.float64(max(rho_sq, 0.0)).tobytes()
        assert seed.tobytes() == binary_seed(stv, w).tobytes()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(10, 400), c=st.integers(2, 9), share=st.floats(0.02, 0.98),
       floor=st.sampled_from([1e-6, 0.05, 0.2]), seed=st.integers(0, 2**32 - 1))
def test_closed_form_and_svd_route_agree_until_the_floor_clamps(n, c, share, floor, seed):
    """Unbalanced binary groups: while the floor clamps no class mass and no
    group share, the closed form's sigma2^2 is the SVD route's and its value
    is q(1-q) times the SVD route's value.  A clamped class floors ``w``
    away from gamma's minimiser, so the value can only drop below the one
    at floor 1e-300; a clamped share leaves the closed form as it is."""
    rng = np.random.default_rng(seed)
    s = np.where(rng.random(n) < share, 2, 1)
    assume(np.unique(s).size == 2)
    logits = rng.normal(size=(n, c)) + rng.uniform(-8.0, 2.0, size=c)
    logits += np.outer(s == 2, rng.normal(scale=rng.uniform(0.0, 3.0), size=c))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    groups = mc.group_index(s, 2)
    value, _, sigma2_sq = ft._closed_form(groups, floor)(probs)
    unfloored, _, _ = ft._closed_form(groups, 1e-300)(probs)
    class_clamped = probs.mean(axis=0).min() < floor
    share_clamped = groups.counts.min() / n < floor
    if not class_clamped and not share_clamped:
        svd_value, _, svd_sq = ft._svd_route(groups, floor)(probs)
        q = float(np.mean(s == 2))
        assert abs(sigma2_sq - svd_sq) <= 1e-12
        assert abs(value - q * (1.0 - q) * svd_value) <= 1e-12
    elif class_clamped:
        assert value <= unfloored + 1e-12
    else:
        assert value == unfloored


class TestColumnKernelSeeds:
    """The seeds and means built with ``model._columnwise`` must keep the bits
    of their broadcast formulas, below and above 8 classes."""

    @pytest.mark.parametrize("c", [2, 3, 9])
    def test_binary_seed_and_means(self, c):
        rng = np.random.default_rng(c)
        n = 300
        st_ = np.where(rng.random(n) < 0.4, -1.0, 1.0)
        w = rng.normal(size=c) * 10.0 ** rng.integers(-6, 6, size=c)
        w[0] = 0.0
        f = random_probs(rng, n, c)
        f[rng.random((n, c)) < 0.1] = -0.0
        seed = ft._outer_minus(st_, w, w * w) * (1.0 / n)
        assert seed.tobytes() == ((st_[:, None] * w - w * w) * (1.0 / n)).tobytes()
        assert np.signbit(seed[st_ < 0, 0]).all()
        m, t = ft._binary_means(f, st_)
        assert m.tobytes() == md._column_mean(f).tobytes()
        assert t.tobytes() == md._column_mean(st_[:, None] * f).tobytes()

    @pytest.mark.parametrize("floor_active", [False, True])
    @pytest.mark.parametrize("c", [2, 3, 9])
    def test_discrete_seed(self, c, floor_active):
        rng = np.random.default_rng(10 * c + floor_active)
        n, floor = 300, 1e-6
        probs = random_probs(rng, n, c)
        if floor_active:
            probs[:, 0] *= 1e-9
            probs /= probs.sum(axis=1, keepdims=True)
        groups = mc.group_index(rng.integers(1, 4, n), 3)
        _, seed, _ = ft._svd_route(groups, floor)(probs)
        qm = mc.q_from_groups(probs, groups, floor)
        v = mc.svd_small(qm.q).right_vectors[:, 1]
        r = qm.q @ v
        a = 2.0 * r / np.sqrt(qm.row_marginal)
        b = np.where(qm.row_marginal > floor, r * r / qm.row_marginal, 0.0)
        g = (v / np.sqrt(qm.col_marginal))[groups.codes]
        assert (b == 0.0).any() == floor_active
        assert seed.tobytes() == ((g[:, None] * a - b) / n).tobytes()


class TestEoScatter:
    """The ``eo`` seed, scattered through flat positions, must keep the bits
    of ``seed[idx] += sl_seed``."""

    @staticmethod
    def assert_matches_row_scatter(sub, probs, cfg):
        got = ft._penalty_on(sub, cfg, set(), probs.shape[1])(probs)
        want = eo_penalty_scatter_rows(sub, cfg)(probs)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].shape == probs.shape and got[1].tobytes() == want[1].tobytes()
        return got[1]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("arch,hidden", [("linear", 0), ("one_hidden", 4)])
    def test_full_batch_and_minibatch(self, d, arch, hidden):
        batch = labelled_groups_batch(300, d, seed=d)
        params = md.init_params(arch, batch.n_features, 2, hidden_dim=hidden, seed=1)
        cfg = ft.TrainConfig(fairness_mode="eo", eo_min_group=5)
        rng = np.random.default_rng(d)
        for sub in (batch, batch.subset(rng.permutation(batch.n)[:64])):
            assert self.assert_matches_row_scatter(sub, md.forward(params, sub.features), cfg).any()

    def test_negative_zero_lands_as_zero(self):
        # Balanced groups and constant columns give w = (0, 0) exactly, so
        # every group-1 row (stilde = -1) has a slice seed of -0.0.
        y = np.repeat([1, 2], 40)
        s = np.tile([1, 2], 40)
        sub = md.Batch(np.zeros((80, 1)), y, s)
        probs = np.tile([0.25, 0.75], (80, 1))
        cfg = ft.TrainConfig(fairness_mode="eo", eo_min_group=5)
        _, sl_seed, _ = ft._closed_form(mc.group_index(s[:40], 2), cfg.floor)(probs[:40])
        assert np.signbit(sl_seed[s[:40] == 1]).all()
        seed = self.assert_matches_row_scatter(sub, probs, cfg)
        assert not np.signbit(seed).any() and not seed.any()

    def test_rows_of_a_skipped_slice_stay_zero(self):
        batch = rare_group_batch(300, 2, every=20, seed=4)
        y = np.where(np.arange(300) < 100, 1, 2)
        sub = md.Batch(batch.features, y, np.where(y == 1, 1, batch.sensitive))
        probs = md.forward(md.init_params("linear", 2, 2, seed=3), sub.features)
        cfg = ft.TrainConfig(fairness_mode="eo", eo_min_group=5)
        seed = self.assert_matches_row_scatter(sub, probs, cfg)
        assert seed[:100].tobytes() == np.zeros((100, 2)).tobytes()
        assert seed[100:].any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_model_with_more_classes_than_the_batch_declares(self, d):
        batch = labelled_groups_batch(300, d, seed=d)
        assert batch.n_classes == 2
        params = md.init_params("linear", batch.n_features, 3, seed=2)
        cfg = ft.TrainConfig(fairness_mode="eo", eo_min_group=5)
        seed = self.assert_matches_row_scatter(batch, md.forward(params, batch.features), cfg)
        assert seed.shape == (300, 3) and seed[:, 2].any()


class TestPenaltyGradients:
    def test_svd_route_fixed_v_matches_fd(self):
        rng = np.random.default_rng(5)
        params = md.init_params("linear", 3, 2, seed=5)
        x = rng.normal(size=(30, 3))
        s = rng.integers(1, 4, 30)
        probs = md.forward(params, x)
        groups = mc.group_index(s, 3)
        _, seed, _ = ft._svd_route(groups, 1e-9)(probs)
        v = mc.svd_small(mc.q_from_groups(probs, groups, 1e-9).q).right_vectors[:, 1]
        lam = 3.0
        grad = md.jacobian_probs(params, x)(lam * seed)

        def penalty(theta):
            q = mc.empirical_q(md.forward(params.with_theta(theta), x), s,
                               floor=1e-9, n_groups=3)
            return lam * float(np.sum((q.q @ v) ** 2))

        ref = fd_grad(penalty, params.theta.copy())
        assert np.abs(grad - ref).max() / max(np.abs(ref).max(), 1e-12) <= 1e-4

    def test_binary_objective_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        params = md.init_params("one_hidden", 3, 2, hidden_dim=4, seed=6)
        batch = md.Batch(rng.normal(size=(25, 3)),
                         rng.integers(1, 3, 25), rng.integers(1, 3, 25))
        stv = ft.s_tilde(batch.sensitive)
        probs = md.forward(params, batch.features)
        w = ft.inner_w_closed_form(probs, stv, floor=1e-12)
        lam = 2.0
        _, loss_grad = md.loss_and_grad(params, batch)
        grad = loss_grad + md.jacobian_probs(params, batch.features)(
            lam * binary_seed(stv, w))
        ref = fd_grad(lambda t: binary_objective(params.with_theta(t), batch, lam, w),
                      params.theta.copy())
        assert np.abs(grad - ref).max() / max(np.abs(ref).max(), 1e-12) <= 1e-4

    def test_inner_v_beats_random_feasible_directions(self):
        rng = np.random.default_rng(7)
        probs = random_probs(rng, 80, 3)
        s = rng.integers(1, 5, 80)
        qm = mc.empirical_q(probs, s, floor=1e-9, n_groups=4)
        res = mc.svd_small(qm.q)
        v = res.right_vectors[:, 1]
        gram = qm.q.T @ qm.q
        best = v @ gram @ v
        assert abs(best - res.singular_values[1] ** 2) <= 1e-9
        v1 = res.right_vectors[:, 0]
        for _ in range(200):
            cand = rng.normal(size=4)
            cand -= (cand @ v1) * v1
            cand /= np.linalg.norm(cand)
            assert cand @ gram @ cand <= best + 1e-9



@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["dp_discrete", "dp_binary", "eo", "pearson", "hsic"]),
       c=st.sampled_from([2, 3, 5, 8, 9]), d=st.sampled_from([2, 3]),
       hidden=st.sampled_from([0, 6]), lacking=st.booleans(), clamping=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_training_seed_pulls_back_to_the_fd_gradient_of_its_value(
        mode, c, d, hidden, lacking, clamping, seed):
    """The paper's gradient identity on the path ``train`` runs: the part of
    ``backward(seed)`` from ``loss_grad_and_vjp`` beyond the cross-entropy
    gradient ``backward(None)`` is the central difference of the value of
    ``_penalty_on``, wherever the inner maximizer is unique (the top singular
    values apart).  c crosses ``_ELEMENTWISE_MAX_C`` and ``_COLUMNWISE_MAX_C``;
    ``lacking`` drops group d from the batch.  Only ``dp_discrete`` draws a
    floor that clamps a class: under one, the closed form's seed is not its
    value's gradient (see the ``fairtrain`` docstring)."""
    d = 2 if mode in ("dp_binary", "pearson", "hsic") else d
    rng = np.random.default_rng(seed)
    n = 60 * d
    s = rng.integers(1, d + 1, n)
    x = np.stack([s + rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)], axis=1)
    batch = md.Batch(x, rng.integers(1, c + 1, n), s, n_classes=c, n_groups=d)
    sub = batch.subset(np.flatnonzero(s != d)) if lacking else batch
    params = md.init_params("one_hidden" if hidden else "linear", 3, c, hidden_dim=hidden,
                            seed=seed)
    params = params.with_theta(3.0 * params.theta)
    floor = 0.2 if clamping and mode == "dp_discrete" else 1e-6
    probs, _, backward = md.loss_grad_and_vjp(params, sub)
    rows = ([idx for idx, _ in ft._eo_slices(sub, d, 1, set())] if mode == "eo"
            else [np.arange(sub.n)])
    if mode == "dp_binary" or mode == "eo" and d == 2:
        assume(all(probs[idx].mean(axis=0).min() > floor for idx in rows))
    if mode == "dp_discrete" or mode == "eo" and d > 2:
        for idx in rows:
            q = mc.q_from_groups(probs[idx], mc.group_index(sub.sensitive[idx], d), floor).q
            assume(np.all(-np.diff(np.linalg.svd(q, compute_uv=False)[:3]) > 1e-2))
    penalty = ft._penalty_on(sub, ft.TrainConfig(fairness_mode=mode, floor=floor,
                                                 eo_min_group=1), set(), c)
    got = backward(penalty(probs)[1]) - backward(None)
    fd = fd_grad(lambda t: penalty(md.forward(params.with_theta(t), sub.features))[0],
                 params.theta.copy(), h=1e-6)
    # Relative to the largest entry, or to 1e-4 where the gradient vanishes
    # (a batch left with one group).
    assert np.abs(got - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-4)


class TestBaselinePenalties:
    def test_constant_score_zero(self):
        probs = np.tile([0.4, 0.6], (20, 1))
        s = np.array([1, 2] * 10)
        assert ft.pearson_penalty(probs, s)[0] == 0.0
        assert ft.hsic_penalty(probs, s)[0] == 0.0

    def test_score_equal_to_group_gives_one(self):
        s = np.array([1, 2] * 15)
        probs = np.stack([2 - s, s - 1], axis=1).astype(float)
        value, _ = ft.pearson_penalty(probs, s)
        assert abs(value - 1.0) <= 1e-12

    def test_xor_scores_fool_covariance_measures_but_not_renyi(self):
        # Group 1 scores straddle the group 2 score symmetrically: zero
        # covariance, yet the score determines the group exactly.
        scores = np.array([0.9, 0.1, 0.5, 0.5])
        s = np.array([1, 1, 2, 2])
        probs = np.stack([1 - scores, scores], axis=1)
        assert abs(ft.pearson_penalty(probs, s)[0]) <= 1e-12
        assert abs(ft.hsic_penalty(probs, s)[0]) <= 1e-12
        joint = np.array([[0.25, 0.0], [0.0, 0.5], [0.25, 0.0]])
        assert abs(mc.renyi_discrete(joint) - 1.0) <= 1e-9

    def test_hsic_delta_kernel_value(self):
        rng = np.random.default_rng(9)
        probs = random_probs(rng, 40, 2)
        s = rng.integers(1, 3, 40)
        value, _ = ft.hsic_penalty(probs, s)
        x = probs[:, 1] - probs[:, 1].mean()
        expected = sum(x[s == g].sum() ** 2 for g in (1, 2)) / 40 ** 2
        assert abs(value - expected) <= 1e-15

    def test_hsic_delta_kernel_seed_bitwise(self):
        # Per-sample group totals, gathered one sample at a time.
        rng = np.random.default_rng(13)
        n = 2000
        probs = random_probs(rng, n, 2)
        s = rng.integers(1, 3, n)
        _, seed = ft.hsic_penalty(probs, s)
        x = probs[:, 1] - probs[:, 1].mean()
        totals = {g: float(x[s == g].sum()) for g in (1, 2)}
        mix = sum(totals[g] * int((s == g).sum()) for g in (1, 2)) / n
        expected = 2.0 * (np.array([totals[g] for g in s]) - mix) / (n * n)
        np.testing.assert_array_equal(seed[:, 1], expected)
        np.testing.assert_array_equal(seed[:, 0], 0.0)

    def test_hsic_without_a_group_index_is_binary(self):
        probs = np.tile([0.3, 0.7], (4, 1))
        probs[0] = [0.6, 0.4]
        with pytest.raises(ValueError, match=r"binary sensitive labels must be in \{1, 2\}"):
            ft.hsic_penalty(probs, np.array([1, 2, 3, 1]))
        lacking_2, _ = ft.hsic_penalty(probs, np.array([1, 1, 1, 1]))
        assert abs(lacking_2) <= 1e-30  # one group: the centered total, squared

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(10)
        params = md.init_params("linear", 3, 2, seed=11)
        x = rng.normal(size=(20, 3))
        s = rng.integers(1, 3, 20)
        for fn in (lambda p: ft.pearson_penalty(p, s),
                   lambda p: ft.hsic_penalty(p, s)):
            value, seed = fn(md.forward(params, x))
            grad = md.jacobian_probs(params, x)(seed)
            ref = fd_grad(lambda t: fn(md.forward(params.with_theta(t), x))[0],
                          params.theta.copy())
            assert np.abs(grad - ref).max() / max(np.abs(ref).max(), 1e-12) <= 1e-4


def tiny_batch(n=240, seed=0):
    return data.synth_yequalss(n, seed=seed)


class TestTrainers:
    def test_lambda_zero_reductions_bitwise(self):
        batch = tiny_batch()
        base_cfg = dict(eta=0.3, iters=40, seed=0)
        p0 = md.init_params("linear", 2, 2, seed=0)
        plain = ft.train(p0, batch, ft.TrainConfig(lam=0.0, fairness_mode="none", **base_cfg))
        for mode in ("dp_discrete", "dp_binary", "eo", "pearson", "hsic"):
            other = ft.train(p0, batch, ft.TrainConfig(lam=0.0, fairness_mode=mode, **base_cfg))
            np.testing.assert_array_equal(other.final_params.theta,
                                          plain.final_params.theta)
            np.testing.assert_array_equal(other.loss, plain.loss)

    def test_discrete_fairness_accuracy_limit(self):
        batch = tiny_batch(n=600, seed=3)
        p0 = md.init_params("linear", 2, 2, seed=0)
        free = ft.train(p0, batch, ft.TrainConfig(
            lam=0.0, eta=0.5, iters=300, fairness_mode="dp_discrete", seed=0))
        assert free.sigma2[-1] >= 0.95
        from renyifair import metrics as mt
        rep = mt.evaluate(free.final_params, batch)
        assert rep.accuracy >= 0.99

        fair = ft.train(p0, batch, ft.TrainConfig(
            lam=100.0, eta=0.0005, iters=2500, fairness_mode="dp_discrete", seed=0))
        rep = mt.evaluate(fair.final_params, batch)
        assert fair.sigma2[-1] <= 0.1
        assert abs(rep.accuracy - 0.5) <= 0.05

    def test_binary_mode_requires_two_groups(self):
        batch = md.Batch(np.zeros((6, 2)), np.array([1, 2] * 3), np.array([1, 2, 3] * 2))
        with pytest.raises(ValueError, match="binary"):
            ft.train(zero_params("linear", 2, 2), batch,
                     ft.TrainConfig(fairness_mode="dp_binary", lam=1.0))

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_unfair_baseline_trains_on_more_than_two_groups(self, batch_size):
        # Only pearson and hsic need a binary attribute; none just logs sigma2.
        rng = np.random.default_rng(4)
        batch = md.Batch(rng.normal(size=(12, 2)), np.array([1, 2] * 6), np.array([1, 2, 3] * 4))
        trace = ft.train(md.init_params("linear", 2, 2, seed=0), batch,
                         ft.TrainConfig(fairness_mode="none", iters=5, batch_size=batch_size))
        assert len(trace.sigma2) == 6 and np.all(np.isfinite(trace.sigma2))
        for mode in ("pearson", "hsic"):
            with pytest.raises(ValueError, match="binary"):
                ft.train(md.init_params("linear", 2, 2, seed=0), batch,
                         ft.TrainConfig(fairness_mode=mode, iters=5, batch_size=batch_size))

    def test_equalized_odds_reduces_conditional_dependence(self):
        # S independent of Y, but one feature copies the group so the
        # model can pick up within-slice dependence.
        rng = np.random.default_rng(4)
        n = 600
        y = rng.integers(1, 3, n)
        s = rng.integers(1, 3, n)
        x = np.stack([np.where(y == 2, 3.0, -3.0) + rng.normal(size=n),
                      2.0 * (s - 1.5)], axis=1)
        batch = md.Batch(x, y, s)
        p0 = md.init_params("linear", 2, 2, seed=1)
        cfg = ft.TrainConfig(lam=100.0, eta=0.001, iters=1500,
                             fairness_mode="eo", eo_min_group=10, seed=0)
        trace = ft.train(p0, batch, cfg)
        assert trace.sigma2[-1] ** 2 <= 0.05

    def test_eo_small_slices_skipped_with_warning(self, caplog):
        rng = np.random.default_rng(5)
        n = 40
        y = np.array([1] * 36 + [2] * 4)
        s = rng.integers(1, 3, n)
        batch = md.Batch(rng.normal(size=(n, 2)), y, s)
        cfg = ft.TrainConfig(lam=1.0, eta=0.1, iters=2, fairness_mode="eo",
                             eo_min_group=10, seed=0)
        with caplog.at_level(logging.WARNING, logger="renyifair.fairtrain"):
            ft.train(zero_params("linear", 2, 2), batch, cfg)
        assert any("skipped" in rec.message for rec in caplog.records)

    def test_sigma2_non_increasing_in_lambda_up_to_one_inversion(self):
        batch = tiny_batch(n=400, seed=6)
        finals = []
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0):
            p0 = md.init_params("linear", 2, 2, seed=0)
            cfg = ft.TrainConfig(lam=lam, eta=0.0005, iters=1200,
                                 fairness_mode="dp_discrete", seed=0)
            finals.append(ft.train(p0, batch, cfg).sigma2[-1])
        inversions = sum(1 for a, b in zip(finals, finals[1:]) if b > a + 1e-6)
        assert inversions <= 1, finals

    def test_divergence_flagged_with_finite_trace(self):
        rng = np.random.default_rng(7)
        batch = md.Batch(1e200 * rng.normal(size=(20, 2)),
                         rng.integers(1, 3, 20), rng.integers(1, 3, 20))
        p0 = md.init_params("linear", 2, 2, seed=2)
        cfg = ft.TrainConfig(lam=0.0, eta=1.0, iters=50, fairness_mode="none", seed=0)
        # ``diverged`` reports the overflow; numpy's RuntimeWarning would only repeat it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = ft.train(p0, batch, cfg)
        assert trace.diverged
        assert len(trace.loss) < 50
        assert all(np.isfinite(v) for v in trace.loss)

    def test_minibatch_deterministic(self):
        batch = tiny_batch(n=200, seed=8)
        p0 = md.init_params("linear", 2, 2, seed=3)
        cfg = ft.TrainConfig(lam=1.0, eta=0.1, iters=30, fairness_mode="dp_binary",
                             batch_size=32, seed=11)
        a = ft.train(p0, batch, cfg)
        b = ft.train(p0, batch, cfg)
        np.testing.assert_array_equal(a.final_params.theta, b.final_params.theta)

    def test_grad_tol_stops_early(self):
        batch = tiny_batch(n=100, seed=9)
        p0 = zero_params("linear", 2, 2)
        cfg = ft.TrainConfig(lam=0.0, eta=0.5, iters=5000, fairness_mode="none",
                             grad_tol=1e-3, seed=0)
        trace = ft.train(p0, batch, cfg)
        assert trace.stopped_early
        assert trace.iteration[-1] < 5000
        assert trace.grad_norm[-1] <= 1e-3

    def test_penalty_nonnegative_and_zero_for_constant_predictor(self):
        rng = np.random.default_rng(12)
        probs = np.tile([0.35, 0.65], (50, 1))
        s = np.array([1, 2] * 25)
        penalty = ft._closed_form(mc.group_index(s, 2), 1e-9)
        centered = penalty(probs)[0]
        assert abs(centered) <= 1e-12
        value, _, sigma2_sq = ft._svd_route(mc.group_index(s, 2), 1e-9)(probs)
        assert value <= 1e-12 and np.sqrt(sigma2_sq) <= 1e-9
        varied = random_probs(rng, 50, 2)
        centered = penalty(varied)[0]
        assert centered >= -1e-12


class TestRunStatus:
    """``run_status`` reads the stop reason and settledness off a finished trace."""

    @staticmethod
    def trace(grad_norm, sigma2, **flags):
        return ft.TrainTrace(iteration=list(range(len(sigma2))), loss=[0.5] * len(sigma2),
                             penalty=[0.0] * len(sigma2), grad_norm=grad_norm, sigma2=sigma2,
                             **flags)

    @pytest.mark.parametrize("grad_norm,sigma2,flags,want", [
        ([1.0, 5e-4], [0.30, 0.3005], {}, ("iters", True)),
        ([1.0, 1e-3], [0.30, 0.3005], {}, ("iters", False)),
        ([1.0, 5e-4], [0.30, 0.3010], {}, ("iters", False)),
        ([1.0, 5e-4], [0.30, 0.3005], {"stopped_early": True}, ("grad_tol", True)),
        ([1.0, 5e-4], [0.30, 0.3005], {"diverged": True}, ("diverged", False)),
        ([], [], {"diverged": True}, ("diverged", False)),
    ], ids=["settled", "grad_norm_at_tol", "sigma2_range_at_tol", "grad_tol", "diverged",
            "diverged_on_the_first_step"])
    def test_reason_and_settled(self, grad_norm, sigma2, flags, want):
        assert ft.run_status(self.trace(grad_norm, sigma2, **flags)) == want

    def test_sigma2_range_only_over_the_trailing_window(self):
        for head, want in (([0.9, 0.2], True), ([0.9], False)):
            sigma2 = head + [0.2] * (ft.SETTLE_WINDOW - 1)
            assert ft.run_status(self.trace([0.0] * len(sigma2), sigma2)) == ("iters", want)

    def test_runs_read_their_own_reason(self):
        batch = tiny_batch(n=100, seed=9)
        cfg = ft.TrainConfig(lam=0.0, eta=0.5, iters=5000, fairness_mode="none",
                             grad_tol=1e-3, seed=0)
        assert ft.run_status(ft.train(zero_params("linear", 2, 2), batch, cfg))[0] == "grad_tol"
        cfg = replace(cfg, grad_tol=0.0, iters=3)
        assert ft.run_status(ft.train(zero_params("linear", 2, 2), batch, cfg)) == ("iters", False)


def reference_penalty(probs, sub, cfg, n_groups, warned):
    """Scaled penalty, scaled seed and sigma2 as each mode computed them when
    lambda was applied inside every penalty; sigma2 comes from the closed
    form on the binary route and from an SVD of Q otherwise."""
    lam = cfg.lam

    def sigma2_of_q():
        qm = mc.empirical_q(probs, sub.sensitive, floor=cfg.floor, n_groups=n_groups)
        return float(mc.svd_small(qm.q).singular_values[1])

    def svd_route(rows):
        groups = mc.group_index(sub.sensitive[rows], n_groups)
        value, seed, _ = ft._svd_route(groups, cfg.floor)(probs[rows])
        qm = mc.q_from_groups(probs[rows], groups, cfg.floor)
        return value, seed, float(mc.svd_small(qm.q).singular_values[1])

    mode = cfg.fairness_mode
    if mode == "none":
        return 0.0, None, sigma2_of_q()
    if mode == "dp_discrete":
        value, seed, sigma2 = svd_route(slice(None))
        return lam * value, lam * seed, sigma2
    if mode == "dp_binary":
        value, seed, sigma2_sq = ft._closed_form(mc.group_index(sub.sensitive, 2),
                                                 cfg.floor)(probs)
        return lam * value, lam * seed, float(np.sqrt(sigma2_sq))
    if mode == "eo":
        total, seed, sq_sum = 0.0, np.zeros_like(probs), 0.0
        for idx, _ in ft._eo_slices(sub, n_groups, cfg.eo_min_group, warned):
            if n_groups == 2:
                value, sl_seed, sigma2_sq = ft._closed_form(
                    mc.group_index(sub.sensitive[idx], 2), cfg.floor)(probs[idx])
                seed[idx] += sl_seed
                total += value
                sq_sum += sigma2_sq
            else:
                value, sl_seed, sigma2 = svd_route(idx)
                seed[idx] += sl_seed
                total += value
                sq_sum += sigma2 * sigma2
        return lam * total, lam * seed, float(np.sqrt(sq_sum))
    if mode == "pearson":
        value, seed = ft.pearson_penalty(probs, sub.sensitive)
    else:
        value, seed = ft.hsic_penalty(probs, sub.sensitive)
    return lam * value, lam * seed, sigma2_of_q()


def reference_train(params, batch, cfg):
    """Descent with three forward passes per step (``forward`` for the
    penalty, ``loss_and_grad``, ``jacobian_probs``) and the same minibatch
    schedule as ``ft.train``; returns the last iterate and one
    ``(loss, penalty, grad_norm, sigma2)`` row per step plus the final row."""
    rng = np.random.default_rng(cfg.seed)
    order, cursor = np.array([], dtype=np.int64), 0
    warned = set()

    def step(theta, sub):
        probs = md.forward(theta, sub.features)
        pen, seed, sigma2 = reference_penalty(probs, sub, cfg, batch.n_groups, warned)
        loss, grad = md.loss_and_grad(theta, sub)
        if cfg.lam != 0.0 and seed is not None:
            grad = grad + md.jacobian_probs(theta, sub.features)(seed)
        return grad, (loss, float(pen), float(np.linalg.norm(grad)), sigma2)

    theta, rows = params, []
    for _ in range(cfg.iters):
        sub = batch
        if cfg.batch_size is not None:
            if cursor + cfg.batch_size > len(order):
                order, cursor = rng.permutation(batch.n), 0
            sub = batch.subset(order[cursor: cursor + cfg.batch_size])
            cursor += cfg.batch_size
        grad, row = step(theta, sub)
        rows.append(row)
        theta = theta.with_theta(theta.theta - cfg.eta * grad)
    rows.append(step(theta, batch)[1])
    return theta, rows


def labelled_groups_batch(n, d, seed):
    """Labels and groups drawn independently, one feature tracking each."""
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 3, n)
    s = rng.integers(1, d + 1, n)
    x = np.stack([np.where(y == 2, 1.0, -1.0) + rng.normal(size=n),
                  (s - (d + 1) / 2.0) + rng.normal(size=n),
                  rng.normal(size=n)], axis=1)
    return md.Batch(x, y, s)


@pytest.mark.parametrize("mode,d", [("none", 2), ("dp_discrete", 2), ("dp_discrete", 3),
                                    ("dp_binary", 2), ("eo", 2), ("eo", 3),
                                    ("pearson", 2), ("hsic", 2)])
@pytest.mark.parametrize("arch,hidden,batch_size", [("linear", 0, None), ("one_hidden", 4, 64)])
def test_single_pass_step_matches_three_pass_reference_bitwise(mode, d, arch, hidden, batch_size):
    batch = labelled_groups_batch(300, d, seed=d)
    p0 = md.init_params(arch, batch.n_features, batch.n_classes, hidden_dim=hidden, seed=1)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=40, fairness_mode=mode,
                         batch_size=batch_size, eo_min_group=5, seed=2)
    trace = ft.train(p0, batch, cfg)
    theta, rows = reference_train(p0, batch, cfg)
    assert not trace.diverged and trace.iteration == list(range(cfg.iters + 1))
    np.testing.assert_array_equal(trace.final_params.theta, theta.theta)
    loss, penalty, grad_norm, sigma2 = zip(*rows)
    for got, want in zip((trace.loss, trace.penalty, trace.grad_norm), (loss, penalty, grad_norm)):
        np.testing.assert_array_equal(got, want)
    if mode in ("none", "pearson", "hsic"):
        # The baselines log sigma2 from the deflated Q (d = 2), not an SVD.
        np.testing.assert_allclose(trace.sigma2, sigma2, rtol=0, atol=1e-15)
    else:
        np.testing.assert_array_equal(trace.sigma2, sigma2)
    assert any(p != 0.0 for p in trace.penalty) or mode == "none"


def rare_group_batch(n, d, every, seed):
    """Groups 1..d-1 at random, and group d on every ``every``-th row."""
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 3, n)
    s = np.where(np.arange(n) % every == 0, d, rng.integers(1, d, n))
    x = np.stack([np.where(y == 2, 1.0, -1.0) + rng.normal(size=n),
                  s + rng.normal(size=n)], axis=1)
    return md.Batch(x, y, s)


def test_dp_binary_minibatches_lacking_a_group_train_every_step():
    batch = rare_group_batch(500, 2, every=50, seed=3)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=40, fairness_mode="dp_binary",
                         batch_size=32, seed=4)
    trace = ft.train(md.init_params("linear", 2, 2, seed=0), batch, cfg)
    assert not trace.diverged and trace.iteration == list(range(cfg.iters + 1))
    # A minibatch without the minority group has nothing to correlate with.
    assert 0.0 in trace.sigma2[:-1]
    assert all(np.isfinite(trace.sigma2)) and trace.sigma2[-1] > 0.0


@pytest.mark.parametrize("eo_min_group", [1, 5])
def test_eo_minibatch_lacking_the_top_group_skips_its_slices(eo_min_group, caplog):
    batch = rare_group_batch(600, 3, every=100, seed=5)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=30, fairness_mode="eo",
                         batch_size=64, eo_min_group=eo_min_group, seed=6)
    with caplog.at_level(logging.WARNING, logger="renyifair.fairtrain"):
        trace = ft.train(md.init_params("linear", 2, 2, seed=0), batch, cfg)
    assert not trace.diverged and trace.iteration == list(range(cfg.iters + 1))
    assert any("skipped: smallest group has 0 samples" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("arch,hidden,batch_size", [("linear", 0, None), ("linear", 0, 64),
                                                    ("one_hidden", 4, None), ("one_hidden", 4, 64)])
def test_dp_binary_sigma2_matches_svd_of_q(arch, hidden, batch_size, monkeypatch):
    batch = labelled_groups_batch(300, 2, seed=7)
    p0 = md.init_params(arch, batch.n_features, batch.n_classes, hidden_dim=hidden, seed=1)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=60, fairness_mode="dp_binary",
                         batch_size=batch_size, seed=2)
    inputs = []
    penalty_on = ft._penalty_on

    def recording_penalty_on(sub, *args):
        penalty = penalty_on(sub, *args)

        def recording_penalty(probs):
            inputs.append((probs, sub.sensitive))
            return penalty(probs)
        return recording_penalty

    monkeypatch.setattr(ft, "_penalty_on", recording_penalty_on)
    trace = ft.train(p0, batch, cfg)
    assert len(inputs) == len(trace.sigma2) == cfg.iters + 1
    for sigma2, (probs, s) in zip(trace.sigma2, inputs):
        assert probs.mean(axis=0).min() > cfg.floor  # the floor stays inactive
        svd = mc.second_singular_value(mc.empirical_q(probs, s, floor=cfg.floor, n_groups=2))
        assert abs(sigma2 ** 2 - svd ** 2) <= 1e-12
        if svd >= 1e-3:
            assert abs(sigma2 - svd) <= 1e-9


def test_eo_minibatch_lacking_a_class_skips_that_slice_without_a_warning(caplog):
    # A label with no rows has no conditional distribution to penalise.
    rng = np.random.default_rng(8)
    s = np.tile([1, 2], 20)
    batch = md.Batch(rng.normal(size=(40, 2)), np.ones(40, dtype=int), s, n_classes=2)
    warned = set()
    with caplog.at_level(logging.WARNING, logger="renyifair.fairtrain"):
        slices = ft._eo_slices(batch, 2, 5, warned)
        cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=5, fairness_mode="eo", eo_min_group=5)
        trace = ft.train(md.init_params("linear", 2, 2, seed=0), batch, cfg)
    assert len(slices) == 1 and slices[0][0].tolist() == list(range(40))
    assert warned == set() and caplog.records == []
    assert not trace.diverged and all(np.isfinite(trace.penalty))


@pytest.mark.parametrize("case, message", [
    (lambda: ft.TrainConfig(lam=-1.0), "lam must be nonnegative"),
    (lambda: ft.TrainConfig(iters=0), "iters must be at least 1"),
    (lambda: ft.TrainConfig(floor=0.0), "floor must be positive"),
    (lambda: ft.inner_w_closed_form(np.full((3, 2), 0.5), np.ones(2)),
     "soft_probs must be N x c with matching stilde"),
    (lambda: ft.inner_w_closed_form(np.full(3, 0.5), np.ones(3)),
     "soft_probs must be N x c with matching stilde"),
    (lambda: ft.inner_w_closed_form(np.full((3, 2), 0.5), np.array([1.0, -1.0, 0.5])),
     "stilde entries must be +1 or -1"),
    (lambda: ft.train(md.init_params("linear", 2, 2, seed=0),
                      md.Batch(np.zeros((4, 2)), [1, 2, 1, 2], np.ones(4, dtype=int)),
                      ft.TrainConfig(lam=1.0, iters=2, fairness_mode="dp_discrete")),
     "dp_discrete requires at least two sensitive groups"),
], ids=["negative_lam", "no_iters", "zero_floor", "short_stilde", "flat_probs", "stilde_half",
        "dp_discrete_one_group"])
def test_check_messages(case, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        case()


@pytest.mark.parametrize("name", ["lam", "eta", "floor", "grad_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_hyperparameter_rejected(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        ft.TrainConfig(**{name: value})


def test_eo_min_group_below_one_rejected_and_one_trains():
    for eo_min_group in (0, -1):
        with pytest.raises(ValueError, match="eo_min_group must be at least 1"):
            ft.TrainConfig(fairness_mode="eo", eo_min_group=eo_min_group)
    batch = rare_group_batch(600, 3, every=100, seed=5)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=10, fairness_mode="eo",
                         batch_size=64, eo_min_group=1, seed=6)
    trace = ft.train(md.init_params("linear", 2, 2, seed=0), batch, cfg)
    assert not trace.diverged and trace.iteration == list(range(cfg.iters + 1))


@pytest.mark.parametrize("mode,d", [(mode, 2) for mode in ft.FAIRNESS_MODES] + [("dp_discrete", 3)])
def test_minibatches_lacking_a_group_train_in_every_mode(mode, d):
    batch = rare_group_batch(500, d, every=50, seed=3)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=40, fairness_mode=mode,
                         batch_size=32, seed=4)
    trace = ft.train(md.init_params("linear", 2, 2, seed=0), batch, cfg)
    assert not trace.diverged and trace.iteration == list(range(cfg.iters + 1))
    assert all(np.isfinite(trace.sigma2)) and all(np.isfinite(trace.penalty))


@pytest.mark.parametrize("d", [2, 3])
def test_dp_discrete_minibatches_lacking_a_group_take_q_over_the_groups_present(d, caplog):
    batch = rare_group_batch(500, d, every=50, seed=3)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=40, fairness_mode="dp_discrete",
                         batch_size=32, seed=4)
    with caplog.at_level(logging.WARNING, logger="renyifair.fairtrain"):
        trace = ft.train(md.init_params("linear", 2, 2, seed=0), batch, cfg)
    warnings = [rec.message for rec in caplog.records if "lacks a sensitive group" in rec.message]
    assert warnings == ["dp_discrete penalty on a batch that lacks a sensitive group: "
                        f"Q is taken over the {d - 1} of {d} groups present"]
    # One group left: no penalty, and nothing to correlate with.
    one_left = [k for k, sigma2 in enumerate(trace.sigma2) if sigma2 == 0.0]
    assert bool(one_left) == (d == 2)
    assert all(trace.penalty[k] == 0.0 for k in one_left) and trace.sigma2[-1] > 0.0


@pytest.mark.parametrize("mode", ["dp_binary", "dp_discrete"])
@pytest.mark.parametrize("group", [1, 2])
def test_a_batch_left_with_one_group_has_no_penalty_on_either_route(mode, group):
    # Exact zeros on both routes, not the closed form's rounding noise; the
    # seed stays an N x c array.
    rng = np.random.default_rng(group)
    cfg = ft.TrainConfig(fairness_mode=mode)
    for _ in range(50):
        sub = md.Batch(np.zeros((32, 1)), rng.integers(1, 4, 32), np.full(32, group),
                       n_classes=3, n_groups=2)
        probs = random_probs(rng, 32, 3)
        value, seed, sigma2_sq = ft._penalty_on(sub, cfg, set(), 3)(probs)
        assert value == 0.0 and sigma2_sq == 0.0
        assert seed.shape == probs.shape and not seed.any()


def test_dp_discrete_minibatch_lacking_a_group_renumbers_the_rest():
    rng = np.random.default_rng(8)
    s = rng.choice([1, 3], size=40)
    sub = md.Batch(rng.normal(size=(40, 2)), rng.integers(1, 3, 40), s, n_groups=3)
    probs = md.forward(md.init_params("linear", 2, 2, seed=1), sub.features)
    cfg = ft.TrainConfig(fairness_mode="dp_discrete")
    value, seed, sigma2_sq = ft._penalty_on(sub, cfg, set(), 2)(probs)
    want = ft._svd_route(mc.group_index(np.where(s == 3, 2, 1), 2), cfg.floor)
    want_value, want_seed, want_sq = want(probs)
    assert (value, sigma2_sq) == (want_value, want_sq) and want_sq > 0.0
    assert seed.tobytes() == want_seed.tobytes()


def test_dp_discrete_with_a_vanishing_class_takes_lapacks_factor():
    # Class 2's mass 1e-170 sits under the floor, so the Jacobi's rotation
    # angle underflows to 0 and its sweeps never settle; the adversary then
    # comes from LAPACK, with no warning.
    rng = np.random.default_rng(5)
    s = np.arange(30) % 3 + 1
    p2 = 1e-170 * rng.uniform(0.5, 1.5, 30) * s
    probs = np.column_stack([1.0 - p2, p2])
    groups = mc.group_index(s, 3)
    q = mc.q_from_groups(probs, groups, mc.DEFAULT_MARGINAL_FLOOR).q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, seed, sigma2_sq = ft._svd_route(groups, mc.DEFAULT_MARGINAL_FLOOR)(probs)
        svd = mc.svd_small(q)
    v, sigma2 = svd.right_vectors[:, 1], svd.singular_values[1]
    assert np.isfinite(value) and np.all(np.isfinite(seed)) and np.all(np.isfinite(v))
    # sigma2 ~ 6e-168 squares to 0.0, so training logs sigma2 = 0.0 here.
    assert sigma2_sq == sigma2 * sigma2 == 0.0
    want = np.linalg.svd(q, compute_uv=False)[1]
    assert want > 0.0 and abs(sigma2 - want) <= 1e-12 * want


def test_dp_discrete_trains_on_seventy_groups():
    # A sensitive attribute product-coded over three columns (5 x 2 x 7):
    # Q is 2 x 70, one column pair for the Jacobi.
    batch = labelled_groups_batch(2000, 70, seed=9)
    p0 = md.init_params("linear", batch.n_features, batch.n_classes, seed=1)
    cfg = ft.TrainConfig(lam=1.0, eta=0.5, iters=5, fairness_mode="dp_discrete", seed=2)
    trace = ft.train(p0, batch, cfg)
    assert not trace.diverged and trace.iteration == list(range(cfg.iters + 1))
    q = mc.q_from_groups(md.forward(p0, batch.features), mc.group_index(batch.sensitive, 70),
                         cfg.floor).q
    want = np.linalg.svd(q, compute_uv=False)[1]
    assert want > 0.0 and abs(trace.sigma2[0] - want) <= 1e-12


@pytest.mark.parametrize("mode", ["none", "pearson", "hsic"])
def test_baseline_minibatches_lacking_a_group_log_sigma2_over_the_groups_present(mode, caplog):
    batch = rare_group_batch(500, 2, every=50, seed=3)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=40, fairness_mode=mode,
                         batch_size=32, seed=4)
    with caplog.at_level(logging.WARNING, logger="renyifair.fairtrain"):
        trace = ft.train(md.init_params("linear", 2, 2, seed=0), batch, cfg)
    assert not trace.diverged and trace.iteration == list(range(cfg.iters + 1))
    assert all(np.isfinite(trace.sigma2)) and all(np.isfinite(trace.penalty))
    # One group left: nothing to correlate with.
    assert 0.0 in trace.sigma2[:-1] and trace.sigma2[-1] > 0.0
    warnings = [rec.message for rec in caplog.records if "lacks a sensitive group" in rec.message]
    assert warnings == ["sigma2 diagnostic on a batch that lacks a sensitive group: "
                        "Q is taken over the 1 of 2 groups present"]
    # Full batches hold both groups, so a full-batch run keeps every bit but sigma2's.
    p0, full_cfg = md.init_params("linear", 2, 2, seed=0), replace(cfg, batch_size=None)
    full = ft.train(p0, batch, full_cfg)
    theta, rows = reference_train(p0, batch, full_cfg)
    np.testing.assert_array_equal(full.final_params.theta, theta.theta)
    np.testing.assert_array_equal(full.loss, [row[0] for row in rows])
    np.testing.assert_allclose(full.sigma2, [row[3] for row in rows], rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode,d", [
    ("none", 2), ("dp_discrete", 3), ("eo", 3), ("pearson", 2), ("hsic", 2), ("dp_binary", 2),
    ("eo", 2),
], ids=["none", "dp_discrete", "eo", "pearson", "hsic", "dp_binary", "eo-binary"])
@pytest.mark.parametrize("batch_size", [None, 64])
def test_group_index_built_once_per_batch(mode, d, batch_size, monkeypatch):
    """Every penalty reads the rows' group index, built once per batch (once
    per label slice for ``eo``), not once per step; training never builds
    the binary signs through ``s_tilde``."""
    batch = labelled_groups_batch(300, d, seed=1)
    built = []
    build = mc.group_index

    def counting_build(sensitive, *args):
        built.append(len(sensitive))
        return build(sensitive, *args)

    def refused_s_tilde(sensitive):
        raise AssertionError("training called s_tilde")

    monkeypatch.setattr(mc, "group_index", counting_build)
    monkeypatch.setattr(ft, "s_tilde", refused_s_tilde)
    cfg = ft.TrainConfig(lam=5.0, eta=0.5, iters=6, fairness_mode=mode,
                         batch_size=batch_size, eo_min_group=5, seed=2)
    trace = ft.train(md.init_params("linear", 3, 2, seed=1), batch, cfg)
    assert trace.iteration == list(range(cfg.iters + 1))
    per_batch = 2 if mode == "eo" else 1  # eo: one index per label slice
    batches = 1 if batch_size is None else cfg.iters + 1  # + the final full-batch row
    assert len(built) == per_batch * batches
