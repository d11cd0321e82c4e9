"""Maximal-correlation core: Q construction, Jacobi SVD, the SVD evaluator against the closed form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import q_from_groups_gather, renyi_binary, second_right_singular_vector
from renyifair import maxcorr as mc


def random_joint(rng, c, d, zero_mass=False):
    m = rng.random((c, d)) + 1e-3
    if zero_mass:
        m[rng.integers(c), rng.integers(d)] = 0.0
    return m / m.sum()


def gram_jacobi_sigmas(m, sweeps=200):
    """Brute-force oracle: cyclic Jacobi eigensolver on the Gram matrix.

    Independent of the library's one-sided Jacobi; singular values are the
    square roots of the eigenvalues of m^T m.
    """
    a = np.asarray(m, dtype=np.float64)
    g = a.T @ a
    n = g.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(g[p, q]))
                if abs(g[p, q]) < 1e-15:
                    continue
                theta = 0.5 * np.arctan2(2.0 * g[p, q], g[q, q] - g[p, p])
                c_, s_ = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c_
                rot[p, q] = s_
                rot[q, p] = -s_
                g = rot.T @ g @ rot
        if off < 1e-15:
            break
    return np.sort(np.sqrt(np.maximum(np.diag(g), 0.0)))[::-1]


class TestJointChecks:
    """``q_from_joint`` is the one validating joint -> Q builder."""

    @pytest.mark.parametrize("evaluate", [mc.q_from_joint, mc.renyi_discrete])
    @pytest.mark.parametrize("joint, message", [
        (np.array([0.5, 0.5]), "expected a 2-D table"),
        (np.array([[1.1, -0.1], [0.0, 0.0]]), "negative entries"),
        (np.array([[0.5, 0.4], [0.2, 0.2]]), "sums to 1.3, not 1"),
    ])
    def test_rejects_malformed_table(self, evaluate, joint, message):
        with pytest.raises(ValueError, match=message):
            evaluate(joint)

    def test_marginals(self):
        qm = mc.q_from_joint(np.array([[0.4, 0.1], [0.1, 0.4]]))
        np.testing.assert_allclose(qm.row_marginal, [0.5, 0.5])
        np.testing.assert_allclose(qm.col_marginal, [0.5, 0.5])


class TestQFromJoint:
    def test_independent_uniform(self):
        jt = np.full((2, 2), 0.25)
        np.testing.assert_allclose(mc.q_from_joint(jt).q, np.full((2, 2), 0.5))

    def test_deterministic_bijection(self):
        jt = np.array([[0.5, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(mc.q_from_joint(jt).q, np.eye(2))

    def test_direct_formula(self):
        jt = np.array([[0.4, 0.1], [0.1, 0.4]])
        np.testing.assert_allclose(mc.q_from_joint(jt).q,
                                   [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_zero_marginal_rejected(self):
        jt = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero marginal"):
            mc.q_from_joint(jt)

    def test_floor_unblocks_zero_marginal(self):
        jt = np.array([[0.5, 0.5], [0.0, 0.0]])
        qm = mc.q_from_joint(jt, floor=1e-6)
        assert np.all(np.isfinite(qm.q))


class TestSvdSmall:
    def test_identity(self):
        res = mc.svd_small(np.eye(2))
        np.testing.assert_allclose(res.singular_values, [1.0, 1.0])
        np.testing.assert_allclose(res.right_vectors[:, 1], [0.0, 1.0], atol=1e-15)

    def test_rank_one(self):
        res = mc.svd_small(np.full((2, 2), 0.5))
        np.testing.assert_allclose(res.singular_values, [1.0, 0.0], atol=1e-15)

    def test_symmetric_example(self):
        res = mc.svd_small(np.array([[0.8, 0.2], [0.2, 0.8]]))
        np.testing.assert_allclose(res.singular_values, [1.0, 0.6], atol=1e-12)

    @pytest.mark.parametrize("shape, rank", [
        ((2, 2), None), ((5, 3), None), ((3, 5), None), ((8, 8), None), ((1, 4), None),
        ((3, 5), 1), ((2, 6), 1), ((4, 7), 2), ((2, 4), 0)])
    def test_reconstruction_and_orthonormality(self, shape, rank):
        # V^T V = I, (mV)^T (mV) = diag(sigma^2) and ||m||_F^2 = sum sigma^2
        # together pin m = U diag(sigma) V^T with U = mV / sigma.  The wide
        # shapes of lower rank take LAPACK's null vectors.
        rng = np.random.default_rng(hash(shape) % 2**32)
        if rank is None:
            m = rng.normal(size=shape)
        else:
            m = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
        res = mc.svd_small(m)
        sv, v = res.singular_values, res.right_vectors
        r = len(sv)
        assert v.shape == (shape[1], r)
        np.testing.assert_allclose(v.T @ v, np.eye(r), atol=1e-9)
        mv = m @ v
        np.testing.assert_allclose(mv.T @ mv, np.diag(sv**2), atol=1e-9)
        assert abs(np.sum(m * m) - np.sum(sv**2)) <= 1e-9 * max(np.sum(m * m), 1.0)
        assert np.all(np.diff(sv) <= 1e-15)

    def test_matches_gram_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.normal(size=(rng.integers(2, 7), rng.integers(2, 7)))
            got = mc.svd_small(m).singular_values
            want = gram_jacobi_sigmas(m)[: min(m.shape)]
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4))
        a = mc.svd_small(m)
        b = mc.svd_small(m)
        np.testing.assert_array_equal(a.right_vectors, b.right_vectors)
        for j in range(4):
            col = a.right_vectors[:, j]
            assert col[np.argmax(np.abs(col))] >= 0

    @pytest.mark.parametrize("m, bad", [
        ([[np.nan], [1.0]], "nan"), ([[1.0, 0.5], [np.nan, 0.2]], "nan"),
        ([[0.1, 0.2, np.inf], [0.3, -np.inf, 0.4]], "inf"), ([[1.0, 2.0], [-np.inf, 0.0]], "-inf"),
        ([[0.5, np.inf], [np.nan, 1.0], [0.2, 0.1]], "inf")])
    def test_non_finite_input_refused(self, m, bad):
        # Tall and wide: the first non-finite entry in row order is named.
        with pytest.raises(ValueError, match=f"^svd_small needs a finite matrix, got {bad}$"):
            mc.svd_small(np.array(m))

    def test_stalled_sweeps_stop_at_the_first_that_moves_nothing(self, monkeypatch):
        # Columns 1e-167 apart in norm: the rotation angle underflows to 0,
        # which is the identity, so every later sweep would repeat the first.
        m = np.array([[0.6, 1e-167], [0.8, -2e-167], [0.1, 3e-167]])
        sweeps = []
        sweep = mc._sweep
        monkeypatch.setattr(mc, "_sweep", lambda a, v: sweeps.append(sweep(a, v)) or sweeps[-1])
        got = mc.svd_small(m)
        assert sweeps == [(True, False)]
        _, sv, vt = np.linalg.svd(m, full_matrices=False)
        np.testing.assert_array_equal(got.singular_values, sv)
        np.testing.assert_array_equal(np.abs(got.right_vectors), np.abs(vt.T))

    @pytest.mark.parametrize("m", [
        # Uniform predictions on three groups of unequal size: Q has rank one.
        mc.q_from_groups(np.full((6, 2), 0.5), mc.group_index([1, 2, 2, 3, 3, 3], 3), 1e-6).q,
        np.outer([1.0, 2.0], [1.0, 1.0, 1.0, 1.0]),
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])],
        ids=["uniform_three_groups", "rank_one_2x4", "rank_one_2x3"])
    def test_wide_matrix_with_a_singular_value_at_the_cutoff_takes_lapacks_factor(
            self, m, monkeypatch):
        # Its right vectors there span a null space, which LAPACK fills; the
        # result goes through the same sign and tie rule as every factor.
        got = mc.svd_small(m)
        stall = mc._one_sided_jacobi
        monkeypatch.setattr(mc, "_one_sided_jacobi", lambda w: stall(w)[:2] + (False,))
        lapack = mc.svd_small(m)
        np.testing.assert_array_equal(got.singular_values, lapack.singular_values)
        np.testing.assert_array_equal(got.right_vectors, lapack.right_vectors)
        _, sv, _ = np.linalg.svd(m, full_matrices=False)
        np.testing.assert_array_equal(got.singular_values, sv)
        assert sv[-1] <= sv[0] * max(m.shape) * np.finfo(np.float64).eps

    @pytest.mark.parametrize("m, lapack", [
        (np.random.default_rng(1).normal(size=(2, 10)), False),
        (np.random.default_rng(2).normal(size=(3, 2)), False),
        (np.random.default_rng(3).normal(size=(2, 2)), False),
        (np.outer([1.0, 2.0, 3.0], [1.0, 1.0]), False),
        (np.zeros((4, 2)), False),
        (np.outer([1.0, 2.0], [1.0, 1.0, 1.0]), True),
        (np.zeros((2, 3)), True)],
        ids=["full_rank_2x10", "full_rank_3x2", "full_rank_2x2", "tall_rank_one",
             "tall_zero", "wide_rank_one", "wide_zero"])
    def test_lapack_runs_only_for_a_rank_deficient_wide_matrix(self, m, lapack, monkeypatch):
        # Every tall input and every full-rank wide one keeps the Jacobi's factor.
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        mc.svd_small(m)
        assert len(calls) == lapack

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 10), (5, 3), (3, 5), (6, 6)])
    def test_lapack_route_matches_the_jacobi(self, shape, monkeypatch):
        # Where the sweeps stall, LAPACK's factor goes through the same sign
        # and tie rule, so on a full-rank matrix both routes agree.
        rng = np.random.default_rng(sum(shape))
        m = rng.normal(size=shape)
        jacobi = mc.svd_small(m)
        stall = mc._one_sided_jacobi
        monkeypatch.setattr(mc, "_one_sided_jacobi", lambda w: stall(w)[:2] + (False,))
        lapack = mc.svd_small(m)
        np.testing.assert_allclose(lapack.singular_values, jacobi.singular_values,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(lapack.right_vectors, jacobi.right_vectors,
                                   rtol=0, atol=1e-9)
        np.testing.assert_array_equal(np.sign(lapack.right_vectors),
                                      np.sign(jacobi.right_vectors))
        eye = mc.svd_small(np.eye(2))
        np.testing.assert_array_equal(eye.singular_values, [1.0, 1.0])
        np.testing.assert_array_equal(eye.right_vectors, np.eye(2))


class TestRenyiDiscrete:
    def test_independent_uniform_is_zero(self):
        assert mc.renyi_discrete(np.full((2, 2), 0.25)) <= 1e-9

    def test_bijection_is_one(self):
        jt = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert abs(mc.renyi_discrete(jt) - 1.0) <= 1e-9

    def test_symmetric_example(self):
        jt = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert abs(mc.renyi_discrete(jt) - 0.6) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
    def test_range_and_top_singular_structure(self, seed, c, d):
        rng = np.random.default_rng(seed)
        jt = random_joint(rng, c, d)
        rho = mc.renyi_discrete(jt)
        assert 0.0 <= rho <= 1.0
        qm = mc.q_from_joint(jt)
        res = mc.svd_small(qm.q)
        assert abs(res.singular_values[0] - 1.0) <= 1e-9
        v1 = res.right_vectors[:, 0]
        target = np.sqrt(qm.col_marginal)
        assert min(np.abs(v1 - target).max(), np.abs(v1 + target).max()) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        jt = random_joint(rng, 4, 3)
        rho = mc.renyi_discrete(jt)
        perm = jt[rng.permutation(4)][:, rng.permutation(3)]
        assert abs(mc.renyi_discrete(perm) - rho) <= 1e-12

    def test_product_joint_is_independent(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.random(4) + 0.05
            q = rng.random(3) + 0.05
            p, q = p / p.sum(), q / q.sum()
            jt = np.outer(p, q)
            assert mc.renyi_discrete(jt) <= 1e-9


class TestRenyiBinary:
    def test_worked_example(self):
        jt = np.array([[0.4, 0.1], [0.1, 0.4]])
        res = renyi_binary(jt)
        np.testing.assert_allclose(res.w_star, [-0.3, 0.3], atol=1e-15)
        assert abs(res.gamma - 0.16) <= 1e-12
        assert abs(res.rho - 0.6) <= 1e-12
        assert res.q_prob == 0.5

    def test_perfect_dependence(self):
        jt = np.array([[0.5, 0.0], [0.0, 0.5]])
        res = renyi_binary(jt)
        assert abs(res.rho - 1.0) <= 1e-12
        assert abs(res.gamma) <= 1e-12

    def test_independence_gamma(self):
        rng = np.random.default_rng(4)
        p = rng.random(5) + 0.1
        p /= p.sum()
        q = 0.37
        jt = np.outer(p, [1 - q, q])
        res = renyi_binary(jt)
        assert res.rho <= 1e-9
        assert abs(res.gamma - q * (1 - q)) <= 1e-12

    def test_gamma_at_most_quarter(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            jt = random_joint(rng, rng.integers(2, 8), 2)
            assert renyi_binary(jt).gamma <= 0.25 + 1e-12

    def test_requires_binary(self):
        jt = np.full((2, 3), 1 / 6)
        with pytest.raises(ValueError, match="binary"):
            renyi_binary(jt)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_agrees_with_svd_route(self, seed, c):
        rng = np.random.default_rng(seed)
        jt = random_joint(rng, c, 2)
        assert abs(renyi_binary(jt).rho - mc.renyi_discrete(jt)) <= 1e-9


class TestEmpiricalQ:
    def test_identity_from_two_samples(self):
        qm = mc.empirical_q(np.eye(2), np.array([1, 2]), floor=1e-9)
        np.testing.assert_allclose(qm.q, np.eye(2), atol=1e-9)
        assert abs(mc.svd_small(qm.q).singular_values[1] - 1.0) <= 1e-9

    def test_constant_predictor_independent(self):
        probs = np.tile([0.3, 0.7], (40, 1))
        s = np.array([1, 2] * 20)
        qm = mc.empirical_q(probs, s)
        assert mc.svd_small(qm.q).singular_values[1] <= 1e-9

    def test_hard_labels_match_histogram_joint(self):
        rng = np.random.default_rng(9)
        n, c, d = 200, 3, 2
        y = rng.integers(0, c, n)
        s = rng.integers(1, d + 1, n)
        probs = np.zeros((n, c))
        probs[np.arange(n), y] = 1.0
        qm = mc.empirical_q(probs, s, floor=1e-12)
        hist = np.zeros((c, d))
        for yi, si in zip(y, s):
            hist[yi, si - 1] += 1.0
        jt = hist / n
        oracle = mc.q_from_joint(jt, floor=1e-12)
        np.testing.assert_allclose(qm.q, oracle.q, atol=1e-12)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="nonempty"):
            mc.empirical_q(np.full((4, 2), 0.5), np.array([1, 1, 1, 1]), n_groups=2)

    @pytest.mark.parametrize("n_groups", [None, 2])
    def test_rejects_empty_sample(self, n_groups):
        with pytest.raises(ValueError, match="empirical_q needs a nonempty sample: soft_probs has 0 rows"):
            mc.empirical_q(np.zeros((0, 2)), np.array([], dtype=int), n_groups=n_groups)

    def test_floor_zero_rejects_class_without_mass(self):
        probs = np.tile([1.0, 0.0], (4, 1))
        s = np.array([1, 2, 1, 2])
        # The 0/0 in Q warns before the check rejects the floored marginal.
        with pytest.raises(ValueError, match="marginals must be strictly positive"), \
                np.errstate(invalid="ignore"):
            mc.empirical_q(probs, s, floor=0.0)
        assert np.all(np.isfinite(mc.empirical_q(probs, s).q))

    def test_rejects_off_simplex(self):
        probs = np.array([[0.6, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError, match="simplex"):
            mc.empirical_q(probs, np.array([1, 2]))

    @pytest.mark.parametrize("probs, sensitive, message", [
        (np.full(4, 0.5), [1, 2, 1, 2], "soft_probs must be N x c"),
        (np.full((4, 2), 0.5), [1, 2, 1], "sensitive length does not match soft_probs"),
        (np.full((4, 2), 0.5), [[1, 2, 1, 2]], "sensitive length does not match soft_probs"),
        ([[1.5, -0.5], [0.5, 0.5]], [1, 2], "soft_probs has negative entries"),
    ], ids=["one_dimensional", "short_sensitive", "two_dimensional_sensitive", "negative"])
    def test_shape_and_sign_errors(self, probs, sensitive, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mc.empirical_q(probs, np.array(sensitive))


def masked_empirical_q(f, s, floor, d):
    """Q built with one boolean mask per group and a bincount of the groups."""
    n, c = f.shape
    pi = np.bincount(s - 1, minlength=d) / n
    joint = np.empty((c, d))
    for j in range(d):
        joint[:, j] = f[s == j + 1].mean(axis=0) * pi[j]
    py_f = np.maximum(f.mean(axis=0), floor)
    pi_f = np.maximum(pi, floor)
    return joint / np.sqrt(np.outer(py_f, pi_f)), py_f, pi_f


class TestGroupIndex:
    @pytest.mark.parametrize("d", [2, 3, 10])
    @pytest.mark.parametrize("rows", [None, 64])
    def test_q_from_groups_bitwise_equals_empirical_q(self, d, rows):
        from renyifair import model as md
        rng = np.random.default_rng(d)
        n = 400
        s = rng.permutation(np.arange(n) % d) + 1
        batch = md.Batch(rng.normal(size=(n, 3)), rng.integers(1, 4, n), s)
        if rows is not None:
            batch = batch.subset(rng.permutation(n)[:rows])
        probs = md.forward(md.init_params("linear", 3, 3, seed=d), batch.features)
        groups = mc.group_index(batch.sensitive, d)
        assert groups.n_groups == d
        for floor in (1e-6, 0.2):  # 0.2 clamps every share at d = 10
            got = mc.q_from_groups(probs, groups, floor)
            public = mc.empirical_q(probs, batch.sensitive, floor=floor, n_groups=d)
            want = masked_empirical_q(probs, batch.sensitive, floor, d)
            for qm in (got, public):
                for field, ref in zip(("q", "row_marginal", "col_marginal"), want):
                    assert getattr(qm, field).tobytes() == ref.tobytes(), field

    def test_index_fields(self):
        groups = mc.group_index(np.array([2, 1, 3, 1, 2, 1]), 3)
        np.testing.assert_array_equal(groups.codes, [1, 0, 2, 0, 1, 0])
        np.testing.assert_array_equal(groups.counts, [3, 2, 1])

    @pytest.mark.parametrize("s,d", [([1, 1, 1, 1], 2), ([1, 3, 1, 3], 3)])
    def test_incomplete_index_raises_the_empirical_q_error(self, s, d):
        s = np.array(s)
        probs = np.full((4, 2), 0.5)
        assert mc.group_index(s, d).n_groups < d
        with pytest.raises(ValueError, match=f"every sensitive group in 1..{d} must be nonempty"):
            mc.empirical_q(probs, s, n_groups=d)

    @pytest.mark.parametrize("s,d,label", [([1, 2, 3, 1], 2, 3), ([1, 2, 3, 4], 3, 4),
                                           ([1, 0, 2, 1], 2, 0), ([2, -1, 1, 5], 2, -1),
                                           ([1, 1.5, 2, 1], 2, 1.5)])
    def test_label_outside_the_alphabet_is_named(self, s, d, label):
        s = np.array(s)
        probs = np.full((4, 2), 0.5)
        message = rf"sensitive label {label} is not one of 1\.\.{d}"
        with pytest.raises(ValueError, match=message):
            mc.group_index(s, d)
        with pytest.raises(ValueError, match=message):
            mc.empirical_q(probs, s, n_groups=d)


class TestSecondRightSingularVector:
    def test_identity_tie_break(self):
        qm = mc.QMatrix(np.eye(2), np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(second_right_singular_vector(qm),
                                   [0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("q", [np.full((2, 2), 0.5),
                                   np.array([[0.8, 0.2], [0.2, 0.8]])])
    def test_contrast_direction(self, q):
        qm = mc.QMatrix(q, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        v = second_right_singular_vector(qm)
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert min(np.abs(v - target).max(), np.abs(v + target).max()) <= 1e-12

    def test_orthogonal_to_top_and_optimal(self):
        rng = np.random.default_rng(21)
        jt = random_joint(rng, 5, 4)
        qm = mc.q_from_joint(jt)
        res = mc.svd_small(qm.q)
        v = second_right_singular_vector(qm)
        assert abs(v @ res.right_vectors[:, 0]) <= 1e-9
        attained = v @ (qm.q.T @ qm.q) @ v
        assert abs(attained - res.singular_values[1] ** 2) <= 1e-9


def softmax_rows(rng, n, c, scale, s=None, tie=0.0):
    """Random simplex rows; ``tie`` pulls row n towards class ``(s[n] - 1) % c``."""
    z = rng.normal(scale=scale, size=(n, c))
    if s is not None:
        z[np.arange(n), (s - 1) % c] += tie
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestDeflatedSigma2:
    """``second_singular_value`` skips the SVD only on a deflatable Q with two rows or columns."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5),
           st.integers(20, 400), st.sampled_from([0.1, 1.0, 4.0, 12.0]),
           st.sampled_from([0.0, 1.0, 4.0, 30.0]), st.sampled_from([1e-6, 0.05, 0.3]))
    def test_matches_svd_small(self, seed, c, d, n, scale, tie, floor):
        rng = np.random.default_rng(seed)
        s = rng.permutation(np.concatenate([np.arange(1, d + 1), rng.integers(1, d + 1, n - d)]))
        probs = softmax_rows(rng, n, c, scale, s, tie)
        qm = mc.empirical_q(probs, s, floor=floor, n_groups=d)
        svd = float(mc.svd_small(qm.q).singular_values[1])
        lapack = np.linalg.svd(qm.q, compute_uv=False)
        got = mc.second_singular_value(qm)
        clamped = probs.mean(axis=0).min() < floor or np.bincount(s - 1).min() / n < floor
        assert qm.deflatable == (not clamped)
        if clamped or min(c, d) > 2:
            # LAPACK itself; the Jacobi's stopping error reaches 3.5e-13 here.
            assert got == lapack[1]
            assert abs(got - svd) <= 5e-13
            return
        assert abs(got - lapack[1]) <= 1e-15
        # The Jacobi stops rotating once two columns are orthogonal to 1e-12
        # relative.  The coupling it leaves moves its sigma2 by up to about
        # (1e-12)^2 / (4 (sigma1 - sigma2)), more than 1e-15 once sigma2 is
        # within 2.5e-10 of sigma1 = 1 (4e-13 seen there); the check above
        # against LAPACK covers that end.
        if lapack[0] - lapack[1] >= 1e-9:
            assert abs(got - svd) <= 1e-15

    def test_only_q_from_groups_is_deflatable(self):
        jt = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert not mc.q_from_joint(jt).deflatable
        assert not mc.QMatrix(np.eye(2), np.array([0.5, 0.5]), np.array([0.5, 0.5])).deflatable
        assert mc.empirical_q(np.array([[0.8, 0.2], [0.2, 0.8]]), np.array([1, 2])).deflatable

    @pytest.mark.parametrize("c,d,calls", [(2, 2, 0), (3, 2, 0), (2, 10, 0), (3, 3, 1), (2, 1, 0)])
    def test_svd_runs_only_where_needed(self, c, d, calls, monkeypatch):
        rng = np.random.default_rng(c * 10 + d)
        n = 60
        s = np.arange(n) % d + 1
        qm = mc.empirical_q(softmax_rows(rng, n, c, 1.0), s, n_groups=d)
        seen = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: seen.append(m.shape) or svd(m, **kw))
        sigma2 = mc.second_singular_value(qm)
        assert len(seen) == calls
        assert sigma2 == 0.0 if d == 1 else sigma2 > 0.0


class TestPresentGroups:
    """``group_index`` lists only the groups a sample holds, renumbered in alphabet order."""

    def test_drops_empty_groups_and_renumbers(self):
        present = mc.group_index(np.array([3, 1, 3, 1, 1]), 3)
        assert present.n_groups == 2
        np.testing.assert_array_equal(present.codes, [1, 0, 1, 0, 0])
        np.testing.assert_array_equal(present.counts, [3, 2])
        probs = softmax_rows(np.random.default_rng(0), 5, 2, 1.0)
        want = mc.empirical_q(probs, present.codes + 1)
        got = mc.q_from_groups(probs, present, mc.DEFAULT_MARGINAL_FLOOR)
        assert got.q.tobytes() == want.q.tobytes()

    def test_one_group_left_has_sigma2_zero(self):
        present = mc.group_index(np.array([2, 2, 2]), 2)
        assert present.n_groups == 1
        probs = softmax_rows(np.random.default_rng(1), 3, 2, 1.0)
        assert mc.second_singular_value(mc.q_from_groups(probs, present, 1e-6)) == 0.0


@st.composite
def labels_lacking_groups(draw):
    """Labels in 1..d with a random set of groups left out (at least one kept)."""
    d = draw(st.integers(2, 10))
    held = sorted(draw(st.sets(st.integers(1, d), min_size=1, max_size=d)))
    n = draw(st.integers(len(held), 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.permutation(np.concatenate([held, rng.choice(held, n - len(held))]))
    return s.astype(np.int64), d, rng


class TestGroupIndexProperty:
    @settings(max_examples=200, deadline=None)
    @given(labels_lacking_groups(), st.integers(2, 3), st.sampled_from([1e-6, 0.05, 0.3]))
    def test_matches_unique_and_the_full_alphabet(self, drawn, c, floor):
        from renyifair import fairtrain as ft
        s, d, rng = drawn
        n = s.size
        groups = mc.group_index(s, d)
        held, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
        np.testing.assert_array_equal(groups.codes, inverse)
        assert groups.counts.tobytes() == counts.tobytes()

        probs = softmax_rows(rng, n, c, 2.0)
        got = mc.q_from_groups(probs, groups, floor)
        want = mc.empirical_q(probs, inverse + 1, floor=floor, n_groups=held.size)
        for field in ("q", "row_marginal", "col_marginal"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

        # The same rows with every group of 1..d listed, the empty ones too.
        listed = mc.GroupIndex(codes=s - 1, counts=np.bincount(s - 1, minlength=d))
        value, seed = ft.hsic_penalty(probs, s, groups)
        value_listed, seed_listed = ft.hsic_penalty(probs, s, listed)
        assert value == value_listed
        assert seed.tobytes() == seed_listed.tobytes()


@st.composite
def indexed_softmax_rows(draw):
    """Softmax rows (N from 1 to 3000, c from 1 to 9, logits scaled x0.1 to x40)
    and the group index of labels in 1..d (d from 1 to 11) that may lack
    groups or hold only one."""
    n, c, d = draw(st.integers(1, 3000)), draw(st.integers(1, 9)), draw(st.integers(1, 11))
    held = sorted(draw(st.sets(st.integers(1, d), min_size=1, max_size=min(d, n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.permutation(np.concatenate([held, rng.choice(held, n - len(held))]))
    probs = softmax_rows(rng, n, c, draw(st.sampled_from([0.1, 1.0, 5.0, 40.0])))
    return probs, mc.group_index(s.astype(np.int64), d)


@settings(max_examples=200, deadline=None)
@given(indexed_softmax_rows(), st.sampled_from([1e-6, 0.05, 0.3]))
def test_q_from_groups_bitwise_equals_the_gather_oracle(drawn, floor):
    """One weighted bincount per class keeps the bits of gathering each
    group's rows and taking their column mean."""
    probs, groups = drawn
    got = mc.q_from_groups(probs, groups, floor)
    want = q_from_groups_gather(probs, groups, floor)
    for field in ("q", "row_marginal", "col_marginal"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.deflatable == want.deflatable
