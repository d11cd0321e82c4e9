"""Maximal-correlation core: Q construction, Jacobi SVD, both evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import second_right_singular_vector
from renyifair import maxcorr as mc


def random_joint(rng, c, d, zero_mass=False):
    m = rng.random((c, d)) + 1e-3
    if zero_mass:
        m[rng.integers(c), rng.integers(d)] = 0.0
    return mc.JointTable(m / m.sum())


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


class TestJointTable:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums to"):
            mc.JointTable(np.array([[0.5, 0.4], [0.2, 0.2]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            mc.JointTable(np.array([[1.1, -0.1], [0.0, 0.0]]))

    def test_marginals(self):
        jt = mc.JointTable(np.array([[0.4, 0.1], [0.1, 0.4]]))
        np.testing.assert_allclose(jt.row_marginal(), [0.5, 0.5])
        np.testing.assert_allclose(jt.col_marginal(), [0.5, 0.5])


class TestQFromJoint:
    def test_independent_uniform(self):
        jt = mc.JointTable(np.full((2, 2), 0.25))
        np.testing.assert_allclose(mc.q_from_joint(jt).q, np.full((2, 2), 0.5))

    def test_deterministic_bijection(self):
        jt = mc.JointTable(np.array([[0.5, 0.0], [0.0, 0.5]]))
        np.testing.assert_allclose(mc.q_from_joint(jt).q, np.eye(2))

    def test_direct_formula(self):
        jt = mc.JointTable(np.array([[0.4, 0.1], [0.1, 0.4]]))
        np.testing.assert_allclose(mc.q_from_joint(jt).q,
                                   [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_zero_marginal_rejected(self):
        jt = mc.JointTable(np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero marginal"):
            mc.q_from_joint(jt)

    def test_floor_unblocks_zero_marginal(self):
        jt = mc.JointTable(np.array([[0.5, 0.5], [0.0, 0.0]]))
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

    @pytest.mark.parametrize("shape", [(2, 2), (5, 3), (3, 5), (8, 8), (1, 4)])
    def test_reconstruction_and_orthonormality(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        m = rng.normal(size=shape)
        res = mc.svd_small(m)
        rec = res.left_vectors @ np.diag(res.singular_values) @ res.right_vectors.T
        assert np.linalg.norm(rec - m) <= 1e-9 * max(np.linalg.norm(m), 1.0)
        r = len(res.singular_values)
        np.testing.assert_allclose(res.left_vectors.T @ res.left_vectors,
                                   np.eye(r), atol=1e-9)
        np.testing.assert_allclose(res.right_vectors.T @ res.right_vectors,
                                   np.eye(r), atol=1e-9)
        assert np.all(np.diff(res.singular_values) <= 1e-15)

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

    def test_size_cap(self):
        with pytest.raises(ValueError, match="64x64"):
            mc.svd_small(np.zeros((65, 2)))


class TestRenyiDiscrete:
    def test_independent_uniform_is_zero(self):
        assert mc.renyi_discrete(mc.JointTable(np.full((2, 2), 0.25))) <= 1e-9

    def test_bijection_is_one(self):
        jt = mc.JointTable(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert abs(mc.renyi_discrete(jt) - 1.0) <= 1e-9

    def test_symmetric_example(self):
        jt = mc.JointTable(np.array([[0.4, 0.1], [0.1, 0.4]]))
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
        perm = mc.JointTable(jt.probs[rng.permutation(4)][:, rng.permutation(3)])
        assert abs(mc.renyi_discrete(perm) - rho) <= 1e-12

    def test_product_joint_is_independent(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.random(4) + 0.05
            q = rng.random(3) + 0.05
            p, q = p / p.sum(), q / q.sum()
            jt = mc.JointTable(np.outer(p, q))
            assert mc.renyi_discrete(jt) <= 1e-9


class TestRenyiBinary:
    def test_worked_example(self):
        jt = mc.JointTable(np.array([[0.4, 0.1], [0.1, 0.4]]))
        res = mc.renyi_binary(jt)
        np.testing.assert_allclose(res.w_star, [-0.3, 0.3], atol=1e-15)
        assert abs(res.gamma - 0.16) <= 1e-12
        assert abs(res.rho - 0.6) <= 1e-12
        assert res.q_prob == 0.5

    def test_perfect_dependence(self):
        jt = mc.JointTable(np.array([[0.5, 0.0], [0.0, 0.5]]))
        res = mc.renyi_binary(jt)
        assert abs(res.rho - 1.0) <= 1e-12
        assert abs(res.gamma) <= 1e-12

    def test_independence_gamma(self):
        rng = np.random.default_rng(4)
        p = rng.random(5) + 0.1
        p /= p.sum()
        q = 0.37
        jt = mc.JointTable(np.outer(p, [1 - q, q]))
        res = mc.renyi_binary(jt)
        assert res.rho <= 1e-9
        assert abs(res.gamma - q * (1 - q)) <= 1e-12

    def test_gamma_at_most_quarter(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            jt = random_joint(rng, rng.integers(2, 8), 2)
            assert mc.renyi_binary(jt).gamma <= 0.25 + 1e-12

    def test_requires_binary(self):
        jt = mc.JointTable(np.full((2, 3), 1 / 6))
        with pytest.raises(ValueError, match="binary"):
            mc.renyi_binary(jt)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_agrees_with_svd_route(self, seed, c):
        rng = np.random.default_rng(seed)
        jt = random_joint(rng, c, 2)
        assert abs(mc.renyi_binary(jt).rho - mc.renyi_discrete(jt)) <= 1e-9


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
        jt = mc.JointTable(hist / n)
        oracle = mc.q_from_joint(jt, floor=1e-12)
        np.testing.assert_allclose(qm.q, oracle.q, atol=1e-12)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="nonempty"):
            mc.empirical_q(np.full((4, 2), 0.5), np.array([1, 1, 1, 1]), n_groups=2)

    def test_rejects_off_simplex(self):
        probs = np.array([[0.6, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError, match="simplex"):
            mc.empirical_q(probs, np.array([1, 2]))


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
        assert groups.complete and groups.n_groups == d
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
        assert [r.tolist() for r in groups.rows] == [[1, 3, 5], [0, 4], [2]]
        np.testing.assert_array_equal(groups.shares, [0.5, 2 / 6, 1 / 6])
        assert groups.complete

    @pytest.mark.parametrize("s,d", [([1, 1, 1, 1], 2), ([1, 3, 1, 3], 3), ([1, 2, 3, 1], 2)])
    def test_incomplete_index_raises_the_empirical_q_error(self, s, d):
        s = np.array(s)
        probs = np.full((4, 2), 0.5)
        groups = mc.group_index(s, d)
        assert not groups.complete
        message = f"every sensitive group in 1..{d} must be nonempty"
        with pytest.raises(ValueError, match=message):
            mc.q_from_groups(probs, groups, 1e-6)
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
