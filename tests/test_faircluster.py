"""Fair K-means: assignment rule, proportion bookkeeping, oscillation demo."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    assign_point, check_consistent, sq_distances_rows, update_proportions_incremental)
from renyifair import faircluster as fc


COUNTER_X = np.array([[-5.0], [-4.0], [4.0], [5.0]])
COUNTER_S = np.array([1, 1, 0, 0])
COUNTER_A0 = np.array([1, 1, 2, 2])


def lloyd_reference(points, k, seed, max_sweeps=100):
    """Classical K-means from the same random-assignment initialization."""
    rng = np.random.default_rng(seed)
    n = len(points)
    assign = rng.integers(0, k, size=n) + 1
    grand = points.mean(axis=0)
    centers = np.array([points[assign == j + 1].mean(axis=0)
                        if (assign == j + 1).any() else grand for j in range(k)])
    for _ in range(max_sweeps):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new = np.argmin(d2, axis=1) + 1
        centers = np.array([points[new == j + 1].mean(axis=0)
                            if (new == j + 1).any() else centers[j] for j in range(k)])
        if np.array_equal(new, assign):
            break
        assign = new
    return assign


def reference_fair_kmeans(points, sensitive, cfg, initial_assignments=None):
    """Point-by-point fair K-means: one loop per proportion-update mode.

    Every point is scored and reassigned on its own, in both modes;
    ``per_point`` refreshes the proportions after each move, ``per_sweep``
    freezes them for the pass and recounts at its end.  ``fair_kmeans``
    must match this bit for bit.
    """
    x = np.asarray(points, dtype=np.float64)
    s = np.asarray(sensitive).astype(np.float64)
    n, k = x.shape[0], cfg.n_clusters
    if initial_assignments is not None:
        a0 = np.asarray(initial_assignments, dtype=np.int64)
    else:
        a0 = fc._init_state(x, s, cfg, np.random.default_rng(cfg.seed)).assignments
    # The initial centers are the masked means, the grand mean for an empty cluster.
    global_priv = float(s.mean())
    counts, priv, w = fc._tally(a0, s, k, global_priv)
    grand = x.mean(axis=0)
    centers = np.array([x[a0 == j + 1].mean(axis=0) if counts[j] else grand
                        for j in range(k)])
    state = fc.ClusterState(a0.copy(), centers, w, counts, priv, global_priv)
    trace = fc.ClusterTrace()
    seen = {state.assignments.tobytes() + state.centers.tobytes(): 0}
    for sweep in range(1, cfg.max_sweeps + 1):
        prev = state.assignments.copy()
        d2 = ((x[:, None, :] - state.centers[None, :, :]) ** 2).sum(axis=2)
        moves = 0
        if cfg.w_update_mode == "per_point":
            for i in range(n):
                scores = d2[i] - cfg.lam * (state.proportions - s[i]) ** 2
                k_new = int(np.argmin(scores)) + 1
                k_old = int(state.assignments[i])
                if k_new != k_old:
                    state.assignments[i] = k_new
                    update_proportions_incremental(state, int(s[i]), k_old, k_new)
                    moves += 1
        else:
            w = state.proportions.copy()
            for i in range(n):
                scores = d2[i] - cfg.lam * (w - s[i]) ** 2
                k_new = int(np.argmin(scores)) + 1
                if k_new != state.assignments[i]:
                    state.assignments[i] = k_new
                    moves += 1
            counts = np.bincount(state.assignments - 1, minlength=k)
            priv = np.bincount(state.assignments - 1, weights=s, minlength=k)
            state.counts = counts.astype(np.int64)
            state.priv_counts = priv.astype(np.int64)
            state.proportions = np.full(k, state.global_priv)
            nz = counts > 0
            state.proportions[nz] = priv[nz] / counts[nz]
        for j in range(k):
            members = state.assignments == j + 1
            if members.any():
                state.centers[j] = x[members].mean(axis=0)
        loss, obj = fc._objective(x, s, state, cfg.lam)
        trace.sweep.append(sweep)
        trace.kmeans_loss.append(loss)
        trace.objective.append(obj)
        trace.w_std.append(float(np.std(state.proportions[state.counts > 0])))
        trace.moves.append(moves)
        key = state.assignments.tobytes() + state.centers.tobytes()
        if moves == 0 and np.array_equal(prev, state.assignments):
            trace.converged = True
            break
        if key in seen:
            trace.cycled = True
            trace.cycle_period = sweep - seen[key]
            break
        seen[key] = sweep
    return state, trace


def assert_runs_bitwise_equal(got, want):
    (state, trace), (ref_state, ref_trace) = got, want
    for name in ("assignments", "centers", "proportions", "counts", "priv_counts"):
        a, b = getattr(state, name), getattr(ref_state, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    for name in ("sweep", "kmeans_loss", "objective", "w_std", "moves"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(ref_trace, name),
                                      err_msg=name)
    assert (trace.converged, trace.cycled, trace.cycle_period) == \
        (ref_trace.converged, ref_trace.cycled, ref_trace.cycle_period)


class TestAssignPoint:
    def test_lambda_zero_nearest_center(self):
        centers = np.array([[0.0, 0.0], [4.0, 0.0]])
        w = np.array([0.9, 0.1])
        assert assign_point([1.0, 0.0], 1, centers, w, 0.0) == 1
        assert assign_point([3.0, 0.0], 1, centers, w, 0.0) == 2

    def test_equidistant_centers_fairness_decides(self):
        centers = np.array([[-1.0], [1.0]])
        w = np.array([1.0, 0.0])
        # score_1 = d^2 - lam*(1-1)^2 = d^2; score_2 = d^2 - lam
        assert assign_point([0.0], 1, centers, w, 2.0) == 2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k, p = rng.integers(2, 7), rng.integers(1, 4)
            centers = rng.normal(size=(k, p))
            w = rng.random(k)
            x = rng.normal(size=p)
            s = int(rng.integers(0, 2))
            lam = float(rng.random() * 10)
            scores = [((x - centers[j]) ** 2).sum() - lam * (w[j] - s) ** 2
                      for j in range(k)]
            assert assign_point(x, s, centers, w, lam) == int(np.argmin(scores)) + 1


class TestIncrementalProportions:
    def make_state(self, rng, n=40, k=4):
        assignments = rng.integers(1, k + 1, n)
        s = rng.integers(0, 2, n)
        counts = np.bincount(assignments - 1, minlength=k)
        priv = np.bincount(assignments - 1, weights=s, minlength=k).astype(np.int64)
        gp = float(s.mean())
        w = np.where(counts > 0, np.divide(priv, np.maximum(counts, 1)), gp)
        return fc.ClusterState(assignments, np.zeros((k, 2)), w,
                               counts.astype(np.int64), priv, gp), s

    def test_move_to_own_cluster_is_noop(self):
        rng = np.random.default_rng(1)
        state, _ = self.make_state(rng)
        before = state.proportions.copy()
        update_proportions_incremental(state, 1, 2, 2)
        np.testing.assert_array_equal(state.proportions, before)

    def test_underflow_detected(self):
        rng = np.random.default_rng(2)
        state, _ = self.make_state(rng)
        state.counts[0] = 0
        with pytest.raises(ValueError, match="underflow"):
            update_proportions_incremental(state, 1, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    def test_matches_full_recompute_after_random_moves(self, seed, n_moves):
        rng = np.random.default_rng(seed)
        k = 4
        state, s = self.make_state(rng, n=30, k=k)
        for _ in range(n_moves):
            i = int(rng.integers(30))
            target = int(rng.integers(1, k + 1))
            src = int(state.assignments[i])
            state.assignments[i] = target
            update_proportions_incremental(state, int(s[i]), src, target)
        counts = np.bincount(state.assignments - 1, minlength=k)
        priv = np.bincount(state.assignments - 1, weights=s, minlength=k)
        np.testing.assert_array_equal(state.counts, counts)
        np.testing.assert_array_equal(state.priv_counts, priv.astype(np.int64))
        expect = np.where(counts > 0, np.divide(priv, np.maximum(counts, 1)),
                          state.global_priv)
        np.testing.assert_allclose(state.proportions, expect, atol=1e-12)
        assert np.all((state.proportions >= 0) & (state.proportions <= 1))
        assert state.counts.sum() == 30


class TestFairKmeans:
    def test_lambda_zero_equals_lloyd(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(80, 2))
        sensitive = rng.integers(0, 2, 80)
        for mode in ("per_point", "per_sweep"):
            cfg = fc.ClusterConfig(n_clusters=4, lam=0.0, max_sweeps=100,
                                   seed=7, w_update_mode=mode)
            state, trace = fc.fair_kmeans(points, sensitive, cfg)
            np.testing.assert_array_equal(state.assignments,
                                          lloyd_reference(points, 4, seed=7))
            assert trace.converged

    def test_lambda_zero_objective_monotone(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(120, 3))
        sensitive = rng.integers(0, 2, 120)
        cfg = fc.ClusterConfig(n_clusters=5, lam=0.0, max_sweeps=100, seed=1,
                               w_update_mode="per_sweep")
        _, trace = fc.fair_kmeans(points, sensitive, cfg)
        diffs = np.diff(trace.kmeans_loss)
        assert np.all(diffs <= 1e-9)

    def test_counterexample_per_sweep_cycles_between_printed_states(self):
        cfg = fc.ClusterConfig(n_clusters=2, lam=100.0, max_sweeps=30,
                               w_update_mode="per_sweep")
        state, trace = fc.fair_kmeans(COUNTER_X, COUNTER_S, cfg,
                                      initial_assignments=COUNTER_A0)
        assert trace.cycled and trace.cycle_period == 2
        # sweep 1 is the mirrored assignment, sweep 2 returns to the start
        first, _ = fc.fair_kmeans(COUNTER_X, COUNTER_S, replace(cfg, max_sweeps=1),
                                  initial_assignments=COUNTER_A0)
        np.testing.assert_array_equal(first.assignments, [2, 2, 1, 1])
        assert len(trace.sweep) == 2
        np.testing.assert_array_equal(state.assignments, COUNTER_A0)

    def test_counterexample_per_point_reaches_fixed_point(self):
        # In the band where the balance term dominates the cross-cluster
        # distance gaps, the per-point update settles; the batch update
        # cycles at the same lambda.
        cfg = fc.ClusterConfig(n_clusters=2, lam=75.0, max_sweeps=30,
                               w_update_mode="per_point")
        state, trace = fc.fair_kmeans(COUNTER_X, COUNTER_S, cfg,
                                      initial_assignments=COUNTER_A0)
        assert trace.converged and trace.sweep[-1] <= 10
        cfg_s = fc.ClusterConfig(n_clusters=2, lam=75.0, max_sweeps=30,
                                 w_update_mode="per_sweep")
        _, trace_s = fc.fair_kmeans(COUNTER_X, COUNTER_S, cfg_s,
                                    initial_assignments=COUNTER_A0)
        assert trace_s.cycled and trace_s.cycle_period == 2

    def test_proportions_consistent_after_run(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(100, 2))
        sensitive = rng.integers(0, 2, 100)
        cfg = fc.ClusterConfig(n_clusters=3, lam=5.0, max_sweeps=50, seed=2)
        state, _ = fc.fair_kmeans(points, sensitive, cfg)
        check_consistent(state)
        nz = state.counts > 0
        np.testing.assert_allclose(
            state.proportions[nz],
            state.priv_counts[nz] / state.counts[nz], atol=1e-12)

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            fc.fair_kmeans(np.zeros((2, 1)), np.array([0, 1]),
                           fc.ClusterConfig(n_clusters=3))

    def test_fractional_initial_assignments_rejected(self):
        cfg = fc.ClusterConfig(n_clusters=3)
        with pytest.raises(ValueError, match=r"^initial assignments must be integers, got 1\.5$"):
            fc.fair_kmeans(COUNTER_X, COUNTER_S, cfg, initial_assignments=[1, 1.5, 3, 2.7])

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_points_rejected(self, bad):
        # A nan centre would take every point into one cluster and "converge".
        points = COUNTER_X.astype(np.float64)
        points[1, 0] = bad
        with pytest.raises(ValueError, match=f"^points must be finite, got {bad!r}$"):
            fc.fair_kmeans(points, COUNTER_S, fc.ClusterConfig(n_clusters=2))

    @pytest.mark.parametrize("init", fc.INIT_MODES)
    def test_points_whose_distances_can_overflow_rejected(self, init):
        # Finite points at +-1e200: kmeans++ would draw from nan weights and
        # random_assignment would report an inf loss.
        points = np.array([[-1e200, 0.0], [1e200, 1.0], [1e200, 0.0], [-1e200, 1.0]])
        bound = math.sqrt(np.finfo(float).max / 8)
        message = (f"points span {2e200!r} along one feature, more than sqrt(max float / "
                   f"(N * p)) = {bound!r}: squared distances could overflow")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fc.fair_kmeans(points, COUNTER_S, fc.ClusterConfig(n_clusters=2, init=init))

    @pytest.mark.parametrize("init", fc.INIT_MODES)
    def test_points_just_inside_the_overflow_bound_run(self, init):
        # The span is the largest double below sqrt(max / (N * p)) whose
        # N * p * span ** 2 is finite, the points reach both ends of it, and
        # the next double past the bound is refused.
        bound = math.sqrt(np.finfo(float).max / 8)
        span = np.nextafter(bound, 0.0)
        while span * span * 8 > np.finfo(float).max:
            span = np.nextafter(span, 0.0)
        points = np.array([[0.0, 0.0], [span, 1.0], [span, span], [0.0, 1.0]])
        cfg = fc.ClusterConfig(n_clusters=3, lam=10.0, init=init, seed=1)
        _, trace = fc.fair_kmeans(points, COUNTER_S, cfg)
        assert np.all(np.isfinite(trace.kmeans_loss)) and np.all(np.isfinite(trace.objective))
        points[2, 1] = np.nextafter(bound, np.inf)
        with pytest.raises(ValueError, match="could overflow"):
            fc.fair_kmeans(points, COUNTER_S, cfg)

    @pytest.mark.parametrize("init", fc.INIT_MODES)
    def test_huge_points_of_small_range_rejected(self, init):
        # Span 0 passes the distance guard, but the grand mean and the centre
        # sums would add 400 values near 1e306 and overflow.
        points = np.full((400, 2), 1e306)
        limit = float(np.finfo(float).max) / 800
        message = (f"points reach {1e306!r} in magnitude, more than max float / (2 N) = "
                   f"{limit!r}: sums over the points could overflow")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fc.fair_kmeans(points, np.arange(400) % 2, fc.ClusterConfig(n_clusters=3, lam=1.0,
                                                                         init=init))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fc.fair_kmeans(-points, np.arange(400) % 2, fc.ClusterConfig(n_clusters=3,
                                                                          init=init))

    @pytest.mark.parametrize("init", fc.INIT_MODES)
    def test_points_inside_the_magnitude_bound_run(self, init):
        # 400 points at the largest power of two below max float / 800: their
        # sums are exact and below half the largest float, so every centre is
        # the point itself.  Points at the next double past the bound are refused.
        limit = float(np.finfo(float).max) / 800
        points = np.full((400, 2), 2.0 ** math.floor(math.log2(limit)))
        cfg = fc.ClusterConfig(n_clusters=3, lam=10.0, init=init, seed=1)
        state, trace = fc.fair_kmeans(points, np.arange(400) % 2, cfg)
        assert np.all(state.centers == points[0, 0])
        assert trace.kmeans_loss[-1] == 0.0 and np.all(np.isfinite(trace.objective))
        points[:] = np.nextafter(limit, np.inf)
        with pytest.raises(ValueError, match="sums over the points could overflow"):
            fc.fair_kmeans(points, np.arange(400) % 2, cfg)

    def test_integral_float_initial_assignments_accepted(self):
        cfg = fc.ClusterConfig(n_clusters=2, lam=75.0, max_sweeps=30)
        assert_runs_bitwise_equal(
            fc.fair_kmeans(COUNTER_X, COUNTER_S, cfg,
                           initial_assignments=COUNTER_A0.astype(np.float64)),
            fc.fair_kmeans(COUNTER_X, COUNTER_S, cfg, initial_assignments=COUNTER_A0))

    @pytest.mark.parametrize("case, message", [
        (lambda: fc.ClusterConfig(n_clusters=0), "n_clusters must be at least 1"),
        (lambda: fc.ClusterConfig(n_clusters=2, init="farthest"), "unknown init 'farthest'"),
        (lambda: fc.fair_kmeans(COUNTER_X, COUNTER_S, fc.ClusterConfig(n_clusters=2),
                                initial_assignments=[0, 1, 2, 1]),
         "initial assignments must be length N with values in 1..K"),
        (lambda: fc.fair_kmeans(COUNTER_X, COUNTER_S, fc.ClusterConfig(n_clusters=2),
                                initial_assignments=[1, 2, 3, 1]),
         "initial assignments must be length N with values in 1..K"),
        (lambda: fc.fair_kmeans(np.zeros((0, 2)), np.zeros(0), fc.ClusterConfig(n_clusters=1)),
         "points must be a nonempty N x p matrix"),
        (lambda: fc.fair_kmeans(np.zeros(4), COUNTER_S, fc.ClusterConfig(n_clusters=1)),
         "points must be a nonempty N x p matrix"),
        (lambda: fc.fair_kmeans(COUNTER_X, [0, 1, 2, 0], fc.ClusterConfig(n_clusters=2)),
         "sensitive must be length N with values in {0, 1}"),
    ], ids=["no_clusters", "init", "assignment_zero", "assignment_above_k", "no_points",
            "flat_points", "sensitive_two"])
    def test_check_messages(self, case, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            case()

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match=f"^lam must be finite, got {lam!r}$"):
            fc.ClusterConfig(n_clusters=3, lam=lam)

    def test_exact_fairness_at_large_lambda(self):
        points, sensitive, _ = fc.toy_dataset(seed=1)
        cfg = fc.ClusterConfig(n_clusters=5, lam=5000.0, max_sweeps=200,
                               seed=0, init="kmeanspp")
        state, _ = fc.fair_kmeans(points, sensitive, cfg)
        w = state.proportions[state.counts > 0]
        assert w.std() <= 0.01


class TestVectorisedPassMatchesReference:
    """The fixed-proportion pass and the per-point loop against the reference."""

    @pytest.mark.parametrize("mode", fc.W_UPDATE_MODES)
    @pytest.mark.parametrize("lam", [0.0, 4.0])
    @pytest.mark.parametrize("init", fc.INIT_MODES)
    def test_configured_init(self, mode, lam, init):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(150, 3))
        sensitive = rng.integers(0, 2, 150)
        points[sensitive == 1] += 0.7
        cfg = fc.ClusterConfig(n_clusters=6, lam=lam, max_sweeps=40, seed=3,
                               w_update_mode=mode, init=init)
        assert_runs_bitwise_equal(fc.fair_kmeans(points, sensitive, cfg),
                                  reference_fair_kmeans(points, sensitive, cfg))

    @pytest.mark.parametrize("mode", fc.W_UPDATE_MODES)
    @pytest.mark.parametrize("lam", [0.0, 4.0])
    def test_initially_empty_cluster(self, mode, lam):
        # Two blobs at +-10 and an empty third cluster whose center starts
        # at the grand mean (the origin): no point is close enough to join
        # it, so its center is kept and its proportion stays pinned.
        rng = np.random.default_rng(12)
        points = np.concatenate([rng.normal(-10.0, 1.0, size=(40, 2)),
                                 rng.normal(10.0, 1.0, size=(40, 2))])
        sensitive = rng.integers(0, 2, 80)
        a0 = np.repeat([1, 2], 40)
        a0[::7] = 3 - a0[::7]
        cfg = fc.ClusterConfig(n_clusters=3, lam=lam, max_sweeps=20,
                               w_update_mode=mode)
        got = fc.fair_kmeans(points, sensitive, cfg, initial_assignments=a0)
        want = reference_fair_kmeans(points, sensitive, cfg, initial_assignments=a0)
        assert_runs_bitwise_equal(got, want)
        state = got[0]
        assert state.counts[2] == 0
        assert state.proportions[2] == state.global_priv
        np.testing.assert_array_equal(state.centers[2], points.mean(axis=0))

    @pytest.mark.parametrize("mode", fc.W_UPDATE_MODES)
    @pytest.mark.parametrize("lam", [0.0, 75.0, 100.0])
    def test_counterexample(self, mode, lam):
        cfg = fc.ClusterConfig(n_clusters=2, lam=lam, max_sweeps=30, w_update_mode=mode)
        assert_runs_bitwise_equal(
            fc.fair_kmeans(COUNTER_X, COUNTER_S, cfg, initial_assignments=COUNTER_A0),
            reference_fair_kmeans(COUNTER_X, COUNTER_S, cfg,
                                  initial_assignments=COUNTER_A0))


class TestSquaredDistances:
    """One kernel for every squared distance: K x N from the p x N transposed
    points, features summed left to right from the first one's square.

    That gives the bits of the N-major loop that sums from 0.0
    (``oracles.sq_distances_rows``), since ``0.0 + d * d`` is ``d * d``.
    Below 8 features that is numpy's own order, so the kernel gives the bits
    of the N x K x p sum; from 8 on numpy sums pairwise and the two agree to
    p ulps relative.
    """

    @staticmethod
    def points(rng, n, p):
        # Mixed magnitudes, so that a different summation order shows.
        return rng.normal(size=(n, p)) * 10.0 ** rng.integers(-4, 4, size=(n, p))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 32, 112])
    def test_bitwise_equal_generic_expression(self, p):
        rng = np.random.default_rng(p)
        x, centers = self.points(rng, 500, p), self.points(rng, 14, p)
        got = fc._sq_distances(np.ascontiguousarray(x.T), centers).T
        loop = np.zeros_like(got)
        for j in range(p):
            d = x[:, j, None] - centers[None, :, j]
            loop += d * d
        assert got.tobytes() == loop.tobytes()
        want = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        if p < 8:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= p * np.finfo(float).eps * want)

    def test_kmeanspp_draws_uniformly_once_every_point_sits_on_a_centre(self):
        # Two distinct points and four centres: once both are chosen no
        # distance is left to weight by, so the last two are uniform draws.
        x = np.array([[0.0, 0.0], [1.0, 0.0]] * 3)
        rng, want = np.random.default_rng(5), np.random.default_rng(5)
        got = fc._kmeanspp_centers(np.ascontiguousarray(x.T), 4, rng)
        first = int(want.integers(6))
        d2 = ((x - x[first]) ** 2).sum(axis=1)
        picks = [first, int(want.choice(6, p=d2 / d2.sum())),
                 int(want.integers(6)), int(want.integers(6))]
        assert got.tobytes() == x[picks].tobytes()
        assert rng.bit_generator.state == want.bit_generator.state
        state, _ = fc.fair_kmeans(x, np.array([0, 1] * 3),
                                  fc.ClusterConfig(n_clusters=4, init="kmeanspp", seed=5))
        assert np.count_nonzero(state.counts) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 16), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_bitwise_equal_the_row_major_oracle(self, n, k, p, seed):
        # Mixed magnitudes and -0.0 entries in both the points and the centers.
        rng = np.random.default_rng(seed)
        x, centers = self.points(rng, n, p), self.points(rng, k, p)
        x[rng.random(x.shape) < 0.1] = -0.0
        centers[rng.random(centers.shape) < 0.2] = -0.0
        got = fc._sq_distances(np.ascontiguousarray(x.T), centers)
        assert got.shape == (k, n)
        assert np.ascontiguousarray(got.T).tobytes() == sq_distances_rows(x, centers).tobytes()

    @pytest.mark.parametrize("mode", fc.W_UPDATE_MODES)
    @pytest.mark.parametrize("init", fc.INIT_MODES)
    @pytest.mark.parametrize("lam", [0.0, 10.0])
    def test_fair_kmeans_keeps_its_bits_under_the_row_major_oracle(
            self, monkeypatch, mode, init, lam):
        rng = np.random.default_rng(21)
        points = self.points(rng, 400, 5)
        sensitive = rng.integers(0, 2, 400)
        cfg = fc.ClusterConfig(n_clusters=14, lam=lam, max_sweeps=8, seed=4,
                               w_update_mode=mode, init=init)
        got = fc.fair_kmeans(points, sensitive, cfg)
        monkeypatch.setattr(fc, "_sq_distances",
                            lambda points_t, centers: sq_distances_rows(points_t.T, centers).T)
        assert_runs_bitwise_equal(got, fc.fair_kmeans(points, sensitive, cfg))

    @pytest.mark.parametrize("p", [1, 2, 5, 7])
    def test_kmeanspp_centers_match_the_numpy_expression(self, p):
        def kmeanspp(points, k, rng):
            # ``_kmeanspp_centers`` with each distance vector taken by numpy.
            n = points.shape[0]
            centers = np.empty((k, points.shape[1]))
            centers[0] = points[int(rng.integers(n))]
            d2 = ((points - centers[0]) ** 2).sum(axis=1)
            for j in range(1, k):
                total = d2.sum()
                if total <= 0:
                    centers[j] = points[int(rng.integers(n))]
                else:
                    centers[j] = points[int(rng.choice(n, p=d2 / total))]
                d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
            return centers

        x = self.points(np.random.default_rng(p), 2000, p)
        got = fc._kmeanspp_centers(np.ascontiguousarray(x.T), 14, np.random.default_rng(3))
        assert got.tobytes() == kmeanspp(x, 14, np.random.default_rng(3)).tobytes()


class TestUpdateCenters:
    """Bincount center sums from 2 features, the masked mean at 1: the bits
    of ``x[members].mean(axis=0)`` either way, and an empty cluster's row kept."""

    @staticmethod
    def masked_means(x, assignments, centers):
        want = centers.copy()
        for j in range(len(want)):
            members = assignments == j + 1
            if members.any():
                want[j] = x[members].mean(axis=0)
        return want

    @staticmethod
    def check(x, assignments, k, rng):
        centers = rng.normal(size=(k, x.shape[1]))
        want = TestUpdateCenters.masked_means(x, assignments, centers)
        fc._update_centers(x, assignments, np.bincount(assignments - 1, minlength=k), centers)
        assert centers.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 2, 5, 8]), st.integers(1, 400), st.integers(1, 12),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_masked_mean(self, p, n, k, strided, seed):
        # Mixed magnitudes, so that a different summation order shows; the
        # last cluster is empty, and cluster 1 holds -0.0 in feature 0.
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n, p + 1)) * 10.0 ** rng.integers(-6, 6, size=(n, p + 1))
        raw[rng.random(raw.shape) < 0.1] = -0.0
        assignments = rng.integers(1, k + 1, n)
        if k > 1:
            assignments[assignments == k] = 1
        raw[assignments == 1, 0] = -0.0
        # Strided points are the csv: loader's raw[:, :-1].
        x = raw[:, :-1] if strided else np.ascontiguousarray(raw[:, :-1])
        self.check(x, assignments, k, rng)

    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    def test_bitwise_equal_on_the_census_view_size(self, p):
        # 10k points and K = 14, one cluster empty.
        rng = np.random.default_rng(p)
        x = rng.normal(size=(10_000, p)) * 10.0 ** rng.integers(-6, 6, size=(10_000, p))
        assignments = rng.integers(1, 14, 10_000)
        self.check(x, assignments, 14, rng)


def longest_run(flags) -> int:
    best = run = 0
    for f in flags:
        run = run + 1 if f else 0
        best = max(best, run)
    return best


class TestBlockScanMatchesReference:
    """The ``per_point`` block scan across block edges, against the reference."""

    B = fc._SCAN_BLOCK

    def run_both(self, points, sensitive, cfg, initial_assignments=None):
        got = fc.fair_kmeans(points, sensitive, cfg, initial_assignments)
        assert_runs_bitwise_equal(
            got, reference_fair_kmeans(points, sensitive, cfg, initial_assignments))
        return got

    @pytest.mark.parametrize("lam", [4.0, 40.0])
    @pytest.mark.parametrize("init", fc.INIT_MODES)
    @pytest.mark.parametrize("n", [fc._SCAN_BLOCK // 2, 3 * fc._SCAN_BLOCK + 5])
    def test_below_one_block_and_past_three(self, lam, init, n):
        # n = B/2 fits in one partial block; n = 3B + 5 ends on a short block.
        rng = np.random.default_rng(21)
        points = rng.normal(size=(n, 3))
        sensitive = rng.integers(0, 2, n)
        points[sensitive == 1] += 0.5
        cfg = fc.ClusterConfig(n_clusters=5, lam=lam, max_sweeps=40, seed=4,
                               init=init)
        _, trace = self.run_both(points, sensitive, cfg)
        assert sum(trace.moves) > 0

    def test_moves_on_both_sides_of_a_block_edge(self):
        # Two far-apart blobs, each point initially in its own blob's cluster
        # except the last point of the first block and the first of the next.
        b = self.B
        rng = np.random.default_rng(22)
        n = 2 * b + 7
        a0 = rng.integers(1, 3, n)
        points = np.where(a0 == 1, -10.0, 10.0)[:, None] + rng.normal(size=(n, 1))
        sensitive = rng.integers(0, 2, n)
        a0[[b - 1, b]] = 3 - a0[[b - 1, b]]
        one = fc.ClusterConfig(n_clusters=2, lam=0.5, max_sweeps=1)
        state, _ = fc.fair_kmeans(points, sensitive, one, initial_assignments=a0)
        np.testing.assert_array_equal(np.flatnonzero(state.assignments != a0), [b - 1, b])
        cfg = fc.ClusterConfig(n_clusters=2, lam=0.5, max_sweeps=20)
        self.run_both(points, sensitive, cfg, initial_assignments=a0)

    def test_long_runs_of_consecutive_moves(self):
        # Cluster 1 holds only privileged points (proportion 1) and cluster 2
        # only the others.  At a large lambda a privileged point prefers the
        # cluster whose proportion is furthest from 1, which stays cluster 2
        # while it fills, so more than a block of points in a row moves.
        b = self.B
        rng = np.random.default_rng(23)
        n = 4 * b
        points = rng.normal(size=(n, 2))
        sensitive = np.repeat([1, 0], n // 2)
        a0 = np.repeat([1, 2], n // 2)
        one = fc.ClusterConfig(n_clusters=2, lam=1000.0, max_sweeps=1)
        state, _ = fc.fair_kmeans(points, sensitive, one, initial_assignments=a0)
        assert longest_run(state.assignments != a0) > b
        cfg = fc.ClusterConfig(n_clusters=2, lam=1000.0, max_sweeps=30)
        self.run_both(points, sensitive, cfg, initial_assignments=a0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3 * fc._SCAN_BLOCK + 5), st.floats(0.0, 1.0),
           st.sampled_from([1e-3, 1.0, 1000.0]), st.sampled_from(fc.INIT_MODES),
           st.sampled_from([0.05, 0.5, 0.95]), st.integers(0, 2**32 - 1))
    def test_property_bookkeeping_matches_tally(self, n, k_frac, lam, init, share, seed):
        # n crosses block edges; K runs up to n, where clusters empty within
        # a sweep and take the global share; the group shares are skewed.
        rng = np.random.default_rng(seed)
        k = 1 + int(k_frac * (n - 1))
        points = rng.normal(size=(n, 2))
        sensitive = (rng.random(n) < share).astype(np.int64)
        cfg = fc.ClusterConfig(n_clusters=k, lam=lam, max_sweeps=6, seed=seed, init=init)
        state, _ = self.run_both(points, sensitive, cfg)
        counts, priv, w = fc._tally(state.assignments, sensitive.astype(np.float64), k,
                                    state.global_priv)
        assert state.counts.dtype == state.priv_counts.dtype == np.int64
        np.testing.assert_array_equal(state.counts, counts)
        np.testing.assert_array_equal(state.priv_counts, priv)
        assert state.proportions.tobytes() == w.tobytes()

    def test_refreshed_penalty_ties_with_the_reference(self):
        # Point 0 must move from cluster f to t, which refreshes those two
        # penalty columns.  Point 1 sits in cluster 1 with distances equal
        # to the reference penalties lam * (w - s) ** 2 after that move, so
        # every score it sees is 0 and it stays.  A refresh one ulp off the
        # reference breaks the tie, and the point moves in about a tenth of
        # these configurations.  The other points are pinned where they are.
        rng = np.random.default_rng(25)
        for _ in range(2000):
            k = int(rng.integers(2, 7))
            lam = float(rng.uniform(0.5, 50.0))
            f, t = rng.choice(k, 2, replace=False)
            assigned = np.concatenate([[f + 1, 1], rng.integers(1, k + 1, rng.integers(0, 40))])
            s = rng.integers(0, 2, assigned.size)
            global_priv = float(s.mean())
            counts, priv, w = fc._tally(assigned, s, k, global_priv)
            state = fc.ClusterState(assigned.copy(), np.zeros((k, 1)), w, counts, priv,
                                    global_priv)
            moved = assigned.copy()
            moved[0] = t + 1
            d2 = np.where(np.arange(1, k + 1) == assigned[:, None], -1e9, 0.0)
            d2[0] = 1e9
            d2[0, t] = 0.0
            d2[1] = lam * (fc._tally(moved, s, k, global_priv)[2] - s[1]) ** 2
            fc._per_point_pass(d2, s, state, lam)
            np.testing.assert_array_equal(state.assignments, moved)

    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_census_view_shape(self, lam):
        # K=14 on z-scored 5-D points with a 2:1 privileged share, as the
        # census clustering view, at ten blocks and a few points.
        rng = np.random.default_rng(24)
        n = 10 * self.B + 3
        sensitive = (rng.random(n) < 2 / 3).astype(np.int64)
        points = rng.normal(size=(n, 5)) + 0.4 * sensitive[:, None]
        points = (points - points.mean(axis=0)) / points.std(axis=0)
        cfg = fc.ClusterConfig(n_clusters=14, lam=lam, max_sweeps=8, seed=1,
                               init="kmeanspp")
        _, trace = self.run_both(points, sensitive, cfg)
        assert min(trace.moves) > 0


class TestToyDataset:
    def test_shapes_and_planted_groups(self):
        points, sensitive, centers = fc.toy_dataset(seed=0)
        assert points.shape == (2500, 2)
        assert centers.shape == (5, 2)
        assert np.all(sensitive[500:1000] == 1)
        assert np.all(sensitive[1500:2000] == 0)

    def test_deterministic(self):
        a = fc.toy_dataset(seed=42)
        b = fc.toy_dataset(seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_unfair_baseline_recovers_planted_proportions(self):
        points, sensitive, centers = fc.toy_dataset(seed=1)
        cfg = fc.ClusterConfig(n_clusters=5, lam=0.0, max_sweeps=200,
                               seed=0, init="kmeanspp")
        state, trace = fc.fair_kmeans(points, sensitive, cfg)
        assert trace.converged
        w_planted = []
        for b in range(5):
            d2 = ((state.centers - centers[b]) ** 2).sum(axis=1)
            w_planted.append(state.proportions[int(np.argmin(d2))])
        assert abs(w_planted[1] - 1.0) <= 1e-12
        assert abs(w_planted[3] - 0.0) <= 1e-12
