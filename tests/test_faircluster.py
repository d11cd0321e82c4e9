"""Fair K-means: assignment rule, proportion bookkeeping, oscillation demo."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        state = fc._state_from_assignments(
            x, s, k, np.asarray(initial_assignments, dtype=np.int64))
    else:
        state = fc._init_state(x, s, cfg, np.random.default_rng(cfg.seed))
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
                    fc.update_proportions_incremental(state, int(s[i]), k_old, k_new)
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
        trace.assignment_hashes.append(
            hashlib.sha1(state.assignments.tobytes()).hexdigest()[:16])
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
    for name in ("sweep", "kmeans_loss", "objective", "w_std", "moves",
                 "assignment_hashes"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(ref_trace, name),
                                      err_msg=name)
    assert (trace.converged, trace.cycled, trace.cycle_period) == \
        (ref_trace.converged, ref_trace.cycled, ref_trace.cycle_period)


class TestAssignPoint:
    def test_lambda_zero_nearest_center(self):
        centers = np.array([[0.0, 0.0], [4.0, 0.0]])
        w = np.array([0.9, 0.1])
        assert fc.assign_point([1.0, 0.0], 1, centers, w, 0.0) == 1
        assert fc.assign_point([3.0, 0.0], 1, centers, w, 0.0) == 2

    def test_equidistant_centers_fairness_decides(self):
        centers = np.array([[-1.0], [1.0]])
        w = np.array([1.0, 0.0])
        # score_1 = d^2 - lam*(1-1)^2 = d^2; score_2 = d^2 - lam
        assert fc.assign_point([0.0], 1, centers, w, 2.0) == 2

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
            assert fc.assign_point(x, s, centers, w, lam) == int(np.argmin(scores)) + 1


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
        fc.update_proportions_incremental(state, 1, 2, 2)
        np.testing.assert_array_equal(state.proportions, before)

    def test_underflow_detected(self):
        rng = np.random.default_rng(2)
        state, _ = self.make_state(rng)
        state.counts[0] = 0
        with pytest.raises(ValueError, match="underflow"):
            fc.update_proportions_incremental(state, 1, 1, 2)

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
            fc.update_proportions_incremental(state, int(s[i]), src, target)
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
        start_hash = hashlib.sha1(COUNTER_A0.astype(np.int64).tobytes()).hexdigest()[:16]
        mirror = np.array([2, 2, 1, 1], dtype=np.int64)
        mirror_hash = hashlib.sha1(mirror.tobytes()).hexdigest()[:16]
        assert trace.assignment_hashes == [mirror_hash, start_hash]
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
        state.check_consistent()
        nz = state.counts > 0
        np.testing.assert_allclose(
            state.proportions[nz],
            state.priv_counts[nz] / state.counts[nz], atol=1e-12)

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            fc.fair_kmeans(np.zeros((2, 1)), np.array([0, 1]),
                           fc.ClusterConfig(n_clusters=3))

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
