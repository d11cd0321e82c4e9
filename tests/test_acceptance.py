"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Criteria 6, 8, and 9 need the UCI datasets on disk (see
``scripts/fetch_uci.py``); without them they fail with instructions, since
this build environment has no network access to fetch the source files.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import binary_objective, binary_seed, renyi_binary
from renyifair import cli, data, faircluster as fc, fairtrain as ft
from renyifair import maxcorr as mc, metrics as mt, model as md

REPO = Path(__file__).resolve().parent.parent
ADULT_SPEC = REPO / "specs" / "adult.spec"


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def random_joint(rng, c, d):
    m = rng.random((c, d)) + 1e-3
    return m / m.sum()


def gram_jacobi_second_singular(m, sweeps=200):
    """Brute-force oracle: cyclic Jacobi on the Gram matrix of Q."""
    a = np.asarray(m, dtype=np.float64)
    g = a.T @ a
    n = g.shape[0]
    for _ in range(sweeps):
        biggest = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                biggest = max(biggest, abs(g[p, q]))
                if abs(g[p, q]) < 1e-16:
                    continue
                theta = 0.5 * np.arctan2(2.0 * g[p, q], g[q, q] - g[p, p])
                c_, s_ = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c_
                rot[p, q] = s_
                rot[q, p] = -s_
                g = rot.T @ g @ rot
        if biggest < 1e-16:
            break
    sv = np.sort(np.sqrt(np.maximum(np.diag(g), 0.0)))[::-1]
    return sv[1] if len(sv) > 1 else 0.0


def fd_grad(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for k in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        g[k] = (f(up) - f(down)) / (2 * h)
    return g


def golden_section_max(f, lo=-5.0, hi=5.0, tol=1e-10):
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


def adult_or_fail():
    root = data.data_root()
    missing = [n for n in ("adult.data", "adult.test")
               if not os.path.exists(os.path.join(root, n))]
    if missing:
        pytest.fail(
            f"UCI Adult files {missing} not found under {root!r}. This "
            "criterion needs the real dataset: set RENYIFAIR_DATA and run "
            "scripts/fetch_uci.py on a machine with network access. The "
            "build sandbox has no route to archive.ics.uci.edu, so the "
            "criterion cannot execute here."
        )
    return data.load_dataset(ADULT_SPEC, root=root)


def test_c01_estimator_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_binary = 0.0
    for _ in range(1000):
        jt = random_joint(rng, int(rng.integers(2, 9)), 2)
        worst_binary = max(worst_binary,
                           abs(renyi_binary(jt).rho - mc.renyi_discrete(jt)))
    assert worst_binary <= 1e-9

    worst_oracle = 0.0
    for _ in range(1000):
        jt = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        q = mc.q_from_joint(jt).q
        worst_oracle = max(worst_oracle,
                           abs(mc.renyi_discrete(jt) - gram_jacobi_second_singular(q)))
    assert worst_oracle <= 1e-9

    # The closed form the trainer runs, on soft outputs F with both groups
    # present, against the SVD route on the sample's joint mean_n F[n, i] [s_n = j].
    worst_sq = worst_trained = 0.0
    for _ in range(1000):
        n, c = int(rng.integers(20, 201)), int(rng.integers(2, 9))
        s = rng.permutation(np.arange(n) % 2) + 1
        shift = rng.normal(scale=rng.uniform(0, 3), size=c)
        logits = rng.normal(size=(n, c)) + np.outer(s == 2, shift)
        f = np.exp(logits)
        f /= f.sum(axis=1, keepdims=True)
        _, _, rho_sq = ft._closed_form(mc.group_index(s, 2), 1e-12)(f)
        joint = np.stack([f[s == 1].sum(axis=0), f[s == 2].sum(axis=0)], axis=1) / n
        sigma2 = mc.renyi_discrete(joint)
        worst_sq = max(worst_sq, abs(rho_sq - sigma2 ** 2))
        if sigma2 >= 1e-3:
            worst_trained = max(worst_trained, abs(np.sqrt(max(rho_sq, 0.0)) - sigma2))
    assert worst_sq <= 1e-12
    assert worst_trained <= 1e-9
    elapsed = time.time() - start
    assert elapsed <= 30.0
    report("c01 estimator-equivalence",
           f"(binary gap {worst_binary:.2e}, oracle gap {worst_oracle:.2e}, "
           f"trainer gap {worst_trained:.2e} (squares {worst_sq:.2e}), {elapsed:.1f}s)")


def test_c02_independence_characterization():
    rng = np.random.default_rng(202)
    for _ in range(200):
        p = rng.random(int(rng.integers(2, 7))) + 0.05
        q = rng.random(int(rng.integers(2, 7))) + 0.05
        jt = np.outer(p / p.sum(), q / q.sum())
        assert mc.renyi_discrete(jt) <= 1e-9
    for _ in range(200):
        k = int(rng.integers(2, 7))
        perm = rng.permutation(k)
        mass = rng.random(k) + 0.05
        joint = np.zeros((k, k))
        joint[np.arange(k), perm] = mass / mass.sum()
        assert abs(mc.renyi_discrete(joint) - 1.0) <= 1e-9
    for _ in range(200):
        jt = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        qm = mc.q_from_joint(jt)
        res = mc.svd_small(qm.q)
        assert abs(res.singular_values[0] - 1.0) <= 1e-9
        v1, target = res.right_vectors[:, 0], np.sqrt(qm.col_marginal)
        assert min(np.abs(v1 - target).max(), np.abs(v1 + target).max()) <= 1e-9
    report("c02 independence-characterization")


def test_c03_gradient_correctness():
    rng = np.random.default_rng(303)
    checked = 0
    for k in range(20):
        arch, hid = ("linear", 0) if k % 2 == 0 else ("one_hidden", 4)
        c = int(rng.integers(2, 4))
        p = int(rng.integers(2, 5))
        n = int(rng.integers(8, 20))
        d = int(rng.integers(2, 4))
        params = md.init_params(arch, p, c, hidden_dim=hid, seed=k)
        x = rng.normal(size=(n, p))
        y = rng.integers(1, c + 1, n)
        groups = np.arange(n) % d + 1
        batch = md.Batch(x, y, groups)
        lam = float(rng.random() * 4 + 0.5)

        _, grad = md.loss_and_grad(params, batch)
        ref = fd_grad(lambda t: md.loss_and_grad(params.with_theta(t), batch)[0],
                      params.theta.copy())
        assert np.abs(grad - ref).max() / max(np.abs(ref).max(), 1e-12) <= 1e-4

        probs = md.forward(params, x)
        stv = ft.s_tilde(groups % 2 + 1)
        w = ft.inner_w_closed_form(probs, stv, floor=1e-12)
        bbatch = md.Batch(x, y, groups % 2 + 1)
        _, lgrad = md.loss_and_grad(params, bbatch)
        full = lgrad + md.jacobian_probs(params, x)(lam * binary_seed(stv, w))
        ref = fd_grad(lambda t: binary_objective(params.with_theta(t), bbatch, lam, w),
                      params.theta.copy())
        assert np.abs(full - ref).max() / max(np.abs(ref).max(), 1e-12) <= 1e-4

        index = mc.group_index(groups, d)
        _, seed, _ = ft._svd_route(index, 1e-9)(probs)
        v = mc.svd_small(mc.q_from_groups(probs, index, 1e-9).q).right_vectors[:, 1]
        pen_grad = md.jacobian_probs(params, x)(lam * seed)

        def penalty(theta):
            pr = md.forward(params.with_theta(theta), x)
            qm = mc.empirical_q(pr, groups, floor=1e-9, n_groups=d)
            return lam * float(np.sum((qm.q @ v) ** 2))

        ref = fd_grad(penalty, params.theta.copy())
        assert np.abs(pen_grad - ref).max() / max(np.abs(ref).max(), 1e-12) <= 1e-4
        checked += 1
    assert checked >= 20
    report("c03 gradient-correctness", f"({checked} instances)")


def test_c04_inner_max_optimality():
    rng = np.random.default_rng(404)
    for _ in range(20):
        n, c = int(rng.integers(10, 40)), int(rng.integers(2, 5))
        probs = rng.random((n, c)) + 0.05
        probs /= probs.sum(axis=1, keepdims=True)
        stv = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        w = ft.inner_w_closed_form(probs, stv, floor=1e-12)
        m = probs.mean(axis=0)
        t = (stv[:, None] * probs).mean(axis=0)
        for i in range(c):
            oracle = golden_section_max(lambda wi: -wi * wi * m[i] + wi * t[i])
            assert abs(w[i] - oracle) <= 1e-6

    for trial in range(5):
        n, d = 120, int(rng.integers(3, 6))
        probs = rng.random((n, 3)) + 0.05
        probs /= probs.sum(axis=1, keepdims=True)
        groups = np.arange(n) % d + 1
        qm = mc.empirical_q(probs, groups, floor=1e-9, n_groups=d)
        res = mc.svd_small(qm.q)
        v = res.right_vectors[:, 1]
        gram = qm.q.T @ qm.q
        attained = float(v @ gram @ v)
        assert abs(attained - res.singular_values[1] ** 2) <= 1e-9
        v1 = res.right_vectors[:, 0]
        for _ in range(1000):
            cand = rng.normal(size=d)
            cand -= (cand @ v1) * v1
            cand /= np.linalg.norm(cand)
            assert float(cand @ gram @ cand) <= attained + 1e-9
    report("c04 inner-max-optimality")


@pytest.fixture(scope="module")
def synth_sweep_runs():
    """Criterion-5 training runs, shared with the NMI-tracking criterion."""
    start = time.time()
    batch = data.synth_yequalss(2000, seed=0)
    runs = {}
    for lam, eta, iters in ((0.0, 0.5, 400), (100.0, 0.0005, 4000)):
        params = md.init_params("linear", 2, 2, seed=0)
        cfg = ft.TrainConfig(lam=lam, eta=eta, iters=iters,
                             fairness_mode="dp_discrete", seed=0)
        trace = ft.train(params, batch, cfg)
        runs[lam] = (trace, mt.evaluate(trace.final_params, batch, floor=cfg.floor))
    return batch, runs, time.time() - start


def test_c05_fairness_accuracy_limit(synth_sweep_runs):
    batch, runs, elapsed = synth_sweep_runs
    trace0, rep0 = runs[0.0]
    assert rep0.accuracy >= 0.99
    assert trace0.sigma2[-1] >= 0.95

    trace1, rep1 = runs[100.0]
    majority_prior = max(np.mean(batch.labels == 1), np.mean(batch.labels == 2))
    assert rep1.dp_violation <= 0.05
    assert abs(rep1.accuracy - majority_prior) <= 0.03
    assert elapsed <= 60.0
    report("c05 fairness-accuracy-limit",
           f"(acc0={rep0.accuracy:.3f}, s2_0={trace0.sigma2[-1]:.3f}, "
           f"dp100={rep1.dp_violation:.3f}, acc100={rep1.accuracy:.3f}, {elapsed:.1f}s)")


def scaled_step(lam: float, base_eta: float = 0.25) -> float:
    """Step size shrunk with the penalty weight; keeps eta*lam bounded."""
    return base_eta / max(1.0, lam / 0.1)


def test_c06_adult_demographic_parity():
    enc = adult_or_fail()
    results = {}
    for lam in cli.DEFAULT_LAMBDA_GRID:
        params = md.init_params("linear", enc.train.n_features, 2, seed=0)
        cfg = ft.TrainConfig(lam=lam, eta=scaled_step(lam), iters=6000,
                             fairness_mode="dp_binary", seed=0)
        trace = ft.train(params, enc.train, cfg)
        results[lam] = mt.evaluate(trace.final_params, enc.test, floor=cfg.floor)
    base = results[0.0]
    assert abs(base.p_percent - 0.3149) <= 0.10, base.p_percent
    ok = [lam for lam, rep in results.items()
          if rep.p_percent >= 0.80 and base.accuracy - rep.accuracy <= 0.04]
    assert ok, {lam: (r.p_percent, r.accuracy) for lam, r in results.items()}
    report("c06 adult-demographic-parity",
           f"(base p%={base.p_percent:.4f}, fair at lambda in {ok})")


def xor_style_fixture(n=1600, seed=0):
    """Three classes; the group signal lives in the two non-positive classes.

    The loss-optimal classifier predicts the positive class for 25% of each
    group in the soft average but only group 1 has argmax-positive samples,
    so its covariance with the group is zero while its argmax positive-rate
    gap is 0.25.
    """
    rng = np.random.default_rng(seed)
    n_a = n // 2
    n_p = n_a // 4
    rows = []
    for _ in range(n_p):
        rows.append(([1.0, 0.0, 0.0], 2, 1))
    for _ in range(n_a - n_p):
        rows.append(([0.0, 1.0, 0.0], 1, 1))
    n_q2 = (n - n_a) // 4
    for i in range(n - n_a):
        rows.append(([0.0, 0.0, 1.0], 2 if i < n_q2 else 3, 2))
    rng.shuffle(rows)
    x = np.array([r[0] for r in rows]) + 0.01 * rng.standard_normal((n, 3))
    return md.Batch(x, np.array([r[1] for r in rows]), np.array([r[2] for r in rows]))


def test_c07_baseline_saturation():
    batch = xor_style_fixture()
    grid = [0.0, 0.01, 0.1, 1.0, 10.0, 30.0]
    dp = {}
    for mode in ("dp_discrete", "pearson", "hsic"):
        dp[mode] = []
        for lam in grid:
            params = md.init_params("linear", 3, 3, seed=0)
            cfg = ft.TrainConfig(lam=lam, eta=0.5, iters=6000,
                                 fairness_mode=mode, seed=0)
            trace = ft.train(params, batch, cfg)
            rep = mt.evaluate(trace.final_params, batch, floor=cfg.floor)
            dp[mode].append(rep.dp_violation)
    assert min(dp["dp_discrete"]) <= 0.05, dp["dp_discrete"]
    assert all(v >= 0.2 for v in dp["pearson"]), dp["pearson"]
    assert all(v >= 0.2 for v in dp["hsic"]), dp["hsic"]
    report("c07 baseline-saturation",
           f"(renyi min dp={min(dp['dp_discrete']):.3f}, "
           f"pearson min dp={min(dp['pearson']):.3f}, "
           f"hsic min dp={min(dp['hsic']):.3f})")


@pytest.mark.parametrize("lam,settled", [(10.0, True), (30.0, False)])
def test_c07_dp_discrete_arms_report_whether_they_settled(lam, settled):
    """c07's only arm below a DP violation of 0.05 (lambda = 30) ends on an
    iterate that still moves; the lambda = 10 arm settles.  ``run_status``
    tells the two apart from the trace alone."""
    batch = xor_style_fixture()
    cfg = ft.TrainConfig(lam=lam, eta=0.5, iters=6000, fairness_mode="dp_discrete", seed=0)
    trace = ft.train(md.init_params("linear", 3, 3, seed=0), batch, cfg)
    assert ft.run_status(trace) == ("iters", settled)


def test_c08_adult_equalized_odds():
    enc = adult_or_fail()
    reports = {}
    for lam in (0.0, 1.0, 10.0, 100.0, 1000.0):
        params = md.init_params("linear", enc.train.n_features, 2, seed=0)
        cfg = ft.TrainConfig(lam=lam, eta=scaled_step(lam), iters=6000,
                             fairness_mode="eo", eo_min_group=30, seed=0)
        trace = ft.train(params, enc.train, cfg)
        reports[lam] = mt.evaluate(trace.final_params, enc.test, floor=cfg.floor)
    assert reports[1000.0].eo_violation <= 0.02, \
        {lam: r.eo_violation for lam, r in reports.items()}
    err0 = 1.0 - reports[0.0].accuracy
    err1 = 1.0 - reports[1000.0].accuracy
    assert err1 - err0 <= 0.03, (err0, err1)
    report("c08 adult-equalized-odds",
           f"(eo={reports[1000.0].eo_violation:.4f}, err increase={err1 - err0:.4f})")


def test_c09_adult_fair_kmeans():
    enc_root = data.data_root()
    if not os.path.exists(os.path.join(enc_root, "adult.data")):
        adult_or_fail()
    points, sensitive = data.clustering_view(ADULT_SPEC, root=enc_root)
    assert points.shape == (10000, 5)
    grid = [0.0, 0.001, 0.005, 0.05, 0.5, 1.0, 10.0, 100.0, 1000.0]
    stds, losses = [], []
    for lam in grid:
        cfg = fc.ClusterConfig(n_clusters=14, lam=lam, max_sweeps=200,
                               seed=0, init="kmeanspp")
        state, trace = fc.fair_kmeans(points, sensitive, cfg)
        w = state.proportions[state.counts > 0]
        stds.append(float(w.std()))
        losses.append(trace.kmeans_loss[-1])
    inversions = sum(1 for a, b in zip(stds, stds[1:]) if b > a + 1e-9)
    assert inversions <= 1, stds
    assert grid[-1] >= 1.0
    assert stds[-1] <= 0.01, stds
    assert losses[-1] > losses[0], losses
    report("c09 adult-fair-kmeans", f"(stds={np.round(stds, 4)})")


def test_c10_counterexample_reproduction():
    x = np.array([[-5.0], [-4.0], [4.0], [5.0]])
    s = np.array([1, 1, 0, 0])
    a0 = np.array([1, 1, 2, 2])
    lam = 75.0

    cfg = fc.ClusterConfig(n_clusters=2, lam=lam, max_sweeps=30,
                           w_update_mode="per_point")
    _, trace_p = fc.fair_kmeans(x, s, cfg, initial_assignments=a0)
    assert trace_p.converged and trace_p.sweep[-1] <= 10

    cfg = fc.ClusterConfig(n_clusters=2, lam=lam, max_sweeps=30,
                           w_update_mode="per_sweep")
    _, trace_s = fc.fair_kmeans(x, s, cfg, initial_assignments=a0)
    assert trace_s.cycled and trace_s.cycle_period == 2
    # Two sweeps, and the second moved a point: two distinct assignments.
    assert len(trace_s.moves) == 2 and trace_s.moves[1] > 0
    report("c10 counterexample-reproduction",
           f"(per_point sweeps={trace_p.sweep[-1]}, per_sweep period={trace_s.cycle_period})")


def test_c11_toy_clustering_demo():
    points, sensitive, centers = fc.toy_dataset(seed=1)
    cfg0 = fc.ClusterConfig(n_clusters=5, lam=0.0, max_sweeps=200,
                            seed=0, init="kmeanspp")
    state0, _ = fc.fair_kmeans(points, sensitive, cfg0)
    w_planted = []
    for b in range(5):
        d2 = ((state0.centers - centers[b]) ** 2).sum(axis=1)
        w_planted.append(float(state0.proportions[int(np.argmin(d2))]))
    assert w_planted[1] == 1.0 and w_planted[3] == 0.0, w_planted

    cfg1 = fc.ClusterConfig(n_clusters=5, lam=1000.0, max_sweeps=200,
                            seed=0, init="kmeanspp")
    state1, _ = fc.fair_kmeans(points, sensitive, cfg1)
    w = state1.proportions[state1.counts > 0]
    max_dev = float(np.abs(w - w.mean()).max())
    assert max_dev <= 0.1, max_dev
    report("c11 toy-clustering-demo",
           f"(planted w={w_planted[1]:.0f}/{w_planted[3]:.0f}, max dev={max_dev:.4f})")


def test_c12_nmi_tracks_sigma2(synth_sweep_runs):
    _, runs, _ = synth_sweep_runs
    qualifying = 0
    for lam, (trace, rep) in runs.items():
        if trace.sigma2[-1] <= 0.05:
            qualifying += 1
            assert rep.nmi <= 0.02, (lam, trace.sigma2[-1], rep.nmi)
    assert qualifying >= 1
    report("c12 nmi-tracking", f"({qualifying} qualifying runs)")


def test_c13_determinism(tmp_path):
    import json

    train_cfg = tmp_path / "train.json"
    with open(train_cfg, "w") as fh:
        json.dump({"dataset": "synth:yequalss:300", "model": "linear",
                   "fairness_mode": "dp_discrete", "lambda_grid": [0.0, 1.0],
                   "eta": 0.1, "iters": 50, "seeds": [0]}, fh)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert cli.cmd_train(cli.load_config(train_cfg), str(out)) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]

    cluster_cfg = tmp_path / "cluster.json"
    with open(cluster_cfg, "w") as fh:
        json.dump({"dataset": "toy:0", "n_clusters": 5, "lambda_grid": [0.0, 10.0],
                   "max_sweeps": 40, "init": "kmeanspp", "seeds": [0]}, fh)
    clus = []
    for tag in ("a", "b"):
        out = tmp_path / f"cluster_{tag}"
        assert cli.cmd_cluster(cli.load_config(cluster_cfg), str(out)) == 0
        clus.append((out / "sweep.csv").read_bytes())
    assert clus[0] == clus[1]
    report("c13 determinism")
