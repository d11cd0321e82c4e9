"""Fairness metrics on hard predictions."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import zero_params
from renyifair import metrics as mt, model as md


def preds_with_rates(rate1, rate2, per_group=100):
    """Binary predictions with exact positive rates per sensitive group."""
    k1 = int(round(rate1 * per_group))
    k2 = int(round(rate2 * per_group))
    preds = np.array([2] * k1 + [1] * (per_group - k1) +
                     [2] * k2 + [1] * (per_group - k2))
    sens = np.array([1] * per_group + [2] * per_group)
    return preds, sens


class TestHardPredictions:
    def test_argmax_with_low_index_ties(self):
        probs = np.array([[0.5, 0.5], [0.4, 0.6], [0.7, 0.3]])
        np.testing.assert_array_equal(mt.hard_predictions(probs), [1, 2, 1])


class TestPPercent:
    def test_half(self):
        preds, sens = preds_with_rates(0.3, 0.6)
        assert abs(mt.p_percent(preds, sens) - 0.5) <= 1e-12

    def test_equal_rates_give_one(self):
        preds, sens = preds_with_rates(0.4, 0.4)
        assert mt.p_percent(preds, sens) == 1.0

    def test_both_zero_give_one(self):
        preds, sens = preds_with_rates(0.0, 0.0)
        assert mt.p_percent(preds, sens) == 1.0

    def test_single_zero_gives_zero(self):
        preds, sens = preds_with_rates(0.0, 0.5)
        assert mt.p_percent(preds, sens) == 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mt.p_percent(np.array([1, 2]), np.array([1, 1]))


class TestDpViolation:
    def test_two_groups(self):
        preds, sens = preds_with_rates(0.3, 0.6)
        assert abs(mt.dp_violation(preds, sens) - 0.3) <= 1e-12

    def test_identical_rates_across_four_groups(self):
        preds, sens = preds_with_rates(0.25, 0.25)
        sens = np.concatenate([sens, sens + 2])
        preds = np.concatenate([preds, preds])
        assert mt.dp_violation(preds, sens) == 0.0

    def test_three_groups_max_gap(self):
        parts = []
        for g, rate in enumerate((0.2, 0.5, 0.9), start=1):
            k = int(rate * 10)
            parts.append((np.array([2] * k + [1] * (10 - k)), np.full(10, g)))
        preds = np.concatenate([p for p, _ in parts])
        sens = np.concatenate([s for _, s in parts])
        assert abs(mt.dp_violation(preds, sens) - 0.7) <= 1e-12

    def test_single_group_rejected(self):
        with pytest.raises(ValueError, match="two nonempty"):
            mt.dp_violation(np.array([1, 2]), np.array([1, 1]))


class TestEoViolation:
    def test_equal_tprs_zero(self):
        preds = np.array([2, 2, 1, 1, 2, 2, 1, 1])
        sens = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        labels = np.array([2, 2, 2, 2, 2, 2, 2, 2])
        assert mt.eo_violation(preds, sens, labels) == 0.0

    def test_gap(self):
        # group 1: TPR 0.9 over 10 positives; group 2: TPR 0.7 over 10
        preds = np.array([2] * 9 + [1] + [2] * 7 + [1] * 3)
        sens = np.array([1] * 10 + [2] * 10)
        labels = np.full(20, 2)
        assert abs(mt.eo_violation(preds, sens, labels) - 0.2) <= 1e-12

    def test_random_tables_match_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = 200
            preds = rng.integers(1, 3, n)
            sens = rng.integers(1, 3, n)
            labels = rng.integers(1, 3, n)
            if not ((sens == 1) & (labels == 2)).any() or not ((sens == 2) & (labels == 2)).any():
                continue
            got = mt.eo_violation(preds, sens, labels)
            tpr = [np.sum((preds == 2) & (sens == g) & (labels == 2)) /
                   np.sum((sens == g) & (labels == 2)) for g in (1, 2)]
            assert abs(got - abs(tpr[0] - tpr[1])) <= 1e-12

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError, match="positive-label"):
            mt.eo_violation(np.array([1, 1]), np.array([1, 2]), np.array([1, 1]))


class TestNmi:
    def test_independent_counts_zero(self):
        preds = np.array([1, 1, 2, 2] * 25)
        sens = np.array([1, 2, 1, 2] * 25)
        assert mt.nmi(preds, sens) <= 1e-9

    def test_identical_variables_one(self):
        v = np.array([1, 2, 1, 2, 2, 1])
        assert abs(mt.nmi(v, v) - 1.0) <= 1e-12

    def test_hand_computed_joint(self):
        # joint [[0.4, 0.1], [0.1, 0.4]] over 100 samples
        preds = np.array([1] * 50 + [2] * 50)
        sens = np.array([1] * 40 + [2] * 10 + [1] * 10 + [2] * 40)
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        mi = sum(joint[i, j] * np.log(joint[i, j] / 0.25)
                 for i in range(2) for j in range(2))
        expected = mi / np.log(2)
        assert abs(mt.nmi(preds, sens) - expected) <= 1e-12

    def test_constant_variable_zero(self):
        assert mt.nmi(np.ones(10, dtype=int), np.array([1, 2] * 5)) == 0.0

    def test_codegeneracy_with_maxcorr(self):
        from renyifair import maxcorr as mc
        preds = np.array([1, 2] * 30)
        sens = preds.copy()
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert abs(mt.nmi(preds, sens) - 1.0) <= 1e-9
        assert abs(mc.renyi_discrete(joint) - 1.0) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(1, 4, 60)
        sens = rng.integers(1, 3, 60)
        swapped = np.where(sens == 1, 2, 1)
        assert abs(mt.nmi(preds, sens) - mt.nmi(preds, swapped)) <= 1e-12
        p, s = preds_with_rates(rng.random() * 0.9 + 0.05, rng.random() * 0.9 + 0.05)
        sw = np.where(s == 1, 2, 1)
        assert abs(mt.dp_violation(p, s) - mt.dp_violation(p, sw)) <= 1e-12
        assert abs(mt.p_percent(p, s) - mt.p_percent(p, sw)) <= 1e-12


class TestDpPpercentDuality:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_zero_dp_iff_full_p_percent(self, r1, r2):
        preds, sens = preds_with_rates(r1, r2)
        dp = mt.dp_violation(preds, sens)
        pp = mt.p_percent(preds, sens)
        assert (dp == 0.0) == (pp == 1.0)


class TestClusterFairness:
    def test_equal_proportions_zero_std(self):
        stats = mt.cluster_fairness(np.array([0.4, 0.4, 0.4]), np.array([3, 5, 2]))
        np.testing.assert_allclose(stats, (0.4, 0.4, 0.4, 0.0), atol=1e-15)

    def test_extreme_pair(self):
        stats = mt.cluster_fairness(np.array([1.0, 0.0]), np.array([4, 4]))
        assert stats[:2] == (0.0, 1.0)
        assert abs(stats[3] - 0.5) <= 1e-15

    def test_empty_clusters_excluded_and_matches_recompute(self):
        rng = np.random.default_rng(1)
        counts = np.array([5, 0, 3, 7])
        w = rng.random(4)
        got = mt.cluster_fairness(w, counts)
        active = w[counts > 0]
        assert got == (float(active.min()), float(active.max()),
                       float(active.mean()), float(active.std()))


@pytest.mark.parametrize("case, message", [
    (lambda: mt.nmi(np.array([1, 2, 1]), np.array([1, 2])),
     "inputs must be equal-length and nonempty"),
    (lambda: mt.nmi(np.array([]), np.array([])), "inputs must be equal-length and nonempty"),
    (lambda: mt.cluster_fairness(np.array([0.5, 0.2]), np.array([0, 0])), "no nonempty clusters"),
], ids=["nmi_lengths", "nmi_empty", "no_nonempty_cluster"])
def test_check_messages(case, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        case()


class TestEvaluate:
    def test_report_fields_and_json(self):
        rng = np.random.default_rng(2)
        batch = md.Batch(rng.normal(size=(60, 3)),
                         rng.integers(1, 3, 60), rng.integers(1, 3, 60))
        params = md.init_params("linear", 3, 2, seed=0)
        report = mt.evaluate(params, batch)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.p_percent is not None
        blob = json.loads(report.to_json())
        assert set(blob) == {"accuracy", "p_percent", "dp_violation",
                             "eo_violation", "nmi", "sigma2", "positive_rates"}

    def test_constant_predictor_is_parity(self):
        rng = np.random.default_rng(3)
        batch = md.Batch(rng.normal(size=(40, 2)),
                         rng.integers(1, 3, 40), rng.integers(1, 3, 40))
        report = mt.evaluate(zero_params("linear", 2, 2), batch)
        assert report.dp_violation == 0.0
        assert report.sigma2 <= 1e-9
        assert report.nmi == 0.0
