"""Shipped spec files against synthetic files in the exact UCI formats.

These tests fabricate small files that mimic every format quirk of the real
downloads (Adult's comma+space separators, '?' missing markers, the test
file's leading comment line and trailing label periods; Bank's quoted
semicolon-separated fields with a header row; German's whitespace-delimited
A-codes), then run the full pipeline: load, train a few steps, evaluate,
and cluster. They validate the spec files and the plumbing, not any
dataset-specific numbers.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oracles import check_consistent
from renyifair import data, faircluster as fc, fairtrain as ft, metrics as mt, model as md

REPO = Path(__file__).resolve().parent.parent

WORKCLASSES = ["Private", "State-gov", "Self-emp-not-inc"]
EDUCATIONS = ["Bachelors", "HS-grad", "Masters"]
MARITALS = ["Never-married", "Married-civ-spouse", "Divorced"]
OCCUPATIONS = ["Tech-support", "Sales", "Exec-managerial"]
RELATIONSHIPS = ["Husband", "Not-in-family", "Wife"]
RACES = ["White", "Black", "Asian-Pac-Islander"]
COUNTRIES = ["United-States", "Mexico"]


def fake_adult_row(rng, test=False):
    sex = "Male" if rng.random() < 0.6 else "Female"
    # income correlates with sex so fairness metrics are nontrivial
    rich = rng.random() < (0.45 if sex == "Male" else 0.2)
    label = ">50K" if rich else "<=50K"
    if test:
        label += "."
    workclass = WORKCLASSES[rng.integers(3)] if rng.random() > 0.05 else "?"
    fields = [
        str(rng.integers(17, 80)), workclass, str(rng.integers(10000, 900000)),
        EDUCATIONS[rng.integers(3)], str(rng.integers(1, 17)),
        MARITALS[rng.integers(3)], OCCUPATIONS[rng.integers(3)],
        RELATIONSHIPS[rng.integers(3)], RACES[rng.integers(3)], sex,
        str(int(rich) * rng.integers(0, 5000)), str(rng.integers(0, 2000)),
        str(rng.integers(20, 60)), COUNTRIES[rng.integers(2)], label,
    ]
    return ", ".join(fields)


@pytest.fixture
def fake_adult_dir(tmp_path):
    rng = np.random.default_rng(0)
    train = "\n".join(fake_adult_row(rng) for _ in range(400))
    test = "|1x3 Cross validator\n" + "\n".join(
        fake_adult_row(rng, test=True) for _ in range(150))
    (tmp_path / "adult.data").write_text(train + "\n")
    (tmp_path / "adult.test").write_text(test + "\n")
    return tmp_path


class TestAdultSpec:
    def test_load_shapes_and_quirks(self, fake_adult_dir):
        enc = data.load_dataset(REPO / "specs" / "adult.spec", root=str(fake_adult_dir))
        # '?' rows dropped, comment line skipped, periods stripped
        assert enc.train.n <= 400 and enc.train.n >= 350
        assert enc.test.n <= 150
        assert set(np.unique(enc.train.labels)) == {1, 2}
        assert set(np.unique(enc.train.sensitive)) == {1, 2}
        assert any(nm == "age" for nm in enc.feature_names)
        assert any(nm.startswith("workclass=") for nm in enc.feature_names)
        assert not any(nm.startswith(("sex", "income")) for nm in enc.feature_names)

    def test_train_eval_cluster_pipeline(self, fake_adult_dir):
        spec = data.parse_spec(REPO / "specs" / "adult.spec")
        enc = data.load_dataset(spec, root=str(fake_adult_dir))
        params = md.init_params("linear", enc.train.n_features, 2, seed=0)
        cfg = ft.TrainConfig(lam=1.0, eta=0.5, iters=30, fairness_mode="dp_binary", seed=0)
        trace = ft.train(params, enc.train, cfg)
        report = mt.evaluate(trace.final_params, enc.test, floor=cfg.floor)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.p_percent is not None

        small = dataclasses.replace(spec, clustering_samples=200)
        points, sensitive = data.clustering_view(small, root=str(fake_adult_dir))
        assert points.shape == (200, 5)
        state, _ = fc.fair_kmeans(points, sensitive, fc.ClusterConfig(
            n_clusters=4, lam=0.5, max_sweeps=30, seed=0, init="kmeanspp"))
        check_consistent(state)

    def test_multi_attribute_spec(self, fake_adult_dir):
        enc = data.load_dataset(REPO / "specs" / "adult_multi.spec",
                                root=str(fake_adult_dir))
        # gender x race product alphabet
        assert enc.train.n_groups == 6
        assert len(enc.sensitive_tuples) == 6
        params = md.init_params("linear", enc.train.n_features, 2, seed=0)
        cfg = ft.TrainConfig(lam=1.0, eta=0.5, iters=15,
                             fairness_mode="dp_discrete", seed=0)
        trace = ft.train(params, enc.train, cfg)
        report = mt.evaluate(trace.final_params, enc.test, floor=cfg.floor)
        assert report.dp_violation is not None
        assert report.p_percent is None  # not defined beyond two groups


BANK_HEADER = ('"age";"job";"marital";"education";"default";"balance";"housing";'
               '"loan";"contact";"day";"month";"duration";"campaign";"pdays";'
               '"previous";"poutcome";"y"')


def fake_bank_row(rng):
    marital = ["married", "single", "divorced"][rng.integers(3)]
    fields = [
        str(rng.integers(20, 70)), f'"{["admin.", "technician"][rng.integers(2)]}"',
        f'"{marital}"', '"secondary"', '"no"', str(rng.integers(-500, 5000)),
        '"yes"', '"no"', '"cellular"', str(rng.integers(1, 31)), '"may"',
        str(rng.integers(30, 800)), str(rng.integers(1, 10)), "-1", "0",
        '"unknown"', '"yes"' if rng.random() < 0.3 else '"no"',
    ]
    return ";".join(fields)


class TestBankSpec:
    def test_load_with_count_split(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [BANK_HEADER] + [fake_bank_row(rng) for _ in range(300)]
        (tmp_path / "bank-full.csv").write_text("\n".join(rows) + "\n")
        spec = data.parse_spec(REPO / "specs" / "bank.spec")
        spec = dataclasses.replace(spec, train_count=200, test_count=100)
        enc = data.load_dataset(spec, root=str(tmp_path))
        assert (enc.train.n, enc.test.n) == (200, 100)
        assert set(np.unique(enc.train.sensitive)) == {1, 2}
        assert not any(nm.startswith(("marital", "married", "y")) for nm in enc.feature_names)


GERMAN_STATUS = ["A91", "A92", "A93", "A94", "A95"]


def fake_german_row(rng):
    return " ".join([
        f"A1{rng.integers(1, 5)}", str(rng.integers(4, 72)),
        f"A3{rng.integers(0, 5)}", f"A4{rng.integers(0, 10)}",
        str(rng.integers(250, 20000)), f"A6{rng.integers(1, 6)}",
        f"A7{rng.integers(1, 6)}", str(rng.integers(1, 5)),
        GERMAN_STATUS[rng.integers(5)], f"A10{rng.integers(1, 4)}",
        str(rng.integers(1, 5)), f"A12{rng.integers(1, 5)}",
        str(rng.integers(19, 75)), f"A14{rng.integers(1, 4)}",
        f"A15{rng.integers(1, 4)}", str(rng.integers(1, 5)),
        f"A17{rng.integers(1, 5)}", str(rng.integers(1, 3)),
        f"A19{rng.integers(1, 3)}", f"A20{rng.integers(1, 3)}",
        str(rng.integers(1, 3)),
    ])


class TestGermanSpec:
    def test_head_tail_split_and_derived_sensitive(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = [fake_german_row(rng) for _ in range(1000)]
        (tmp_path / "german.data").write_text("\n".join(rows) + "\n")
        enc = data.load_dataset(REPO / "specs" / "german.spec", root=str(tmp_path))
        assert (enc.train.n, enc.test.n) == (800, 200)
        # gender x single product alphabet
        assert enc.train.n_groups == 4
        assert not any(nm.startswith("personal_status") for nm in enc.feature_names)
        # 13 categorical blocks and 7 numeric columns per the source schema
        numeric = [nm for nm in enc.feature_names if "=" not in nm]
        assert len(numeric) == 7
