"""The dataset reader against its reference, and the errors it raises.

``load_dataset`` and ``clustering_view`` must give the arrays, dtypes,
feature names, sensitive tuples and log records of the reference reader in
``oracles`` on every fixture format the shipped specs cover; malformed
specs, rows and positive tokens must fail with a message that names them.
"""

import dataclasses
import logging
from pathlib import Path

import numpy as np
import pytest

import oracles
from renyifair import data
from test_data import ADULT_LIKE_SPEC, TEST_ROWS, TRAIN_ROWS
from test_dataset_specs import BANK_HEADER, fake_adult_row, fake_bank_row, fake_german_row

REPO = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((REPO / "specs").glob("*.spec")) + sorted(
    (REPO / "perfbench" / "specs").glob("*.spec"))


def adult_files(tmp_path):
    rng = np.random.default_rng(0)
    train = "\n".join(fake_adult_row(rng) for _ in range(400))
    test = "|1x3 Cross validator\n" + "\n".join(
        fake_adult_row(rng, test=True) for _ in range(150))
    (tmp_path / "adult.data").write_text(train + "\n")
    (tmp_path / "adult.test").write_text(test + "\n")


def bank_file(tmp_path):
    rng = np.random.default_rng(1)
    rows = [BANK_HEADER] + [fake_bank_row(rng) for _ in range(300)]
    (tmp_path / "bank-full.csv").write_text("\n".join(rows) + "\n")


def german_file(tmp_path):
    rng = np.random.default_rng(2)
    (tmp_path / "german.data").write_text(
        "\n".join(fake_german_row(rng) for _ in range(1000)) + "\n")


def mini_spec(tmp_path, spec_text=ADULT_LIKE_SPEC, train_rows=TRAIN_ROWS):
    (tmp_path / "spec.txt").write_text(spec_text)
    (tmp_path / "mini_train.csv").write_text(train_rows)
    (tmp_path / "mini_test.csv").write_text(TEST_ROWS)
    return data.parse_spec(tmp_path / "spec.txt")


def mini_two_sensitive(tmp_path):
    # The test file holds a workclass that training lacks, so its sensitive
    # codes depend on which split the token map is fit on.
    return dataclasses.replace(mini_spec(tmp_path), sensitive=("sex", "workclass"))


def mini_quoted(tmp_path):
    # A quote after the blank survives the csv module and is stripped here.
    return mini_spec(tmp_path, train_rows=TRAIN_ROWS.replace(", Private,", ', "Private",'))


def split_spec(split_lines):
    def build(tmp_path):
        rows = "\n".join(f"{i}, {'x' if i % 2 else 'y'}, {'1' if i % 3 else '2'}"
                         for i in range(20))
        (tmp_path / "all.csv").write_text(rows + "\n")
        (tmp_path / "spec.txt").write_text(
            "name = s\ncolumns = v cat cls\nlabel = cls\npositive_label = 2\n"
            "sensitive = cat\ncategorical = cat\nfile = all.csv\n" + split_lines)
        return data.parse_spec(tmp_path / "spec.txt")
    return build


def shipped(name, write, **changes):
    def build(tmp_path):
        write(tmp_path)
        return dataclasses.replace(data.parse_spec(REPO / "specs" / f"{name}.spec"), **changes)
    return build


LOAD_CASES = {
    "adult": shipped("adult", adult_files),
    "adult_multi": shipped("adult_multi", adult_files),
    "bank": shipped("bank", bank_file, train_count=200, test_count=100),
    "german": shipped("german", german_file),
    "mini": mini_spec,
    "mini_two_sensitive": mini_two_sensitive,
    "mini_quoted": mini_quoted,
    "head": split_spec("split = head\ntrain_count = 16\ntest_count = 4\n"),
    "count": split_spec("split = count\ntrain_count = 12\ntest_count = 8\nsplit_seed = 5\n"),
    "fraction": split_spec("split = fraction\ntrain_fraction = 0.75\nsplit_seed = 1\n"),
}

VIEW_CASES = {
    "adult": shipped("adult", adult_files, clustering_samples=200),
    "bank": shipped("bank", bank_file, clustering_samples=200),
    "mini": mini_spec,
}


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def records(caplog):
    return [(r.levelno, r.getMessage()) for r in caplog.records]


class TestMatchesReference:
    @pytest.mark.parametrize("case", sorted(LOAD_CASES))
    def test_load_dataset_bit_identical(self, case, tmp_path, caplog):
        spec = LOAD_CASES[case](tmp_path)
        caplog.set_level(logging.INFO)
        want = oracles.load_dataset_reference(spec, root=str(tmp_path))
        want_log = records(caplog)
        caplog.clear()
        got = data.load_dataset(spec, root=str(tmp_path))
        assert records(caplog) == want_log
        for part in ("train", "test"):
            for field in ("features", "labels", "sensitive"):
                assert_same_array(getattr(getattr(got, part), field),
                                  getattr(getattr(want, part), field))
        assert got.feature_names == want.feature_names
        assert got.sensitive_tuples == want.sensitive_tuples

    @pytest.mark.parametrize("case", sorted(VIEW_CASES))
    def test_clustering_view_bit_identical(self, case, tmp_path, caplog):
        spec = VIEW_CASES[case](tmp_path)
        caplog.set_level(logging.INFO)
        want = oracles.clustering_view_reference(spec, root=str(tmp_path))
        want_log = records(caplog)
        caplog.clear()
        got = data.clustering_view(spec, root=str(tmp_path))
        assert records(caplog) == want_log
        assert_same_array(got[0], want[0])
        assert_same_array(got[1], want[1])


class TestSpecKeys:
    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
    def test_every_shipped_spec_parses(self, path):
        assert data.parse_spec(path).columns

    def test_unknown_keys_named_with_the_file(self, tmp_path):
        text = ADULT_LIKE_SPEC.replace("categorical =", "catgorical =") + "colour = red\n"
        (tmp_path / "typo.spec").write_text(text)
        with pytest.raises(ValueError, match=r"typo\.spec: unknown spec keys catgorical, colour"):
            data.parse_spec(tmp_path / "typo.spec")

    @pytest.mark.parametrize("key", ["clustering_features", "clustering_sensitive"])
    def test_undeclared_clustering_column_rejected(self, tmp_path, key):
        (tmp_path / "s.spec").write_text(ADULT_LIKE_SPEC + f"{key} = agee\n")
        with pytest.raises(ValueError, match="column 'agee' not declared in the spec"):
            data.parse_spec(tmp_path / "s.spec")

    @pytest.mark.parametrize("key, kind", [
        ("train_count", "an integer"), ("test_count", "an integer"),
        ("split_seed", "an integer"), ("skip_rows", "an integer"),
        ("test_skip_rows", "an integer"), ("clustering_samples", "an integer"),
        ("clustering_seed", "an integer"), ("train_fraction", "a number"),
    ])
    @pytest.mark.parametrize("value", ["", "1.5x"])
    def test_bad_numeric_value_named_with_key_and_file(self, tmp_path, key, kind, value):
        (tmp_path / "num.spec").write_text(ADULT_LIKE_SPEC + f"{key} = {value}\n")
        with pytest.raises(ValueError,
                           match=rf"num\.spec: {key} must be {kind}, got '{value}'$"):
            data.parse_spec(tmp_path / "num.spec")

    @pytest.mark.parametrize("value, want", [
        ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("No", False), ("0", False),
    ])
    def test_boolean_value_in_any_case(self, tmp_path, value, want):
        (tmp_path / "b.spec").write_text(ADULT_LIKE_SPEC + f"strip_label_period = {value}\n")
        assert data.parse_spec(tmp_path / "b.spec").strip_label_period is want

    @pytest.mark.parametrize("value", ["ture", "", "on"])
    def test_bad_boolean_value_named_with_key_and_file(self, tmp_path, value):
        (tmp_path / "b.spec").write_text(ADULT_LIKE_SPEC + f"strip_label_period = {value}\n")
        with pytest.raises(ValueError, match=rf"b\.spec: strip_label_period must be one of "
                                             rf"1/0, true/false, yes/no, got '{value}'$"):
            data.parse_spec(tmp_path / "b.spec")

    @pytest.mark.parametrize("split, drop, missing", [
        ("files", ("train_file",), "train_file"),
        ("files", ("test_file",), "test_file"),
        ("files", ("train_file", "test_file"), "train_file and test_file"),
        ("head", ("file",), "file"),
        ("count", ("file",), "file"),
        ("fraction", ("file",), "file"),
    ])
    def test_unset_file_key_of_the_split_rejected(self, tmp_path, split, drop, missing):
        fields = dict(split=split, file="mini_train.csv", train_count=3, test_count=2,
                      train_fraction=0.5)
        spec = dataclasses.replace(mini_spec(tmp_path), **dict(fields, **dict.fromkeys(drop, "")))
        for load in (data.load_dataset, data.clustering_view):
            with pytest.raises(ValueError, match=f"^spec 'mini': split '{split}' needs {missing}$"):
                load(spec, root=str(tmp_path))


class TestMalformedRows:
    def test_wrong_field_count_names_file_and_row(self, tmp_path):
        rows = TRAIN_ROWS.replace("38, Private, Male, >50K", "38, Private, Male")
        spec = mini_spec(tmp_path, train_rows=rows)
        for load in (data.load_dataset, data.clustering_view):
            with pytest.raises(ValueError,
                               match=r"mini_train\.csv: row 3 has 3 fields, expected 4"):
                load(spec, root=str(tmp_path))

    def test_non_numeric_clustering_feature(self, tmp_path):
        spec = mini_spec(tmp_path, train_rows=TRAIN_ROWS.replace("28,", "twenty-eight,"))
        with pytest.raises(ValueError, match=r"^mini: non-numeric token in column 'age'"):
            data.clustering_view(spec, root=str(tmp_path))
        with pytest.raises(ValueError, match=r"^mini: non-numeric token in column 'age'"):
            data.load_dataset(spec, root=str(tmp_path))


class TestUnmatchedPositive:
    @pytest.mark.parametrize("key, value, load", [
        ("positive_label", ">50k", data.load_dataset),
        ("sensitive_positive", "male", data.load_dataset),
        ("clustering_sensitive_positive", "male", data.clustering_view),
    ])
    def test_typo_fails_loudly(self, tmp_path, key, value, load):
        spec = dataclasses.replace(mini_spec(tmp_path), **{
            key: (value,) if key == "sensitive_positive" else value})
        with pytest.raises(ValueError, match=f"^mini: {key} '{value}' matches no"):
            load(spec, root=str(tmp_path))

    def test_label_period_stripped_before_matching(self, tmp_path):
        spec = dataclasses.replace(mini_spec(tmp_path, train_rows=TRAIN_ROWS.replace(
            "K\n", "K.\n")), strip_label_period=True)
        enc = data.load_dataset(spec, root=str(tmp_path))
        np.testing.assert_array_equal(enc.train.labels, [1, 2, 2, 1, 1])
        with pytest.raises(ValueError, match="positive_label '>50K.' matches no training row"):
            data.load_dataset(dataclasses.replace(spec, positive_label=">50K."),
                              root=str(tmp_path))

    def test_positive_only_in_test_split_is_rejected(self, tmp_path):
        # 'Never-seen' occurs in the test file alone.
        spec = dataclasses.replace(mini_spec(tmp_path), sensitive=("sex", "workclass"),
                                   sensitive_positive=("Male", "Never-seen"))
        with pytest.raises(ValueError, match="matches no training row in column 'workclass'"):
            data.load_dataset(spec, root=str(tmp_path))
