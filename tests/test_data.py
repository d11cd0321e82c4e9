"""Dataset spec parsing, encoding, splits, and the synthetic generator."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyifair import data



ADULT_LIKE_SPEC = """
# miniature census-style dataset
name = mini
delimiter = comma
columns = age workclass sex income
label = income
positive_label = >50K
sensitive = sex
sensitive_positive = Male
categorical = workclass
split = files
train_file = mini_train.csv
test_file = mini_test.csv
missing_token = ?
missing_policy = drop_row
normalization = zscore
clustering_features = age
clustering_samples = 4
clustering_sensitive = sex
clustering_sensitive_positive = Male
clustering_seed = 3
"""

TRAIN_ROWS = """39, State-gov, Male, <=50K
50, Self-emp, Female, >50K
38, Private, Male, >50K
28, Private, Female, <=50K
45, State-gov, Male, <=50K
36, ?, Male, >50K
"""

TEST_ROWS = """40, Never-seen, Female, >50K
30, Private, Male, <=50K
33, State-gov, Female, <=50K
"""


@pytest.fixture
def parse_every_load(monkeypatch):
    """Every load parses its table: no cache entry stands in for the parse."""
    monkeypatch.setattr(data, "_read_entry", lambda path, key: None)


@pytest.fixture
def mini_dataset(tmp_path):
    (tmp_path / "spec.txt").write_text(ADULT_LIKE_SPEC)
    (tmp_path / "mini_train.csv").write_text(TRAIN_ROWS)
    (tmp_path / "mini_test.csv").write_text(TEST_ROWS)
    return tmp_path


class TestSpecParsing:
    def test_round_trip_fields(self, mini_dataset):
        spec = data.parse_spec(mini_dataset / "spec.txt")
        assert spec.name == "mini"
        assert spec.columns == ("age", "workclass", "sex", "income")
        assert spec.label == "income"
        assert spec.sensitive == ("sex",)
        assert spec.categorical == ("workclass",)
        assert spec.split == "files"

    def test_unknown_column_rejected(self, tmp_path):
        (tmp_path / "bad.txt").write_text(
            "columns = a b\nlabel = a\nsensitive = zzz\n")
        with pytest.raises(ValueError, match="zzz"):
            data.parse_spec(tmp_path / "bad.txt")

    def test_derive_rule_parsing(self, tmp_path):
        (tmp_path / "s.txt").write_text(
            "columns = a9 cls\nlabel = cls\npositive_label = 1\n"
            "derive = sex:a9:A92|A95\nsensitive = sex\n")
        spec = data.parse_spec(tmp_path / "s.txt")
        assert spec.derive[0].name == "sex"
        assert spec.derive[0].positive_tokens == ("A92", "A95")

    @pytest.mark.parametrize("derive,rule,chain", [
        ("w:w:a", "w:w", "w -> w"),
        ("u:v:a v:u:b", "u:v", "u -> v -> u"),
        ("u:zzz:a", "u:zzz", "u -> zzz"),
    ], ids=["self", "two_rule_cycle", "unknown_source"])
    def test_derive_chain_must_end_at_a_source_column(self, tmp_path, derive, rule, chain):
        (tmp_path / "spec.txt").write_text(
            "columns = w x cls\nlabel = cls\npositive_label = 1\nsensitive = x\n"
            "categorical = w\nsplit = head\nfile = t.csv\ntrain_count = 2\ntest_count = 1\n"
            f"derive = {derive}\n")
        (tmp_path / "t.csv").write_text("a,1,1\nb,2,0\na,1,1\n")
        message = f"derive rule {rule} does not end at a source-file column: {chain}"
        for parse in (data.parse_spec,
                      lambda path: data.load_dataset(path, root=str(tmp_path))):
            with pytest.raises(ValueError, match=message):
                parse(tmp_path / "spec.txt")

    @pytest.mark.parametrize("derive,message", [
        ("g:a:x g:b:p", "derive rule g:a needs a name of its own: 'g' also names another rule"),
        ("c:a:1 a:b:p",
         "derive rule a:b needs a name of its own: 'a' also names a source-file column"),
    ], ids=["used_twice", "a_source_column"])
    def test_derive_name_must_be_new(self, tmp_path, derive, message):
        # Either spec once read differently here and in the reference loader:
        # which of two rules of one name wins, and whether a rule shadows a column.
        (tmp_path / "spec.txt").write_text(
            "columns = a b y\nlabel = y\npositive_label = 1\ncategorical = a b\n"
            f"sensitive = {derive[0]}\nderive = {derive}\nsplit = head\nfile = t.csv\n"
            "skip_rows = 1\ntrain_count = 4\ntest_count = 2\n")
        (tmp_path / "t.csv").write_text("a,b,y\nx,p,1\nz,q,0\nx,q,1\nz,p,0\nx,p,1\nz,q,0\n")
        for parse in (data.parse_spec,
                      lambda path: data.load_dataset(path, root=str(tmp_path))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse(tmp_path / "spec.txt")

    def test_derive_chain_through_a_derived_column(self, tmp_path):
        (tmp_path / "spec.txt").write_text(
            "columns = w x cls\nlabel = cls\npositive_label = 1\nsensitive = v\n"
            "categorical = w\nsplit = head\nfile = t.csv\ntrain_count = 2\ntest_count = 1\n"
            "derive = v:u:1 u:w:a\n")
        (tmp_path / "t.csv").write_text("a,1,1\nb,2,0\na,1,1\n")
        enc = data.load_dataset(tmp_path / "spec.txt", root=str(tmp_path))
        assert enc.train.sensitive.tolist() + enc.test.sensitive.tolist() == [2, 1, 2]


class TestLoadDataset:
    def test_missing_rows_dropped(self, mini_dataset):
        enc = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        assert enc.train.n == 5  # the '?' row is gone
        assert enc.test.n == 3

    def test_label_and_sensitive_codes(self, mini_dataset):
        enc = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        np.testing.assert_array_equal(enc.train.labels, [1, 2, 2, 1, 1])
        np.testing.assert_array_equal(enc.train.sensitive, [2, 1, 2, 1, 2])

    def test_one_hot_round_trip(self, mini_dataset):
        enc = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        names = enc.feature_names
        onehot_cols = [i for i, nm in enumerate(names) if nm.startswith("workclass=")]
        cats = [names[i].split("=", 1)[1] for i in onehot_cols]
        raw_train = ["State-gov", "Self-emp", "Private", "Private", "State-gov"]
        block = enc.train.features[:, onehot_cols]
        assert set(np.unique(block)) <= {0.0, 1.0}
        np.testing.assert_allclose(block.sum(axis=1), 1.0)
        for row, tok in zip(block, raw_train):
            assert cats[int(np.argmax(row))] == tok

    def test_unseen_category_goes_to_bucket(self, mini_dataset):
        enc = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        unseen_col = list(enc.feature_names).index("workclass=<unseen>")
        np.testing.assert_array_equal(enc.test.features[:, unseen_col], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(enc.train.features[:, unseen_col], np.zeros(5))

    def test_normalization_uses_train_stats_only(self, mini_dataset):
        enc1 = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        # mutate a test row: train encoding must not change
        mutated = TEST_ROWS.replace("40,", "90,")
        (mini_dataset / "mini_test.csv").write_text(mutated)
        enc2 = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        np.testing.assert_array_equal(enc1.train.features, enc2.train.features)
        assert not np.array_equal(enc1.test.features, enc2.test.features)

    def test_sensitive_not_in_features(self, mini_dataset):
        enc = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        assert not any(nm.startswith(("sex", "income")) for nm in enc.feature_names)

    def test_deterministic(self, mini_dataset, parse_every_load):
        a = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        b = data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test.features, b.test.features)

    @pytest.mark.parametrize("name, rows, token, shown", [
        ("mini_train.csv", TRAIN_ROWS, "nan", "nan"),
        ("mini_test.csv", TEST_ROWS, "-Infinity", "-inf"),
        ("mini_train.csv", TRAIN_ROWS, "1e999", "inf"),
    ])
    def test_non_finite_value_refused(self, mini_dataset, name, rows, token, shown):
        # A nan in the train split would z-score its whole column to nan.
        (mini_dataset / name).write_text(token + rows[2:])
        with pytest.raises(ValueError, match=f"^mini: non-finite value {shown} in column 'age'$"):
            data.load_dataset(mini_dataset / "spec.txt", root=str(mini_dataset))


class TestSplitPolicies:
    def write_single(self, tmp_path, n=20):
        rows = "\n".join(f"{i}, {'x' if i % 2 else 'y'}, {'1' if i % 3 else '2'}"
                         for i in range(n))
        (tmp_path / "all.csv").write_text(rows + "\n")

    def make_spec(self, tmp_path, split_lines):
        text = ("name = s\ncolumns = v cat cls\nlabel = cls\npositive_label = 2\n"
                "sensitive = cat\ncategorical = cat\nfile = all.csv\n" + split_lines)
        (tmp_path / "spec.txt").write_text(text)
        return tmp_path / "spec.txt"

    def test_head_split(self, tmp_path):
        self.write_single(tmp_path)
        spec = self.make_spec(tmp_path, "split = head\ntrain_count = 16\ntest_count = 4\n")
        enc = data.load_dataset(spec, root=str(tmp_path))
        assert (enc.train.n, enc.test.n) == (16, 4)
        # ordered: first feature column of train is 0..15 before z-scoring
        assert enc.train.features[:, 0].argmin() == 0

    def test_count_split_seeded(self, tmp_path, parse_every_load):
        self.write_single(tmp_path)
        spec = self.make_spec(tmp_path,
                              "split = count\ntrain_count = 12\ntest_count = 8\nsplit_seed = 5\n")
        enc1 = data.load_dataset(spec, root=str(tmp_path))
        enc2 = data.load_dataset(spec, root=str(tmp_path))
        assert (enc1.train.n, enc1.test.n) == (12, 8)
        np.testing.assert_array_equal(enc1.train.features, enc2.train.features)

    def test_fraction_split(self, tmp_path):
        self.write_single(tmp_path)
        spec = self.make_spec(tmp_path, "split = fraction\ntrain_fraction = 0.75\nsplit_seed = 1\n")
        enc = data.load_dataset(spec, root=str(tmp_path))
        assert (enc.train.n, enc.test.n) == (15, 5)

    def test_oversized_split_rejected(self, tmp_path):
        self.write_single(tmp_path)
        spec = self.make_spec(tmp_path, "split = head\ntrain_count = 19\ntest_count = 4\n")
        with pytest.raises(ValueError, match="larger"):
            data.load_dataset(spec, root=str(tmp_path))

    @pytest.mark.parametrize("lines, message", [
        ("split = head\ntrain_count = -5\ntest_count = 5\n",
         "train_count must not be negative, got -5"),
        ("split = count\ntrain_count = 15\ntest_count = -1\n",
         "test_count must not be negative, got -1"),
        ("split = head\ntrain_count = 15\ntest_count = 5\nskip_rows = -3\n",
         "skip_rows must not be negative, got -3"),
        ("split = files\ntrain_file = all.csv\ntest_file = all.csv\ntest_skip_rows = -1\n",
         "test_skip_rows must not be negative, got -1"),
        ("split = head\ntrain_count = 15\ntest_count = 5\nclustering_samples = -3\n",
         "clustering_samples must not be negative, got -3"),
    ], ids=["train_count", "test_count", "skip_rows", "test_skip_rows", "clustering_samples"])
    def test_negative_size_rejected(self, tmp_path, lines, message):
        # Each would load a silently wrong split or fail inside numpy.
        self.write_single(tmp_path)
        with pytest.raises(ValueError, match=f"^{message}$"):
            data.parse_spec(self.make_spec(tmp_path, lines))

    @pytest.mark.parametrize("fraction", ["-0.25", "0", "1", "1.5", "nan"])
    def test_train_fraction_outside_the_open_unit_interval_rejected(self, tmp_path, fraction):
        self.write_single(tmp_path)
        path = self.make_spec(tmp_path, f"split = fraction\ntrain_fraction = {fraction}\n")
        with pytest.raises(ValueError, match=rf"^split = fraction needs 0 < train_fraction < 1, "
                                             rf"got {float(fraction)}$"):
            data.parse_spec(path)


class TestClusteringView:
    def test_view_shape_and_normalization(self, mini_dataset):
        points, sensitive = data.clustering_view(mini_dataset / "spec.txt",
                                                 root=str(mini_dataset))
        assert points.shape == (4, 1)
        assert set(np.unique(sensitive)) <= {0, 1}
        assert abs(points.mean()) <= 1e-12
        assert abs(points.std() - 1.0) <= 1e-12

    def test_seeded_subsample_deterministic(self, mini_dataset, parse_every_load):
        a = data.clustering_view(mini_dataset / "spec.txt", root=str(mini_dataset))
        b = data.clustering_view(mini_dataset / "spec.txt", root=str(mini_dataset))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_non_finite_value_refused(self, mini_dataset):
        # Refused in the pool, whether or not the subsample would draw it.
        (mini_dataset / "mini_test.csv").write_text(TEST_ROWS.replace("33,", "inf,"))
        with pytest.raises(ValueError, match="^mini: non-finite value inf in column 'age'$"):
            data.clustering_view(mini_dataset / "spec.txt", root=str(mini_dataset))


class TestSynthYequalsS:
    def test_groups_balanced_and_label_equals_group(self):
        batch = data.synth_yequalss(500 * 2, seed=4)
        np.testing.assert_array_equal(batch.labels, batch.sensitive)
        assert np.sum(batch.labels == 1) == 500
        assert np.sum(batch.labels == 2) == 500

    def test_deterministic(self):
        a = data.synth_yequalss(100, seed=9)
        b = data.synth_yequalss(100, seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            data.synth_yequalss(7)

    def test_blob_separation_supports_accurate_linear_model(self):
        batch = data.synth_yequalss(2000, seed=0)
        centers = np.array([batch.features[batch.labels == k].mean(axis=0)
                            for k in (1, 2)])
        assert np.linalg.norm(centers[0] - centers[1]) >= 5.0

    def test_label_group_maxcorr_is_one(self):
        from renyifair import maxcorr as mc
        batch = data.synth_yequalss(400, seed=2)
        joint = np.zeros((2, 2))
        for y, s in zip(batch.labels, batch.sensitive):
            joint[y - 1, s - 1] += 1
        rho = mc.renyi_discrete(joint / joint.sum())
        assert abs(rho - 1.0) <= 1e-9


SPEC_FIELDS = {"name": "m", "columns": ("a", "s", "y"), "label": "y", "positive_label": "1",
               "sensitive": ("s",)}


def spec_file(tmp_path, text):
    (tmp_path / "spec.txt").write_text(text)
    return tmp_path / "spec.txt"


@pytest.mark.parametrize("case, message", [
    (lambda tmp: data.DatasetSpec(**SPEC_FIELDS, split="random"),
     "unknown split policy 'random'"),
    (lambda tmp: data.DatasetSpec(**SPEC_FIELDS, missing_policy="impute"),
     "unknown missing policy 'impute'"),
    (lambda tmp: data.DatasetSpec(**SPEC_FIELDS, normalization="minmax"),
     "unknown normalization 'minmax'"),
    (lambda tmp: data.DatasetSpec(**SPEC_FIELDS, delimiter="pipe"), "unknown delimiter 'pipe'"),
    (lambda tmp: data.DatasetSpec(**dict(SPEC_FIELDS, sensitive=())),
     "at least one sensitive column is required"),
    (lambda tmp: data.parse_spec(spec_file(tmp, "columns = a s y\nderive = g:a\n")),
     "bad derive rule 'g:a', expected name:source:tok|tok"),
    (lambda tmp: data.parse_spec(spec_file(tmp, "columns = a s y\nlabel y\n")),
     "bad spec line (expected key = value): 'label y'"),
    (lambda tmp: data.load_dataset(spec_file(tmp, ADULT_LIKE_SPEC.replace(
        "split = files", "split = head\nfile = mini_train.csv\ntrain_count = 0\n"
        "test_count = 2")), root=str(tmp)), "mini: empty split"),
    (lambda tmp: data.combine_sensitive([], []), "need at least one column"),
    (lambda tmp: data.combine_sensitive([[1, 2, 1], [1, 2]], [2, 2]),
     "columns must share a common length"),
    (lambda tmp: data.combine_sensitive([[1, 3]], sizes=[2]), "column values must lie in 1..size"),
    (lambda tmp: data.combine_sensitive([[1, 2], [1, 1]], sizes=[2]),
     "need one size per column, got 1 for 2 columns"),
    (lambda tmp: data.combine_sensitive([[1, 2]], sizes=[2, 3]),
     "need one size per column, got 2 for 1 columns"),
    (lambda tmp: data.clustering_view(data.DatasetSpec(**SPEC_FIELDS)),
     "m: no clustering view configured"),
    (lambda tmp: data.clustering_view(spec_file(tmp, ADULT_LIKE_SPEC.replace(
        "clustering_samples = 4", "clustering_samples = 40")), root=str(tmp)),
     "mini: clustering_samples=40 exceeds 8 rows"),
], ids=["split", "missing_policy", "normalization", "delimiter", "no_sensitive", "derive_rule",
        "spec_line", "empty_split", "no_columns", "ragged_columns", "value_above_size",
        "fewer_sizes_than_columns", "more_sizes_than_columns",
        "no_clustering_view", "clustering_samples_above_pool"])
def test_check_messages(mini_dataset, case, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        case(mini_dataset)


class TestCombineSensitive:
    def test_two_binary_columns(self):
        a = np.array([1, 1, 2, 2])
        b = np.array([1, 2, 1, 2])
        codes, tuples = data.combine_sensitive([a, b], [2, 2])
        np.testing.assert_array_equal(codes, [1, 2, 3, 4])
        assert len(tuples) == 4
        assert tuples == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_single_column_identity(self):
        col = np.array([3, 1, 2])
        codes, _ = data.combine_sensitive([col], [3])
        np.testing.assert_array_equal(codes, col)

    @pytest.mark.parametrize("size", [2, 3])
    def test_single_column_keeps_its_declared_size(self, size):
        # One sensitive column is its own product code, tuples over the
        # whole alphabet even when the column lacks its top value.
        col = np.array([1, 1, 2, 1], dtype=np.int64)
        codes, tuples = data.combine_sensitive([col], [size])
        assert codes.dtype == np.int64 and codes.tobytes() == col.tobytes()
        assert tuples == tuple((v,) for v in range(1, size + 1))

    def test_mixed_sizes_most_significant_first(self):
        codes, tuples = data.combine_sensitive([np.array([2, 1]), np.array([3, 2])], sizes=[2, 3])
        assert tuples == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
        np.testing.assert_array_equal(codes, [6, 2])
        assert [tuples[int(v) - 1] for v in codes] == [(2, 3), (1, 2)]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
                    min_size=1, max_size=30))
    def test_three_binary_round_trip(self, rows):
        cols = [np.array([r[j] for r in rows]) for j in range(3)]
        codes, tuples = data.combine_sensitive(cols, sizes=[2, 2, 2])
        assert len(tuples) == 8
        for i, value in enumerate(codes):
            assert tuples[int(value) - 1] == rows[i]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_codes_index_the_tuples(self, draw):
        sizes = draw.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        rows = draw.draw(st.lists(st.tuples(*(st.integers(1, size) for size in sizes)),
                                  min_size=1, max_size=30))
        cols = [np.array([r[j] for r in rows]) for j in range(len(sizes))]
        codes, tuples = data.combine_sensitive(cols, sizes)
        assert len(tuples) == int(np.prod(sizes))
        assert codes.min() >= 1 and codes.max() <= len(tuples)
        assert [tuples[int(v) - 1] for v in codes] == rows
