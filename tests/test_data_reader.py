"""The dataset reader against its reference, and the errors it raises.

``load_dataset`` and ``clustering_view`` must give the arrays, dtypes,
feature names, sensitive tuples and log records of the reference reader in
``oracles`` on every fixture format the shipped specs cover; malformed
specs, rows and positive tokens must fail with a message that names them.
"""

import dataclasses
import gc
import importlib.util
import logging
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from renyifair import data
from test_data import ADULT_LIKE_SPEC, TEST_ROWS, TRAIN_ROWS
from test_dataset_specs import BANK_HEADER, fake_adult_row, fake_bank_row, fake_german_row

REPO = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((REPO / "specs").glob("*.spec")) + sorted(
    (REPO / "perfbench" / "specs").glob("*.spec"))


def _import_gen_table():
    # The benchmark's table generator, loaded by path: perfbench/ is not a package.
    where = importlib.util.spec_from_file_location("gen_table", REPO / "perfbench" / "gen_table.py")
    module = importlib.util.module_from_spec(where)
    where.loader.exec_module(module)
    return module


gen_table = _import_gen_table()


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


def with_key(spec_text, key, value):
    """``spec_text`` with ``key = value``: the key's line replaced, or one appended."""
    line = f"{key} = {value}\n"
    text, found = re.subn(rf"^{key} = .*\n", line, spec_text, flags=re.M)
    return text if found else spec_text + line


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


def rewritten(edit, files=("mini_train.csv", "mini_test.csv")):
    """The mini fixture with ``edit`` applied to the text of ``files``, newlines untranslated."""
    def build(tmp_path):
        spec = mini_spec(tmp_path)
        for name in files:
            path = tmp_path / name
            path.write_text(edit(path.read_text()), newline="")
        return spec
    return build


def skip_short_header(tmp_path):
    # Two skipped lines: one of a single field, one of two; row 3 is the first record.
    rows = "\n".join(f"{i}, {'x' if i % 2 else 'y'}, {'1' if i % 3 else '2'}" for i in range(20))
    (tmp_path / "all.csv").write_text("# export\nv, cat\n" + rows + "\n")
    (tmp_path / "spec.txt").write_text(
        "name = s\ncolumns = v cat cls\nlabel = cls\npositive_label = 2\n"
        "sensitive = cat\ncategorical = cat\nfile = all.csv\nskip_rows = 2\n"
        "split = head\ntrain_count = 15\ntest_count = 5\nclustering_features = v\n"
        "clustering_sensitive = cat\nclustering_sensitive_positive = x\n")
    return data.parse_spec(tmp_path / "spec.txt")


def census(name, **changes):
    # A tiny table from the benchmark's generator: about 2% of rows hold '?',
    # and the test split, twice the training one, holds categories it lacks.
    def build(tmp_path):
        gen_table.generate(3, str(tmp_path), n_train=200, n_test=400)
        return dataclasses.replace(
            data.parse_spec(REPO / "perfbench" / "specs" / f"{name}.spec"), **changes)
    return build


# Padding that str.strip removes around a token; float skips all but the
# \x1c-\x1f separators, which only the stripped route accepts.
PADDED_ROWS = (" 39\t,\tState-gov , Male, <=50K\n"
               "50\u2003,\u3000Self-emp, Female , >50K\n"
               "\x1c38\xa0, Private\t, Male\u2009, >50K\n"
               "  28  ,Private, Female, <=50K\t\n"
               "45\x1f,State-gov,Male,<=50K\n"
               "36, ?, Male, >50K\n")


def padded(quoted):
    def build(tmp_path):
        rows = PADDED_ROWS
        if quoted:
            rows = rows.replace("  28  ,", '"28",').replace(",Private,", ',"Private",')
        return mini_spec(tmp_path, train_rows=rows)
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
    "crlf": rewritten(lambda t: t.replace("\n", "\r\n")),
    "crlf_train_only": rewritten(lambda t: t.replace("\n", "\r\n"), files=("mini_train.csv",)),
    "cr_only": rewritten(lambda t: t.replace("\n", "\r")),
    "no_final_newline": rewritten(lambda t: t.rstrip("\n")),
    "blank_lines_mid_file": rewritten(lambda t: t.replace("\n", "\n\n   \n\t\n\n", 1)),
    "missing_token_inside_longer_tokens": rewritten(
        lambda t: t.replace("State-gov", "State?gov").replace("Private", "??")),
    "missing_token_quoted": rewritten(lambda t: t.replace(" ?,", ' "?",'),
                                      files=("mini_train.csv",)),
    "skip_rows_short_header": skip_short_header,
    "padded_tokens": padded(quoted=False),
    "padded_quoted_tokens": padded(quoted=True),
    "tab_padded_both_files": rewritten(lambda t: t.replace(", ", " ,\t")),
    "census_wide_tiny": census("census_wide"),
    "census_wide_pair_tiny": census("census_wide_pair"),
}


def mini_derived_feature(tmp_path):
    # A clustering feature derived from the age column: 1 for two of its tokens.
    return dataclasses.replace(mini_spec(tmp_path), clustering_features=("older", "age"),
                               derive=(data.DeriveRule("older", "age", ("50", "45")),))


VIEW_CASES = {
    "adult": shipped("adult", adult_files, clustering_samples=200),
    "bank": shipped("bank", bank_file, clustering_samples=200),
    # Whitespace-delimited, with a derived sensitive column.
    "german": shipped("german", german_file, clustering_features=("duration", "amount", "age"),
                      clustering_sensitive="gender", clustering_sensitive_positive="1",
                      clustering_samples=300),
    "mini_derived_feature": mini_derived_feature,
    "mini": mini_spec,
    "mini_quoted": mini_quoted,
    **{case: LOAD_CASES[case] for case in (
        "crlf", "crlf_train_only", "cr_only", "no_final_newline", "blank_lines_mid_file",
        "missing_token_inside_longer_tokens", "missing_token_quoted", "skip_rows_short_header",
        "padded_tokens", "padded_quoted_tokens")},
    "census_wide_tiny": census("census_wide", clustering_samples=200),
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
        assert got.train.n_groups == got.test.n_groups == len(want.sensitive_tuples)

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


class TestNoReferenceCycles:
    """The reader leaves no reference cycles, so a load's tokens are freed as it
    returns rather than at some later cyclic collection, where they would sit
    under the next load of a sweep and raise its peak memory."""

    @pytest.mark.parametrize("case", ["bank", "census_wide_tiny", "german", "mini_quoted"])
    def test_load_and_view_leave_no_garbage(self, case, tmp_path):
        runs = [(data.load_dataset, LOAD_CASES[case](tmp_path))]
        if case in VIEW_CASES:
            runs.append((data.clustering_view, VIEW_CASES[case](tmp_path)))
        gc.collect()
        gc.disable()
        try:
            for load, spec in runs:
                load(spec, root=str(tmp_path))
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestOneCopyAtATime:
    """``load_dataset`` lets go of its lines and tokens before it allocates the
    feature matrices, and ``Batch`` takes those over without a copy, so what a
    load allocates on top of its result stays below one copy of the matrices."""

    def test_transient_memory_below_one_matrix_copy(self, tmp_path):
        gen_table.generate(3, str(tmp_path), n_train=2000, n_test=1000)
        spec = data.parse_spec(REPO / "perfbench" / "specs" / "census_wide.spec")
        gc.collect()
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            got = data.load_dataset(spec, root=str(tmp_path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < got.train.features.nbytes + got.test.features.nbytes


class TestSpecKeys:
    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
    def test_every_shipped_spec_parses(self, path):
        assert data.parse_spec(path).columns

    def test_unknown_keys_named_with_the_file(self, tmp_path):
        text = ADULT_LIKE_SPEC.replace("categorical =", "catgorical =") + "colour = red\n"
        (tmp_path / "typo.spec").write_text(text)
        with pytest.raises(ValueError, match=r"typo\.spec: unknown spec keys catgorical, colour"):
            data.parse_spec(tmp_path / "typo.spec")

    def test_repeated_key_named_with_the_file(self, tmp_path):
        assert "\nsensitive = sex\n" in ADULT_LIKE_SPEC
        (tmp_path / "twice.spec").write_text(ADULT_LIKE_SPEC + "sensitive = sex\n")
        with pytest.raises(ValueError, match=r"twice\.spec: repeated spec key sensitive$"):
            data.parse_spec(tmp_path / "twice.spec")

    @pytest.mark.parametrize("key", ["clustering_features", "clustering_sensitive"])
    def test_undeclared_clustering_column_rejected(self, tmp_path, key):
        (tmp_path / "s.spec").write_text(with_key(ADULT_LIKE_SPEC, key, "agee"))
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
        (tmp_path / "num.spec").write_text(with_key(ADULT_LIKE_SPEC, key, value))
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


# A value other than the default for every DatasetSpec field, valid together.
NON_DEFAULT_SPEC = data.DatasetSpec(
    name="every-key", columns=("a", "b", "c", "d"), label="c", positive_label="yes",
    sensitive=("b", "e"), categorical=("a",), drop=("d",),
    derive=(data.DeriveRule("e", "d", ("x", "y")), data.DeriveRule("f", "e", ("1",))),
    sensitive_positive=("m",), delimiter="semicolon", split="fraction", file="all.csv",
    train_file="train.csv", test_file="test.csv", train_count=7, test_count=3,
    train_fraction=0.625, split_seed=11, skip_rows=2, test_skip_rows=1, missing_token="NA",
    missing_policy="keep", normalization="none", strip_label_period=True,
    clustering_features=("a", "f"), clustering_samples=50, clustering_sensitive="e",
    clustering_sensitive_positive="1", clustering_seed=5)
REQUIRED_KEYS = "columns = a b\nlabel = a\npositive_label = 1\nsensitive = b\n"


def spec_line(name, value):
    if isinstance(value, bool):
        value = "yes" if value else "no"
    elif isinstance(value, tuple):
        value = " ".join(f"{v.name}:{v.source}:{'|'.join(v.positive_tokens)}"
                         if isinstance(v, data.DeriveRule) else v for v in value)
    return f"{name} = {value}\n"


class TestSpecFieldTypes:
    """``parse_spec`` reads each key by its ``DatasetSpec`` field's type and
    leaves an absent key to the field's default."""

    def test_every_field_round_trips(self, tmp_path):
        for f in dataclasses.fields(data.DatasetSpec):
            assert getattr(NON_DEFAULT_SPEC, f.name) != f.default, f.name
        text = "".join(spec_line(f.name, getattr(NON_DEFAULT_SPEC, f.name))
                       for f in dataclasses.fields(data.DatasetSpec))
        (tmp_path / "all.spec").write_text(text)
        assert data.parse_spec(tmp_path / "all.spec") == NON_DEFAULT_SPEC

    def test_absent_keys_take_the_field_defaults(self, tmp_path):
        (tmp_path / "least.spec").write_text(REQUIRED_KEYS)
        spec = data.parse_spec(tmp_path / "least.spec")
        assert (spec.name, spec.columns, spec.label, spec.positive_label, spec.sensitive) == (
            "least.spec", ("a", "b"), "a", "1", ("b",))
        for f in dataclasses.fields(data.DatasetSpec):
            if f.default is not dataclasses.MISSING:
                assert getattr(spec, f.name) == f.default, f.name

    @pytest.mark.parametrize("line", ["", "weights = a:1\n"])
    def test_field_of_an_unread_type_is_an_error(self, tmp_path, monkeypatch, line):
        @dataclasses.dataclass(frozen=True)
        class WeightedSpec(data.DatasetSpec):
            weights: dict = dataclasses.field(default_factory=dict)

        monkeypatch.setattr(data, "DatasetSpec", WeightedSpec)
        (tmp_path / "w.spec").write_text(REQUIRED_KEYS + line)
        with pytest.raises(TypeError, match=r"^DatasetSpec\.weights has type <class 'dict'>, "
                                            r"which parse_spec cannot read$"):
            data.parse_spec(tmp_path / "w.spec")


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

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("skip, header", [(0, ""), (2, "# export\nage, sex\n")])
    @pytest.mark.parametrize("short, fields", [("38, Private, Male", 3),
                                               ("38, Private, Male, >50K, x", 5)])
    def test_wrong_width_after_blank_lines_names_physical_row(self, tmp_path, newline, skip,
                                                             header, short, fields):
        rows = header + TRAIN_ROWS.replace("38, Private, Male, >50K", "\n  \n" + short)
        spec = dataclasses.replace(mini_spec(tmp_path), skip_rows=skip)
        (tmp_path / "mini_train.csv").write_text(rows.replace("\n", newline), newline="")
        # Rows 1-2, a blank and a whitespace-only line, then the bad row.
        for load in (data.load_dataset, data.clustering_view):
            with pytest.raises(ValueError, match=rf"mini_train\.csv: row {5 + skip} has "
                                                 rf"{fields} fields, expected 4$"):
                load(spec, root=str(tmp_path))

    def test_spec_without_feature_columns_rejected(self, tmp_path):
        spec = dataclasses.replace(mini_spec(tmp_path), drop=("age", "workclass"))
        with pytest.raises(ValueError, match=r"^mini: no feature columns \(every column is "
                                             r"the label, a sensitive column or dropped\)$"):
            data.load_dataset(spec, root=str(tmp_path))

    def test_whitespace_delimited_ragged_row_names_file_and_row(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = [fake_german_row(rng) for _ in range(30)]
        rows[3] = rows[3].rsplit(" ", 1)[0]
        (tmp_path / "german.data").write_text("\n".join(rows[:2] + ["", "  "] + rows[2:]) + "\n")
        with pytest.raises(ValueError, match=r"german\.data: row 6 has 20 fields, expected 21$"):
            data.load_dataset(REPO / "specs" / "german.spec", root=str(tmp_path))


class TestQuotes:
    """The reader splits lines without parsing quotes.  A field that opens
    with a quote reads as one quoted run followed by blanks, as the CSV
    reference reads it; quoting beyond that fails loudly."""

    @pytest.mark.parametrize("row", [
        '38, Private,"Ma""le", >50K', '38, Private,"Ma"le, >50K',
        '"3""8", Private, Male, >50K', '"3"8, Private, Male, >50K', '38, Private,", >50K'])
    def test_misquoted_field_named(self, tmp_path, row):
        spec = mini_spec(tmp_path, train_rows=TRAIN_ROWS.replace("38, Private, Male, >50K", row))
        token = next(t for t in row.split(",") if t.startswith('"'))
        for load in (data.load_dataset, data.clustering_view):
            with pytest.raises(ValueError, match=re.escape(
                    f"quoted field {token!r} is not one quoted run followed by blanks")):
                load(spec, root=str(tmp_path))

    @pytest.mark.parametrize("quoted, fields", [('"Pri,vate"', 5), ('"Pri\nvate"', 2)])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_delimiter_or_line_break_inside_quotes_names_file_and_row(
            self, tmp_path, quoted, fields, newline):
        rows = TRAIN_ROWS.replace("38, Private,", f"38,{quoted},").replace("\n", newline)
        spec = mini_spec(tmp_path)
        (tmp_path / "mini_train.csv").write_text(rows, newline="")
        for load in (data.load_dataset, data.clustering_view):
            with pytest.raises(ValueError, match=rf"^\S*mini_train\.csv: row 3 has {fields} fields, "
                                                 rf"expected 4 \(a quoted field may hold the "
                                                 rf"delimiter or a line break\)$"):
                load(spec, root=str(tmp_path))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    @pytest.mark.parametrize("quote", ["", '"'])
    def test_ragged_row_names_its_physical_row_under_any_line_end(self, tmp_path, newline,
                                                                  quote):
        rows = TRAIN_ROWS.replace("Self-emp", f"{quote}Self-emp{quote}").replace(
            "38, Private, Male, >50K", "\n\n38, Private, Male")
        spec = mini_spec(tmp_path)
        (tmp_path / "mini_train.csv").write_text(rows.replace("\n", newline), newline="")
        note = " (a quoted field may hold the delimiter or a line break)" if quote else ""
        for load in (data.load_dataset, data.clustering_view):
            with pytest.raises(ValueError) as got:
                load(spec, root=str(tmp_path))
            assert str(got.value).endswith(f"mini_train.csv: row 5 has 3 fields, expected 4{note}")

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace(" Private,", '" Private ",'), lambda t: t.replace(" Male,", '"Male"\t,'),
        lambda t: t.replace(" Private,", '"",'), lambda t: t.replace("28,", '" 28 ",'),
        lambda t: t.replace(" Female,", ' " Female ",')])
    def test_quoted_runs_match_the_reference(self, tmp_path, edit):
        # Blanks inside the quotes are stripped, as the CSV reference strips
        # its fields; a quote after a blank is literal there and stripped here.
        spec = rewritten(edit)(tmp_path)
        want = oracles.load_dataset_reference(spec, root=str(tmp_path))
        got = data.load_dataset(spec, root=str(tmp_path))
        for part in ("train", "test"):
            for field in ("features", "labels", "sensitive"):
                assert_same_array(getattr(getattr(got, part), field),
                                  getattr(getattr(want, part), field))
        assert got.feature_names == want.feature_names
        for got_array, want_array in zip(
                data.clustering_view(spec, root=str(tmp_path)),
                oracles.clustering_view_reference(spec, root=str(tmp_path))):
            assert_same_array(got_array, want_array)


# Blanks around tokens: float skips all but the \x1c-\x1f separators, which
# str.strip also removes.
BLANKS = [" ", "\t", "\n", "\xa0", "\u2003", "\u3000", "\x1c", "\x1f", "\x85"]
pads = st.lists(st.sampled_from(BLANKS), max_size=3).map("".join)


@st.composite
def padded_tokens(draw, core):
    token = draw(core)
    if draw(st.booleans()):
        token = f'"{token}"'
    return draw(pads) + token + draw(pads)


def stripped_route(tokens):
    return [t.strip().strip('"') for t in tokens]


class TestTokenRoutes:
    """The whole-column routes against stripping every token, as the reference does."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(padded_tokens(st.floats(allow_nan=False).map(repr)
                                  | st.integers(-10**6, 10**6).map(str)), max_size=12))
    def test_numeric_same_bits_as_stripped_tokens(self, tokens):
        spec = data.DatasetSpec(name="n", columns=("v",), label="v", positive_label="",
                                sensitive=("v",))
        want = np.array([float(t) for t in stripped_route(tokens)])
        assert_same_array(data._numeric(tokens, spec, "v"), want)

    @pytest.mark.parametrize("bad", ["4o", " 4o\t", '"4o"', '\u2003 "4o"', "\x1c4o"])
    def test_bad_numeric_token_raises_the_reference_message(self, tmp_path, bad):
        spec = mini_spec(tmp_path, train_rows=TRAIN_ROWS.replace("50,", bad + ","))
        with pytest.raises(ValueError) as want:
            oracles.load_dataset_reference(spec, root=str(tmp_path))
        for load in (data.load_dataset, data.clustering_view):
            with pytest.raises(ValueError) as got:
                load(spec, root=str(tmp_path))
            assert str(got.value) == str(want.value) == (
                "mini: non-numeric token in column 'age': could not convert string to "
                "float: '4o'")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(padded_tokens(st.sampled_from(["a", "b", "?", "a b", "", ">50K."])),
                    max_size=20),
           st.sets(st.sampled_from(["a", "b", "?", "a b", "", ">50K."])))
    def test_codes_match_stripping_every_token(self, tokens, known):
        index = {tok: i + 3 for i, tok in enumerate(sorted(known))}
        want = np.array([index.get(t, 0) for t in stripped_route(tokens)], dtype=np.int64)
        assert_same_array(data._encode(tokens, index, 0), want)
        assert data._distinct(tokens) == dict(zip(tokens, stripped_route(tokens)))


# Numeric tokens in the grammar of float and beyond it: signs, exponents,
# nan/inf, overflow to inf, underscores and non-ASCII digits (which float
# takes and numpy's C reader refuses), blanks and malformed tokens.
NUMERIC_CORES = (st.floats().map(repr) | st.integers(-10**30, 10**30).map(str)
                 | st.sampled_from(["+7", "-0", "-0.0", ".5", "5.", "1E5", "-2.5e-3", "NaN", "-nan",
                                    "+Infinity", "-iNF", "1e999", "-1e400", "1e-400", "1_0",
                                    "-1_000.5", "\u0661\u0662", "\uff13.5", "", "4o", "1e", "--1",
                                    "0x10"]))
# Blanks str.strip removes that can sit inside a line: no \n, \r or delimiter.
LINE_BLANKS = [" ", "\t", "\x0b", "\xa0", "\u2003", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f",
               "\x85"]
line_pads = st.lists(st.sampled_from(LINE_BLANKS), max_size=2).map("".join)
NUMERIC_SPEC = data.DatasetSpec(name="n", columns=("a", "b", "c"), label="b", positive_label="",
                                sensitive=("b",))


@st.composite
def numeric_grid(draw):
    """Rows of three fields, once as lines and once as field rows that
    quote some tokens inside their blanks; both strip to the same core."""
    lines, rows = [], []
    for _ in range(draw(st.integers(0, 6))):
        fields = [(draw(line_pads), draw(NUMERIC_CORES), draw(line_pads), draw(st.booleans()))
                  for _ in range(3)]
        lines.append(",".join(a + core + b for a, core, b, _ in fields))
        rows.append([a + (f'"{core}"' if quoted else core) + b for a, core, b, quoted in fields])
    return lines, rows


WHITESPACE_SPEC = dataclasses.replace(NUMERIC_SPEC, delimiter="whitespace")


@st.composite
def whitespace_grid(draw):
    """Lines of three nonempty cores split by runs of blanks, blanks around."""
    runs = st.lists(st.sampled_from(LINE_BLANKS), min_size=1, max_size=2).map("".join)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        a, b, c = (draw(NUMERIC_CORES.filter(bool)) for _ in range(3))
        lines.append(draw(line_pads) + a + draw(runs) + b + draw(runs) + c + draw(line_pads))
    return lines


def split_columns(lines, spec, names):
    """Raw tokens of each column in ``names``, split by ``str.split``."""
    fields = [line.split(data._DELIMITERS[spec.delimiter]) for line in lines]
    return {name: [row[spec.columns.index(name)] for row in fields] for name in names}


def refuse_numbers(monkeypatch):
    """Make ``np.loadtxt`` refuse every read that holds a float64 field, so
    each split takes the reader's text re-read (the token route)."""
    loadtxt = np.loadtxt

    def refuse(*args, **kwargs):
        dtype = np.dtype(kwargs["dtype"])
        if any(dtype.fields[name][0].base == np.float64 for name in dtype.names):
            raise ValueError("a float64 field, refused by the test")
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", refuse)


class TestReadColumns:
    """``_read_columns`` through numpy's C reader and through its text re-read
    (the token route): the reference's bits and error message either way,
    and the raw tokens of the token columns read beside the numbers."""

    @settings(max_examples=400, deadline=None)
    @given(numeric_grid())
    def test_matches_reference_bits_and_message(self, grid):
        lines, rows = grid
        names = ["c", "a"]
        try:
            want = oracles.numeric_columns_reference(rows, NUMERIC_SPEC, names)
        except ValueError as exc:
            want = str(exc)
        for records in (lines, [",".join(row) for row in rows]):
            if isinstance(want, str):
                with pytest.raises(ValueError) as got:
                    data._read_columns([records], NUMERIC_SPEC, names, ["b"])
                assert str(got.value) == want
            else:
                [(values, tokens)] = data._read_columns([records], NUMERIC_SPEC, names, ["b"])
                assert_same_array(values, want)
                assert list(tokens["b"]) == split_columns(records, NUMERIC_SPEC, ["b"])["b"]

    @settings(max_examples=400, deadline=None)
    @given(whitespace_grid())
    def test_whitespace_matches_reference_bits_and_message(self, lines):
        # numpy's C reader splits on the blanks that str.split splits on,
        # for the numbers and for the raw tokens alike.
        names = ["c", "a"]
        _, raw = data._c_reader(lines, WHITESPACE_SPEC, [], ["b", "c", "a"])
        assert {name: tokens.tolist() for name, tokens in raw.items()} == split_columns(
            lines, WHITESPACE_SPEC, ["b", "c", "a"])
        try:
            want = oracles.numeric_columns_reference(
                [line.split() for line in lines], WHITESPACE_SPEC, names)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                data._read_columns([lines], WHITESPACE_SPEC, names, ["b"])
            assert str(got.value) == str(exc)
        else:
            [(values, _)] = data._read_columns([lines], WHITESPACE_SPEC, names, ["b"])
            assert_same_array(values, want)

    @staticmethod
    def record_loads(monkeypatch):
        """The fields of each ``np.loadtxt`` call from here on: the width of
        its float64 subarray field (0 when it has none) and the number of
        object fields after it, one per source column read as raw text."""
        calls = []
        loadtxt = np.loadtxt

        def record(*args, **kwargs):
            dtype = np.dtype(kwargs["dtype"])
            fields = [dtype.fields[name][0] for name in dtype.names]
            width = fields.pop(0).shape[0] if fields[0].base == np.float64 else 0
            assert all(field == np.dtype(object) for field in fields)
            assert len(kwargs["usecols"]) == width + len(fields)
            calls.append((width, len(fields)))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", record)
        return calls

    @pytest.mark.parametrize("case, loads", [
        ("mini", [(1, 1)]), ("census_wide_tiny", [(5, 1)]),
        ("padded_tokens", [(1, 1)]), ("mini_quoted", [(1, 1)]),
        ("crlf", [(1, 1)]), ("german", [(3, 1)]),
        ("mini_derived_feature", [(1, 2)])])
    def test_view_takes_the_c_reader_on_lines_only(self, case, loads, tmp_path, monkeypatch):
        # The features and the sensitive column take one structured C read,
        # quoted files and \r line ends too.  A derived column (german's
        # sensitive one, mini_derived_feature's feature) is read as its
        # source column's raw tokens in that same read.
        spec = VIEW_CASES[case](tmp_path)
        calls = self.record_loads(monkeypatch)
        data.clustering_view(spec, root=str(tmp_path))
        assert calls == loads

    @pytest.mark.parametrize("edit", [lambda t: t.replace("28,", '"28",'),
                                      lambda t: t.replace("39,", "3_9,"),
                                      lambda t: t.replace("50,", "1_000,")])
    def test_refused_row_takes_the_two_routes(self, edit, tmp_path, monkeypatch, caplog):
        # A feature token the C reader refuses (a quoted number, an
        # underscore) fails the structured read; one more C read then takes
        # every column as raw text, and float reads the feature.
        spec = rewritten(edit, files=("mini_train.csv",))(tmp_path)
        caplog.set_level(logging.INFO)
        want = oracles.clustering_view_reference(spec, root=str(tmp_path))
        want_log = records(caplog)
        caplog.clear()
        calls = self.record_loads(monkeypatch)
        got = data.clustering_view(spec, root=str(tmp_path))
        assert calls == [(1, 1), (0, 2)]
        assert records(caplog) == want_log
        assert_same_array(got[0], want[0])
        assert_same_array(got[1], want[1])
        typo = dataclasses.replace(spec, clustering_sensitive_positive="nobody")
        with pytest.raises(ValueError, match="^mini: clustering_sensitive_positive 'nobody' "
                                             "matches no row in column 'sex'$"):
            data.clustering_view(typo, root=str(tmp_path))

    def test_load_dataset_reads_each_split_in_one_c_read(self, tmp_path, monkeypatch):
        # Each split's continuous columns, then its categorical, label and
        # sensitive columns as raw text.
        spec = LOAD_CASES["census_wide_tiny"](tmp_path)
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(k["usecols"])
                            or loadtxt(*a, **k))
        data.load_dataset(spec, root=str(tmp_path))
        reserved = (spec.label, *spec.sensitive)
        continuous = [c for c in spec.columns if c not in spec.categorical and c not in reserved]
        categorical = [c for c in spec.columns if c in spec.categorical and c not in reserved]
        usecols = [spec.columns.index(c) for c in [*continuous, *categorical, *reserved]]
        assert calls == [usecols, usecols]

    @pytest.mark.parametrize("case", sorted(LOAD_CASES))
    def test_load_dataset_same_as_the_token_route(self, case, tmp_path, monkeypatch, caplog):
        spec = LOAD_CASES[case](tmp_path)
        typo = dataclasses.replace(spec, positive_label="nobody")
        caplog.set_level(logging.INFO)
        runs = []
        for refused in (False, True):
            if refused:
                refuse_numbers(monkeypatch)
            caplog.clear()
            got = data.load_dataset(spec, root=str(tmp_path))
            with pytest.raises(ValueError) as error:
                data.load_dataset(typo, root=str(tmp_path))
            runs.append((got, records(caplog), str(error.value)))
        (got, got_log, got_error), (want, want_log, want_error) = runs
        for part in ("train", "test"):
            for field in ("features", "labels", "sensitive"):
                assert_same_array(getattr(getattr(got, part), field),
                                  getattr(getattr(want, part), field))
        assert (got.feature_names, got.sensitive_tuples) == (want.feature_names,
                                                             want.sensitive_tuples)
        assert got_log == want_log
        assert got_error == want_error
        assert "positive_label 'nobody' matches no training row" in got_error

    def test_bad_token_in_any_pooled_row_raises(self, tmp_path):
        # The view keeps 4 of the 8 pooled rows; a bad token fails it whether
        # the sample keeps its row or not.
        spec = mini_spec(tmp_path)
        lines = (TRAIN_ROWS + TEST_ROWS).splitlines()
        for k, line in enumerate(lines):
            if "?" in line:
                continue  # the row drop_row removes
            bad = lines[:k] + ["4o" + line[2:]] + lines[k + 1:]
            (tmp_path / "mini_train.csv").write_text("\n".join(bad[:6]) + "\n")
            (tmp_path / "mini_test.csv").write_text("\n".join(bad[6:]) + "\n")
            with pytest.raises(ValueError, match=r"^mini: non-numeric token in column 'age': "
                                                 r"could not convert string to float: '4o'$"):
                data.clustering_view(spec, root=str(tmp_path))

    def test_empty_pooled_view_raises_unmatched_without_numpy_warning(self, tmp_path):
        # Every row holds the missing token, so drop_row leaves no row to parse.
        spec = rewritten(lambda t: t.replace("Male,", "?,").replace("Female,", "?,"))(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^mini: clustering_sensitive_positive 'Male' "
                                                 "matches no row in column 'sex'$"):
                data.clustering_view(spec, root=str(tmp_path))


text_cells = st.tuples(line_pads, st.sampled_from(["Male", "Female", "a b", "", "?", '"x"', "#x"]),
                      line_pads).map("".join)


class TestViewSensitiveColumn:
    """``clustering_view`` reads its sensitive column as raw text, an object
    field of its one C read; the codes must be the text re-read's."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(text_cells, text_cells, text_cells), min_size=1, max_size=8),
           st.permutations(NUMERIC_SPEC.columns))
    def test_c_reader_keeps_the_raw_tokens(self, rows, order):
        # Several object fields in one record, in any column order: the
        # padding stays, as str.split keeps it, and _encode strips it.
        lines = [",".join(row) for row in rows]
        values, raw = data._c_reader(lines, NUMERIC_SPEC, [], order)
        assert values.shape == (len(lines), 0)
        assert {name: tokens.tolist() for name, tokens in raw.items()} == split_columns(
            lines, NUMERIC_SPEC, order)

    @pytest.mark.parametrize("case", ["mini", "padded_tokens", "padded_quoted_tokens",
                                      "mini_quoted", "german", "census_wide_tiny"])
    def test_same_codes_and_error_as_the_token_route(self, case, tmp_path, monkeypatch):
        spec = VIEW_CASES[case](tmp_path)
        typo = dataclasses.replace(spec, clustering_sensitive_positive="nobody")
        got = data.clustering_view(spec, root=str(tmp_path))
        with pytest.raises(ValueError) as got_error:
            data.clustering_view(typo, root=str(tmp_path))
        refuse_numbers(monkeypatch)
        want = data.clustering_view(spec, root=str(tmp_path))
        with pytest.raises(ValueError) as want_error:
            data.clustering_view(typo, root=str(tmp_path))
        assert_same_array(got[0], want[0])
        assert_same_array(got[1], want[1])
        assert str(got_error.value) == str(want_error.value)
        assert "clustering_sensitive_positive 'nobody' matches no row" in str(got_error.value)


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
