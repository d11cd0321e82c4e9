"""The cache of parsed tables behind ``load_dataset`` and ``clustering_view``.

A load whose spec, source bytes, loader code and versions match an entry
written by an earlier parse reads that entry: the arrays (bytes, dtype,
strides, flags), the feature names, the sensitive tuples and the log
records must be those of the parse.  Anything else parses again, and a
parse that fails caches nothing.
"""

import dataclasses
import logging
import os
import shutil
import tracemalloc

import pytest

from renyifair import cli, data
from test_data import TEST_ROWS, TRAIN_ROWS
from test_data_reader import LOAD_CASES, VIEW_CASES, mini_spec

LOADERS = {"dataset": data.load_dataset, "view": data.clustering_view}


def entry(tmp_path, spec, kind):
    return tmp_path / ".renyifair-cache" / f"{spec.name}.{kind}"


def count_parses(monkeypatch):
    """The number of times a source file is read, one entry per read."""
    reads = []
    read_file = data._read_file
    monkeypatch.setattr(data, "_read_file", lambda *a: reads.append(a[0]) or read_file(*a))
    return reads


def array_facts(a):
    return (a.dtype, a.shape, a.strides, a.flags.c_contiguous, a.flags.writeable,
            a.flags.owndata, a.tobytes())


def facts(kind, got):
    """Everything a caller can see of a load's result."""
    if kind == "view":
        return [array_facts(a) for a in got]
    arrays = [array_facts(getattr(getattr(got, part), name)) for part in ("train", "test")
              for name in ("features", "labels", "sensitive")]
    types = [type(got.feature_names), *map(type, got.feature_names),
             type(got.sensitive_tuples), *map(type, got.sensitive_tuples),
             *(type(v) for t in got.sensitive_tuples for v in t)]
    sizes = [(b.n_classes, b.n_groups) for b in (got.train, got.test)]
    return arrays, got.feature_names, got.sensitive_tuples, types, sizes


def records(caplog):
    return [(r.name, r.levelno, r.msg, r.args, r.getMessage()) for r in caplog.records]


def load(kind, spec, tmp_path):
    return LOADERS[kind](spec, root=str(tmp_path))


# Among them padded_quoted_tokens, whose quoted number takes the text
# re-read, german, whose sensitive column is derived, and
# mini_derived_feature, whose clustering feature is.
CASES = [("dataset", case) for case in sorted(LOAD_CASES)] + [
    ("view", case) for case in sorted(VIEW_CASES)]


class TestHitEqualsMiss:
    @pytest.mark.parametrize("kind, case", CASES)
    def test_same_arrays_names_tuples_and_records(self, kind, case, tmp_path, monkeypatch,
                                                  caplog):
        spec = (LOAD_CASES if kind == "dataset" else VIEW_CASES)[case](tmp_path)
        caplog.set_level(logging.DEBUG)
        reads = count_parses(monkeypatch)
        cold = load(kind, spec, tmp_path)
        cold_log = records(caplog)
        assert reads and entry(tmp_path, spec, kind).is_file()
        parsed = len(reads)
        caplog.clear()
        warm = load(kind, spec, tmp_path)
        assert len(reads) == parsed  # the hit read no source file
        assert records(caplog) == cold_log
        assert facts(kind, warm) == facts(kind, cold)

    def test_a_hit_allocates_each_array_once(self, tmp_path):
        spec = LOAD_CASES["census_wide_tiny"](tmp_path)
        data.load_dataset(spec, root=str(tmp_path))
        tracemalloc.start()
        try:
            enc = data.load_dataset(spec, root=str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(getattr(b, name).nbytes for b in (enc.train, enc.test)
                   for name in ("features", "labels", "sensitive"))
        assert held < peak < held + 256 * 1024


def rewrite_one_byte(path, old, new):
    """Change one byte of ``path`` and keep its size and its times."""
    stat = os.stat(path)
    text = path.read_bytes()
    assert len(old) == len(new) == 1 and text.count(old) >= 1
    path.write_bytes(text.replace(old, new, 1))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns


class TestInvalidation:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("name", ["mini_train.csv", "mini_test.csv"])
    def test_one_source_byte_changed_is_a_miss(self, kind, name, tmp_path, monkeypatch):
        # The view takes every pooled row, so each age moves its moments.
        spec = dataclasses.replace(mini_spec(tmp_path), clustering_samples=0)
        before = load(kind, spec, tmp_path)
        rewrite_one_byte(tmp_path / name, b"3", b"4")
        reads = count_parses(monkeypatch)
        after = load(kind, spec, tmp_path)
        assert reads
        assert facts(kind, after) != facts(kind, before)
        monkeypatch.setattr(data, "_read_entry", lambda path, key: None)
        assert facts(kind, load(kind, spec, tmp_path)) == facts(kind, after)

    @pytest.mark.parametrize("kind, change", [
        ("dataset", {"normalization": "none"}), ("dataset", {"positive_label": "<=50K"}),
        ("view", {"clustering_seed": 4}), ("view", {"clustering_samples": 3})])
    def test_changed_spec_field_is_a_miss(self, kind, change, tmp_path, monkeypatch):
        spec = mini_spec(tmp_path)
        before = load(kind, spec, tmp_path)
        reads = count_parses(monkeypatch)
        changed = dataclasses.replace(spec, **change)
        after = load(kind, changed, tmp_path)
        assert reads and facts(kind, after) != facts(kind, before)
        # One entry per spec name and loader: the changed spec's replaced it.
        assert os.listdir(tmp_path / ".renyifair-cache") == [f"mini.{kind}"]
        del reads[:]
        assert facts(kind, load(kind, spec, tmp_path)) == facts(kind, before)
        assert reads

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_changed_loader_code_is_a_miss(self, kind, tmp_path, monkeypatch):
        spec = mini_spec(tmp_path)
        before = load(kind, spec, tmp_path)
        code = tmp_path / "data_copy.py"
        code.write_bytes(open(data.__file__, "rb").read() + b"\n")
        monkeypatch.setattr(data, "__file__", str(code))
        reads = count_parses(monkeypatch)
        assert facts(kind, load(kind, spec, tmp_path)) == facts(kind, before)
        assert reads


class TestBadEntries:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("cut", [1, 100, "header", "all"])
    def test_truncated_entry_is_rebuilt(self, kind, cut, tmp_path, monkeypatch):
        spec = mini_spec(tmp_path)
        want = facts(kind, load(kind, spec, tmp_path))
        path = entry(tmp_path, spec, kind)
        whole = path.read_bytes()
        keep = len(whole) - cut if isinstance(cut, int) else {
            "header": len(data._MAGIC) + 8 + 10, "all": 0}[cut]
        path.write_bytes(whole[:keep])
        reads = count_parses(monkeypatch)
        assert facts(kind, load(kind, spec, tmp_path)) == want
        assert reads and path.read_bytes() == whole

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_foreign_entry_is_rebuilt(self, kind, tmp_path, monkeypatch):
        spec = mini_spec(tmp_path)
        want = facts(kind, load(kind, spec, tmp_path))
        path = entry(tmp_path, spec, kind)
        whole = path.read_bytes()
        other = "view" if kind == "dataset" else "dataset"
        load(other, spec, tmp_path)
        # Another loader's entry (another key), this entry with a byte more,
        # then bytes of no entry at all.
        for foreign in (entry(tmp_path, spec, other).read_bytes(), whole + b"\0",
                        b"not an entry\n" * 100):
            path.write_bytes(foreign)
            reads = count_parses(monkeypatch)
            assert facts(kind, load(kind, spec, tmp_path)) == want
            assert reads and path.read_bytes() == whole

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_unwritable_cache_directory_gives_the_same_result(self, kind, tmp_path,
                                                              monkeypatch):
        spec = mini_spec(tmp_path)
        want = facts(kind, load(kind, spec, tmp_path))
        shutil.rmtree(tmp_path / ".renyifair-cache")
        # A file where the directory should be: no entry can be written.
        (tmp_path / ".renyifair-cache").write_text("")
        reads = count_parses(monkeypatch)
        for _ in range(2):
            assert facts(kind, load(kind, spec, tmp_path)) == want
        assert len(reads) == 4  # both files, twice
        assert (tmp_path / ".renyifair-cache").read_text() == ""

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_refused_temporary_file_or_move_writes_nothing(self, kind, tmp_path, monkeypatch):
        spec = mini_spec(tmp_path)
        want = facts(kind, load(kind, spec, tmp_path))
        shutil.rmtree(tmp_path / ".renyifair-cache")

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")
        for module, name in ((data.tempfile, "mkstemp"), (data.os, "replace")):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, refuse)
                assert facts(kind, load(kind, spec, tmp_path)) == want
            assert os.listdir(tmp_path / ".renyifair-cache") == []


class TestErrors:
    """A parse that fails raises what it always raised and caches nothing."""

    def check(self, load_spec, tmp_path, error, message):
        with pytest.raises(error) as raised:
            load_spec()
        assert str(raised.value) == message
        cache = tmp_path / ".renyifair-cache"
        assert not cache.exists() or os.listdir(cache) == []

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_missing_file(self, kind, tmp_path):
        spec = mini_spec(tmp_path)
        (tmp_path / "mini_test.csv").unlink()
        self.check(lambda: load(kind, spec, tmp_path), tmp_path, FileNotFoundError,
                   f"[Errno 2] No such file or directory: '{tmp_path / 'mini_test.csv'}'")

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_row_of_the_wrong_width(self, kind, tmp_path, monkeypatch):
        spec = mini_spec(tmp_path, train_rows=TRAIN_ROWS.replace("Male, >50K", "Male, x, >50K", 1))
        self.check(lambda: load(kind, spec, tmp_path), tmp_path, ValueError,
                   f"{tmp_path / 'mini_train.csv'}: row 3 has 5 fields, expected 4")
        (tmp_path / "mini_train.csv").write_text(TRAIN_ROWS)
        reads = count_parses(monkeypatch)
        load(kind, spec, tmp_path)
        assert reads and entry(tmp_path, spec, kind).is_file()

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_spec_without_its_files(self, kind, tmp_path):
        spec = dataclasses.replace(mini_spec(tmp_path), train_file="")
        self.check(lambda: load(kind, spec, tmp_path), tmp_path, ValueError,
                   "spec 'mini': split 'files' needs train_file")

    @pytest.mark.parametrize("kind, key", [("dataset", "positive_label"),
                                           ("view", "clustering_sensitive_positive")])
    def test_error_after_a_log_record(self, kind, key, tmp_path, caplog):
        # The records of the parse up to the error are logged, as they always were.
        spec = dataclasses.replace(mini_spec(tmp_path), **{key: "nobody"})
        caplog.set_level(logging.DEBUG)
        rows = "training row" if kind == "dataset" else "row"
        column = "income" if kind == "dataset" else "sex"
        self.check(lambda: load(kind, spec, tmp_path), tmp_path, ValueError,
                   f"mini: {key} 'nobody' matches no {rows} in column '{column}'")
        assert [r.getMessage() for r in caplog.records] == [
            "mini: dropped 1 rows with missing values"] + [
            "mini: 1 unseen 'workclass' tokens in test mapped to the unseen bucket"] * (
            kind == "dataset")


class TestLogs:
    def test_dropped_rows_and_unseen_tokens_replayed(self, tmp_path, caplog):
        # A '?' row is dropped; the test split holds a workclass and a sex
        # that training lacks.
        spec = mini_spec(tmp_path)
        (tmp_path / "mini_test.csv").write_text(TEST_ROWS.replace("Male", "Other"))
        caplog.set_level(logging.DEBUG)
        runs = []
        for _ in range(2):
            caplog.clear()
            data.load_dataset(spec, root=str(tmp_path))
            runs.append(records(caplog))
        assert runs[0] == runs[1]
        assert [(name, level, message) for name, level, _, _, message in runs[0]] == [
            ("renyifair.data", logging.INFO, "mini: dropped 1 rows with missing values"),
            ("renyifair.data", logging.WARNING,
             "mini: 1 unseen 'workclass' tokens in test mapped to the unseen bucket"),
            ("renyifair.data", logging.WARNING,
             "mini: unseen sensitive tokens ['Other'] mapped to group 1"),
        ]

    def test_cli_prints_the_same_stderr_cold_and_warm(self, tmp_path, monkeypatch, capsys):
        spec = mini_spec(tmp_path)
        monkeypatch.setenv("RENYIFAIR_DATA", str(tmp_path))
        config = tmp_path / "cfg.json"
        config.write_text('{"dataset": "%s", "lambda_grid": [0.0], "iters": 3, "seeds": [0],'
                          ' "fairness_mode": "dp_binary"}' % (tmp_path / "spec.txt"))
        runs = []
        for out in ("cold", "warm"):
            assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / out),
                             "--log-level", "INFO"]) == 0
            runs.append(capsys.readouterr().err)
            assert entry(tmp_path, spec, "dataset").is_file()
        assert runs[0] == runs[1]
        assert "INFO renyifair.data: mini: dropped 1 rows with missing values\n" in runs[0]
        assert ((tmp_path / "cold" / "sweep.csv").read_bytes()
                == (tmp_path / "warm" / "sweep.csv").read_bytes())
