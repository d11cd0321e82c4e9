"""Dataset ingestion driven by declarative spec files.

A dataset spec is a plain ``key = value`` text file (see ``specs/`` in the
repository) describing the source files, column roles, categorical columns,
label and sensitive encodings, the train/test split policy, and the
clustering view.  Categorical features are one-hot encoded with category
lists collected from the training split (plus an explicit unseen bucket for
test-time surprises); continuous features are z-scored with training-split
statistics only.  Labels map to {1, 2} with 2 the positive class; sensitive
columns map to {1..d} with 2 the privileged group in the binary case.

Nothing here touches the network: source files are resolved against the
``RENYIFAIR_DATA`` environment variable (default ``./data``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .fairtrain import combine_sensitive
from .model import Batch

logger = logging.getLogger(__name__)

DATA_ROOT_ENV = "RENYIFAIR_DATA"

_DELIMITERS = {"comma": ",", "semicolon": ";", "whitespace": None}
UNSEEN = "<unseen>"


def data_root() -> str:
    return os.environ.get(DATA_ROOT_ENV, os.path.join(os.getcwd(), "data"))


@dataclass(frozen=True)
class DeriveRule:
    """Binary column derived from a source column by token membership."""

    name: str
    source: str
    positive_tokens: tuple[str, ...]


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    columns: tuple[str, ...]
    label: str
    positive_label: str
    sensitive: tuple[str, ...]
    categorical: tuple[str, ...] = ()
    drop: tuple[str, ...] = ()
    derive: tuple[DeriveRule, ...] = ()
    sensitive_positive: tuple[str, ...] = ()
    delimiter: str = "comma"
    split: str = "files"
    file: str = ""
    train_file: str = ""
    test_file: str = ""
    train_count: int = 0
    test_count: int = 0
    train_fraction: float = 0.0
    split_seed: int = 0
    skip_rows: int = 0
    test_skip_rows: int = 0
    missing_token: str = ""
    missing_policy: str = "drop_row"
    normalization: str = "zscore"
    strip_label_period: bool = False
    clustering_features: tuple[str, ...] = ()
    clustering_samples: int = 0
    clustering_sensitive: str = ""
    clustering_sensitive_positive: str = ""
    clustering_seed: int = 0

    def __post_init__(self):
        if self.split not in ("files", "head", "count", "fraction"):
            raise ValueError(f"unknown split policy {self.split!r}")
        if self.missing_policy not in ("drop_row", "keep"):
            raise ValueError(f"unknown missing policy {self.missing_policy!r}")
        if self.normalization not in ("zscore", "none"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.delimiter not in _DELIMITERS:
            raise ValueError(f"unknown delimiter {self.delimiter!r}")
        if not self.sensitive:
            raise ValueError("at least one sensitive column is required")
        known = set(self.columns) | {r.name for r in self.derive}
        for col in (self.label, *self.sensitive, *self.categorical, *self.drop):
            if col not in known:
                raise ValueError(f"column {col!r} not declared in the spec")


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes")


def parse_spec(path) -> DatasetSpec:
    """Read a ``key = value`` dataset spec file."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line (expected key = value): {line!r}")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()

    def words(key: str) -> tuple[str, ...]:
        return tuple(raw.get(key, "").split())

    derive = []
    for item in words("derive"):
        parts = item.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad derive rule {item!r}, expected name:source:tok|tok")
        derive.append(DeriveRule(parts[0], parts[1], tuple(parts[2].split("|"))))

    return DatasetSpec(
        name=raw.get("name", os.path.basename(str(path))),
        columns=words("columns"),
        label=raw.get("label", ""),
        positive_label=raw.get("positive_label", ""),
        sensitive=words("sensitive"),
        categorical=words("categorical"),
        drop=words("drop"),
        derive=tuple(derive),
        sensitive_positive=words("sensitive_positive"),
        delimiter=raw.get("delimiter", "comma"),
        split=raw.get("split", "files"),
        file=raw.get("file", ""),
        train_file=raw.get("train_file", ""),
        test_file=raw.get("test_file", ""),
        train_count=int(raw.get("train_count", 0)),
        test_count=int(raw.get("test_count", 0)),
        train_fraction=float(raw.get("train_fraction", 0.0)),
        split_seed=int(raw.get("split_seed", 0)),
        skip_rows=int(raw.get("skip_rows", 0)),
        test_skip_rows=int(raw.get("test_skip_rows", 0)),
        missing_token=raw.get("missing_token", ""),
        missing_policy=raw.get("missing_policy", "drop_row"),
        normalization=raw.get("normalization", "zscore"),
        strip_label_period=_parse_bool(raw.get("strip_label_period", "false")),
        clustering_features=words("clustering_features"),
        clustering_samples=int(raw.get("clustering_samples", 0)),
        clustering_sensitive=raw.get("clustering_sensitive", ""),
        clustering_sensitive_positive=raw.get("clustering_sensitive_positive", ""),
        clustering_seed=int(raw.get("clustering_seed", 0)),
    )


def _read_rows(path, spec: DatasetSpec, skip: int) -> list[list[str]]:
    delim = _DELIMITERS[spec.delimiter]
    rows = []
    with open(path, newline="") as fh:
        if delim is None:
            reader = (line.split() for line in fh)
        else:
            reader = csv.reader(fh, delimiter=delim)
        for i, row in enumerate(reader):
            if i < skip:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            rows.append([tok.strip().strip('"') for tok in row])
    return rows


def _resolve(name: str, root: str | None) -> str:
    if os.path.isabs(name):
        return name
    return os.path.join(root if root is not None else data_root(), name)


class _Table:
    """Column-addressable token rows with derived columns applied."""

    def __init__(self, rows: list[list[str]], spec: DatasetSpec):
        width = len(spec.columns)
        bad = [r for r in rows if len(r) != width]
        if bad:
            raise ValueError(
                f"{len(bad)} rows have {len(bad[0])} fields, expected {width}")
        self.index = {c: i for i, c in enumerate(spec.columns)}
        self.rows = rows
        for rule in spec.derive:
            src = self.index[rule.source]
            pos = set(rule.positive_tokens)
            self.index[rule.name] = len(self.index)
            for r in self.rows:
                r.append("1" if r[src] in pos else "0")

    def column(self, name: str) -> list[str]:
        i = self.index[name]
        return [r[i] for r in self.rows]


def _drop_missing(rows: list[list[str]], spec: DatasetSpec) -> list[list[str]]:
    if not spec.missing_token or spec.missing_policy != "drop_row":
        return rows
    token = spec.missing_token
    kept = [r for r in rows if token not in r]
    if len(kept) < len(rows):
        logger.info("%s: dropped %d rows with missing values", spec.name, len(rows) - len(kept))
    return kept


def _load_split_rows(spec: DatasetSpec, root: str | None):
    if spec.split == "files":
        train = _read_rows(_resolve(spec.train_file, root), spec, spec.skip_rows)
        test = _read_rows(_resolve(spec.test_file, root), spec, spec.test_skip_rows)
        return _drop_missing(train, spec), _drop_missing(test, spec)
    rows = _drop_missing(_read_rows(_resolve(spec.file, root), spec, spec.skip_rows), spec)
    n = len(rows)
    if spec.split == "head":
        if spec.train_count + spec.test_count > n:
            raise ValueError("head split larger than the dataset")
        return rows[: spec.train_count], rows[n - spec.test_count:]
    if spec.split == "count":
        if spec.train_count + spec.test_count > n:
            raise ValueError("count split larger than the dataset")
        order = np.random.default_rng(spec.split_seed).permutation(n)
        tr = sorted(order[: spec.train_count])
        te = sorted(order[spec.train_count: spec.train_count + spec.test_count])
        return [rows[i] for i in tr], [rows[i] for i in te]
    n_train = int(round(spec.train_fraction * n))
    order = np.random.default_rng(spec.split_seed).permutation(n)
    tr = sorted(order[:n_train])
    te = sorted(order[n_train:])
    return [rows[i] for i in tr], [rows[i] for i in te]


@dataclass(frozen=True)
class EncodedDataset:
    spec: DatasetSpec
    train: Batch
    test: Batch
    feature_names: tuple[str, ...]
    label_map: dict
    sensitive_maps: dict
    sensitive_tuples: tuple
    norm_mean: np.ndarray
    norm_std: np.ndarray


def _encode_labels(tokens: list[str], spec: DatasetSpec) -> np.ndarray:
    positive = spec.positive_label
    out = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens):
        if spec.strip_label_period:
            tok = tok.rstrip(".")
        out[i] = 2 if tok == positive else 1
    return out


def _sensitive_codes(table: _Table, spec: DatasetSpec, train_table: _Table):
    """Per-column token codes fit on train tokens, applied to ``table``."""
    columns = []
    maps = {}
    for k, col in enumerate(spec.sensitive):
        train_tokens = train_table.column(col)
        if k < len(spec.sensitive_positive):
            pos = spec.sensitive_positive[k]
            mapping = {tok: (2 if tok == pos else 1)
                       for tok in sorted(set(train_tokens))}
        else:
            mapping = {tok: i + 1 for i, tok in enumerate(sorted(set(train_tokens)))}
        maps[col] = mapping
        tokens = table.column(col)
        unknown = sorted({t for t in tokens if t not in mapping})
        if unknown:
            logger.warning("%s: unseen sensitive tokens %s mapped to group 1",
                           spec.name, unknown)
        columns.append(np.array([mapping.get(t, 1) for t in tokens], dtype=np.int64))
    return columns, maps


def _source_files(spec: DatasetSpec, root: str | None) -> list[str]:
    if spec.split == "files":
        return [_resolve(spec.train_file, root), _resolve(spec.test_file, root)]
    return [_resolve(spec.file, root)]


def _cache_key(spec: DatasetSpec, root: str | None) -> str:
    h = hashlib.sha256(repr(spec).encode())
    for path in _source_files(spec, root):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def load_dataset(path_or_spec, root: str | None = None,
                 cache_dir: str | None = None) -> EncodedDataset:
    """Parse, split, and encode a dataset per its spec file.

    Categorical one-hot category lists, normalization statistics, and
    sensitive/label token maps all come from the training split alone, so
    altering a test row can never change the training encoding.  With
    ``cache_dir`` set, the encoded matrices are stored under a content hash
    of the spec and its source files and reloaded on later calls.
    """
    spec = path_or_spec if isinstance(path_or_spec, DatasetSpec) else parse_spec(path_or_spec)
    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"{spec.name}_{_cache_key(spec, root)}.npz")
        if os.path.exists(cache_path):
            return _read_cache(cache_path, spec)
    train_rows, test_rows = _load_split_rows(spec, root)
    if not train_rows or not test_rows:
        raise ValueError(f"{spec.name}: empty split")
    train_t = _Table(train_rows, spec)
    test_t = _Table(test_rows, spec)

    reserved = {spec.label, *spec.sensitive, *spec.drop}
    feature_cols = [c for c in spec.columns if c not in reserved]
    categorical = set(spec.categorical)

    feature_names: list[str] = []
    blocks_train: list[np.ndarray] = []
    blocks_test: list[np.ndarray] = []
    continuous_idx: list[int] = []
    for col in feature_cols:
        tr = train_t.column(col)
        te = test_t.column(col)
        if col in categorical:
            cats = sorted(set(tr))
            index = {tok: i for i, tok in enumerate(cats)}
            width = len(cats) + 1
            feature_names.extend([f"{col}={tok}" for tok in cats] + [f"{col}={UNSEEN}"])

            def onehot(tokens, where):
                block = np.zeros((len(tokens), width))
                unseen = 0
                for i, tok in enumerate(tokens):
                    j = index.get(tok)
                    if j is None:
                        unseen += 1
                        j = width - 1
                    block[i, j] = 1.0
                if unseen:
                    logger.warning("%s: %d unseen %r tokens in %s mapped to the unseen bucket",
                                   spec.name, unseen, col, where)
                return block

            blocks_train.append(onehot(tr, "train"))
            blocks_test.append(onehot(te, "test"))
        else:
            try:
                blocks_train.append(np.array([float(t) for t in tr])[:, None])
                blocks_test.append(np.array([float(t) for t in te])[:, None])
            except ValueError as exc:
                raise ValueError(f"{spec.name}: non-numeric token in column {col!r}: {exc}")
            continuous_idx.append(len(feature_names))
            feature_names.append(col)

    x_train = np.hstack(blocks_train)
    x_test = np.hstack(blocks_test)
    # Continuous columns are standardized with train statistics; one-hot
    # blocks stay 0/1.
    mean = np.zeros(x_train.shape[1])
    std = np.ones(x_train.shape[1])
    if spec.normalization == "zscore" and continuous_idx:
        cols = np.array(continuous_idx)
        mean[cols] = x_train[:, cols].mean(axis=0)
        col_std = x_train[:, cols].std(axis=0)
        std[cols] = np.where(col_std > 0, col_std, 1.0)
        x_train = (x_train - mean) / std
        x_test = (x_test - mean) / std

    y_train = _encode_labels(train_t.column(spec.label), spec)
    y_test = _encode_labels(test_t.column(spec.label), spec)

    s_train_cols, maps = _sensitive_codes(train_t, spec, train_t)
    s_test_cols, _ = _sensitive_codes(test_t, spec, train_t)
    sizes = [max(maps[col].values()) for col in spec.sensitive]
    if len(spec.sensitive) == 1:
        s_train, s_test = s_train_cols[0], s_test_cols[0]
        tuples = tuple((v,) for v in range(1, sizes[0] + 1))
    else:
        combined_train = combine_sensitive(s_train_cols, sizes)
        combined_test = combine_sensitive(s_test_cols, sizes)
        s_train, s_test = combined_train.values, combined_test.values
        tuples = combined_train.tuples

    encoded = EncodedDataset(
        spec=spec,
        train=Batch(x_train, y_train, s_train),
        test=Batch(x_test, y_test, s_test),
        feature_names=tuple(feature_names),
        label_map={"positive": spec.positive_label, "positive_class": 2},
        sensitive_maps=maps,
        sensitive_tuples=tuples,
        norm_mean=mean,
        norm_std=std,
    )
    if cache_path is not None:
        _write_cache(cache_path, encoded)
    return encoded


def _write_cache(path: str, enc: EncodedDataset) -> None:
    meta = json.dumps({
        "feature_names": list(enc.feature_names),
        "label_map": enc.label_map,
        "sensitive_maps": enc.sensitive_maps,
        "sensitive_tuples": [list(t) for t in enc.sensitive_tuples],
    })
    np.savez_compressed(
        path,
        x_train=enc.train.features, y_train=enc.train.labels, s_train=enc.train.sensitive,
        x_test=enc.test.features, y_test=enc.test.labels, s_test=enc.test.sensitive,
        norm_mean=enc.norm_mean, norm_std=enc.norm_std,
        meta=np.array(meta),
    )


def _read_cache(path: str, spec: DatasetSpec) -> EncodedDataset:
    blob = np.load(path, allow_pickle=False)
    meta = json.loads(str(blob["meta"]))
    return EncodedDataset(
        spec=spec,
        train=Batch(blob["x_train"], blob["y_train"], blob["s_train"]),
        test=Batch(blob["x_test"], blob["y_test"], blob["s_test"]),
        feature_names=tuple(meta["feature_names"]),
        label_map=meta["label_map"],
        sensitive_maps=meta["sensitive_maps"],
        sensitive_tuples=tuple(tuple(t) for t in meta["sensitive_tuples"]),
        norm_mean=blob["norm_mean"],
        norm_std=blob["norm_std"],
    )


def clustering_view(path_or_spec, root: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-feature matrix and a {0,1} sensitive column for clustering.

    Pools every row of the dataset, drops missing values, takes a seeded
    subsample of ``clustering_samples`` rows, and z-scores the selected
    columns on that subsample.
    """
    spec = path_or_spec if isinstance(path_or_spec, DatasetSpec) else parse_spec(path_or_spec)
    if not spec.clustering_features or not spec.clustering_sensitive:
        raise ValueError(f"{spec.name}: no clustering view configured")
    if spec.split == "files":
        rows = _read_rows(_resolve(spec.train_file, root), spec, spec.skip_rows)
        rows += _read_rows(_resolve(spec.test_file, root), spec, spec.test_skip_rows)
    else:
        rows = _read_rows(_resolve(spec.file, root), spec, spec.skip_rows)
    rows = _drop_missing(rows, spec)
    table = _Table(rows, spec)

    cols = []
    for col in spec.clustering_features:
        cols.append(np.array([float(t) for t in table.column(col)]))
    points = np.stack(cols, axis=1)
    tokens = table.column(spec.clustering_sensitive)
    sensitive = np.array(
        [1 if t == spec.clustering_sensitive_positive else 0 for t in tokens],
        dtype=np.int64)

    n = len(rows)
    size = spec.clustering_samples or n
    if size > n:
        raise ValueError(f"{spec.name}: clustering_samples={size} exceeds {n} rows")
    if size < n:
        idx = np.sort(np.random.default_rng(spec.clustering_seed).choice(n, size, replace=False))
        points, sensitive = points[idx], sensitive[idx]
    mean = points.mean(axis=0)
    std = points.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (points - mean) / std, sensitive


def synth_yequalss(n: int, seed: int = 0) -> Batch:
    """Two separated Gaussian blobs where label and group coincide.

    Blob centers sit at (+-3, 0) with unit variance, far enough apart that
    an unregularized linear model exceeds 99% accuracy, while any
    group-independent predictor can do no better than the 50% prior.
    """
    if n % 2:
        raise ValueError("n must be even")
    rng = np.random.default_rng(seed)
    half = n // 2
    x = rng.standard_normal((n, 2))
    x[:half] += np.array([3.0, 0.0])
    x[half:] += np.array([-3.0, 0.0])
    labels = np.concatenate([np.full(half, 2), np.full(half, 1)])
    order = rng.permutation(n)
    return Batch(x[order], labels[order], labels[order].copy())
