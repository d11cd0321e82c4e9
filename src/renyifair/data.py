"""Dataset ingestion driven by declarative spec files.

A dataset spec is a plain ``key = value`` text file (see ``specs/`` in the
repository).  Its keys are the fields of ``DatasetSpec``, which holds each
key's type and its one default; ``parse_spec`` reads every value by its
field's type, and a key outside that list is an error.  ``load_dataset``
and ``clustering_view`` read the source files through one reader
(``_read_source``), which the first splits and the second pools.  The
reader reads each file whole in universal-newline mode, keeps its lines
and checks every line's field count: delimiters for ``comma`` and
``semicolon``, words for ``whitespace``.  Quotes are not parsed, so a
delimiter or a line break inside a quoted field fails that check, and a
field that opens with a quote must be one quoted run followed by blanks.
Both loaders read their columns with ``_read_columns``: one structured
call of numpy's C reader (``np.loadtxt``) per split, or of the pool, reads
the continuous columns as float64 and the others (a derived one through
its source) as raw text.  A row it refuses sends every column to the
token route (``_columns``, then ``float``).  One ``set`` pass per token
column strips each distinct token.  A ``nan`` or ``inf`` read in a
continuous column is refused after the read, with the column named.
``load_dataset`` encodes every column first and frees the lines and tokens
before it allocates the two feature matrices, which ``Batch`` takes over
without a copy: the tokens and the matrices are never alive at once, nor
are two copies of a matrix.
Categorical features are one-hot encoded with category lists collected
from the training split (plus an explicit unseen bucket for test-time
surprises); continuous features are z-scored with training-split
statistics only.  Labels map to {1, 2} with 2 the positive class;
sensitive columns map to {1..d} with 2 the privileged group in the binary
case, and several sensitive columns to their product code
(``combine_sensitive``; one column is its own code).  Each split's
``Batch`` declares c = 2 and d = the number of sensitive tuples, so a
split that lacks a group keeps the full alphabet.  A declared positive
token that matches no training row is an error.

Nothing here touches the network: source files are resolved against the
``RENYIFAIR_DATA`` environment variable (default ``./data``).
"""

from __future__ import annotations

import logging
import os
from dataclasses import MISSING, dataclass, fields
from itertools import product, repeat
from typing import Sequence, get_type_hints

import numpy as np

from .model import Batch

logger = logging.getLogger(__name__)

DATA_ROOT_ENV = "RENYIFAIR_DATA"

_DELIMITERS = {"comma": ",", "semicolon": ";", "whitespace": None}
UNSEEN = "<unseen>"
# Lines split at a time by the columnar reader.
_BLOCK = 4096


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
        for key in ("train_count", "test_count", "skip_rows", "test_skip_rows",
                    "clustering_samples"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must not be negative, got {getattr(self, key)}")
        if self.split == "fraction" and not 0 < self.train_fraction < 1:
            raise ValueError(f"split = fraction needs 0 < train_fraction < 1, "
                             f"got {self.train_fraction}")
        known = set(self.columns) | {r.name for r in self.derive}
        # An empty clustering_sensitive means the spec has no clustering view.
        clustering = (*self.clustering_features, *filter(None, [self.clustering_sensitive]))
        for col in (self.label, *self.sensitive, *self.categorical, *self.drop, *clustering):
            if col not in known:
                raise ValueError(f"column {col!r} not declared in the spec")
        rules = {rule.name: rule for rule in reversed(self.derive)}  # as _read_columns reads them
        for rule in filter(lambda r: rules[r.name] is r, self.derive):
            chain = [rule.name]
            while chain[-1] in rules and len(chain) <= len(rules):
                chain.append(rules[chain[-1]].source)
            if chain[-1] not in self.columns or chain[-1] in rules:
                raise ValueError(
                    f"derive rule {rule.name}:{rule.source} does not end at a source-file "
                    f"column: {' -> '.join(chain)}")


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _derive_rules(value: str) -> tuple[DeriveRule, ...]:
    rules = []
    for item in value.split():
        parts = item.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad derive rule {item!r}, expected name:source:tok|tok")
        rules.append(DeriveRule(parts[0], parts[1], tuple(parts[2].split("|"))))
    return tuple(rules)


# How a spec value is read, by the type of its ``DatasetSpec`` field: the
# reader, and what a value it refuses must be (None: the reader's own error).
_READERS = {
    str: (str, None),
    tuple[str, ...]: (lambda v: tuple(v.split()), None),
    tuple[DeriveRule, ...]: (_derive_rules, None),
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (lambda v: _BOOLEANS[v.lower()], "one of 1/0, true/false, yes/no"),
}


def parse_spec(path) -> DatasetSpec:
    """Read a ``key = value`` dataset spec file.

    The keys are the fields of ``DatasetSpec``, each set at most once and
    its value read by its field's type (``_READERS``).  A key the file
    leaves out is not passed, so it takes the field's default; of the
    fields without one, ``name`` falls back to the file's base name and the
    others to the empty value, which ``DatasetSpec.__post_init__`` then
    judges.
    """
    raw: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line (expected key = value): {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise ValueError(f"{path}: repeated spec key {key}")
            raw[key] = value
    spec_fields = fields(DatasetSpec)
    unknown = sorted(raw.keys() - {f.name for f in spec_fields})
    if unknown:
        raise ValueError(f"{path}: unknown spec keys {', '.join(unknown)}")
    raw = {**{f.name: "" for f in spec_fields if f.default is MISSING},
           "name": os.path.basename(str(path)), **raw}

    types = get_type_hints(DatasetSpec)
    values = {}
    for f in spec_fields:
        reader = _READERS.get(types[f.name])
        if reader is None:
            raise TypeError(f"DatasetSpec.{f.name} has type {types[f.name]}, "
                            f"which parse_spec cannot read")
        if f.name in raw:
            read, expected = reader
            try:
                values[f.name] = read(raw[f.name])
            except (ValueError, KeyError):
                if expected is None:
                    raise
                raise ValueError(f"{path}: {f.name} must be {expected}, "
                                 f"got {raw[f.name]!r}") from None
    return DatasetSpec(**values)


def _read_file(path: str, delim: str | None, width: int, skip: int) -> list[str]:
    """Kept lines of one source file, after its first ``skip`` rows.

    The file is read whole in universal-newline mode, so ``\\r\\n`` and
    ``\\r`` line ends both read as ``\\n``; only ``\\n`` splits rows, so no
    other line-break character does.  Blank lines are left out, and a line
    of the wrong width (``width - 1`` delimiters, or ``width`` words for the
    ``whitespace`` delimiter) is an error naming the file and its physical
    1-based row.  Quotes are not parsed: a delimiter or a line break inside
    a quoted field makes a row of the wrong width.
    """
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty tail after a final newline, not a blank row
    lines = lines[skip:]
    if delim is None:
        counts = [len(line.split()) - 1 for line in lines]
    else:
        counts = list(map(str.count, lines, repeat(delim)))
    if width == 1 or counts.count(width - 1) < len(lines):
        # Blank lines (whose count is right when width is 1) or rows of the
        # wrong width: go line by line.
        kept = []
        for i, (line, count) in enumerate(zip(lines, counts), start=skip):
            if not line.strip():
                continue
            if count != width - 1:
                note = " (a quoted field may hold the delimiter or a line break)"
                raise ValueError(f"{path}: row {i + 1} has {count + 1} fields, expected "
                                 f"{width}" + (note if '"' in text else ""))
            kept.append(line)
        lines = kept
    return lines


def _read_source(spec: DatasetSpec, root: str | None, pool: bool = False) -> list[list[str]]:
    """Lines of the spec's source files, one list per file (see ``_read_file``).

    ``split = files`` reads ``train_file`` then ``test_file``, any other
    split ``file``, and an unset one is an error.  Skipped and blank rows are
    left out, a row of the wrong width is an error naming its file and
    1-based row number, and under ``drop_row`` the lines holding
    ``missing_token`` as a stripped field are dropped after ``pool`` has
    joined the files.
    """
    if spec.split == "files":
        sources = [("train_file", spec.skip_rows), ("test_file", spec.test_skip_rows)]
    else:
        sources = [("file", spec.skip_rows)]
    missing = [key for key, _ in sources if not getattr(spec, key)]
    if missing:
        raise ValueError(f"spec {spec.name!r}: split {spec.split!r} needs {' and '.join(missing)}")
    delim = _DELIMITERS[spec.delimiter]
    # An absolute file name replaces the root.
    parts = [_read_file(os.path.join(data_root() if root is None else root, getattr(spec, key)),
                        delim, len(spec.columns), skip) for key, skip in sources]
    if pool:
        parts = [[line for lines in parts for line in lines]]
    token = spec.missing_token
    if not token or spec.missing_policy != "drop_row":
        return parts
    for k, lines in enumerate(parts):
        # A field that strips to the token holds it, so only lines that
        # hold it need their fields stripped.
        kept = [line for line in lines if token not in line
                or token not in map(_strip, line.split(delim))]
        if len(kept) < len(lines):
            logger.info("%s: dropped %d rows with missing values",
                        spec.name, len(lines) - len(kept))
        parts[k] = kept
    return parts


def _split(spec: DatasetSpec, parts: list[list[str]]):
    """Train and test lines of the reader's files, per the spec's split policy."""
    if spec.split == "files":
        train, test = parts
    else:
        rows = parts[0]
        n = len(rows)
        if spec.split != "fraction" and spec.train_count + spec.test_count > n:
            raise ValueError(f"{spec.split} split larger than the dataset")
        if spec.split == "head":
            train, test = rows[: spec.train_count], rows[n - spec.test_count:]
        else:
            n_train, n_test = spec.train_count, spec.test_count
            if spec.split == "fraction":
                n_train = int(round(spec.train_fraction * n))
                n_test = n - n_train
            order = np.random.default_rng(spec.split_seed).permutation(n)
            train = [rows[i] for i in sorted(order[:n_train])]
            test = [rows[i] for i in sorted(order[n_train: n_train + n_test])]
    if not train or not test:
        raise ValueError(f"{spec.name}: empty split")
    return train, test


def _columns(lines: list[str], spec: DatasetSpec, names) -> dict[str, list[str]]:
    """Raw tokens of each source-file column in ``names``: the token route.

    Lines are split ``_BLOCK`` at a time by one ``str.split`` of the joined
    block (on runs of blanks for the ``whitespace`` delimiter), and column
    ``i`` of a block is the stride ``[i::width]`` of its fields; only the
    columns asked for are kept, so the fields of the others never pile up.
    """
    raw: dict[str, list[str]] = {name: [] for name in names}
    width = len(spec.columns)
    wanted = [(spec.columns.index(name), tokens) for name, tokens in raw.items()]
    delim = _DELIMITERS[spec.delimiter]
    for start in range(0, len(lines), _BLOCK):
        fields = (delim or " ").join(lines[start:start + _BLOCK]).split(delim)
        for i, tokens in wanted:
            tokens += fields[i::width]
    return raw


def _source(name: str, rules: dict[str, DeriveRule]) -> str:
    """The source-file column that column ``name`` is derived from, or ``name`` itself."""
    return _source(rules[name].source, rules) if name in rules else name


def _derived(name: str, rules: dict[str, DeriveRule], raw: dict[str, Sequence[str]]):
    """Tokens of column ``name``, built by its derive rules from the raw source column."""
    rule = rules.get(name)
    if rule is None:
        return raw[name]
    tokens = _derived(rule.source, rules, raw)
    positive = set(rule.positive_tokens)
    code = {t: "1" if _strip(t) in positive else "0" for t in set(tokens)}
    return list(map(code.__getitem__, tokens))


def _strip(token: str) -> str:
    """The value of a raw field: blanks stripped, then its quotes.

    A field that opens with ``"`` must be one quoted run followed only by
    blanks, whose inner text is stripped of blanks too; a doubled quote or
    text after the closing quote is an error naming the token.
    """
    if token[:1] != '"':
        return token.strip().strip('"')
    inner, closed, rest = token[1:].partition('"')
    if not closed or rest.strip():
        raise ValueError(f"quoted field {token!r} is not one quoted run followed by blanks; "
                         f"doubled quotes and text after the closing quote are not read")
    return inner.strip()


def _distinct(tokens: Sequence[str], clean=_strip) -> dict[str, str]:
    """Each distinct raw token and its value ``clean(t)``, from one ``set`` pass."""
    return {t: clean(t) for t in set(tokens)}


def _encode(tokens: Sequence[str], index: dict[str, int], default: int,
            values: dict[str, str] | None = None) -> np.ndarray:
    """Code ``index[values[t]]`` of each raw token ``t``, or ``default`` if not in ``index``."""
    code = {t: index.get(value, default) for t, value in (values or _distinct(tokens)).items()}
    return np.fromiter(map(code.__getitem__, tokens), dtype=np.int64, count=len(tokens))


def _numeric(tokens: Sequence[str], spec: DatasetSpec, col: str) -> np.ndarray:
    try:
        return np.fromiter(map(float, map(_strip, tokens)), dtype=np.float64, count=len(tokens))
    except ValueError as exc:
        raise ValueError(f"{spec.name}: non-numeric token in column {col!r}: {exc}") from exc


def _finite(values: np.ndarray, spec: DatasetSpec, names: Sequence[str]) -> None:
    """Refuse a nan or inf among the N x k ``values`` read for the columns ``names``."""
    bad = ~np.isfinite(values)
    if bad.any():
        row, j = np.argwhere(bad)[0]
        raise ValueError(f"{spec.name}: non-finite value {values[row, j].item()!r} "
                         f"in column {names[j]!r}")


def _c_reader(lines: list[str], spec: DatasetSpec, numeric: Sequence[str],
              sources: Sequence[str]):
    """The N x k float64 values of the ``numeric`` columns and the raw tokens
    of each ``sources`` column, from one C read, or None.

    ``np.loadtxt`` reads each line into one record: a float64 subarray
    field, then one object field per source column (its tokens keep their
    blanks and quotes).  It splits lines as ``_columns`` does and reads a
    number as ``float`` does.  None, the one fallback, means empty input or
    a row it refuses (underscores, non-ASCII digits, quotes, bad tokens),
    which the token route reads with the same bits or fails loudly.
    """
    if not lines:
        return None
    fields = [("", np.float64, (len(numeric),))] if numeric else []
    try:
        record = np.loadtxt(lines, delimiter=_DELIMITERS[spec.delimiter],
                            usecols=[spec.columns.index(name) for name in [*numeric, *sources]],
                            dtype=fields + [("", object)] * len(sources), ndmin=1,
                            comments=None, quotechar=None)
    except ValueError:
        return None
    parts = [record[name] for name in record.dtype.names]
    return parts.pop(0) if numeric else np.empty((len(record), 0)), dict(zip(sources, parts))


def _read_columns(parts: list[list[str]], spec: DatasetSpec, continuous: Sequence[str],
                  names: Sequence[str]) -> list[tuple[np.ndarray, dict]]:
    """Per list of lines: the N x k float64 values of ``continuous`` and the tokens of ``names``.

    Each list takes one ``_c_reader`` call (its values a strided view of the
    records), or the token route (``_columns``, ``_numeric``) if it refuses.
    A derived column is built from its source's raw tokens; every list's
    values are read before any ``names`` are derived, as errors always came.
    """
    rules = {rule.name: rule for rule in reversed(spec.derive)}  # the first of a name wins
    numeric = [c for c in continuous if c not in rules]
    sources = list(dict.fromkeys(
        _source(c, rules) for c in [*(c for c in continuous if c in rules), *names]))
    reads = []
    for lines in parts:
        read = _c_reader(lines, spec, numeric, sources)
        raw = _columns(lines, spec, [*numeric, *sources]) if read is None else read[1]
        numbers = {} if read is None else dict(zip(numeric, read[0].T))
        tokens = {c: _derived(c, rules, raw) for c in continuous if c not in numbers}
        if read is None or tokens:  # the values, assembled column by column
            read = np.empty((len(lines), len(continuous))), raw
            for j, c in enumerate(continuous):
                read[0][:, j] = numbers[c] if c in numbers else _numeric(tokens[c], spec, c)
        reads.append(read)
    return [(values, {name: _derived(name, rules, raw) for name in names})
            for values, raw in reads]


def _unmatched(spec: DatasetSpec, key: str, token: str, col: str, rows: str) -> ValueError:
    return ValueError(f"{spec.name}: {key} {token!r} matches no {rows} in column {col!r}")


@dataclass(frozen=True)
class EncodedDataset:
    spec: DatasetSpec
    train: Batch
    test: Batch
    feature_names: tuple[str, ...]
    sensitive_tuples: tuple


@dataclass(frozen=True)
class CombinedSensitive:
    """Product encoding of several discrete attributes into one column."""

    values: np.ndarray
    sizes: tuple[int, ...]
    tuples: tuple[tuple[int, ...], ...]

    @property
    def alphabet_size(self) -> int:
        return len(self.tuples)

    def decode(self, value: int) -> tuple[int, ...]:
        return self.tuples[value - 1]


def combine_sensitive(columns: Sequence, sizes: Sequence[int] | None = None) -> CombinedSensitive:
    """Bijectively merge discrete 1-based columns into a single attribute.

    The first column is the most significant digit, so two binary columns
    map (1,1),(1,2),(2,1),(2,2) to 1,2,3,4.  ``sizes`` pins the per-column
    alphabet sizes; by default they are inferred from the column maxima.
    """
    cols = [np.asarray(c, dtype=np.int64) for c in columns]
    if not cols:
        raise ValueError("need at least one column")
    n = cols[0].shape[0]
    if sizes is None:
        sizes = [int(c.max()) for c in cols]
    sizes = [int(v) for v in sizes]
    for c, size in zip(cols, sizes):
        if c.shape != (n,):
            raise ValueError("columns must share a common length")
        if c.min() < 1 or c.max() > size:
            raise ValueError("column values must lie in 1..size")
    values = np.zeros(n, dtype=np.int64)
    for c, size in zip(cols, sizes):
        values = values * size + (c - 1)
    values += 1
    tuples = tuple(product(*(range(1, size + 1) for size in sizes)))
    return CombinedSensitive(values=values, sizes=tuple(sizes), tuples=tuples)


def _encode_splits(spec: DatasetSpec, root: str | None):
    """Codes of every column of the spec's train and test splits.

    Returns the feature names; per categorical feature column, train then
    test, the matrix column of each row's one-hot 1.0; the matrix columns
    of the continuous features and their train and test values; the train
    and test labels and sensitive values; and the sensitive tuples.
    Lines and tokens are locals here, so they are freed by the time the
    caller builds the feature matrices from these codes.
    """
    train, test = _split(spec, _read_source(spec, root))

    reserved = {spec.label, *spec.sensitive, *spec.drop}
    feature_cols = [c for c in spec.columns if c not in reserved]
    if not feature_cols:
        raise ValueError(f"{spec.name}: no feature columns (every column is the label, "
                         f"a sensitive column or dropped)")
    categorical = [c for c in feature_cols if c in spec.categorical]
    continuous = [c for c in feature_cols if c not in spec.categorical]
    values, (train_cols, test_cols) = zip(*_read_columns(
        [train, test], spec, continuous, [*categorical, spec.label, *spec.sensitive]))
    # Copies, so the records go with the tokens; F-ordered, as x_train[:, numeric] is.
    values = [np.asfortranarray(v) for v in values]
    for v in values:
        _finite(v, spec, continuous)
    del train, test  # the lines; only their tokens are read from here on

    feature_names: list[str] = []
    onehot: list[tuple[np.ndarray, np.ndarray]] = []
    numeric: list[int] = []
    for col in feature_cols:
        if col in categorical:
            tr, te = train_cols[col], test_cols[col]
            tr_values = _distinct(tr)
            cats = sorted(set(tr_values.values()))
            index = {tok: i for i, tok in enumerate(cats)}
            offset = len(feature_names)
            feature_names.extend([f"{col}={tok}" for tok in cats] + [f"{col}={UNSEEN}"])
            # Tokens outside the training categories go to the last column.
            codes = []
            for tokens, known, where in ((tr, tr_values, "train"), (te, None, "test")):
                code = _encode(tokens, index, len(cats), known)
                unseen = np.count_nonzero(code == len(cats))
                if unseen:
                    logger.warning("%s: %d unseen %r tokens in %s mapped to the unseen bucket",
                                   spec.name, unseen, col, where)
                codes.append(code + offset)
            onehot.append(tuple(codes))
        else:
            numeric.append(len(feature_names))
            feature_names.append(col)

    clean = (lambda t: _strip(t).rstrip(".")) if spec.strip_label_period else _strip
    labels = [_encode(tokens, {spec.positive_label: 2}, 1, _distinct(tokens, clean))
              for tokens in (train_cols[spec.label], test_cols[spec.label])]
    if not (labels[0] == 2).any():
        raise _unmatched(spec, "positive_label", spec.positive_label, spec.label, "training row")

    # Each sensitive token map is fit on the training tokens alone.
    s_train_cols, s_test_cols, sizes = [], [], []
    for k, col in enumerate(spec.sensitive):
        tr = _distinct(train_cols[col])
        tokens = sorted(set(tr.values()))
        if k < len(spec.sensitive_positive):
            pos = spec.sensitive_positive[k]
            if pos not in tokens:
                raise _unmatched(spec, "sensitive_positive", pos, col, "training row")
            index = {tok: (2 if tok == pos else 1) for tok in tokens}
        else:
            index = {tok: i + 1 for i, tok in enumerate(tokens)}
        te = _distinct(test_cols[col])
        unknown = sorted(set(te.values()) - index.keys())
        if unknown:
            logger.warning("%s: unseen sensitive tokens %s mapped to group 1",
                           spec.name, unknown)
        sizes.append(max(index.values()))
        s_train_cols.append(_encode(train_cols[col], index, 1, tr))
        s_test_cols.append(_encode(test_cols[col], index, 1, te))
    combined = [combine_sensitive(cols, sizes) for cols in (s_train_cols, s_test_cols)]
    sensitive = combined[0].values, combined[1].values
    return feature_names, onehot, (numeric, values), labels, sensitive, combined[0].tuples


def load_dataset(path_or_spec, root: str | None = None) -> EncodedDataset:
    """Parse, split, and encode a dataset per its spec file.

    Categorical one-hot category lists, normalization statistics, and
    sensitive/label token maps all come from the training split alone, so
    altering a test row can never change the training encoding.
    """
    spec = path_or_spec if isinstance(path_or_spec, DatasetSpec) else parse_spec(path_or_spec)
    feature_names, onehot, (numeric, values), labels, sensitive, tuples = _encode_splits(spec, root)

    # Continuous columns are standardized with train statistics (moments of the
    # F-ordered values, as always) before they are placed; one-hot blocks stay 0/1.
    if spec.normalization == "zscore" and numeric:
        mean, std = values[0].mean(axis=0), values[0].std(axis=0)
        values = [(v - mean) / np.where(std > 0, std, 1.0) for v in values]

    x_train = np.zeros((len(labels[0]), len(feature_names)))
    x_test = np.zeros((len(labels[1]), len(feature_names)))
    for k, x in enumerate((x_train, x_test)):
        cells, starts = x.reshape(-1), np.arange(len(x)) * x.shape[1]
        for codes in onehot:
            cells[starts + codes[k]] = 1.0
        x[:, numeric] = values[k]

    # Batch takes over these fresh arrays without a copy.  Both splits
    # declare the encoders' alphabets, whichever values they hold.
    return EncodedDataset(
        spec=spec,
        train=Batch(x_train, labels[0], sensitive[0], 2, len(tuples)),
        test=Batch(x_test, labels[1], sensitive[1], 2, len(tuples)),
        feature_names=tuple(feature_names),
        sensitive_tuples=tuples,
    )


def clustering_view(path_or_spec, root: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-feature matrix and a {0,1} sensitive column for clustering.

    Pools every row of the dataset, drops missing values, takes a seeded
    subsample of ``clustering_samples`` rows, and z-scores the selected
    columns on that subsample.  Every pooled row is parsed and checked:
    the features and the raw sensitive tokens take one C read of the pool
    (``_read_columns``), or the token route if the C reader refuses a row,
    so every input reads, or fails, as on the token route.
    """
    spec = path_or_spec if isinstance(path_or_spec, DatasetSpec) else parse_spec(path_or_spec)
    if not spec.clustering_features or not spec.clustering_sensitive:
        raise ValueError(f"{spec.name}: no clustering view configured")
    features, col = spec.clustering_features, spec.clustering_sensitive
    pos = spec.clustering_sensitive_positive
    [(points, tokens)] = _read_columns(_read_source(spec, root, pool=True), spec, features, [col])
    _finite(points, spec, features)
    sensitive = _encode(tokens[col], {pos: 1}, 0)
    if not sensitive.any():
        raise _unmatched(spec, "clustering_sensitive_positive", pos, col, "row")
    del tokens  # only the points are read from here on

    n = len(sensitive)
    size = spec.clustering_samples or n
    if size > n:
        raise ValueError(f"{spec.name}: clustering_samples={size} exceeds {n} rows")
    if size < n:
        idx = np.sort(np.random.default_rng(spec.clustering_seed).choice(n, size, replace=False))
        points, sensitive = points[idx], sensitive[idx]
    # The records' points are a strided view: the sample, or this, copies
    # them out in C order, so the moments sum in the order they always have.
    points = np.ascontiguousarray(points)
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
    return Batch(x[order], labels[order], labels[order])
