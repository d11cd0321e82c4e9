"""Test-only references that the library itself never calls."""

import csv
import logging
import os
from dataclasses import dataclass

import numpy as np

from renyifair import fairtrain as ft, maxcorr as mc, model as md
from renyifair.data import (
    UNSEEN, DatasetSpec, EncodedDataset, _DELIMITERS, combine_sensitive, data_root, parse_spec)
from renyifair.faircluster import ClusterState
from renyifair.model import Batch


def binary_objective(params, batch, lam, w):
    """The binary min-max objective at fixed adversary ``w``.

    Cross entropy plus the uncentered surrogate; used to verify the
    closed-form inner solve and the envelope property of the outer gradient.
    """
    probs = md.forward(params, batch.features)
    st = ft.s_tilde(batch.sensitive)
    w = np.asarray(w, dtype=np.float64)
    loss, _ = md.loss_and_grad(params, batch)
    pen = float(np.mean((st[:, None] * probs) @ w) - np.mean(probs @ (w * w)))
    return loss + lam * pen


def binary_seed(stilde, w) -> np.ndarray:
    """d(penalty)/dF of the binary surrogate at fixed ``w``, by broadcasting:
    ``(stilde_n w_i - w_i^2) / N``, the bits of ``fairtrain._closed_form``'s seed."""
    return (stilde[:, None] * w - w * w) * (1.0 / stilde.size)


def q_from_groups_gather(soft_probs, groups, floor):
    """``maxcorr.q_from_groups`` by gathering each group's rows and taking
    their column mean: the bits its weighted bincount must keep."""
    pi = groups.counts / groups.codes.size
    joint = np.empty((soft_probs.shape[1], groups.n_groups))
    for j in range(groups.n_groups):
        rows = np.flatnonzero(groups.codes == j)
        joint[:, j] = md._column_mean(soft_probs.take(rows, axis=0)) * pi[j]
    py = md._column_mean(soft_probs)
    py_f = np.maximum(py, floor)
    pi_f = np.maximum(pi, floor)
    return mc.QMatrix(q=joint / np.sqrt(py_f[:, None] * pi_f), row_marginal=py_f,
                      col_marginal=pi_f, deflatable=bool(py.min() >= floor and pi.min() >= floor))


def eo_penalty_scatter_rows(sub, cfg):
    """The ``eo`` penalty of ``fairtrain`` on ``sub``, with each slice seed
    added into its rows by a 2-D fancy index, ``seed[idx] += sl_seed``:
    ``probs -> (value, seed, sigma2_sq)``."""
    route = ft._closed_form if sub.n_groups == 2 else ft._svd_route
    slices = [(idx, route(groups, cfg.floor))
              for idx, groups in ft._eo_slices(sub, sub.n_groups, cfg.eo_min_group, set())]

    def penalty(probs):
        total, seed, sq_sum = 0.0, np.zeros_like(probs), 0.0
        for idx, dp in slices:
            value, sl_seed, sl_sq = dp(probs.take(idx, axis=0))
            total += value
            seed[idx] += sl_seed
            sq_sum += sl_sq
        return total, seed, sq_sum
    return penalty


def zero_params(arch: str, input_dim: int, n_classes: int, hidden_dim: int = 0) -> md.ModelParams:
    """All-zero parameters: every class equally likely for every input."""
    theta = np.zeros(md.n_params(arch, input_dim, n_classes, hidden_dim))
    return md.ModelParams(arch=arch, theta=theta, input_dim=input_dim,
                          n_classes=n_classes, hidden_dim=hidden_dim)


def second_right_singular_vector(qm):
    """Adversarial direction for the fairness penalty.

    The unit vector orthogonal to the top right singular vector of Q that
    maximizes ``||Q v||^2``; equal-singular-value ties resolve to the vector
    chosen by the deterministic ordering of ``maxcorr.svd_small``.
    """
    if qm.q.shape[1] < 2:
        raise ValueError("need at least two columns for a second singular vector")
    return mc.svd_small(qm.q).right_vectors[:, 1].copy()


@dataclass(frozen=True)
class RenyiBinaryResult:
    """Closed-form maximal correlation against a binary variable.

    ``w_star`` minimizes the separable quadratic whose minimum ``gamma``
    yields ``rho = sqrt(1 - gamma / (q_prob * (1 - q_prob)))`` with
    ``q_prob = P(b=1)``.
    """

    rho: float
    gamma: float
    w_star: np.ndarray
    q_prob: float


def renyi_binary(joint) -> RenyiBinaryResult:
    """The paper's binary closed form, computed from a c x 2 joint table.

    The trainer computes the same closed form from soft outputs
    (``fairtrain.inner_w_closed_form``); this copy is the test reference.

    Column 0 is ``b = 0`` and column 1 is ``b = 1``.  Agrees with
    ``maxcorr.renyi_discrete`` on the same joint to 1e-9.
    """
    p_joint = np.ascontiguousarray(joint, dtype=np.float64)
    if p_joint.ndim != 2 or p_joint.shape[1] != 2:
        raise ValueError(f"renyi_binary requires a binary column variable, got shape {p_joint.shape}")
    p = p_joint.sum(axis=1)
    if np.any(p <= 0):
        raise ValueError("zero class marginal")
    q_prob = float(p_joint.sum(axis=0)[1])
    if not 0.0 < q_prob < 1.0:
        raise ValueError(f"P(b=1)={q_prob} must lie strictly inside (0, 1)")
    diff = p_joint[:, 1] - p_joint[:, 0]
    w_star = diff / (2.0 * p)
    gamma = float(np.sum(w_star * w_star * p) - np.sum(w_star * diff) + 0.25)
    # Floating point can push the argument slightly negative at independence.
    rho = float(np.sqrt(max(0.0, 1.0 - gamma / (q_prob * (1.0 - q_prob)))))
    return RenyiBinaryResult(rho=rho, gamma=gamma, w_star=w_star, q_prob=q_prob)


def assign_point(x, s: int, centers, proportions, lam: float) -> int:
    """Best cluster (1-based) for one point; ties go to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    diffs = np.asarray(centers, dtype=np.float64) - x
    scores = np.einsum("kp,kp->k", diffs, diffs) - lam * (np.asarray(proportions) - s) ** 2
    return int(np.argmin(scores)) + 1


def check_consistent(state) -> None:
    """Raise unless a ``ClusterState``'s counts match its assignments."""
    k = len(state.counts)
    counts = np.bincount(state.assignments - 1, minlength=k)
    if not np.array_equal(counts, state.counts):
        raise AssertionError("counts inconsistent with assignments")


def update_proportions_incremental(state: ClusterState, s: int,
                                   from_k: int, to_k: int) -> ClusterState:
    """O(1) refresh of counts and proportions after moving one point.

    ``s`` is the moved point's attribute (0 or 1); ``from_k``/``to_k`` are
    1-based.  Matches a full recomputation from the assignments exactly.
    """
    if from_k == to_k:
        return state
    f, t = from_k - 1, to_k - 1
    if state.counts[f] <= 0:
        raise ValueError("count underflow: cluster bookkeeping is inconsistent")
    state.counts[f] -= 1
    state.priv_counts[f] -= s
    state.counts[t] += 1
    state.priv_counts[t] += s
    for k in (f, t):
        if state.counts[k] > 0:
            state.proportions[k] = state.priv_counts[k] / state.counts[k]
        else:
            state.proportions[k] = state.global_priv
    return state


# The dataset reader and encoder as they stood before the column-addressed
# reader replaced them; ``load_dataset`` and ``clustering_view`` must match
# these bit for bit, dtypes included.

logger = logging.getLogger(__name__)


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


def load_dataset_reference(path_or_spec, root: str | None = None) -> EncodedDataset:
    """Parse, split, and encode a dataset per its spec file.

    Categorical one-hot category lists, normalization statistics, and
    sensitive/label token maps all come from the training split alone, so
    altering a test row can never change the training encoding.
    """
    spec = path_or_spec if isinstance(path_or_spec, DatasetSpec) else parse_spec(path_or_spec)
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
        s_train, tuples = combine_sensitive(s_train_cols, sizes)
        s_test, _ = combine_sensitive(s_test_cols, sizes)

    return EncodedDataset(
        spec=spec,
        train=Batch(x_train, y_train, s_train),
        test=Batch(x_test, y_test, s_test),
        feature_names=tuple(feature_names),
        sensitive_tuples=tuples,
    )


def numeric_columns_reference(rows: list[list[str]], spec: DatasetSpec, names) -> np.ndarray:
    """Continuous columns ``names`` of field rows as the reference reads them:
    every token stripped of blanks and quotes, then ``float``; N x k float64."""
    table = _Table([[tok.strip().strip('"') for tok in row] for row in rows], spec)
    cols = []
    for col in names:
        try:
            cols.append(np.array([float(t) for t in table.column(col)]))
        except ValueError as exc:
            raise ValueError(f"{spec.name}: non-numeric token in column {col!r}: {exc}")
    return np.stack(cols, axis=1)


def clustering_view_reference(path_or_spec, root: str | None = None) -> tuple[np.ndarray, np.ndarray]:
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
