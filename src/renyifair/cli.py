"""Experiment orchestration CLI.

Subcommands::

    renyifair train   --config cfg.json --out DIR [--seeds 0,1] [--jobs N]
    renyifair cluster --config cfg.json --out DIR [--seeds 0] [--jobs N]
    renyifair eval    --checkpoint params.txt --dataset spec [--split test]
    renyifair demo-toy --out DIR [--seed 0] [--lambdas 0,1000]

Every command also takes ``--log-level`` (``DEBUG``, ``INFO``, ``WARNING``
or ``ERROR``; default ``WARNING``), the least severe of the package's log
records to print to stderr: ``INFO`` adds the dataset reader's count of
dropped rows to its unseen-token warnings.  No output file depends on it.

Config files are JSON with keys ``dataset``, ``lambda_grid`` and ``seeds``
plus, for ``train``, ``model`` (``linear`` or ``one_hidden:<width>``) and
the ``TrainConfig`` fields ``eta``, ``iters``, ``fairness_mode``,
``batch_size``, ``floor``, ``grad_tol`` and ``eo_min_group``, or, for
``cluster``, the ``ClusterConfig`` fields ``n_clusters``, ``max_sweeps``,
``w_update_mode`` and ``init``.  An unknown key, a rejected value (such as
a fractional value of an integer key) or a bad model string raises, naming
the key, before the output directory is written.  A training dataset is a
spec file path or ``synth:yequalss:<n>``; a clustering one is a spec file
with a clustering view, ``toy:<seed>`` or ``csv:<path>``.
Dataset spec files resolve their source files against the
``RENYIFAIR_DATA`` environment variable (default ``./data``).

Every run writes a headered ``sweep.csv`` (one row per lambda/seed/split
with columns covering accuracy, error, p%, DP and EO violations, sigma2,
NMI, losses and the w statistics), per-run trace CSVs, parameter
checkpoints in a text format (header line ``arch=... input_dim=...
n_classes=... hidden_dim=...`` followed by one parameter repr per line),
and a ``manifest.json`` with the config hash (over a spec file's bytes,
not its path) and library versions.  One
writer, ``write_csv``, renders every CSV.  Outputs contain no timestamps:
rerunning a config with the same seeds produces byte-identical CSVs.

A failed run is listed in the manifest's ``failures``, its traceback goes
to stderr and the command exits 1.  A diverged training run (non-finite
loss) is a failed run with no ``sweep.csv`` rows, so the ``diverged``
column reads 0 on every row.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
import math
import multiprocessing
import os
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import __version__, data, faircluster, fairtrain, metrics, model

TRAIN_COLUMNS = (
    "lambda", "seed", "split", "accuracy", "error", "p_percent", "dp_violation",
    "eo_violation", "sigma2", "nmi", "loss", "penalty", "grad_norm",
    "iters_run", "diverged",
)
CLUSTER_COLUMNS = (
    "lambda", "seed", "kmeans_loss", "objective", "w_min", "w_max", "w_mean",
    "w_std", "sweeps", "converged", "cycled",
)

DEFAULT_LAMBDA_GRID = [0.0] + [10.0 ** e for e in range(-3, 4)]

# A ``--jobs N`` worker's run function, bound to the sweep's data, set once
# per worker by the pool initializer (see ``_sweep``).
_worker_run = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a dataset, a model or clustering setup, and a lambda grid."""

    raw: dict

    @property
    def lambda_grid(self) -> list[float]:
        grid = [_convert("lambda_grid", _real, v)
                for v in self.raw.get("lambda_grid", DEFAULT_LAMBDA_GRID)]
        if not grid or not all(0 <= v < math.inf for v in grid) or sorted(grid) != grid:
            raise ValueError("lambda_grid must be nonempty, finite, nonnegative, ascending")
        return grid

    @property
    def seeds(self) -> list[int]:
        return [_convert("seeds", _integer, s) for s in self.raw.get("seeds", [0])]

    def config_hash(self) -> str:
        """Hash of the config, a spec file path in ``dataset`` replaced by the
        SHA-256 of the file's bytes, so the hash does not depend on where the
        spec lies but does on what it says."""
        raw = self.raw
        if isinstance(raw.get("dataset"), str) and os.path.isfile(raw["dataset"]):
            with open(raw["dataset"], "rb") as fh:
                raw = {**raw, "dataset": hashlib.sha256(fh.read()).hexdigest()}
        text = json.dumps(raw, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig(json.load(fh))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# ``_fmt`` of these exact types, looked up first: the assignments are 10k+ rows.
_FMT_BY_TYPE = {float: repr, int: str, str: str}


def write_csv(path, columns, rows) -> None:
    """Write ``columns`` as the header, then each row, a sequence in column order."""
    fmt = _FMT_BY_TYPE.get
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join([fmt(type(v), _fmt)(v) for v in row]) + "\n")


def write_manifest(out_dir, cfg: ExperimentConfig, failures: list[str]) -> None:
    manifest = {
        "config": cfg.raw,
        "config_hash": cfg.config_hash(),
        "seeds": cfg.seeds,
        "versions": {
            "renyifair": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "failures": failures,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _parse_model(text: str) -> tuple[str, int]:
    if text == "linear":
        return "linear", 0
    if text.startswith("one_hidden:"):
        width = text.split(":", 1)[1]
        if not width.isdecimal() or int(width) < 1:
            raise ValueError(f"model {text!r} needs a positive integer width")
        return "one_hidden", int(width)
    raise ValueError(f"unknown model {text!r} (use 'linear' or 'one_hidden:<width>')")


def _as_is(value):
    return value


def _integer(value) -> int:
    """``int(value)``, refusing a boolean and a float with a fractional part
    (``40.0`` passes, ``2.7`` and ``true`` not)."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """``float(value)``, refusing a boolean (JSON ``true`` is not 1.0)."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _convert(key: str, convert, value):
    """``convert(value)``, naming the config key or ``--flag`` in any ValueError."""
    try:
        return convert(value)
    except ValueError as exc:
        source = key if key.startswith("--") else f"config key {key!r}"
        raise ValueError(f"{source}: {exc}") from exc


# The keys each command reads beyond these, with the conversion of each JSON
# value; a key in neither is an error.  Every key but ``model`` is a field of
# the command's config dataclass, the one place that holds its default.
_SWEEP_KEYS = frozenset({"dataset", "lambda_grid", "seeds"})
_TRAIN_KEYS = {"model": _parse_model, "eta": _real, "iters": _integer, "fairness_mode": _as_is,
               "batch_size": _as_is, "floor": _real, "grad_tol": _real, "eo_min_group": _integer}
_CLUSTER_KEYS = {"n_clusters": _integer, "max_sweeps": _integer, "w_update_mode": _as_is,
                 "init": _as_is}


def _config_values(cfg: ExperimentConfig, keys: dict) -> dict:
    """The converted value of each key of ``keys`` the config sets."""
    unknown = sorted(cfg.raw.keys() - keys.keys() - _SWEEP_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {', '.join(unknown)}")
    return {key: _convert(key, convert, cfg.raw[key]) for key, convert in keys.items()
            if key in cfg.raw}


def _load_train_batches(name: str) -> tuple[model.Batch, model.Batch]:
    if name.startswith("synth:yequalss:"):
        n = int(name.rsplit(":", 1)[1])
        return data.synth_yequalss(n, seed=0), data.synth_yequalss(n, seed=1)
    enc = data.load_dataset(name)
    return enc.train, enc.test


def _train_one(batches, tcfg: fairtrain.TrainConfig, out_dir: str, arch: str,
               hidden: int) -> list[dict]:
    train_batch, test_batch = batches
    params0 = model.init_params(arch, train_batch.n_features, train_batch.n_classes,
                                hidden_dim=hidden, seed=tcfg.seed)
    trace = fairtrain.train(params0, train_batch, tcfg)
    tag = f"lam{tcfg.lam:g}_seed{tcfg.seed}"
    write_csv(os.path.join(out_dir, f"trace_{tag}.csv"),
              ("iter", "loss", "penalty", "grad_norm", "sigma2"),
              zip(trace.iteration, trace.loss, trace.penalty, trace.grad_norm, trace.sigma2))
    model.save_params(trace.final_params, os.path.join(out_dir, f"params_{tag}.txt"))
    if trace.diverged:
        raise RuntimeError(f"run {tag} diverged (non-finite loss)")

    base = {
        "lambda": tcfg.lam, "seed": tcfg.seed,
        "loss": trace.loss[-1], "penalty": trace.penalty[-1],
        "grad_norm": trace.grad_norm[-1],
        "iters_run": trace.iteration[-1], "diverged": trace.diverged,
    }
    rows = []
    for split, batch in (("train", train_batch), ("test", test_batch)):
        report = metrics.evaluate(trace.final_params, batch, floor=tcfg.floor)
        rows.append(dict(base, split=split, accuracy=report.accuracy,
                         error=1.0 - report.accuracy, p_percent=report.p_percent,
                         dp_violation=report.dp_violation, eo_violation=report.eo_violation,
                         sigma2=report.sigma2, nmi=report.nmi))
    return rows


def cmd_train(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> int:
    values = _config_values(cfg, _TRAIN_KEYS)
    arch, hidden = values.pop("model", ("linear", 0))
    return _sweep(cfg, out_dir, jobs, fairtrain.TrainConfig(**values),
                  functools.partial(_train_one, arch=arch, hidden=hidden),
                  _load_train_batches, TRAIN_COLUMNS)


def _load_cluster_view(name: str) -> tuple[np.ndarray, np.ndarray]:
    if name.startswith("toy:"):
        points, sensitive, _ = faircluster.toy_dataset(int(name.split(":", 1)[1]))
        return points, sensitive
    if name.startswith("csv:"):
        # raw numeric CSV: coordinate columns followed by a 0/1 sensitive column
        path = name.split(":", 1)[1]
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
        sensitive = raw[:, -1]
        bad = np.flatnonzero((sensitive != 0) & (sensitive != 1))
        if bad.size:
            raise ValueError(
                f"{path}: sensitive column {raw.shape[1]} (the last) must hold 0 or 1, "
                f"found {sensitive[bad[0]]!r} in data row {bad[0] + 1}")
        return raw[:, :-1], sensitive.astype(np.int64)
    return data.clustering_view(name)


def _cluster_row(lam: float, seed: int, state: faircluster.ClusterState,
                 trace: faircluster.ClusterTrace) -> dict:
    """One ``CLUSTER_COLUMNS`` row for a finished fair K-means run."""
    w_min, w_max, w_mean, w_std = metrics.cluster_fairness(state.proportions, state.counts)
    return {
        "lambda": lam, "seed": seed,
        "kmeans_loss": trace.kmeans_loss[-1], "objective": trace.objective[-1],
        "w_min": w_min, "w_max": w_max, "w_mean": w_mean, "w_std": w_std,
        "sweeps": trace.sweep[-1], "converged": trace.converged, "cycled": trace.cycled,
    }


def _cluster_one(view, ccfg: faircluster.ClusterConfig, out_dir: str) -> list[dict]:
    points, sensitive = view
    state, trace = faircluster.fair_kmeans(points, sensitive, ccfg)
    tag = f"lam{ccfg.lam:g}_seed{ccfg.seed}"
    write_csv(os.path.join(out_dir, f"cluster_trace_{tag}.csv"),
              ("sweep", "kmeans_loss", "objective", "w_std", "moves"),
              zip(trace.sweep, trace.kmeans_loss, trace.objective, trace.w_std, trace.moves))
    write_csv(os.path.join(out_dir, f"assignments_{tag}.csv"), ("point_id", "cluster"),
              enumerate(state.assignments.tolist()))
    write_csv(os.path.join(out_dir, f"centers_{tag}.csv"),
              [f"x{j}" for j in range(state.centers.shape[1])], state.centers.tolist())
    return [_cluster_row(ccfg.lam, ccfg.seed, state, trace)]


def cmd_cluster(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> int:
    return _sweep(cfg, out_dir, jobs,
                  faircluster.ClusterConfig(**_config_values(cfg, _CLUSTER_KEYS)),
                  _cluster_one, _load_cluster_view, CLUSTER_COLUMNS)


def _sweep(cfg: ExperimentConfig, out_dir: str, jobs: int, base, run, load,
           columns) -> int:
    """Load the dataset once, run ``run`` on ``base`` at each lambda and seed,
    and write sweep.csv and the manifest.

    ``run(loaded, task, out_dir=...)`` returns one run's rows.  Under
    ``jobs > 1`` each worker receives ``run`` bound to the loaded data once,
    through the pool initializer, so the data is never pickled per task.
    Runs are isolated: a run that raises becomes one failure and the others
    go on.  If the load fails, every run fails with that one error and
    traceback; the load is not retried.
    """
    tasks = [dataclasses.replace(base, lam=lam, seed=seed)
             for lam in cfg.lambda_grid for seed in cfg.seeds]
    os.makedirs(out_dir, exist_ok=True)
    ok, loaded = _safe_call(load, cfg.raw["dataset"])
    if not ok:
        results = [(False, loaded)] * len(tasks)
    else:
        run = functools.partial(run, loaded, out_dir=out_dir)
        if jobs > 1:
            with multiprocessing.Pool(jobs, initializer=_init_worker, initargs=(run,)) as pool:
                results = pool.map(_call_in_worker, tasks)
        else:
            results = [_safe_call(run, t) for t in tasks]
    rows = [row for ok, payload in results if ok for row in payload]
    failures = [(f"lam={task.lam} seed={task.seed}: {payload[0]}", payload[1])
                for task, (ok, payload) in zip(tasks, results) if not ok]
    rows.sort(key=lambda r: (r["lambda"], r["seed"], r.get("split", "")))
    write_csv(os.path.join(out_dir, "sweep.csv"), columns,
              [[r[c] for c in columns] for r in rows])
    write_manifest(out_dir, cfg, [summary for summary, _ in failures])
    for summary, tb in failures:
        print(f"FAILED: {summary}", file=sys.stderr)
        print(tb, end="", file=sys.stderr)
    return 1 if failures else 0


def _init_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _call_in_worker(task):
    return _safe_call(_worker_run, task)


def _safe_call(fn, arg):
    """``(True, fn(arg))``, or ``(False, (summary, traceback))`` if it raises."""
    try:
        return True, fn(arg)
    except Exception as exc:  # noqa: BLE001 - runs are isolated; report and continue
        return False, (f"{type(exc).__name__}: {exc}", traceback.format_exc())


def cmd_eval(checkpoint: str, dataset: str, split: str = "test") -> metrics.EvalReport:
    params = model.load_params(checkpoint)
    enc = data.load_dataset(dataset)
    batch = enc.test if split == "test" else enc.train
    return metrics.evaluate(params, batch)


def cmd_demo_toy(out_dir: str, seed: int = 0, lambdas=(0.0, 1000.0)) -> int:
    """Planted-blob clustering demo: two single-group blobs, swept over lambda."""
    # Every lambda is checked before the output directory is made.
    configs = [faircluster.ClusterConfig(n_clusters=5, lam=float(lam), max_sweeps=200,
                                         seed=seed, init="kmeanspp") for lam in lambdas]
    os.makedirs(out_dir, exist_ok=True)
    points, sensitive, centers = faircluster.toy_dataset(seed)
    rows = []
    tables = []
    for ccfg in configs:
        state, trace = faircluster.fair_kmeans(points, sensitive, ccfg)
        row = _cluster_row(ccfg.lam, seed, state, trace)
        rows.append([row[c] for c in CLUSTER_COLUMNS])
        for blob in range(5):
            d2 = ((state.centers - centers[blob]) ** 2).sum(axis=1)
            k = int(np.argmin(d2))
            tables.append((ccfg.lam, blob + 1, k + 1, float(state.proportions[k])))
    write_csv(os.path.join(out_dir, "sweep.csv"), CLUSTER_COLUMNS, rows)
    write_csv(os.path.join(out_dir, "proportions.csv"),
              ("lambda", "planted_blob", "matched_cluster", "proportion"), tables)
    for lam, planted, matched, proportion in tables:
        print(f"lambda={lam:g} blob {planted} -> cluster {matched} proportion {proportion:.3f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="renyifair",
                                     description="Fairness experiments via maximal correlation.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="least severe log record printed to stderr (default WARNING)")

    for name in ("train", "cluster"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seeds", default=None, help="comma-separated seed overrides")
        p.add_argument("--jobs", type=int, default=1, help="parallel runs")

    p = sub.add_parser("eval", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="dataset spec file")
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--out", default=None, help="optional JSON output path")

    p = sub.add_parser("demo-toy", parents=[common])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambdas", default="0,1000", help="comma-separated lambda values")
    return parser


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Print the package's log records at ``level`` and above to stderr while inside."""
    logger = logging.getLogger("renyifair")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.setLevel(level)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        return _run(args)


def _run(args) -> int:
    if args.command in ("train", "cluster"):
        cfg = load_config(args.config)
        if args.seeds is not None:
            raw = dict(cfg.raw)
            raw["seeds"] = [_convert("--seeds", _integer, s) for s in args.seeds.split(",")]
            cfg = ExperimentConfig(raw)
        runner = cmd_train if args.command == "train" else cmd_cluster
        return runner(cfg, args.out, jobs=args.jobs)
    if args.command == "eval":
        report = cmd_eval(args.checkpoint, args.dataset, args.split)
        text = report.to_json()
        print(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        return 0
    if args.command == "demo-toy":
        lambdas = [_convert("--lambdas", float, v) for v in args.lambdas.split(",")]
        return cmd_demo_toy(args.out, seed=args.seed, lambdas=lambdas)
    return 2


if __name__ == "__main__":
    sys.exit(main())
