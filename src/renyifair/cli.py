"""Experiment orchestration CLI.

Subcommands::

    renyifair train   --config cfg.json --out DIR [--seeds 0,1] [--jobs N]
    renyifair cluster --config cfg.json --out DIR [--seeds 0] [--jobs N]
    renyifair eval    --checkpoint params.txt --dataset spec [--split test]
    renyifair demo-toy --out DIR [--seed 0] [--lambdas 0,1000]

Config files are JSON.  A training config names a dataset (a spec file
path, or ``synth:yequalss:<n>``), a model (``linear`` or
``one_hidden:<width>``), a fairness mode, and a lambda grid; a clustering
config names a dataset (spec file with a clustering view, or
``toy:<seed>``), ``n_clusters``, and a lambda grid.  Dataset spec files
resolve their source files against the ``RENYIFAIR_DATA`` environment
variable (default ``./data``).

Every run writes a headered ``sweep.csv`` (one row per lambda/seed/split
with columns covering accuracy, error, p%, DP and EO violations, sigma2,
NMI, losses and the w statistics), per-run trace CSVs, parameter
checkpoints in a text format (header line ``arch=... input_dim=...
n_classes=... hidden_dim=...`` followed by one parameter repr per line),
and a ``manifest.json`` with the config hash and library versions.
Outputs contain no timestamps: rerunning a config with the same seeds
produces byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a dataset, a model or clustering setup, and a lambda grid."""

    raw: dict

    @property
    def lambda_grid(self) -> list[float]:
        grid = [float(v) for v in self.raw.get("lambda_grid", DEFAULT_LAMBDA_GRID)]
        if not grid or any(v < 0 for v in grid) or sorted(grid) != grid:
            raise ValueError("lambda_grid must be nonempty, nonnegative, ascending")
        return grid

    @property
    def seeds(self) -> list[int]:
        return [int(s) for s in self.raw.get("seeds", [0])]

    def config_hash(self) -> str:
        text = json.dumps(self.raw, sort_keys=True)
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


def write_csv(path, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


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
        return "one_hidden", int(text.split(":", 1)[1])
    raise ValueError(f"unknown model {text!r} (use 'linear' or 'one_hidden:<width>')")


def _load_train_batches(name: str) -> tuple[model.Batch, model.Batch]:
    if name.startswith("synth:yequalss:"):
        n = int(name.rsplit(":", 1)[1])
        return data.synth_yequalss(n, seed=0), data.synth_yequalss(n, seed=1)
    enc = data.load_dataset(name)
    return enc.train, enc.test


def _report_row(report: metrics.EvalReport, base: dict, split: str) -> dict:
    row = dict(base)
    row.update(
        split=split,
        accuracy=report.accuracy,
        error=1.0 - report.accuracy,
        p_percent=report.p_percent,
        dp_violation=report.dp_violation,
        eo_violation=report.eo_violation,
        sigma2=report.sigma2,
        nmi=report.nmi,
    )
    return row


def _train_one(args) -> list[dict]:
    raw, lam, seed, out_dir = args
    cfg = ExperimentConfig(raw)
    train_batch, test_batch = _load_train_batches(raw["dataset"])
    arch, hidden = _parse_model(raw.get("model", "linear"))
    params0 = model.init_params(arch, train_batch.n_features, train_batch.n_classes,
                                hidden_dim=hidden, seed=seed)
    tcfg = fairtrain.TrainConfig(
        lam=lam,
        eta=float(raw.get("eta", 0.1)),
        iters=int(raw.get("iters", 5000)),
        fairness_mode=raw.get("fairness_mode", "none"),
        batch_size=raw.get("batch_size"),
        floor=float(raw.get("floor", 1e-6)),
        seed=seed,
        grad_tol=float(raw.get("grad_tol", 0.0)),
        eo_min_group=int(raw.get("eo_min_group", 30)),
    )
    trace = fairtrain.train(params0, train_batch, tcfg)
    tag = f"lam{lam:g}_seed{seed}"
    trace.to_csv(os.path.join(out_dir, f"trace_{tag}.csv"))
    model.save_params(trace.final_params, os.path.join(out_dir, f"params_{tag}.txt"))
    if trace.diverged:
        raise RuntimeError(f"run {tag} diverged (non-finite loss)")

    base = {
        "lambda": lam, "seed": seed,
        "loss": trace.loss[-1], "penalty": trace.penalty[-1],
        "grad_norm": trace.grad_norm[-1],
        "iters_run": trace.iteration[-1], "diverged": trace.diverged,
    }
    rows = []
    for split, batch in (("train", train_batch), ("test", test_batch)):
        report = metrics.evaluate(trace.final_params, batch, floor=tcfg.floor)
        rows.append(_report_row(report, base, split))
    return rows


def cmd_train(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> int:
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(cfg.raw, lam, seed, out_dir)
             for lam in cfg.lambda_grid for seed in cfg.seeds]
    rows, failures = _run_tasks(_train_one, tasks, jobs)
    rows.sort(key=lambda r: (r["lambda"], r["seed"], r["split"]))
    write_csv(os.path.join(out_dir, "sweep.csv"), TRAIN_COLUMNS, rows)
    return _finish(out_dir, cfg, failures)


def _load_cluster_view(name: str) -> tuple[np.ndarray, np.ndarray]:
    if name.startswith("toy:"):
        points, sensitive, _ = faircluster.toy_dataset(int(name.split(":", 1)[1]))
        return points, sensitive
    if name.startswith("csv:"):
        # raw numeric CSV: coordinate columns followed by a 0/1 sensitive column
        raw = np.loadtxt(name.split(":", 1)[1], delimiter=",", ndmin=2)
        return raw[:, :-1], raw[:, -1].astype(np.int64)
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


def _cluster_one(args) -> list[dict]:
    raw, lam, seed, out_dir = args
    points, sensitive = _load_cluster_view(raw["dataset"])
    ccfg = faircluster.ClusterConfig(
        n_clusters=int(raw["n_clusters"]),
        lam=lam,
        max_sweeps=int(raw.get("max_sweeps", 200)),
        seed=seed,
        w_update_mode=raw.get("w_update_mode", "per_point"),
        init=raw.get("init", "random_assignment"),
    )
    state, trace = faircluster.fair_kmeans(points, sensitive, ccfg)
    tag = f"lam{lam:g}_seed{seed}"
    trace.to_csv(os.path.join(out_dir, f"cluster_trace_{tag}.csv"))
    with open(os.path.join(out_dir, f"assignments_{tag}.csv"), "w") as fh:
        fh.write("point_id,cluster\n")
        for i, k in enumerate(state.assignments):
            fh.write(f"{i},{k}\n")
    with open(os.path.join(out_dir, f"centers_{tag}.csv"), "w") as fh:
        fh.write(",".join(f"x{j}" for j in range(state.centers.shape[1])) + "\n")
        for c in state.centers:
            fh.write(",".join(repr(float(v)) for v in c) + "\n")

    return [_cluster_row(lam, seed, state, trace)]


def cmd_cluster(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> int:
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(cfg.raw, lam, seed, out_dir)
             for lam in cfg.lambda_grid for seed in cfg.seeds]
    rows, failures = _run_tasks(_cluster_one, tasks, jobs)
    rows.sort(key=lambda r: (r["lambda"], r["seed"]))
    write_csv(os.path.join(out_dir, "sweep.csv"), CLUSTER_COLUMNS, rows)
    return _finish(out_dir, cfg, failures)


def _run_tasks(fn, tasks, jobs: int):
    """Run every task, isolating failures.

    Returns the rows of the runs that succeeded and one
    ``(summary, traceback)`` pair per failed run.
    """
    bundles = [(fn, t) for t in tasks]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_safe_call, bundles)
    else:
        results = [_safe_call(b) for b in bundles]
    rows: list[dict] = []
    failures: list[tuple[str, str]] = []
    for task, (ok, payload) in zip(tasks, results):
        if ok:
            rows.extend(payload)
        else:
            message, tb = payload
            failures.append((f"lam={task[1]} seed={task[2]}: {message}", tb))
    return rows, failures


def _safe_call(bundle):
    fn, task = bundle
    try:
        return True, fn(task)
    except Exception as exc:  # noqa: BLE001 - runs are isolated; report and continue
        return False, (f"{type(exc).__name__}: {exc}", traceback.format_exc())


def _finish(out_dir: str, cfg: ExperimentConfig, failures) -> int:
    """Write the manifest and report each failure with its traceback on stderr."""
    write_manifest(out_dir, cfg, [summary for summary, _ in failures])
    for summary, tb in failures:
        print(f"FAILED: {summary}", file=sys.stderr)
        print(tb, end="", file=sys.stderr)
    return 1 if failures else 0


def cmd_eval(checkpoint: str, dataset: str, split: str = "test") -> metrics.EvalReport:
    params = model.load_params(checkpoint)
    enc = data.load_dataset(dataset)
    batch = enc.test if split == "test" else enc.train
    return metrics.evaluate(params, batch)


def cmd_demo_toy(out_dir: str, seed: int = 0, lambdas=(0.0, 1000.0)) -> int:
    """Planted-blob clustering demo: two single-group blobs, swept over lambda."""
    os.makedirs(out_dir, exist_ok=True)
    points, sensitive, centers = faircluster.toy_dataset(seed)
    rows = []
    tables = []
    for lam in lambdas:
        ccfg = faircluster.ClusterConfig(n_clusters=5, lam=float(lam), max_sweeps=200,
                                         seed=seed, init="kmeanspp")
        state, trace = faircluster.fair_kmeans(points, sensitive, ccfg)
        rows.append(_cluster_row(float(lam), seed, state, trace))
        for blob in range(5):
            d2 = ((state.centers - centers[blob]) ** 2).sum(axis=1)
            k = int(np.argmin(d2))
            tables.append({"lambda": float(lam), "planted_blob": blob + 1,
                           "matched_cluster": k + 1,
                           "proportion": float(state.proportions[k])})
    write_csv(os.path.join(out_dir, "sweep.csv"), CLUSTER_COLUMNS, rows)
    write_csv(os.path.join(out_dir, "proportions.csv"),
              ("lambda", "planted_blob", "matched_cluster", "proportion"), tables)
    for t in tables:
        print(f"lambda={t['lambda']:g} blob {t['planted_blob']} -> "
              f"cluster {t['matched_cluster']} proportion {t['proportion']:.3f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="renyifair",
                                     description="Fairness experiments via maximal correlation.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "cluster"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seeds", default=None, help="comma-separated seed overrides")
        p.add_argument("--jobs", type=int, default=1, help="parallel runs")

    p = sub.add_parser("eval")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="dataset spec file")
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--out", default=None, help="optional JSON output path")

    p = sub.add_parser("demo-toy")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambdas", default="0,1000", help="comma-separated lambda values")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("train", "cluster"):
        cfg = load_config(args.config)
        if args.seeds is not None:
            raw = dict(cfg.raw)
            raw["seeds"] = [int(s) for s in args.seeds.split(",")]
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
        lambdas = [float(v) for v in args.lambdas.split(",")]
        return cmd_demo_toy(args.out, seed=args.seed, lambdas=lambdas)
    return 2


if __name__ == "__main__":
    sys.exit(main())
