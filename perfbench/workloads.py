"""The benchmark's workloads: CLI sweep configs and the inputs they read.

Each workload is a list of CLI sweeps (one ``renyifair train`` or
``renyifair cluster`` call per config).  One *round* runs every sweep of
the workload once; the benchmark times sweeps and sums them per round.

* ``synth_small``: ``train`` on ``synth:yequalss:2000`` (p=2, c=2, d=2,
  full batch) in modes dp_discrete, dp_binary and hsic over the lambda grid
  of ``configs/synth_dp.json``.  Arrays are tiny, so per-call overhead
  dominates: traced, ``model`` takes about half of the wall time,
  ``maxcorr`` (``empirical_q``, the Jacobi ``svd_small``) a quarter and
  ``fairtrain``'s own Python the rest.
* ``census_wide``: ``train`` on the seeded census-like table of
  ``gen_table.py`` (about 30k x 112 after one-hot encoding) in modes
  dp_binary and eo on ``attr_a`` and dp_discrete on the product-coded pair
  (d=10), one lambda > 0 and 40 steps each.  Traced, ``model`` matmuls
  take more than half of the wall time and the per-grid-point re-encode
  of the table about a quarter.
* ``cluster_census``: ``cluster`` on the same table's 10k x 5 clustering
  view, K=14, kmeanspp, per_point, lambda 0 and three lambda > 0, one
  one-point sweep per lambda so that sweeps stay short.  Traced,
  the per-point Python loop of fair K-means takes about two thirds of the
  wall time and the per-grid-point ``clustering_view`` re-read a third.

``--seed`` picks the model-init / K-means seed of every config and, for the
census workloads, the table itself.  ``max_sweeps`` sits below the number
of sweeps K-means needs to converge on this table, so every grid point
runs exactly ``max_sweeps`` sweeps and the work per round does not depend
on the seed.
"""

from __future__ import annotations

import json
import os

import gen_table

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = os.path.join(HERE, "specs")
SYNTH_LAMBDAS = [0.0, 1.0, 100.0]  # the grid of configs/synth_dp.json
CLUSTER_LAMBDAS = [0.0, 1.0, 10.0, 100.0]

# Per scale: synth iters, census iters, table rows (train, test), K-means sweeps.
SCALES = {
    "full": {"synth_iters": 200, "census_iters": 40, "rows": (30000, 15000), "max_sweeps": 8},
    "tiny": {"synth_iters": 4, "census_iters": 2, "rows": (8000, 4000), "max_sweeps": 2},
}

WORKLOADS = ("synth_small", "census_wide", "cluster_census")

# Seconds the reference library (``seedref/``) takes per sweep of each config
# and per set-up probe, as medians over runs on a 2-vCPU Xeon with one BLAS
# thread.  The benchmark measures each sweep's time relative to the reference
# sweep run next to it and multiplies by these, so that its figures read as
# seconds at this fixed reference speed however fast the host runs meanwhile.
REFERENCE_SPEED = {
    "synth_small": {"synth_dp_discrete": 0.996, "synth_dp_binary": 1.05, "synth_hsic": 1.18,
                    "setup_s": 0.172},
    "census_wide": {"census_dp_binary": 2.21, "census_eo": 2.13, "census_pair_dp_discrete": 2.08,
                    "setup_s": 1.27},
    "cluster_census": {"cluster_k14_lam0": 0.953, "cluster_k14_lam1": 1.03,
                       "cluster_k14_lam10": 0.984, "cluster_k14_lam100": 1.01, "setup_s": 0.457},
}

# Code run in a fresh interpreter to time set-up: import the package and
# build the workload's inputs once through the public data functions.
_SETUP_SNIPPETS = {
    "synth_small": """
from renyifair import data
train = data.synth_yequalss(2000, seed=0)
test = data.synth_yequalss(2000, seed=1)
shape = {"n_train": train.n, "n_test": test.n, "n_features": train.n_features}
""",
    "census_wide": """
from renyifair import data
shape = {}
for spec in SPECS:
    enc = data.load_dataset(spec)
    counts = np.bincount(enc.train.sensitive)[1:]
    shape[enc.spec.name] = {
        "n_train": enc.train.n, "n_test": enc.test.n, "n_features": enc.train.n_features,
        "group_shares": [round(float(c) / enc.train.n, 4) for c in counts],
        "positive_share": round(float(np.mean(enc.train.labels == 2)), 4),
    }
""",
    "cluster_census": """
from renyifair import data
points, sensitive = data.clustering_view(SPECS[0])
shape = {"n_points": int(points.shape[0]), "n_dims": int(points.shape[1]),
         "privileged_share": round(float(sensitive.mean()), 4)}
""",
}

SETUP_TEMPLATE = """
import time
t0 = time.perf_counter()
import numpy as np
import renyifair
SPECS = {specs!r}
{body}
elapsed = time.perf_counter() - t0
import json
print(json.dumps({{"setup_s": elapsed, "shape": shape}}))
"""


def _train_cfg(dataset: str, mode: str, lambdas, eta: float, iters: int, seed: int) -> dict:
    return {"dataset": dataset, "model": "linear", "fairness_mode": mode,
            "lambda_grid": list(lambdas), "eta": eta, "iters": iters,
            "floor": 1e-06, "seeds": [seed]}


def _configs(name: str, seed: int, scale: dict) -> list[tuple[str, str, dict]]:
    """(config name, CLI subcommand, config dict) for every sweep of a workload."""
    wide = os.path.join(SPECS, "census_wide.spec")
    pair = os.path.join(SPECS, "census_wide_pair.spec")
    if name == "synth_small":
        return [(f"synth_{mode}", "train",
                 _train_cfg("synth:yequalss:2000", mode, SYNTH_LAMBDAS, 0.0005,
                            scale["synth_iters"], seed))
                for mode in ("dp_discrete", "dp_binary", "hsic")]
    if name == "census_wide":
        iters = scale["census_iters"]
        return [
            ("census_dp_binary", "train", _train_cfg(wide, "dp_binary", [10.0], 0.5, iters, seed)),
            ("census_eo", "train", _train_cfg(wide, "eo", [10.0], 0.5, iters, seed)),
            ("census_pair_dp_discrete", "train",
             _train_cfg(pair, "dp_discrete", [10.0], 0.5, iters, seed)),
        ]
    if name == "cluster_census":
        return [(f"cluster_k14_lam{lam:g}", "cluster", {
            "dataset": wide, "n_clusters": 14, "lambda_grid": [lam],
            "max_sweeps": scale["max_sweeps"], "init": "kmeanspp",
            "w_update_mode": "per_point", "seeds": [seed]}) for lam in CLUSTER_LAMBDAS]
    raise ValueError(f"unknown workload {name!r}")


def prepare(name: str, seed: int, work_dir: str, size: str = "full") -> dict:
    """Write the workload's inputs and configs under ``work_dir``.

    Returns the config list, the data directory the specs resolve against,
    the generator's record (census workloads) and the set-up snippet.
    """
    scale = SCALES[size]
    data_dir = os.path.join(work_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    generator = None
    specs = []
    if name in ("census_wide", "cluster_census"):
        n_train, n_test = scale["rows"]
        generator = gen_table.generate(seed, data_dir, n_train, n_test)
        specs = [os.path.join(SPECS, "census_wide.spec")]
        if name == "census_wide":
            specs.append(os.path.join(SPECS, "census_wide_pair.spec"))
    configs = []
    for cname, kind, cfg in _configs(name, seed, scale):
        path = os.path.join(work_dir, f"{cname}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        grid = [(float(lam), s) for lam in cfg["lambda_grid"] for s in cfg["seeds"]]
        configs.append({"name": cname, "kind": kind, "path": path, "grid": grid})
    return {
        "configs": configs,
        "data_dir": data_dir,
        "generator": generator,
        "setup_code": SETUP_TEMPLATE.format(specs=specs, body=_SETUP_SNIPPETS[name]),
    }
