"""Seeded generator of the synthetic mixed-type census-like table.

The table is census-like in shape only: about 30k training and 15k test
rows, 8 categorical and 6 integer-valued continuous columns, a binary
label, a binary attribute ``attr_a`` split about 2:1 and a 5-valued
attribute ``attr_b``.  About 2% of the rows carry a ``?`` token in
one categorical column, which the spec drops.  Every value is drawn from
``numpy.random.default_rng(seed)``, so a seed always gives byte-identical
files.  The data is synthetic and stands for no real survey.
"""

from __future__ import annotations

import os

import numpy as np

COLUMNS = ("num_a", "cat_a", "num_b", "cat_b", "num_c", "cat_c", "cat_d", "cat_e",
           "attr_b", "attr_a", "num_d", "num_e", "num_f", "cat_f", "target")
# Category counts of cat_a..cat_f; with attr_b one-hot encoded too this gives
# 99 categories, 7 unseen buckets and 6 continuous columns: 112 features.
CARDINALITY = {"cat_a": 9, "cat_b": 16, "cat_c": 7, "cat_d": 15, "cat_e": 6, "cat_f": 41}
ATTR_B_SHARES = (0.55, 0.2, 0.12, 0.08, 0.05)
ATTR_A_MAJOR_SHARE = 2.0 / 3.0
MISSING_SHARE = 0.02
TRAIN_FILE = "census_wide.train.csv"
TEST_FILE = "census_wide.test.csv"


def _zipf_probs(k: int) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1) ** 0.9
    return w / w.sum()


def _rows(rng: np.random.Generator, n: int, effects: dict) -> list[str]:
    cols: dict[str, np.ndarray] = {}
    for name, k in CARDINALITY.items():
        cols[name] = rng.choice(k, size=n, p=_zipf_probs(k))
    attr_a = (rng.random(n) < ATTR_A_MAJOR_SHARE).astype(np.int64)
    attr_b = rng.choice(len(ATTR_B_SHARES), size=n, p=np.array(ATTR_B_SHARES))
    num_a = 17 + np.minimum(rng.gamma(2.5, 8.0, n), 73).astype(np.int64)
    num_b = np.round(rng.lognormal(12.0, 0.5, n)).astype(np.int64)
    num_c = np.clip(np.round(rng.normal(10.0, 2.5, n)), 1, 16).astype(np.int64)
    num_d = np.where(rng.random(n) < 0.08, np.round(rng.lognormal(8.0, 1.0, n)), 0).astype(np.int64)
    num_e = np.where(rng.random(n) < 0.05, np.round(rng.normal(1900, 300, n)), 0).astype(np.int64)
    num_f = np.clip(np.round(rng.normal(40.0, 12.0, n)), 1, 99).astype(np.int64)

    logit = (-1.9 + 0.04 * (num_a - 38) + 0.35 * (num_c - 10) + 1.2 * (num_d > 0)
             + 0.03 * (num_f - 40) + effects["cat_c"][cols["cat_c"]] + effects["cat_e"][cols["cat_e"]]
             + 1.0 * attr_a - 0.2 * attr_b)
    target = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))

    missing = rng.random(n) < MISSING_SHARE
    missing_col = rng.integers(0, 2, n)

    lines = []
    for i in range(n):
        cat_a = "?" if missing[i] and missing_col[i] == 0 else f"a{cols['cat_a'][i]}"
        cat_d = "?" if missing[i] and missing_col[i] == 1 else f"d{cols['cat_d'][i]}"
        lines.append(",".join((
            str(num_a[i]), cat_a, str(num_b[i]), f"b{cols['cat_b'][i]}", str(num_c[i]),
            f"c{cols['cat_c'][i]}", cat_d, f"e{cols['cat_e'][i]}", f"g{attr_b[i] + 1}",
            "major" if attr_a[i] else "minor", str(num_d[i]), str(num_e[i]), str(num_f[i]),
            f"f{cols['cat_f'][i]}", "pos" if target[i] else "neg",
        )))
    return lines


def generate(seed: int, out_dir: str, n_train: int = 30000, n_test: int = 15000) -> dict:
    """Write the train and test CSV files into ``out_dir``; return their row counts."""
    rng = np.random.default_rng([seed, 0xCE5])
    os.makedirs(out_dir, exist_ok=True)
    # One label model for both splits.
    effects = {name: rng.normal(0.0, 0.6, CARDINALITY[name]) for name in ("cat_c", "cat_e")}
    stats = {"seed": seed}
    for name, n in ((TRAIN_FILE, n_train), (TEST_FILE, n_test)):
        lines = _rows(rng, n, effects)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        split = name.split(".")[1]
        stats[f"{split}_rows_generated"] = n
        stats[f"{split}_rows_with_missing"] = sum("?" in line for line in lines)
    return stats
