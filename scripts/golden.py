#!/usr/bin/env python3
"""Run a fixed CLI matrix against two renyifair checkouts and compare every output file.

Usage (from the repository root)::

    python3 scripts/golden.py --parent DIR --change DIR [--work DIR] [--tol 0] [--blas-threads 1]

``DIR`` is a checkout's root; its library is imported from ``DIR/src``.
Each side runs the whole matrix (:func:`build_matrix`) in one subprocess, one
``renyifair.cli.main`` call per entry, with its own ``PYTHONPATH`` and
``--blas-threads`` BLAS threads (default 1; the CLI itself leaves OpenBLAS
its default, one thread per CPU).  Every entry writes its files, its
captured stdout and stderr (``stdout.log``, ``stderr.log``) and its exit
status (``exit.txt``) into ``WORK/<side>/<entry>/``.

The inputs are built once, and each side runs on its own fresh copy of
them at ``WORK/inputs`` (the configs name files there), so that each side
starts without a dataset cache entry (``.renyifair-cache/`` beside the
tables) and parses every table cold.  Nothing is downloaded.  The inputs
are the census-like tables of ``perfbench/gen_table.py``
(full size, seed 1), a small rare-group table written here, whose
minibatches lack a group and whose test split lacks group ``c`` (so two
of the six tuples of its product-coded spec), and a
small whitespace-delimited table with a derived sensitive column and one
quoted number, which numpy's C reader refuses, so the loader reads that
split (and the clustering view its pool) again as text, and two seeded raw
``csv:`` clustering tables of 300 points, one with one coordinate column
and one with nine.  The matrix holds
the three perfbench workloads' sweeps, ``configs/synth_dp.json``,
``train`` in all six modes with ``linear`` and ``one_hidden:4`` at full
batch and ``batch_size`` 64 (``--jobs`` 1 and 2), ``dp_discrete``, ``none``
and ``eo`` on the product-coded pair (d=10) at ``batch_size`` 64, every
mode on the binary and three-group rare specs at ``batch_size`` 16, ``dp_discrete`` and
``eo`` on the three-group rare table, ``none``, ``dp_binary``, ``pearson``
and ``hsic`` on the binary one (a 4% group) and ``dp_discrete`` on the
product-coded one (d=6) at full batch, one full-batch entry
per penalty route (``dp_discrete`` on the three-group table, ``dp_binary``
and ``eo`` on the binary one) at a floor of 0.45, which clamps the ``yes``
class's mean predicted mass on nearly every step, ``dp_discrete`` on the
token table at ``batch_size`` 16, ``cluster`` in both modes with both
inits on ``toy:0`` and the census view and once on the token table's view,
``cluster`` on the one-coordinate table, on the nine-coordinate table and
there with ``n_clusters`` 1 (the distance kernel's one-feature, p >= 8 and
one-centre shapes), ``demo-toy``, and ``eval`` on both splits, a split that lacks a group
included, on the product-coded rare table's test split and on the token
table's test split.

After its cold run the change side runs the matrix a second time on its
own inputs, now with the cache entries its first run wrote, into
``WORK/change.warm``; each file of that run must have the bytes of its cold
run (``stderr.log`` included, so log records must be replayed from the
cache), and any file that differs is structural.

Before comparing, the checkout's path and the side's output directory are
replaced by ``<checkout>`` and ``<out>`` in every file.  Each file then gets
one verdict:

* ``identical``: the same bytes;
* ``numeric``: the same shape, only numbers differ; the report gives each
  moved column's max abs and max rel difference (CSV columns by header,
  JSON leaves by key path, any other text file as one column ``numbers``);
* ``structural``: anything else (a file on one side only, a header, a key,
  a row count or a non-numeric token changed).

The exit status is 1 when a file is structural or a numeric column moves by
more than ``--tol`` (absolute, default 0), or when the warm rerun differs
from the cold run, else 0.  The whole run takes about 45 s on a 2-vCPU
Xeon (Python 3.11, numpy 2.4, one BLAS thread): under 15 s per run for its
83 entries, three runs, plus the inputs and the diffs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
TABLE_SEED = 1
RARE_ROWS = (300, 60)  # train, test
TOKEN_ROWS = (160, 40)  # train, test
POINT_ROWS = 300

# Run inside each side's subprocess: argv[1] is the matrix JSON, argv[2] the
# side's output root.  ``{root}`` in an argument is that root, ``{out}`` the
# entry's own directory.
RUNNER = r"""
import contextlib, io, json, os, sys, traceback
from renyifair import cli
matrix = json.load(open(sys.argv[1]))
root = sys.argv[2]
for name, argv in matrix:
    out = os.path.join(root, name)
    os.makedirs(out, exist_ok=True)
    argv = [a.replace("{root}", root).replace("{out}", out) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = str(cli.main(argv))
        except Exception:
            status = "raised"
            traceback.print_exc()
    for fname, text in (("stdout.log", stdout.getvalue()), ("stderr.log", stderr.getvalue()),
                        ("exit.txt", status + "\n")):
        with open(os.path.join(out, fname), "w") as fh:
            fh.write(text)
"""


def write_rare_table(where: str) -> dict:
    """A small table with rare groups, and three specs over it.

    ``h`` is binary with ``q`` on every 25th row; ``g`` takes ``c`` on every
    30th training row, ``b`` on every 7th, ``a`` otherwise, and the test rows
    hold only ``a`` and ``b``.  ``rare3`` is sensitive to ``g``, ``rare2``
    to ``h`` and ``rare6`` to their product code (d=6, two tuples of which
    the test split lacks).  Returns the spec paths by name.
    """
    n_train, n_test = RARE_ROWS
    rows = []
    for i in range(n_train + n_test):
        g = "c" if i < n_train and i % 30 == 0 else "b" if i % 7 == 0 else "a"
        h = "q" if i % 25 == 0 else "p"
        v, w = (i * 37) % 101 / 10.0, (i * 53) % 89 / 10.0 + (g == "b")
        cls = "yes" if (i * 11) % 5 < 2 + (h == "q") else "no"
        rows.append(f"{v},{w},{g},{h},{cls}")
    with open(os.path.join(where, "rare.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    specs = {}
    for name, sensitive, feature in (("rare3", "g", "h"), ("rare2", "h", "g"),
                                     ("rare6", "g h", "")):
        specs[name] = os.path.join(where, f"{name}.spec")
        with open(specs[name], "w") as fh:
            fh.write(f"name = {name}\ncolumns = v w g h cls\nlabel = cls\npositive_label = yes\n"
                     f"sensitive = {sensitive}\ncategorical = {feature}\n"
                     f"split = head\ntrain_count = {n_train}\n"
                     f"test_count = {n_test}\nfile = rare.csv\n")
    return specs


def write_token_table(where: str) -> str:
    """A small whitespace-delimited table, and a spec over it; returns the spec path.

    One training row quotes its ``v`` token, which numpy's C reader refuses,
    so the loader reads the training split again as text (the test split
    is read on its own and keeps its first read), and the clustering view
    its pool.  The sensitive column ``grp`` is derived from ``kind``: 1 for
    ``k1`` and ``k2``; it is also the clustering view's sensitive column.
    """
    n_train, n_test = TOKEN_ROWS
    rows = []
    for i in range(n_train + n_test):
        kind = f"k{(i * 7) % 5}"
        v, w = (i * 41) % 97 / 10.0, (i * 29) % 83 / 10.0 + (kind in ("k1", "k2"))
        cls = "yes" if (i * 13) % 7 < 3 + (kind == "k1") else "no"
        rows.append(f"{v} \t{w}  {kind} {cls}")
    rows[5] = '"' + rows[5].replace(" ", '" ', 1)
    with open(os.path.join(where, "tokens.txt"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    spec = os.path.join(where, "tokens.spec")
    with open(spec, "w") as fh:
        fh.write(f"name = tokens\ndelimiter = whitespace\ncolumns = v w kind cls\n"
                 f"label = cls\npositive_label = yes\nderive = grp:kind:k1|k2\n"
                 f"sensitive = grp\ncategorical = kind\nsplit = head\n"
                 f"train_count = {n_train}\ntest_count = {n_test}\nfile = tokens.txt\n"
                 f"clustering_features = v w\nclustering_sensitive = grp\n"
                 f"clustering_sensitive_positive = 1\n")
    return spec


def write_point_tables(where: str) -> dict:
    """Two seeded raw ``csv:`` clustering tables, coordinates then a 0/1
    sensitive column: ``points1`` with one coordinate, ``points9`` with nine
    of mixed scales.  Returns their paths by name."""
    import numpy as np

    rng = np.random.default_rng(TABLE_SEED)
    paths = {}
    for p in (1, 9):
        coords = rng.normal(size=(POINT_ROWS, p)) * 10.0 ** rng.integers(-2, 3, size=p)
        sensitive = rng.integers(0, 2, POINT_ROWS)
        paths[f"points{p}"] = os.path.join(where, f"points{p}.csv")
        with open(paths[f"points{p}"], "w") as fh:
            for row, s in zip(coords.tolist(), sensitive.tolist()):
                fh.write(",".join(map(repr, row)) + f",{s}\n")
    return paths


def build_matrix(inputs: str) -> list[tuple[str, list[str]]]:
    """Write the inputs and configs under ``inputs``; return ``(entry, argv)`` pairs."""
    sys.path.insert(0, PERFBENCH)
    import gen_table
    import workloads

    data_dir = os.path.join(inputs, "data")
    os.makedirs(data_dir, exist_ok=True)
    gen_table.generate(TABLE_SEED, data_dir, *workloads.SCALES["full"]["rows"])
    rare = write_rare_table(data_dir)
    tokens = write_token_table(data_dir)
    points = write_point_tables(data_dir)
    # The specs are copied so that no config names a checkout's path.
    specs = shutil.copytree(workloads.SPECS, os.path.join(inputs, "specs"), dirs_exist_ok=True)
    wide = os.path.join(specs, "census_wide.spec")
    pair = os.path.join(specs, "census_wide_pair.spec")
    matrix = []

    def add(name, kind, cfg, *extra):
        cfg["dataset"] = cfg["dataset"].replace(workloads.SPECS, specs)
        path = os.path.join(inputs, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        matrix.append((name, [kind, "--config", path, "--out", "{out}", *extra]))

    def train(dataset, mode, iters, lambdas=(0.0, 10.0), **keys):
        return {"dataset": dataset, "model": "linear", "fairness_mode": mode,
                "lambda_grid": list(lambdas), "eta": 0.5, "iters": iters, "seeds": [0], **keys}

    for workload in workloads.WORKLOADS:
        for name, kind, cfg in workloads._configs(workload, TABLE_SEED, workloads.SCALES["full"]):
            add(f"{workload}.{name}", kind, cfg)
    matrix.append(("synth_dp", ["train", "--config", os.path.join(ROOT, "configs", "synth_dp.json"),
                                "--out", "{out}"]))
    for mode in ("none", "dp_discrete", "dp_binary", "eo", "pearson", "hsic"):
        for model in ("linear", "one_hidden:4"):
            for batch in (None, 64):
                add(f"synth.{mode}.{model.replace(':', '')}.b{batch or 'full'}", "train",
                    train("synth:yequalss:400", mode, 30, model=model, batch_size=batch))
        add(f"synth.{mode}.jobs2", "train", train("synth:yequalss:400", mode, 30, batch_size=64),
            "--jobs", "2")
    for mode in ("dp_discrete", "none", "eo"):
        add(f"pair.{mode}.b64", "train", train(pair, mode, 100, batch_size=64, eo_min_group=1))
    for mode in ("none", "dp_discrete", "dp_binary", "eo", "pearson", "hsic"):
        add(f"rare2.{mode}.b16", "train", train(rare["rare2"], mode, 60, batch_size=16,
                                                eo_min_group=1))
    for mode in ("none", "dp_discrete", "eo"):
        add(f"rare3.{mode}.b16", "train", train(rare["rare3"], mode, 60, batch_size=16,
                                                eo_min_group=1))
    for mode in ("dp_discrete", "eo"):
        add(f"rare3.{mode}.bfull", "train", train(rare["rare3"], mode, 60, eo_min_group=1))
    for mode in ("none", "dp_binary", "pearson", "hsic"):
        add(f"rare2.{mode}.bfull", "train", train(rare["rare2"], mode, 60))
    add("rare6.dp_discrete.bfull", "train", train(rare["rare6"], "dp_discrete", 60))
    # A floor above the "yes" class's predicted mass, clamped on every step.
    for table, mode in (("rare3", "dp_discrete"), ("rare2", "dp_binary"), ("rare2", "eo")):
        add(f"{table}.{mode}.floor", "train", train(rare[table], mode, 60, floor=0.45,
                                                   eo_min_group=1))
    add("tokens.dp_discrete.b16", "train", train(tokens, "dp_discrete", 60, batch_size=16))
    for w_mode in ("per_point", "per_sweep"):
        for init in ("random_assignment", "kmeanspp"):
            for dataset, tag, sweeps in (("toy:0", "toy", 50), (wide, "census", 4)):
                add(f"cluster.{tag}.{w_mode}.{init}", "cluster",
                    {"dataset": dataset, "n_clusters": 5, "lambda_grid": [0.0, 10.0],
                     "max_sweeps": sweeps, "init": init, "w_update_mode": w_mode, "seeds": [0]})
    add("cluster.tokens", "cluster",
        {"dataset": tokens, "n_clusters": 5, "lambda_grid": [0.0, 10.0], "max_sweeps": 10,
         "init": "kmeanspp", "w_update_mode": "per_point", "seeds": [0]})
    # The distance kernel's one-feature, p >= 8 and one-centre shapes.
    for name, table, k, w_mode in (("csv1", "points1", 5, "per_point"),
                                   ("csv9", "points9", 5, "per_sweep"),
                                   ("csv9.k1", "points9", 1, "per_point")):
        add(f"cluster.{name}", "cluster",
            {"dataset": f"csv:{points[table]}", "n_clusters": k, "lambda_grid": [0.0, 10.0],
             "max_sweeps": 20, "init": "kmeanspp", "w_update_mode": w_mode, "seeds": [0]})
    matrix.append(("demo_toy", ["demo-toy", "--out", "{out}"]))
    for split in ("train", "test"):
        matrix.append((f"eval.pair.{split}", [
            "eval", "--checkpoint", "{root}/pair.dp_discrete.b64/params_lam10_seed0.txt",
            "--dataset", pair, "--split", split, "--out", "{out}/report.json"]))
        matrix.append((f"eval.rare3.{split}", [
            "eval", "--checkpoint", "{root}/rare3.dp_discrete.b16/params_lam10_seed0.txt",
            "--dataset", rare["rare3"], "--split", split, "--out", "{out}/report.json"]))
    matrix.append(("eval.rare6.test", [
        "eval", "--checkpoint", "{root}/rare6.dp_discrete.bfull/params_lam10_seed0.txt",
        "--dataset", rare["rare6"], "--split", "test", "--out", "{out}/report.json"]))
    matrix.append(("eval.tokens.test", [
        "eval", "--checkpoint", "{root}/tokens.dp_discrete.b16/params_lam10_seed0.txt",
        "--dataset", tokens, "--split", "test", "--out", "{out}/report.json"]))
    return matrix


def run_side(checkout: str, matrix_path: str, inputs: str, out_root: str,
             blas_threads: int = 1) -> float:
    """Run the matrix against ``checkout``'s library with ``blas_threads`` BLAS
    threads; return the wall time in seconds."""
    env = dict(os.environ)
    # The runner's working directory is out_root, so a relative checkout is resolved here.
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    env["RENYIFAIR_DATA"] = os.path.join(inputs, "data")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    os.makedirs(out_root, exist_ok=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", RUNNER, matrix_path, out_root],
                   env=env, cwd=out_root, check=True)
    return time.perf_counter() - start


def normalise(out_root: str, checkout: str) -> None:
    """Replace the checkout's path and ``out_root`` by placeholders in every file under it."""
    swaps = [(os.path.realpath(out_root), "<out>"), (os.path.abspath(out_root), "<out>"),
             (os.path.realpath(checkout), "<checkout>"), (os.path.abspath(checkout), "<checkout>")]
    for path in _files(out_root):
        full = os.path.join(out_root, path)
        with open(full, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
        new = text
        for old, placeholder in swaps:
            new = new.replace(old, placeholder)
        if new != text:
            with open(full, "w", encoding="utf-8", errors="surrogateescape") as fh:
                fh.write(new)


def _files(root: str) -> list[str]:
    found = []
    for base, _, names in os.walk(root):
        found += [os.path.relpath(os.path.join(base, n), root) for n in names]
    return sorted(found)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|inf|nan)")


def _as_float(token):
    """``token`` as a number, or None for text, booleans and nulls."""
    if isinstance(token, bool) or token is None:
        return None
    try:
        return float(token)
    except (TypeError, ValueError):
        return None


def _cells(path: str, text: str):
    """``(skeleton, {column: [numbers]})`` of a file; equal skeletons mean the same shape."""
    if path.endswith(".json"):
        leaves = {}

        def walk(node, key):
            if isinstance(node, dict):
                for k in sorted(node):
                    walk(node[k], f"{key}.{k}" if key else k)
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    walk(item, f"{key}[{i}]")
            else:
                leaves[key] = node
        walk(json.loads(text), "")
        numbers = {k: _as_float(v) for k, v in leaves.items()}
        skeleton = [(k, None if numbers[k] is not None else leaves[k]) for k in leaves]
        columns = {}
        for key, value in numbers.items():
            if value is not None:
                columns.setdefault(_column(key), []).append(value)
        return skeleton, columns
    if path.endswith(".csv"):
        lines = text.splitlines()
        header = lines[0].split(",") if lines else []
        columns = {name: [] for name in header}
        skeleton = [header]
        for line in lines[1:]:
            row = line.split(",")
            if len(row) != len(header):
                return skeleton + [line], {}
            shape = []
            for name, cell in zip(header, row):
                value = _as_float(cell)
                shape.append(None if value is not None else cell)
                if value is not None:
                    columns[name].append(value)
            skeleton.append(shape)
        return skeleton, {k: v for k, v in columns.items() if v}
    numbers = [float(t) for t in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), {"numbers": numbers} if numbers else {}


def _column(key: str) -> str:
    """A JSON key path with list indices dropped, so one report line covers a list."""
    return re.sub(r"\[\d+\]", "[]", key)


def _difference(a: float, b: float) -> tuple[float, float]:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    gap = abs(a - b)
    if math.isnan(gap):
        return math.inf, math.inf
    scale = max(abs(a), abs(b))
    return gap, gap / scale if scale else math.inf


def compare_file(path: str, parent_text: str, change_text: str) -> dict:
    """One file's verdict: identical, numeric (with per-column max abs/rel) or structural."""
    if parent_text == change_text:
        return {"file": path, "verdict": "identical"}
    try:
        parent, change = _cells(path, parent_text), _cells(path, change_text)
    except ValueError as exc:
        return {"file": path, "verdict": "structural", "why": f"unreadable: {exc}"}
    if parent[0] != change[0] or parent[1].keys() != change[1].keys() or any(
            len(parent[1][k]) != len(change[1][k]) for k in parent[1]):
        return {"file": path, "verdict": "structural", "why": "shape or text differs"}
    columns = {}
    for name in parent[1]:
        gaps = [_difference(a, b) for a, b in zip(parent[1][name], change[1][name])]
        worst = (max(g[0] for g in gaps), max(g[1] for g in gaps))
        if worst != (0.0, 0.0):
            columns[name] = worst
    return {"file": path, "verdict": "numeric", "columns": columns}


def compare_trees(parent_root: str, change_root: str) -> list[dict]:
    """Verdicts of every file under either root, by relative path."""
    parent_files, change_files = set(_files(parent_root)), set(_files(change_root))
    verdicts = []
    for path in sorted(parent_files | change_files):
        if path not in change_files or path not in parent_files:
            side = "parent" if path in parent_files else "change"
            verdicts.append({"file": path, "verdict": "structural", "why": f"only in {side}"})
            continue
        texts = []
        for root in (parent_root, change_root):
            with open(os.path.join(root, path), encoding="utf-8", errors="surrogateescape") as fh:
                texts.append(fh.read())
        verdicts.append(compare_file(path, *texts))
    return verdicts


def beyond(verdict: dict, tol: float) -> bool:
    """True when a verdict fails the gate: structural, or a column moved by more than ``tol``."""
    if verdict["verdict"] == "structural":
        return True
    return any(gap > tol for gap, _ in verdict.get("columns", {}).values())


def report(verdicts: list[dict], tol: float) -> str:
    counts = {}
    for v in verdicts:
        counts[v["verdict"]] = counts.get(v["verdict"], 0) + 1
    lines = [f"{len(verdicts)} files: " + ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))]
    for v in verdicts:
        if v["verdict"] == "identical":
            continue
        mark = "FAIL" if beyond(v, tol) else "ok"
        if v["verdict"] == "structural":
            lines.append(f"{mark} structural {v['file']}: {v['why']}")
            continue
        moved = "; ".join(f"{k} abs {a:.3g} rel {r:.3g}" for k, (a, r) in sorted(v["columns"].items()))
        lines.append(f"{mark} numeric {v['file']}: {moved or 'same numbers, other spelling'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout root of the parent")
    parser.add_argument("--change", required=True, help="checkout root of the change")
    parser.add_argument("--work", default=None, help="work directory (default: a new temp dir)")
    parser.add_argument("--tol", type=float, default=0.0, help="largest allowed abs difference")
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads of each side's run (default 1)")
    args = parser.parse_args(argv)
    if args.blas_threads < 1:
        parser.error("--blas-threads must be at least 1")
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="golden_"))
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    matrix = build_matrix(inputs)
    matrix_path = os.path.join(inputs, "matrix.json")
    with open(matrix_path, "w") as fh:
        json.dump(matrix, fh, indent=1)
    built = shutil.copytree(inputs, os.path.join(work, "inputs.built"), dirs_exist_ok=True)
    roots = {}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        # A fresh copy at the same path: no cache entry, and configs that name the same files.
        shutil.rmtree(inputs)
        shutil.copytree(built, inputs)
        # The change side runs twice: cold, then warm on the cache its first run wrote.
        for root in [side] + (["change.warm"] if side == "change" else []):
            roots[root] = os.path.join(work, root)
            seconds = run_side(checkout, matrix_path, inputs, roots[root], args.blas_threads)
            normalise(roots[root], checkout)
            print(f"{root}: {len(matrix)} entries in {seconds:.1f} s at "
                  f"{args.blas_threads} BLAS thread(s) ({checkout})")
    verdicts = compare_trees(roots["parent"], roots["change"])
    print(report(verdicts, args.tol))
    # Any file of the warm rerun that differs from the cold run is structural.
    warm = [v if v["verdict"] == "identical" else
            {"file": v["file"], "verdict": "structural", "why": v.get("why", "warm rerun differs")}
            for v in compare_trees(roots["change"], roots["change.warm"])]
    print("change.warm against change: " + report(warm, 0.0))
    return 1 if any(beyond(v, args.tol) for v in verdicts + warm) else 0


if __name__ == "__main__":
    sys.exit(main())
