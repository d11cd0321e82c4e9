"""Smoke test of the benchmark itself.

Usage: ``python3 perfbench/smoke.py`` from the repository root.  Runs every
workload at ``--size tiny`` untraced once and traced twice, and checks that

* every run is correct and prints exactly the metrics, with the units,
  that ``BENCHMARK.json`` declares for its mode;
* per-layer counts repeat exactly between the two traced runs, and
  ``maxcorr.svd_small.calls_per_step`` is 1 on synth_small (every mode
  solves one SVD per step) and 2/3 on census_wide (binary eo solves none);
* the tracer puts every wrapped module attribute back;
* without the library sources next to it the benchmark exits non-zero and
  prints no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CALLS_PER_STEP = {"synth_small": 1.0, "census_wide": 2.0 / 3.0, "cluster_census": 0.0}


def _run(workload: str, trace: int, seed: int = 3, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
        raise SystemExit(f"{workload} trace={trace} not correct: {result}")
    return result["metrics"]


def _check_declared(workload: str, metrics: dict, declared: list) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise SystemExit(f"{workload}: printed metrics differ from BENCHMARK.json: "
                         f"undeclared {sorted(set(got) - set(want))}, "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"unit mismatches {sorted(n for n in got if n in want and got[n] != want[n])}")


def _check_tracer_restores() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from renyifair import cli, data, faircluster, fairtrain, maxcorr, metrics, model
    from tracer import Tracer

    modules = (cli, data, faircluster, fairtrain, maxcorr, metrics, model)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    with tracer:
        wrapped = fairtrain.forward is not before[3]["forward"]
        batch = data.synth_yequalss(20, seed=0)
        params = model.init_params("linear", batch.n_features, batch.n_classes, seed=0)
        fairtrain.train(params, batch, fairtrain.TrainConfig(iters=3, fairness_mode="dp_discrete", lam=1.0))
    after = [dict(vars(m)) for m in modules]
    if not wrapped or tracer.calls["model.forward"] != 4 or tracer.train["steps"] != 3:
        raise SystemExit("tracer did not record the sweep")
    for m, b, a in zip(modules, before, after):
        changed = [k for k in b if a.get(k) is not b[k]]
        if changed:
            raise SystemExit(f"tracer left {m.__name__} attributes changed: {changed}")


def _check_bare_directory() -> None:
    bare = os.path.join(HERE, ".work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("synth_small", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("benchmark without library sources did not fail cleanly")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    for workload in names:
        _check_declared(workload, _result(workload, 0), bench["end_to_end"])
        first, second = _result(workload, 1), _result(workload, 1)
        _check_declared(workload, first, bench["per_layer"])
        for name, m in first.items():
            if m["unit"] in ("count", "ratio") and name != "trace_overhead_frac" \
                    and m["value"] != second[name]["value"]:
                raise SystemExit(f"{workload}: {name} did not repeat: "
                                 f"{m['value']} then {second[name]['value']}")
        per_step = first["maxcorr.svd_small.calls_per_step"]["value"]
        if per_step != CALLS_PER_STEP[workload]:
            raise SystemExit(f"{workload}: svd_small.calls_per_step is {per_step}, "
                             f"expected {CALLS_PER_STEP[workload]}")
        print(f"ok {workload}")
    _check_tracer_restores()
    print("ok tracer restores every attribute")
    _check_bare_directory()
    print("ok bare directory fails")


if __name__ == "__main__":
    main()
