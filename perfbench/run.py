"""renyifair benchmark: CLI sweeps end to end, or per layer with tracing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth_small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs each of the workload's sweeps (see
``workloads.py``) in two sweep processes that take turns: one imports the
library under test from ``src/``, the other the frozen reference copy in
``seedref/``.  Each measured sweep is timed against the reference sweep of
the same config run next to it on the same CPU, and the end-to-end metrics
are those ratios times the reference's fixed times
(``workloads.REFERENCE_SPEED``): seconds at a fixed reference speed, so a
host that speeds up or slows down during or between runs moves both sides
alike.  With ``--trace 1`` it alternates untraced and traced rounds of the
library under test and reports the per-layer metrics of ``tracer.py`` plus
the tracing overhead.  Every run checks every measured sweep's output
against the reference's (``check.py``) and that repeated sweeps write
byte-identical ``sweep.csv`` files.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is a report with the machine
block, the generated inputs and the samples, raw times included.
``--size tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SEEDREF = os.path.join(HERE, "seedref")
MIN_PASSES = 2  # interleaved passes of an untraced run, however short --seconds is
BLAS_THREADS = "1"  # at or below nproc on any machine; keeps matmul timings steady
WORKER_TIMEOUT_S = 120


def _env(pythonpath: str, data_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath
    env["RENYIFAIR_DATA"] = data_dir
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _probe_setup(code: str, env: dict, cwd: str) -> dict:
    """Run the set-up code in a fresh interpreter; return its JSON line."""
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, timeout=120,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class _Worker:
    """A ``worker.py`` process that imports ``renyifair`` from ``pkg_root``."""

    def __init__(self, name: str, pkg_root: str, job: dict, data_dir: str, work_dir: str):
        self.name = name
        job_path = os.path.join(work_dir, f"{name}_job.json")
        with open(job_path, "w") as fh:
            json.dump(dict(job, out_dir=os.path.join(work_dir, name),
                           expect_pkg=os.path.join(pkg_root, "renyifair")), fh)
        self._log_path = os.path.join(work_dir, f"{name}.log")
        self._log = open(self._log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path],
            env=_env(pkg_root, data_dir), cwd=work_dir, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log)
        self.blas_threads = self._answer()["blas_threads"]

    def _answer(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            with open(self._log_path) as fh:
                log = fh.read()[-4000:]
            raise SystemExit(f"{self.name} worker failed or timed out "
                             f"(exit code {self.proc.returncode}):\n{log}")
        return json.loads(line)

    def round(self, sweeps: list[int], trace: bool = False) -> dict:
        """Run the configs ``sweeps`` as one round; return the worker's record."""
        self.proc.stdin.write(json.dumps({"sweeps": sweeps, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        return self._answer()

    def finish(self) -> float:
        """End the process; return its peak RSS in MB."""
        self.proc.stdin.close()
        peak = self._answer()["peak_rss_mb"]
        self.proc.wait(timeout=WORKER_TIMEOUT_S)
        return peak

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def _summary(values: list[float]) -> dict:
    ordered = sorted(values)
    return {"median": statistics.median(ordered),
            "p90": ordered[math.ceil(0.9 * len(ordered)) - 1],
            "max": ordered[-1], "n": len(ordered), "values": values}


def _machine(blas_threads) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "renyifair")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads, "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


def _steps(kind: str, sweep_csv: str) -> int:
    """Descent steps (train) or K-means sweeps (cluster) that one sweep.csv records."""
    lines = sweep_csv.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    if kind == "train":
        return sum(int(r["iters_run"]) for r in rows if r["split"] == "train")
    return sum(int(r["sweeps"]) for r in rows)


def _layer_unit(name: str) -> str:
    if name.endswith("calls_per_step") or name == "trace_overhead_frac":
        return "ratio"
    if name.endswith((".us_per_call", ".us_per_step")):
        return "us"
    if ".ms_per_sweep." in name:
        return "ms"
    if name.endswith((".s", "self_s")) or ".s." in name:
        return "s"
    return "count"


def _check(configs, measured: list[dict], reference: list[dict]) -> tuple[int, int]:
    """(grid points attempted, grid points failed) over every measured sweep."""
    ref_text, first_text = {}, {}
    for sweep in reference:
        ref_text.setdefault(sweep["name"], sweep["sweep_csv"])
    for sweep in measured:
        first_text.setdefault(sweep["name"], sweep["sweep_csv"])
    grids = {c["name"]: c["grid"] for c in configs}
    attempted = failed = 0
    for sweep in measured:
        grid = grids[sweep["name"]]
        attempted += len(grid)
        bad = check.failed_points(sweep["sweep_csv"], ref_text[sweep["name"]], grid)
        if sweep["sweep_csv"] != first_text[sweep["name"]]:
            bad = set(grid)  # reps of one run must write byte-identical sweep.csv
        failed += max(len(bad), len(sweep["failures"]))
    return attempted, failed


def _layer_metrics(rounds) -> tuple[dict, bool]:
    """Per-layer figures: counts from the first traced round, times as medians."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    out = {}
    repeat = True
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if _layer_unit(name) in ("count", "ratio"):
            out[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
        else:
            out[name] = statistics.median(values)
    out["trace_overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                  / statistics.median(plain) - 1.0)
    return out, repeat


def _interleaved(measure, reference, n_configs: int, probe, seconds: float) -> dict:
    """Alternate measured and reference sweeps, config by config, for ``seconds``.

    One pass runs every config once in each worker, the two sweeps of a
    config back to back and in alternating order, then one set-up probe of
    each package, also in alternating order.  Returns per-config wall
    pairs, set-up pairs and every sweep record of each worker.
    """
    out = {"walls": [[] for _ in range(n_configs)], "setups": [],
           "sweeps": {"measure": [], "reference": []}}
    turn = 0

    def setup_pair():
        first = len(out["setups"]) % 2 == 0
        probes = [probe(first), probe(not first)]
        out["setups"].append(probes if first else probes[::-1])

    start = time.perf_counter()
    setup_pair()
    passes = 0
    while True:
        for c in range(n_configs):
            order = (measure, reference) if turn % 2 == 0 else (reference, measure)
            record = {w.name: w.round([c]) for w in order}
            turn += 1
            out["walls"][c].append((record["measure"]["wall_s"], record["reference"]["wall_s"]))
            for name, rec in record.items():
                out["sweeps"][name] += rec["sweeps"]
        setup_pair()
        passes += 1
        elapsed = time.perf_counter() - start
        # Stop once the next pass would overrun the window.
        if passes >= MIN_PASSES and elapsed + elapsed / passes > seconds:
            return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SCALES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "renyifair", "cli.py")):
        raise SystemExit(f"no renyifair sources under {SRC}; run from a full checkout")

    # One CPU for this process and every process it starts, so that the
    # measured and the reference sweeps run on the same core.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    workers = []
    try:
        prep = workloads.prepare(args.workload, args.seed, work_dir, args.size)
        configs = prep["configs"]
        envs = {SRC: _env(SRC, prep["data_dir"]), SEEDREF: _env(SEEDREF, prep["data_dir"])}
        job = {"configs": configs}
        measure = _Worker("measure", SRC, job, prep["data_dir"], work_dir)
        workers.append(measure)
        reference = _Worker("reference", SEEDREF, job, prep["data_dir"], work_dir)
        workers.append(reference)
        if args.trace:
            shape = _probe_setup(prep["setup_code"], envs[SRC], work_dir)["shape"]
            ref_sweeps = reference.round(list(range(len(configs))))["sweeps"]
            rounds = []
            start = time.perf_counter()
            while True:
                rounds.append(measure.round(list(range(len(configs))), len(rounds) % 2 == 1))
                elapsed = time.perf_counter() - start
                # Stop once the next pair of rounds would overrun the window.
                if len(rounds) >= 4 and len(rounds) % 2 == 0 \
                        and elapsed + 2 * elapsed / len(rounds) > args.seconds:
                    break
            sweeps = [s for r in rounds for s in r["sweeps"]]
        else:
            def probe(own: bool) -> dict:
                return _probe_setup(prep["setup_code"], envs[SRC if own else SEEDREF], work_dir)
            run = _interleaved(measure, reference, len(configs), probe, args.seconds)
            shape = run["setups"][0][0]["shape"]
            sweeps, ref_sweeps = run["sweeps"]["measure"], run["sweeps"]["reference"]
        peak_rss_mb = measure.finish()
        reference.finish()
    finally:
        for worker in workers:
            worker.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = _check(configs, sweeps, ref_sweeps)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace,
        "machine": dict(_machine(measure.blas_threads), nproc=len(allowed),
                        pinned_cpu=min(allowed)),
        "inputs": {"generator": prep["generator"], "shape": shape},
        "check": {"reference": "perfbench/seedref", "rtol": check.RTOL, "atol": check.ATOL,
                  "attempted": attempted, "failed": failed, "failed_frac": failed / attempted},
    }
    correct = failed == 0
    if args.trace:
        metrics, repeat = _layer_metrics(rounds)
        report["counts_repeat"] = repeat
        report["samples"] = {
            "wall_s": _summary([r["wall_s"] for r in rounds if not r["traced"]]),
            "wall_s_traced": _summary([r["wall_s"] for r in rounds if r["traced"]])}
        correct = correct and repeat
        units = {name: _layer_unit(name) for name in metrics}
    else:
        speed = workloads.REFERENCE_SPEED[args.workload]
        names = [c["name"] for c in configs]
        first = {}
        for sweep in sweeps:
            first.setdefault(sweep["name"], sweep["sweep_csv"])
        steps = sum(_steps(c["kind"], first[c["name"]]) for c in configs)
        # A pass's wall time at reference speed: each sweep's time relative
        # to the reference sweep next to it, times the reference's time.
        walls = [sum(speed[name] * m / r for name, (m, r) in zip(names, per_pass))
                 for per_pass in zip(*run["walls"])]
        setup = [speed["setup_s"] * m["setup_s"] / r["setup_s"] for m, r in run["setups"]]
        rates = [steps / w for w in walls]
        report["samples"] = {
            "wall_s": _summary(walls), "steps_per_s": _summary(rates),
            "setup_s": _summary(setup), "peak_rss_mb": _summary([peak_rss_mb])}
        report["raw_s"] = {
            "reference_speed": speed,
            "setup_s": {side: _summary([p[i]["setup_s"] for p in run["setups"]])
                        for i, side in enumerate(("measured", "reference"))},
            **{name: {side: _summary([p[i] for p in pairs])
                      for i, side in enumerate(("measured", "reference"))}
               for name, pairs in zip(names, run["walls"])}}
        metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                   "steps_per_s": statistics.median(rates), "peak_rss_mb": peak_rss_mb}
        units = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
