"""A sweep process: runs a workload's CLI sweeps on request and times them.

Usage: ``python3 worker.py JOB.json`` with ``renyifair`` importable.  The
job names the configs, the output directory and the package directory the
import must resolve to.  The worker then reads one JSON request a line
from stdin, ``{"sweeps": [config indices], "trace": bool}``, runs those
sweeps as one round and answers with one JSON line: the round's wall time,
each sweep's ``sweep.csv`` text, exit code and manifest failures, and the
per-layer figures if it was traced.  At end of input it answers with its
peak RSS and exits.  The library's own prints go to stderr, so stdout
carries only the answers.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import shutil
import sys
import time


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def run_round(cli, configs: list[dict], out_root: str, tracer=None) -> dict:
    """One CLI sweep per config; wall time covers only the ``cli.main`` calls."""
    wall = 0.0
    sweeps = []
    for cfg in configs:
        out = os.path.join(out_root, cfg["name"])
        argv = [cfg["kind"], "--config", cfg["path"], "--out", out, "--jobs", "1"]
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer:
                code = cli.main(argv)
        wall += time.perf_counter() - start
        with open(os.path.join(out, "sweep.csv")) as fh:
            text = fh.read()
        with open(os.path.join(out, "manifest.json")) as fh:
            failures = json.load(fh)["failures"]
        shutil.rmtree(out)
        sweeps.append({"name": cfg["name"], "exit_code": code, "sweep_csv": text,
                       "failures": failures})
    result = {"wall_s": wall, "traced": tracer is not None, "sweeps": sweeps}
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
    return result


def main(job_path: str) -> None:
    answers = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    with open(job_path) as fh:
        job = json.load(fh)
    import renyifair
    from renyifair import cli
    pkg = os.path.dirname(os.path.abspath(renyifair.__file__))
    if pkg != os.path.abspath(job["expect_pkg"]):
        raise SystemExit(f"imported renyifair from {pkg}, expected {job['expect_pkg']}")
    from tracer import Tracer

    def answer(obj: dict) -> None:
        answers.write(json.dumps(obj) + "\n")
        answers.flush()

    answer({"blas_threads": _blas_threads()})
    for line in sys.stdin:
        request = json.loads(line)
        configs = [job["configs"][i] for i in request["sweeps"]]
        answer(run_round(cli, configs, job["out_dir"], Tracer() if request["trace"] else None))
    answer({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})


if __name__ == "__main__":
    main(sys.argv[1])
