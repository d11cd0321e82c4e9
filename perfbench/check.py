"""Output check: a sweep's ``sweep.csv`` against the reference run's.

The reference is the same config run through ``seedref/renyifair``, a
frozen copy of the library at the commit that introduced this benchmark.
Every grid point must have its rows.  Flag and count columns must match
exactly.  Float columns must satisfy ``|got - ref| <= ATOL + RTOL * |ref|``:
drift of a few ulps from reordered sums passes, while a changed argmax
(any accuracy, p% or violation figure moves by at least 1/n) or a changed
fairness decision fails.
"""

from __future__ import annotations

import csv
import io
import math

RTOL = 1e-9
ATOL = 1e-12
EXACT_COLUMNS = {"seed", "split", "iters_run", "diverged", "sweeps", "converged", "cycled"}


def _rows(text: str) -> tuple[list[str], dict]:
    reader = csv.DictReader(io.StringIO(text))
    by_point: dict = {}
    for row in reader:
        key = (float(row["lambda"]), int(row["seed"]))
        by_point.setdefault(key, []).append(row)
    return reader.fieldnames or [], by_point


def _same(column: str, got: str, ref: str) -> bool:
    if column in EXACT_COLUMNS or got == "" or ref == "":
        return got == ref
    a, b = float(got), float(ref)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def failed_points(got_text: str, ref_text: str, grid) -> set:
    """Grid points (lambda, seed) whose rows are missing or differ from the reference."""
    got_cols, got = _rows(got_text)
    ref_cols, ref = _rows(ref_text)
    grid = {(float(lam), int(seed)) for lam, seed in grid}
    if got_cols != ref_cols:
        return grid
    bad = set(got) - grid  # rows for points nobody asked for
    for point in grid:
        g, r = got.get(point, []), ref.get(point)
        if not r or len(g) != len(r):
            bad.add(point)
            continue
        for grow, rrow in zip(g, r):
            if any(not _same(c, grow[c], rrow[c]) for c in ref_cols):
                bad.add(point)
                break
    return bad
