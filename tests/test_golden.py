"""The diff logic of ``scripts/golden.py`` on two small hand-made output trees.

Only the comparison is tested here, not the library's numbers, so no bits
of any run are pinned.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "scripts", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

SWEEP = "lambda,seed,split,sigma2,p_percent\n0.0,0,train,0.25,\n10.0,0,test,0.125,0.5\n"
TRACE = "iter,loss,sigma2\n0,0.69,0.5\n1,0.6,0.25\n"


def write_tree(root, files):
    for path, text in files.items():
        full = root / path
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(text)
    return str(root)


@pytest.fixture
def trees(tmp_path):
    manifest = {"config": {"dataset": "spec", "lambda_grid": [1.0, 10.0]}, "failures": []}
    parent = {
        "a/sweep.csv": SWEEP,
        "a/trace_lam0_seed0.csv": TRACE,
        "a/manifest.json": json.dumps(manifest),
        "a/params_lam0_seed0.txt": "arch=linear input_dim=2\n0.5\n-1.25\n",
        "b/sweep.csv": SWEEP,
        "b/stderr.log": "WARNING renyifair.metrics: 2 of 3 groups present\n",
        "c/gone.csv": TRACE,
    }
    change = dict(parent)
    del change["c/gone.csv"]
    change["a/trace_lam0_seed0.csv"] = TRACE.replace("0.25", "0.2500000000000001")
    change["a/params_lam0_seed0.txt"] = "arch=linear input_dim=2\n0.5\n-1.2500000000000002\n"
    change["a/manifest.json"] = json.dumps({**manifest, "config": {
        "dataset": "spec", "lambda_grid": [1.5, 10.0]}})
    change["b/sweep.csv"] = SWEEP.replace("split", "part")
    change["b/stderr.log"] = "WARNING renyifair.metrics: 1 of 3 groups present\n"
    change["d/new.csv"] = TRACE
    return write_tree(tmp_path / "parent", parent), write_tree(tmp_path / "change", change)


def test_each_file_gets_one_verdict(trees):
    verdicts = {v["file"]: v for v in golden.compare_trees(*trees)}
    assert sorted(verdicts) == ["a/manifest.json", "a/params_lam0_seed0.txt", "a/sweep.csv",
                                "a/trace_lam0_seed0.csv", "b/stderr.log", "b/sweep.csv",
                                "c/gone.csv", "d/new.csv"]
    assert verdicts["a/sweep.csv"] == {"file": "a/sweep.csv", "verdict": "identical"}
    trace = verdicts["a/trace_lam0_seed0.csv"]
    assert trace["verdict"] == "numeric" and list(trace["columns"]) == ["sigma2"]
    gap, rel = trace["columns"]["sigma2"]
    assert gap == 0.2500000000000001 - 0.25 and rel == gap / 0.2500000000000001
    params = verdicts["a/params_lam0_seed0.txt"]
    assert params["verdict"] == "numeric" and list(params["columns"]) == ["numbers"]
    manifest = verdicts["a/manifest.json"]
    assert manifest["verdict"] == "numeric"
    assert manifest["columns"] == {"config.lambda_grid[]": (0.5, 0.5 / 1.5)}
    assert verdicts["b/stderr.log"]["verdict"] == "numeric"
    for path, why in (("b/sweep.csv", "shape or text differs"), ("c/gone.csv", "only in parent"),
                      ("d/new.csv", "only in change")):
        assert verdicts[path]["verdict"] == "structural" and verdicts[path]["why"] == why


def test_gate_is_exact_by_default_and_takes_an_absolute_tolerance(trees):
    verdicts = {v["file"]: v for v in golden.compare_trees(*trees)}
    assert not golden.beyond(verdicts["a/sweep.csv"], 0.0)
    trace = verdicts["a/trace_lam0_seed0.csv"]
    assert golden.beyond(trace, 0.0) and not golden.beyond(trace, 1e-15)
    assert golden.beyond(verdicts["a/manifest.json"], 0.4)
    assert golden.beyond(verdicts["c/gone.csv"], 1e9)
    text = golden.report(list(verdicts.values()), 1e-15)
    assert text.splitlines()[0] == "8 files: 1 identical, 4 numeric, 3 structural"
    assert "ok numeric a/trace_lam0_seed0.csv: sigma2 abs 1.11e-16 rel 4.44e-16" in text
    assert "FAIL structural d/new.csv: only in change" in text


@pytest.mark.parametrize("a,b,want", [
    (float("nan"), float("nan"), (0.0, 0.0)),
    (float("inf"), float("inf"), (0.0, 0.0)),
    (1.0, float("nan"), (float("inf"), float("inf"))),
    (0.0, -0.0, (0.0, 0.0)),
    (-2.0, 2.0, (4.0, 2.0)),
])
def test_difference_of_special_values(a, b, want):
    assert golden._difference(a, b) == want


def test_spelling_of_a_number_is_numeric_with_no_moved_column():
    verdict = golden.compare_file("x.csv", "v\n1\n", "v\n1.0\n")
    assert verdict == {"file": "x.csv", "verdict": "numeric", "columns": {}}
    assert not golden.beyond(verdict, 0.0)


def test_normalise_replaces_the_checkout_and_output_paths(tmp_path):
    checkout, out = tmp_path / "checkout", tmp_path / "out"
    checkout.mkdir()
    write_tree(out, {"e/stderr.log": f'File "{checkout}/src/renyifair/cli.py" in {out}/e\n'})
    golden.normalise(str(out), str(checkout))
    assert (out / "e" / "stderr.log").read_text() == (
        'File "<checkout>/src/renyifair/cli.py" in <out>/e\n')


@pytest.mark.parametrize("argv,threads", [([], "1"), (["--blas-threads", "2"], "2")])
def test_each_side_runs_at_the_requested_blas_thread_count(tmp_path, monkeypatch, argv, threads):
    seen = []
    monkeypatch.setattr(golden, "build_matrix", lambda inputs: [])
    monkeypatch.setattr(golden.subprocess, "run", lambda cmd, env, **kw: seen.append(env))
    code = golden.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                        "--work", str(tmp_path / "work"), *argv])
    assert code == 0 and len(seen) == 2
    for env in seen:
        assert [env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")] == [threads] * 3


def test_blas_threads_below_one_refused(tmp_path):
    with pytest.raises(SystemExit):
        golden.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--blas-threads", "0"])
