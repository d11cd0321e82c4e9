"""CLI orchestration: sweeps, determinism, artifacts, failure handling."""

import hashlib
import json
import os
import re

import numpy as np
import pytest

from renyifair import cli, data, faircluster as fc, fairtrain as ft, metrics as mt, model as md


def write_config(path, **overrides):
    raw = {
        "dataset": "synth:yequalss:300",
        "model": "linear",
        "fairness_mode": "dp_binary",
        "lambda_grid": [0.0, 1.0],
        "eta": 0.3,
        "iters": 40,
        "seeds": [0],
    }
    raw.update(overrides)
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


class TestTrainCommand:
    def test_sweep_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out]) == 0
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0] == ",".join(cli.TRAIN_COLUMNS)
        # one row per (lambda, seed, split)
        assert len(sweep) == 1 + 2 * 2
        assert (out / "manifest.json").exists()
        assert (out / "trace_lam0_seed0.csv").exists()
        assert (out / "params_lam1_seed0.txt").exists()

    def test_required_columns_cover_figures(self):
        needed = {"lambda", "accuracy", "error", "p_percent", "dp_violation",
                  "eo_violation", "sigma2", "nmi", "loss"}
        assert needed <= set(cli.TRAIN_COLUMNS)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--config", cfg, "--out", out1]) == 0
        assert run(["train", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out, "--seeds", "1,2"]) == 0
        sweep = (out / "sweep.csv").read_text()
        assert ",1," in sweep and ",2," in sweep

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", seeds=[0, 1])
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(["train", "--config", cfg, "--out", serial]) == 0
        assert run(["train", "--config", cfg, "--out", parallel, "--jobs", "2"]) == 0
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    def test_failure_preserves_partial_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset="specs/never_there.spec")
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out]) == 1
        assert (out / "sweep.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"]
        # The manifest keeps one line per failure; stderr adds the traceback,
        # also when the failing run executed in a worker process.
        for entry in manifest["failures"]:
            assert "\n" not in entry and entry.startswith("lam=")
        err = capsys.readouterr().err
        assert err.count("FAILED: lam=") == 2
        assert err.count("Traceback (most recent call last)") == 2
        assert "never_there.spec" in err
        parallel = tmp_path / "parallel"
        assert run(["train", "--config", cfg, "--out", parallel, "--jobs", "2"]) == 1
        assert (parallel / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()
        err = capsys.readouterr().err
        assert err.count("Traceback (most recent call last)") == 2

    @pytest.mark.parametrize("command", ["train", "cluster"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_load_attempted_once_per_sweep(self, tmp_path, monkeypatch, capsys,
                                                  command, jobs):
        # Each attempt appends a line to a file, so one made in a worker counts too.
        attempts = tmp_path / "attempts"

        def load(*args, **kwargs):
            with open(attempts, "a") as fh:
                fh.write("load\n")
            raise OSError("the source file is gone")

        monkeypatch.setattr(data, "load_dataset", load)
        monkeypatch.setattr(data, "clustering_view", load)
        cfg = write_config(tmp_path / "cfg.json", dataset="gone.spec",
                           lambda_grid=[0.0, 1.0, 10.0], seeds=[0, 1])
        if command == "cluster":
            cfg.write_text(json.dumps({"dataset": "gone.spec", "n_clusters": 3,
                                       "lambda_grid": [0.0, 1.0, 10.0], "seeds": [0, 1]}))
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out, "--jobs", jobs]) == 1
        assert attempts.read_text() == "load\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [
            f"lam={lam} seed={seed}: OSError: the source file is gone"
            for lam in (0.0, 1.0, 10.0) for seed in (0, 1)]
        err = capsys.readouterr().err
        assert err.count("FAILED: lam=") == 6
        assert err.count("Traceback (most recent call last)") == 6

    def test_worker_failure_keeps_its_traceback(self, tmp_path, monkeypatch, capsys):
        # Features near 1e200 with no normalisation overflow the first steps.
        rows = ["%r, %s, %s" % ((i % 7 - 3) * 1e200, "a" if i % 2 else "b",
                                "yes" if i % 3 else "no") for i in range(40)]
        (tmp_path / "huge.csv").write_text("\n".join(rows) + "\n")
        monkeypatch.setenv("RENYIFAIR_DATA", str(tmp_path))
        spec = tmp_path / "huge.spec"
        spec.write_text("name = huge\ncolumns = v g cls\nlabel = cls\npositive_label = yes\n"
                        "sensitive = g\nsplit = head\ntrain_count = 30\ntest_count = 10\n"
                        "file = huge.csv\nnormalization = none\n")
        cfg = write_config(tmp_path / "cfg.json", dataset=str(spec), fairness_mode="none",
                           eta=1.0)
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out, "--jobs", "2"]) == 1
        assert (out / "sweep.csv").read_text() == ",".join(cli.TRAIN_COLUMNS) + "\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [
            f"lam={lam} seed=0: RuntimeError: run lam{lam:g}_seed0 diverged (non-finite loss)"
            for lam in (0.0, 1.0)]
        err = capsys.readouterr().err
        assert err.count("Traceback (most recent call last)") == 2
        assert "_train_one" in err

    def test_bad_lambda_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", lambda_grid=[1.0, 0.5])
        with pytest.raises(ValueError, match="ascending"):
            run(["train", "--config", cfg, "--out", tmp_path / "x"])


class TestConfigHash:
    """The hash covers a spec file's contents, not the path it is named by."""

    def test_same_spec_in_two_directories_one_hash(self, tmp_path, monkeypatch):
        rows = ["%d, %s, %s" % (i, "a" if i % 2 else "b", "yes" if i % 3 else "no")
                for i in range(40)]
        (tmp_path / "mini.csv").write_text("\n".join(rows) + "\n")
        monkeypatch.setenv("RENYIFAIR_DATA", str(tmp_path))
        manifests = []
        for where in ("a", "b"):
            (tmp_path / where).mkdir()
            spec = tmp_path / where / "mini.spec"
            spec.write_text("name = mini\ncolumns = v g cls\nlabel = cls\npositive_label = yes\n"
                            "sensitive = g\nsplit = head\ntrain_count = 30\ntest_count = 10\n"
                            "file = mini.csv\n")
            cfg = write_config(tmp_path / where / "cfg.json", dataset=str(spec),
                               lambda_grid=[0.0], iters=5)
            assert run(["train", "--config", cfg, "--out", tmp_path / where / "out"]) == 0
            manifests.append(json.loads((tmp_path / where / "out" / "manifest.json").read_text()))
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
        assert [m["config"]["dataset"] for m in manifests] == [
            str(tmp_path / "a" / "mini.spec"), str(tmp_path / "b" / "mini.spec")]
        spec.write_text(spec.read_text().replace("test_count = 10", "test_count = 9"))
        assert cli.ExperimentConfig(manifests[1]["config"]).config_hash() != (
            manifests[0]["config_hash"])

    def test_dataset_that_names_no_file_hashed_as_written(self):
        raw = {"dataset": "synth:yequalss:300", "lambda_grid": [0.0, 1.0]}
        text = json.dumps(raw, sort_keys=True)
        assert cli.ExperimentConfig(raw).config_hash() == (
            hashlib.sha256(text.encode()).hexdigest()[:16])


class TestConfigKeys:
    """Each config is resolved once, before the output directory is made."""

    def test_unknown_train_keys_named(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", fairnes_mode="dp_binary", lamda_grid=[0.0])
        with pytest.raises(ValueError, match=r"^unknown config keys fairnes_mode, lamda_grid$"):
            run(["train", "--config", cfg, "--out", tmp_path / "out"])
        assert not (tmp_path / "out").exists()

    def test_unknown_cluster_keys_named(self, tmp_path):
        # A training key is unknown to a cluster sweep.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "toy:0", "n_clusters": 3, "max_sweep": 5,
                                   "eta": 0.1}))
        with pytest.raises(ValueError, match=r"^unknown config keys eta, max_sweep$"):
            run(["cluster", "--config", cfg, "--out", tmp_path / "out"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides, message", [
        ("train", {"eta": -1}, "eta must be positive"),
        ("train", {"fairness_mode": "dp"}, "unknown fairness mode 'dp'"),
        ("train", {"model": "cnn"}, "unknown model 'cnn'"),
        ("train", {"iters": "many"}, "invalid literal for int"),
        ("train", {"batch_size": 32.0}, "batch_size must be a positive integer when set, got 32.0"),
        ("train", {"model": "one_hidden:0"}, "model 'one_hidden:0' needs a positive integer width"),
        ("train", {"model": "one_hidden:-2"}, "model 'one_hidden:-2' needs a positive integer width"),
        ("train", {"model": "one_hidden:x"}, "model 'one_hidden:x' needs a positive integer width"),
        ("cluster", {"w_update_mode": "batch"}, "unknown w_update_mode 'batch'"),
        ("cluster", {"max_sweeps": 0}, "max_sweeps must be at least 1"),
        ("train", {"iters": 2.7}, "config key 'iters': expected an integer, got 2.7"),
        ("train", {"eo_min_group": 30.5}, "config key 'eo_min_group': expected an integer, got 30.5"),
        ("train", {"seeds": [0.9]}, "config key 'seeds': expected an integer, got 0.9"),
        ("cluster", {"n_clusters": 3.5}, "config key 'n_clusters': expected an integer, got 3.5"),
        ("cluster", {"max_sweeps": 2.5}, "config key 'max_sweeps': expected an integer, got 2.5"),
        ("cluster", {"seeds": [0, 1.5]}, "config key 'seeds': expected an integer, got 1.5"),
        ("train", {"lambda_grid": [0, "x"]},
         "config key 'lambda_grid': could not convert string to float: 'x'"),
        ("cluster", {"lambda_grid": [0.0, float("nan")]},
         "lambda_grid must be nonempty, finite, nonnegative, ascending"),
        ("train", {"lambda_grid": [0.0, float("inf")]},
         "lambda_grid must be nonempty, finite, nonnegative, ascending"),
        ("train", {"eta": float("inf")}, "eta must be finite, got inf"),
        ("train", {"floor": float("nan")}, "floor must be finite, got nan"),
        ("train", {"grad_tol": float("inf")}, "grad_tol must be finite, got inf"),
        # JSON booleans are not numbers, though Python's bool is an int.
        ("train", {"batch_size": True}, "batch_size must be a positive integer when set, got True"),
        ("train", {"iters": True}, "config key 'iters': expected an integer, got True"),
        ("train", {"eo_min_group": True}, "config key 'eo_min_group': expected an integer, got True"),
        ("train", {"seeds": [False]}, "config key 'seeds': expected an integer, got False"),
        ("cluster", {"n_clusters": True}, "config key 'n_clusters': expected an integer, got True"),
        ("train", {"eta": True}, "config key 'eta': expected a number, got True"),
        ("train", {"floor": True}, "config key 'floor': expected a number, got True"),
        ("train", {"grad_tol": False}, "config key 'grad_tol': expected a number, got False"),
        ("cluster", {"lambda_grid": [0.0, True]},
         "config key 'lambda_grid': expected a number, got True"),
    ])
    def test_bad_values_raise_once_before_output(self, tmp_path, command, overrides, message):
        if command == "train":
            cfg = write_config(tmp_path / "cfg.json", **overrides)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(dict({"dataset": "toy:0", "n_clusters": 3}, **overrides)))
        with pytest.raises(ValueError, match=message):
            run([command, "--config", cfg, "--out", tmp_path / "out"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--seeds", "0.5"], "--seeds: invalid literal for int() with base 10: '0.5'"),
        (["cluster", "--seeds", "0,x"], "--seeds: invalid literal for int() with base 10: 'x'"),
        (["demo-toy", "--lambdas", "0,x"], "--lambdas: could not convert string to float: 'x'"),
    ])
    def test_bad_flag_value_named_before_output(self, tmp_path, argv, message):
        if argv[0] == "train":
            argv = argv + ["--config", write_config(tmp_path / "cfg.json")]
        elif argv[0] == "cluster":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"dataset": "toy:0", "n_clusters": 3}))
            argv = argv + ["--config", cfg]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(argv + ["--out", tmp_path / "out"])
        assert not (tmp_path / "out").exists()

    def test_loose_json_values_still_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", iters=40.0, eta=1, batch_size=None)
        assert run(["train", "--config", cfg, "--out", tmp_path / "loose"]) == 0
        cfg = write_config(tmp_path / "cfg2.json", iters=40, eta=1.0)
        assert run(["train", "--config", cfg, "--out", tmp_path / "strict"]) == 0
        loose, strict = tmp_path / "loose", tmp_path / "strict"
        for name in ("sweep.csv", "trace_lam1_seed0.csv", "params_lam1_seed0.txt"):
            assert (loose / name).read_bytes() == (strict / name).read_bytes()


def read_back(text, like):
    """Parse one CSV cell the way its in-memory value ``like`` was written."""
    if like is None:
        return None if text == "" else text
    if isinstance(like, (bool, np.bool_)):
        return {"1": True, "0": False}[text]
    if isinstance(like, (int, np.integer)):
        return int(text)
    if isinstance(like, (float, np.floating)):
        return float(text)
    return text


def assert_csv(path, header, rows):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(header)
    assert len(lines) == len(rows) + 1
    for line, want in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(want)
        assert [read_back(text, value) for text, value in zip(cells, want)] == list(want)


class TestReadBack:
    """Every file a sweep writes holds exactly the in-memory trace or state."""

    def test_train_sweep_files(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", seeds=[1])
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out]) == 0
        train_batch, test_batch = data.synth_yequalss(300, seed=0), data.synth_yequalss(300, seed=1)
        sweep = []
        for lam in (0.0, 1.0):
            tcfg = ft.TrainConfig(lam=lam, eta=0.3, iters=40, fairness_mode="dp_binary", seed=1)
            params0 = md.init_params("linear", train_batch.n_features, train_batch.n_classes,
                                     seed=1)
            trace = ft.train(params0, train_batch, tcfg)
            assert_csv(out / f"trace_lam{lam:g}_seed1.csv",
                       ("iter", "loss", "penalty", "grad_norm", "sigma2"),
                       list(zip(trace.iteration, trace.loss, trace.penalty, trace.grad_norm,
                                trace.sigma2)))
            # sweep.csv sorts each lambda and seed's rows by split name.
            for split, batch in (("test", test_batch), ("train", train_batch)):
                rep = mt.evaluate(trace.final_params, batch, floor=tcfg.floor)
                sweep.append((lam, 1, split, rep.accuracy, 1.0 - rep.accuracy, rep.p_percent,
                              rep.dp_violation, rep.eo_violation, rep.sigma2, rep.nmi,
                              trace.loss[-1], trace.penalty[-1], trace.grad_norm[-1],
                              trace.iteration[-1], trace.diverged))
        assert_csv(out / "sweep.csv", cli.TRAIN_COLUMNS, sweep)

    def test_cluster_sweep_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "toy:0", "n_clusters": 5,
                                   "lambda_grid": [0.0, 10.0], "max_sweeps": 40,
                                   "init": "kmeanspp", "seeds": [2]}))
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg, "--out", out]) == 0
        points, sensitive, _ = fc.toy_dataset(0)
        sweep = []
        for lam in (0.0, 10.0):
            state, trace = fc.fair_kmeans(points, sensitive, fc.ClusterConfig(
                n_clusters=5, lam=lam, max_sweeps=40, seed=2, init="kmeanspp"))
            tag = f"lam{lam:g}_seed2"
            assert_csv(out / f"cluster_trace_{tag}.csv",
                       ("sweep", "kmeans_loss", "objective", "w_std", "moves"),
                       list(zip(trace.sweep, trace.kmeans_loss, trace.objective, trace.w_std,
                                trace.moves)))
            assert_csv(out / f"assignments_{tag}.csv", ("point_id", "cluster"),
                       list(enumerate(state.assignments)))
            assert_csv(out / f"centers_{tag}.csv", ("x0", "x1"), list(state.centers))
            w = mt.cluster_fairness(state.proportions, state.counts)
            sweep.append((lam, 2, trace.kmeans_loss[-1], trace.objective[-1], *w,
                          trace.sweep[-1], trace.converged, trace.cycled))
        assert_csv(out / "sweep.csv", cli.CLUSTER_COLUMNS, sweep)


class TestClusterCommand:
    def test_toy_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        with open(cfg, "w") as fh:
            json.dump({"dataset": "toy:0", "n_clusters": 5,
                       "lambda_grid": [0.0], "max_sweeps": 60,
                       "init": "kmeanspp", "seeds": [0]}, fh)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg, "--out", out]) == 0
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0] == ",".join(cli.CLUSTER_COLUMNS)
        assert len(sweep) == 2
        assert (out / "assignments_lam0_seed0.csv").exists()
        assert (out / "centers_lam0_seed0.csv").exists()
        lines = (out / "assignments_lam0_seed0.csv").read_text().splitlines()
        assert lines[0] == "point_id,cluster"
        assert len(lines) == 1 + 2500

    def test_raw_csv_input(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(60, 2))
        sens = rng.integers(0, 2, 60)
        csv_path = tmp_path / "points.csv"
        with open(csv_path, "w") as fh:
            for p, s in zip(pts, sens):
                fh.write(f"{float(p[0])!r},{float(p[1])!r},{s}\n")
        cfg = tmp_path / "cfg.json"
        with open(cfg, "w") as fh:
            json.dump({"dataset": f"csv:{csv_path}", "n_clusters": 3,
                       "lambda_grid": [0.0, 5.0], "max_sweeps": 50,
                       "seeds": [0]}, fh)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg, "--out", out]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("bad", ["0.7", "2", "-1", "nan"])
    def test_raw_csv_sensitive_column_must_be_zero_or_one(self, tmp_path, bad):
        csv_path = tmp_path / "points.csv"
        csv_path.write_text(f"0.5,1.5,1\n-0.5,2.5,0\n1.0,0.0,{bad}\n")
        with pytest.raises(ValueError, match=r"points\.csv: sensitive column 3 "
                                             r"\(the last\) must hold 0 or 1, .* data row 3"):
            cli._load_cluster_view(f"csv:{csv_path}")
        cfg = tmp_path / "cfg.json"
        with open(cfg, "w") as fh:
            json.dump({"dataset": f"csv:{csv_path}", "n_clusters": 2,
                       "lambda_grid": [0.0, 5.0], "seeds": [0]}, fh)
        assert run(["cluster", "--config", cfg, "--out", tmp_path / "out"]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["failures"]) == 2
        assert all("sensitive column 3" in f for f in manifest["failures"])

    def test_lambda_zero_row_matches_plain_kmeans_loss(self, tmp_path):
        from renyifair import faircluster as fc
        cfg = tmp_path / "cfg.json"
        with open(cfg, "w") as fh:
            json.dump({"dataset": "toy:0", "n_clusters": 5,
                       "lambda_grid": [0.0], "max_sweeps": 60,
                       "init": "kmeanspp", "seeds": [3]}, fh)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg, "--out", out]) == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        loss = float(row[cli.CLUSTER_COLUMNS.index("kmeans_loss")])
        points, sensitive, _ = fc.toy_dataset(0)
        state, trace = fc.fair_kmeans(points, sensitive, fc.ClusterConfig(
            n_clusters=5, lam=0.0, max_sweeps=60, seed=3, init="kmeanspp"))
        assert abs(loss - trace.kmeans_loss[-1]) <= 1e-9


MINI_ROWS = "\n".join("%d, %s, %s" % (i, "a" if i % 2 else "b", "yes" if i % 3 else "no")
                      for i in range(40)) + "\n"
MINI_SPEC = ("name = mini\ncolumns = v g cls\nlabel = cls\npositive_label = yes\n"
             "sensitive = g\nsensitive_positive = a\nsplit = head\n"
             "train_count = 30\ntest_count = 10\nfile = mini.csv\n"
             "clustering_features = v\nclustering_sensitive = g\n"
             "clustering_sensitive_positive = a\n")


class TestLogLevel:
    """``--log-level`` decides what reaches stderr, and no output file moves with it."""

    @pytest.mark.parametrize("command, config", [
        ("train", {"model": "linear", "fairness_mode": "dp_binary", "eta": 0.3, "iters": 10}),
        ("cluster", {"n_clusters": 3, "max_sweeps": 10, "init": "kmeanspp"}),
    ])
    def test_info_prints_the_drop_count_and_leaves_outputs_alone(self, tmp_path, monkeypatch,
                                                                 capsys, command, config):
        (tmp_path / "mini.csv").write_text(MINI_ROWS + "40, ?, yes\n41, a, ?\n")
        (tmp_path / "mini.spec").write_text(MINI_SPEC + "missing_token = ?\n")
        monkeypatch.setenv("RENYIFAIR_DATA", str(tmp_path))
        cfg = tmp_path / "cfg.json"
        with open(cfg, "w") as fh:
            json.dump(dict(config, dataset=str(tmp_path / "mini.spec"),
                           lambda_grid=[0.0, 5.0], seeds=[0]), fh)
        outputs, stderr = [], []
        for flags in ([], ["--log-level", "INFO"], ["--log-level", "WARNING"]):
            out = tmp_path / f"out{len(outputs)}"
            assert run([command, "--config", cfg, "--out", out, *flags]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            stderr.append(capsys.readouterr().err)
        assert "INFO renyifair.data: mini: dropped 2 rows with missing values\n" in stderr[1]
        assert "dropped" not in stderr[0] and "dropped" not in stderr[2]
        assert {"sweep.csv", "manifest.json"} < outputs[0].keys()
        assert any(name.startswith(("trace_", "cluster_trace_")) for name in outputs[0])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unknown_level_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run(["demo-toy", "--out", tmp_path / "out", "--log-level", "CHATTY"])
        assert "--log-level" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestLoadOncePerSweep:
    """Each sweep reads its dataset once, serial or across worker processes."""

    @pytest.fixture
    def mini(self, tmp_path, monkeypatch):
        (tmp_path / "mini.csv").write_text(MINI_ROWS)
        (tmp_path / "mini.spec").write_text(MINI_SPEC)
        monkeypatch.setenv("RENYIFAIR_DATA", str(tmp_path))
        return tmp_path

    def count_calls(self, monkeypatch, tmp_path, name):
        # Each call appends a line to a file, so calls made in worker
        # processes are counted too.
        log = tmp_path / f"{name}.calls"
        original = getattr(data, name)

        def counted(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write("call\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(data, name, counted)
        return lambda: len(log.read_text().splitlines()) if log.exists() else 0

    @pytest.mark.parametrize("command, loader, config", [
        ("train", "load_dataset", {"model": "linear", "fairness_mode": "dp_binary",
                                   "eta": 0.3, "iters": 10}),
        ("cluster", "clustering_view", {"n_clusters": 3, "max_sweeps": 10,
                                        "init": "kmeanspp"}),
    ])
    def test_one_load_per_sweep_serial_and_parallel(self, mini, monkeypatch, command,
                                                    loader, config):
        cfg = mini / "cfg.json"
        with open(cfg, "w") as fh:
            json.dump(dict(config, dataset=str(mini / "mini.spec"),
                           lambda_grid=[0.0, 5.0], seeds=[0, 1]), fh)
        calls = self.count_calls(monkeypatch, mini, loader)
        outputs = []
        for sweeps, jobs in enumerate(("1", "2"), start=1):
            out = mini / f"out{jobs}"
            assert run([command, "--config", cfg, "--out", out, "--jobs", jobs]) == 0
            assert calls() == sweeps
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) > 4
        assert outputs[0] == outputs[1]


class TestEvalCommand:
    def test_round_trip(self, tmp_path, capsys):
        # train on a file-backed miniature dataset, then eval the checkpoint
        datadir = tmp_path
        rows = ["%d, %s, %s" % (i, "a" if i % 2 else "b", "yes" if i % 3 else "no")
                for i in range(40)]
        (datadir / "mini.csv").write_text("\n".join(rows) + "\n")
        (datadir / "mini.spec").write_text(
            "name = mini\ncolumns = v g cls\nlabel = cls\npositive_label = yes\n"
            "sensitive = g\nsensitive_positive = a\nsplit = head\n"
            "train_count = 30\ntest_count = 10\nfile = mini.csv\n")
        cfg = write_config(tmp_path / "cfg.json", dataset=str(datadir / "mini.spec"),
                           lambda_grid=[0.0], iters=20)
        out = tmp_path / "out"
        env = os.environ.get("RENYIFAIR_DATA")
        os.environ["RENYIFAIR_DATA"] = str(datadir)
        try:
            assert run(["train", "--config", cfg, "--out", out]) == 0
            code = run(["eval", "--checkpoint", out / "params_lam0_seed0.txt",
                        "--dataset", datadir / "mini.spec",
                        "--out", tmp_path / "report.json"])
        finally:
            if env is None:
                os.environ.pop("RENYIFAIR_DATA", None)
            else:
                os.environ["RENYIFAIR_DATA"] = env
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "accuracy" in report and "dp_violation" in report
        printed = capsys.readouterr().out
        assert json.loads(printed.strip().splitlines()[-1]) == report

    def test_same_checkpoint_same_report(self, tmp_path, monkeypatch):
        datadir = tmp_path
        rows = ["%d, %s, %s" % (i, "a" if i % 2 else "b", "yes" if i % 3 else "no")
                for i in range(40)]
        (datadir / "mini.csv").write_text("\n".join(rows) + "\n")
        (datadir / "mini.spec").write_text(
            "name = mini\ncolumns = v g cls\nlabel = cls\npositive_label = yes\n"
            "sensitive = g\nsensitive_positive = a\nsplit = head\n"
            "train_count = 30\ntest_count = 10\nfile = mini.csv\n")
        monkeypatch.setenv("RENYIFAIR_DATA", str(datadir))
        from renyifair import model as md
        params = md.init_params("linear", 1, 2, seed=5)
        md.save_params(params, datadir / "ckpt.txt")
        a = cli.cmd_eval(str(datadir / "ckpt.txt"), str(datadir / "mini.spec"))
        b = cli.cmd_eval(str(datadir / "ckpt.txt"), str(datadir / "mini.spec"))
        assert a == b


class TestDemoToy:
    def test_demo_outputs_planted_proportions(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert run(["demo-toy", "--out", out, "--seed", "1",
                    "--lambdas", "0,1000"]) == 0
        table = (out / "proportions.csv").read_text().splitlines()
        assert table[0] == "lambda,planted_blob,matched_cluster,proportion"
        rows = [line.split(",") for line in table[1:]]
        lam0 = {int(r[1]): float(r[3]) for r in rows if float(r[0]) == 0.0}
        assert lam0[2] == 1.0 and lam0[4] == 0.0
        assert (out / "sweep.csv").exists()

    @pytest.mark.parametrize("lambdas, message", [("0,-1", "^lam must be nonnegative$"),
                                                  ("nan", "^lam must be finite, got nan$")])
    def test_bad_lambda_raises_before_output(self, tmp_path, lambdas, message):
        out = tmp_path / "demo"
        with pytest.raises(ValueError, match=message):
            run(["demo-toy", "--out", out, "--lambdas", lambdas])
        assert not out.exists()
