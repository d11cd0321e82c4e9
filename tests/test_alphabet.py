"""The batch carries its alphabet: the declared class and group counts.

``load_dataset`` declares c = 2 and d = the number of sensitive tuples on
both splits, whichever values a split holds; ``Batch`` rejects a value
above a declared size and ``subset`` keeps the sizes; training and
evaluation read them.  The fixtures are tiny tables written in
``tmp_path``: one 3-valued attribute, and a product-coded pair.
"""

import json
import logging

import numpy as np
import pytest

from renyifair import cli, data, fairtrain as ft, maxcorr as mc, metrics as mt, model as md

TRAIN_ROWS = 30
TEST_ROWS = 12


def write_three_group_table(tmp_path, test_groups):
    """Spec and table of a 3-valued attribute g in {a, b, c} (groups 1..3).

    The training rows cycle a, b, c with v tracking the group.  The test
    rows alternate between the two groups ``test_groups``; their v depends
    only on the row's position, so two tables with different
    ``test_groups`` encode the same test features.
    """
    rows = []
    for i in range(TRAIN_ROWS):
        k = i % 3
        rows.append(f"{k + 0.1 * (i % 5)}, {'abc'[k]}, {'yes' if (i + k) % 2 else 'no'}")
    for i in range(TEST_ROWS):
        k = i % 2
        rows.append(f"{k + 0.1 * (i % 5)}, {test_groups[k]}, {'yes' if i % 3 else 'no'}")
    (tmp_path / "three.csv").write_text("\n".join(rows) + "\n")
    spec = tmp_path / "three.spec"
    spec.write_text("name = three\ncolumns = v g cls\nlabel = cls\npositive_label = yes\n"
                    f"sensitive = g\nsplit = head\ntrain_count = {TRAIN_ROWS}\n"
                    f"test_count = {TEST_ROWS}\nfile = three.csv\n")
    return spec


def write_pair_table(tmp_path, absent):
    """Spec and table of the pair (g, h), g in {a, b} and h in {x, y}.

    Product codes: (a,x)=1, (a,y)=2, (b,x)=3, (b,y)=4.  Every token of both
    columns occurs in the training rows, but the combination ``absent``
    does not; the test rows hold all four.
    """
    combos = [c for c in ("ax", "ay", "bx", "by") if c != absent]
    rows = [f"{i % 7}, {combos[i % 3][0]}, {combos[i % 3][1]}, {'yes' if i % 2 else 'no'}"
            for i in range(24)]
    rows += [f"{i}, {c[0]}, {c[1]}, {'yes' if i % 2 else 'no'}"
             for i, c in enumerate(["ax", "ay", "bx", "by"] * 2)]
    name = f"pair_{absent}"
    (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")
    spec = tmp_path / f"{name}.spec"
    spec.write_text(f"name = {name}\ncolumns = v g h cls\nlabel = cls\npositive_label = yes\n"
                    "sensitive = g h\nsplit = head\ntrain_count = 24\ntest_count = 8\n"
                    f"file = {name}.csv\n")
    return spec


def params_for(enc):
    return md.init_params("linear", enc.train.n_features, enc.train.n_classes, seed=3)


class TestDeclaredSizes:
    def test_declared_sizes_kept_above_the_values_present(self):
        x, y, s = np.zeros((4, 1)), [1, 2, 2, 1], [1, 1, 2, 1]
        assert (md.Batch(x, y, s).n_classes, md.Batch(x, y, s).n_groups) == (2, 2)
        batch = md.Batch(x, y, s, n_classes=3, n_groups=4)
        assert (batch.n_classes, batch.n_groups) == (3, 4)

    @pytest.mark.parametrize("sizes,message", [
        (dict(n_classes=2), "a value 3 exceeds the declared n_classes=2"),
        (dict(n_groups=1), "a value 2 exceeds the declared n_groups=1"),
    ])
    def test_value_above_a_declared_size_rejected(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            md.Batch(np.zeros((3, 1)), [1, 3, 2], [1, 2, 1], **sizes)

    def test_subset_keeps_the_parent_sizes(self):
        parent = md.Batch(np.arange(6.0)[:, None], [1, 2, 1, 2, 1, 3], [1, 1, 2, 1, 4, 1],
                          n_groups=5)
        sub = parent.subset(np.array([0, 2]))
        assert sub.labels.max() == 1 and sub.sensitive.max() == 2
        assert (sub.n_classes, sub.n_groups) == (3, 5)

    def test_label_index_checks_the_declared_class_count(self):
        batch = md.Batch(np.zeros((4, 2)), [1, 2, 2, 1], [1, 2, 1, 2], n_classes=3)
        with pytest.raises(ValueError, match="label outside the model's class range"):
            md.loss_grad_and_vjp(md.init_params("linear", 2, 2, seed=0), batch)
        np.testing.assert_array_equal(batch.label_index(3), np.arange(4) * 3 + batch.labels - 1)


class TestSplitLackingAGroup:
    """A test split of a 3-valued attribute that lacks group 3 (case a) or
    group 2 (case b) keeps d = 3 and is evaluated by one rule."""

    @pytest.fixture
    def encoded(self, tmp_path):
        def load(test_groups):
            where = tmp_path / test_groups
            where.mkdir()
            return data.load_dataset(write_three_group_table(where, test_groups), root=str(where))
        return load

    def evaluate(self, enc, caplog):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="renyifair.metrics"):
            report = mt.evaluate(params_for(enc), enc.test)
        return report, [rec.message for rec in caplog.records]

    @pytest.mark.parametrize("test_groups,present", [("ab", (1, 2)), ("ac", (1, 3))],
                             ids=["lacks-3", "lacks-2"])
    def test_sigma2_over_the_groups_present_with_one_warning(self, encoded, caplog,
                                                            test_groups, present):
        enc = encoded(test_groups)
        assert enc.train.n_groups == enc.test.n_groups == len(enc.sensitive_tuples) == 3
        assert enc.test.n_classes == 2
        assert set(np.unique(enc.test.sensitive)) == set(present)
        report, warnings = self.evaluate(enc, caplog)
        assert warnings == ["sigma2 on a split that lacks a sensitive group: "
                            "Q is taken over the 2 of 3 groups present"]
        probs = md.forward(params_for(enc), enc.test.features)
        renumbered = np.where(enc.test.sensitive == present[1], 2, 1)
        want = mc.second_singular_value(mc.empirical_q(probs, renumbered, n_groups=2))
        assert report.sigma2 == want and report.sigma2 > 0.0
        assert report.p_percent is None and report.eo_violation is None
        assert report.dp_violation is not None
        assert sorted(report.positive_rates) == [str(g) for g in present]

    def test_lacking_group_3_and_lacking_group_2_behave_alike(self, encoded, caplog):
        (a, warn_a), (b, warn_b) = (self.evaluate(encoded(g), caplog) for g in ("ab", "ac"))
        assert warn_a == warn_b
        assert list(a.positive_rates.values()) == list(b.positive_rates.values())
        strip = dict(positive_rates=None)
        assert json.loads(a.to_json()) | strip == json.loads(b.to_json()) | strip

    def test_full_split_warns_nothing(self, encoded, caplog):
        enc = encoded("ab")
        with caplog.at_level(logging.WARNING, logger="renyifair.metrics"):
            report = mt.evaluate(params_for(enc), enc.train)
        assert caplog.records == [] and sorted(report.positive_rates) == ["1", "2", "3"]

    def test_binary_split_lacking_a_group_reports_none(self):
        batch = md.Batch(np.arange(6.0)[:, None], [1, 2, 1, 2, 1, 2], [2] * 6, n_groups=2)
        report = mt.evaluate(md.init_params("linear", 1, 2, seed=0), batch)
        assert report.p_percent is None and report.eo_violation is None
        assert report.dp_violation is None and report.sigma2 == 0.0

    def test_cli_eval_reports_null_p_percent(self, tmp_path, monkeypatch, capsys):
        spec = write_three_group_table(tmp_path, "ab")
        monkeypatch.setenv("RENYIFAIR_DATA", str(tmp_path))
        enc = data.load_dataset(spec)
        md.save_params(params_for(enc), tmp_path / "ckpt.txt")
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt.txt"), "--dataset",
                         str(spec), "--split", "test", "--out", str(tmp_path / "report.json")])
        assert code == 0
        text = (tmp_path / "report.json").read_text()
        assert '"p_percent": null' in text
        assert json.loads(text) == json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestProductCodeLackingACombination:
    @pytest.mark.parametrize("absent,code", [("by", 4), ("ay", 2)])
    def test_both_splits_declare_every_tuple(self, tmp_path, absent, code):
        enc = data.load_dataset(write_pair_table(tmp_path, absent), root=str(tmp_path))
        assert enc.sensitive_tuples == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert enc.train.n_groups == enc.test.n_groups == 4
        assert code not in enc.train.sensitive
        assert set(enc.test.sensitive) == {1, 2, 3, 4}

    def test_dp_discrete_trains_alike_for_an_absent_top_or_middle_group(self, tmp_path, caplog):
        # Either way the training rows hold three groups in the same order,
        # so Q over the groups present is the same and so is every iterate.
        cfg = ft.TrainConfig(lam=1.0, eta=0.5, iters=3, fairness_mode="dp_discrete")
        traces = []
        for absent in ("by", "ay"):
            enc = data.load_dataset(write_pair_table(tmp_path, absent), root=str(tmp_path))
            with caplog.at_level(logging.WARNING, logger="renyifair.fairtrain"):
                traces.append(ft.train(params_for(enc), enc.train, cfg))
        top, middle = traces
        assert top.final_params.theta.tobytes() == middle.final_params.theta.tobytes()
        assert (top.penalty, top.sigma2) == (middle.penalty, middle.sigma2)
        assert min(top.penalty) > 0.0
        assert [rec.message for rec in caplog.records] == 2 * [
            "dp_discrete penalty on a batch that lacks a sensitive group: "
            "Q is taken over the 3 of 4 groups present"]
