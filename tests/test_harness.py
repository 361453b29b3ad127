import subprocess
import sys

import numpy as np
import pytest

from ssdr import (ExperimentConfig, HeatKernelSpec, KernelSpec, LEARNER_NAMES,
                  SplitSpec, cross_validate, format_report,
                  generate_multimodal_toy, learner_preset, load_csv,
                  parse_config, run_benchmark, run_learner, split)
from ssdr.harness import config_from_dict, load_dataset, stratified_folds


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ssdr.cli", *args],
                          capture_output=True, text=True)


class TestPresets:
    def test_all_names_resolve(self):
        for name in LEARNER_NAMES:
            spec, tunes = learner_preset(name, dim=2)
            assert spec.dim == 2
            assert set(tunes) <= {"gamma", "alpha"}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown learner"):
            learner_preset("tsne", dim=2)

    def test_supervised_presets_fixed(self):
        for name in ("dne", "mfa", "lfda", "fda", "mmc"):
            spec, tunes = learner_preset(name, dim=1)
            assert tunes == () and spec.gamma == 0.0 and spec.unlabel == "none"

    def test_semi_supervised_presets_tune_both(self):
        for name in ("ss-dne", "ss-mfa", "ss-lfda", "ss-mmc"):
            _, tunes = learner_preset(name, dim=1)
            assert set(tunes) == {"gamma", "alpha"}


class TestStratifiedFolds:
    def test_fold_sizes(self):
        labels = np.array([1] * 5 + [2] * 5)
        assign = stratified_folds(labels, folds=5, seed=0)
        sizes = np.bincount(assign, minlength=5)
        assert sizes.tolist() == [2, 2, 2, 2, 2]
        for f in range(5):
            assert sorted(labels[assign == f].tolist()) == [1, 2]

    def test_unlabeled_excluded(self):
        labels = np.array([1, -1, 2, -1, 1, 2])
        assign = stratified_folds(labels, folds=2, seed=0)
        assert (assign[labels == -1] == -1).all()


class TestCrossValidate:
    def make_train(self, labeled=6):
        data = generate_multimodal_toy("ssl-only", 30, 0.5, 0)
        lab, _, _ = split(data, SplitSpec(labeled=labeled, seed=1,
                                          per_class_labels=True), 0)
        return data.with_labels_hidden(lab)

    def test_single_point_grids_short_circuit(self):
        train = self.make_train()
        spec, tunes = learner_preset("ss-lfda", dim=1)
        got = cross_validate(train, spec, tunes, (0.5,), (2,), folds=3)
        assert got == (0.5, 2)

    def test_untuned_parameters_stay_at_preset(self):
        train = self.make_train()
        spec, tunes = learner_preset("lfda", dim=1)  # supervised: no tuning
        got = cross_validate(train, spec, tunes, (0.1, 5.0), (2, 8), folds=3)
        assert got == (spec.gamma, spec.alpha)

    def test_selects_clearly_better_gamma(self):
        # on the strips problem a tiny gamma is useless while a huge gamma
        # recovers the discriminative axis (verified in the solver tests)
        train = self.make_train(labeled=10)
        spec, tunes = learner_preset("ss-lfda", dim=1)
        gamma, alpha = cross_validate(train, spec, tunes, (0.01, 3000.0), (8,),
                                      folds=5, seed=0)
        assert gamma == 3000.0 and alpha == 8

    def test_tie_breaks_toward_smaller_values(self):
        train = self.make_train()
        spec, tunes = learner_preset("ss-lfda", dim=1)
        # duplicated grid values guarantee exact score ties
        gamma, alpha = cross_validate(train, spec, tunes, (2.0, 1.0, 1.0), (3, 3),
                                      folds=3)
        assert alpha == 3 and gamma <= 2.0

    def test_empty_grid_errors(self):
        train = self.make_train()
        spec, tunes = learner_preset("ss-lfda", dim=1)
        with pytest.raises(ValueError):
            cross_validate(train, spec, tunes, (), (1,), folds=3)


def toy_config(**kw):
    base = dict(dataset="ssl-only", split=SplitSpec(labeled=6, seed=0,
                                                    realizations=5,
                                                    per_class_labels=True),
                learners=("ss-lfda",), gamma_grid=(3000.0,), alpha_grid=(8,),
                folds=3, dim=1, n_per_cluster=30)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunBenchmark:
    def test_gamma_zero_collapse_to_supervised(self):
        cfg = toy_config(learners=("ss-dne", "dne"), gamma_grid=(0.0,),
                         alpha_grid=(1,))
        ss, sup = run_benchmark(cfg)
        assert ss.accuracies == sup.accuracies

    def test_report_format_and_determinism(self):
        cfg = toy_config()
        a = format_report(run_benchmark(cfg))
        b = format_report(run_benchmark(cfg))
        assert a == b
        lines = a.strip().split("\n")
        assert lines[0] == "learner\tmean_accuracy\tstd_error\trealizations"
        name, mean, se, n = lines[1].split("\t")
        assert name == "ss-lfda" and n == "5"
        assert 0.0 <= float(mean) <= 1.0 and float(se) >= 0.0

    def test_std_error_unbiased(self):
        cfg = toy_config()
        res = run_benchmark(cfg)[0]
        a = np.asarray(res.accuracies)
        assert res.std_error == pytest.approx(a.std(ddof=1) / np.sqrt(a.size))

    def test_inductive_split_evaluates_on_test(self):
        cfg = toy_config(split=SplitSpec(labeled=6, unlabeled=60, test=20,
                                         seed=0, realizations=3,
                                         per_class_labels=True))
        res = run_learner(load_dataset(cfg), cfg, "ss-lfda")
        assert len(res.accuracies) == 3

    def test_two_cluster_qualitative_ordering(self):
        cfg = toy_config(dataset="two-cluster",
                         split=SplitSpec(labeled=20, seed=0, realizations=10,
                                         per_class_labels=True),
                         learners=("fda", "lpp", "ss-lfda"),
                         gamma_grid=(1.0,), alpha_grid=(1,), n_per_cluster=50)
        fda, lpp, ss = run_benchmark(cfg)
        # strict thresholds (25 realizations) live in the acceptance suite;
        # this 10-realization smoke check only pins the ordering
        assert ss.mean >= 0.95 and fda.mean <= ss.mean - 0.2


class TestConfigParsing:
    def test_parse_with_comments_and_overrides(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# toy experiment\n"
            "dataset = ssl-only\n"
            "labeled = 6   # six labels\n"
            "realizations = 5\n"
            "per_class_labels = true\n"
            "learners = ss-lfda, lfda\n"
            "gamma_grid = 0.1, 1\n"
            "alpha_grid = 1, 2\n"
            "dim = 1\n"
            "kernel = poly2\n"
            "heat = global:0.5\n")
        cfg = parse_config(p, overrides={"seed": "7"})
        assert cfg.dataset == "ssl-only"
        assert cfg.split.labeled == 6 and cfg.split.seed == 7
        assert cfg.split.per_class_labels
        assert cfg.learners == ("ss-lfda", "lfda")
        assert cfg.gamma_grid == (0.1, 1.0) and cfg.alpha_grid == (1, 2)
        assert cfg.kernel == KernelSpec("polynomial", degree=2)
        assert cfg.heat == HeatKernelSpec("global", sigma=0.5)

    def test_missing_dataset_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("labeled = 5\n")
        with pytest.raises(ValueError, match="dataset"):
            parse_config(p)

    def test_malformed_line_reports_location(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("dataset = balance\nnonsense\n")
        with pytest.raises(ValueError, match=":2"):
            parse_config(p)

    def test_unknown_kernel_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("dataset = balance\nkernel = sigmoid\n")
        with pytest.raises(ValueError, match="kernel"):
            parse_config(p)

    def test_unknown_key_errors(self, tmp_path):
        with pytest.raises(ValueError, match="gama_grid"):
            config_from_dict({"dataset": "three-cluster", "gama_grid": "5"})
        p = tmp_path / "exp.cfg"
        p.write_text("dataset = balance\n")
        with pytest.raises(ValueError, match="sed"):
            parse_config(p, overrides={"sed": "7"})

    def test_negative_gamma_grid_errors(self):
        with pytest.raises(ValueError, match="gamma_grid"):
            config_from_dict({"dataset": "three-cluster", "gamma_grid": "0.1,-1"})


class TestCli:
    def test_toy_gen_and_load(self, tmp_path):
        out = tmp_path / "toy.csv"
        r = run_cli("toy-gen", "--kind", "three-cluster", "--n-per-cluster",
                    "10", "--out", str(out))
        assert r.returncode == 0
        d = load_csv(out, "label")
        assert d.n == 30 and d.n_classes == 2

    def test_fit_transform_classify(self, tmp_path):
        data_csv = tmp_path / "toy.csv"
        run_cli("toy-gen", "--kind", "two-cluster", "--n-per-cluster", "25",
                "--out", str(data_csv))
        model = tmp_path / "model.bin"
        r = run_cli("fit", "--data", str(data_csv), "--base", "lfda",
                    "--unlabel", "heat", "--gamma", "1.0", "--dim", "1",
                    "--out", str(model))
        assert r.returncode == 0, r.stderr
        emb = tmp_path / "emb.csv"
        r = run_cli("transform", "--data", str(data_csv), "--model",
                    str(model), "--out", str(emb))
        assert r.returncode == 0, r.stderr
        Z = np.loadtxt(emb, delimiter=",", skiprows=1)
        assert Z.shape == (100,)
        r = run_cli("classify", "--train", str(data_csv), "--data",
                    str(data_csv), "--model", str(model))
        assert r.returncode == 0, r.stderr
        assert len(r.stdout.strip().split("\n")) == 100
        assert "accuracy" in r.stderr

    def test_kernel_fit_roundtrip(self, tmp_path):
        data_csv = tmp_path / "toy.csv"
        run_cli("toy-gen", "--kind", "three-cluster", "--n-per-cluster", "15",
                "--out", str(data_csv))
        model, kmap = tmp_path / "m.bin", tmp_path / "k.bin"
        r = run_cli("fit", "--data", str(data_csv), "--kernel", "poly2",
                    "--dim", "1", "--out", str(model), "--kpca-out", str(kmap))
        assert r.returncode == 0, r.stderr
        r = run_cli("transform", "--data", str(data_csv), "--model", str(model),
                    "--kpca", str(kmap), "--out", str(tmp_path / "e.csv"))
        assert r.returncode == 0, r.stderr

    def test_kernel_fit_without_kpca_out_fails(self, tmp_path):
        data_csv = tmp_path / "toy.csv"
        run_cli("toy-gen", "--kind", "three-cluster", "--n-per-cluster", "10",
                "--out", str(data_csv))
        r = run_cli("fit", "--data", str(data_csv), "--kernel", "poly2",
                    "--out", str(tmp_path / "m.bin"))
        assert r.returncode == 1 and "kpca-out" in r.stderr

    def test_graph_export(self, tmp_path):
        data_csv = tmp_path / "toy.csv"
        run_cli("toy-gen", "--kind", "ssl-only", "--n-per-cluster", "10",
                "--out", str(data_csv))
        out = tmp_path / "g.tsv"
        r = run_cli("graph-export", "--data", str(data_csv), "--threshold",
                    "0.36", "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "i\tj\tc_ij"
        i, j, v = lines[1].split("\t")
        assert int(i) < int(j) and float(v) > 0.36

    def test_good_neighbors(self, tmp_path):
        data_csv = tmp_path / "toy.csv"
        run_cli("toy-gen", "--kind", "two-cluster", "--n-per-cluster", "20",
                "--out", str(data_csv))
        r = run_cli("good-neighbors", "--data", str(data_csv))
        assert r.returncode == 0
        assert 0.0 <= float(r.stdout.strip()) <= 1.0
        r2 = run_cli("good-neighbors", "--data", str(data_csv),
                     "--kernel", "poly2")
        assert r2.returncode == 0

    def test_benchmark_runs_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = ssl-only\nn_per_cluster = 20\nlabeled = 6\n"
            "per_class_labels = true\nrealizations = 3\nlearners = lfda\n"
            "gamma_grid = 0\nalpha_grid = 1\ndim = 1\n")
        out = tmp_path / "report.tsv"
        r = run_cli("benchmark", "--config", str(cfg), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert out.read_text().startswith("learner\t")

    def test_errors_exit_nonzero_with_diagnostics(self, tmp_path):
        r = run_cli("benchmark", "--config", str(tmp_path / "missing.cfg"))
        assert r.returncode == 1 and "error" in r.stderr
        r = run_cli("fit", "--data", str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path / "m.bin"))
        assert r.returncode == 1 and "error" in r.stderr
