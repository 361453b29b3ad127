import builtins
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ssdr.costs
import ssdr.harness
import ssdr.kpca
import ssdr.solver
from ssdr import cli
from ssdr import (Dataset, ExperimentConfig, HeatKernelSpec, KernelSpec, KnnIndex,
                  LEARNER_NAMES, LearnerSpec, SplitSpec, UNLABELED, cross_validate, embed, fit,
                  format_report, generate_balance, generate_multimodal_toy, knn_classify,
                  kpca_embed, kpca_trick_fit, learner_preset, load_csv,
                  parse_config, run_benchmark, run_learner, split)
from ssdr.costs import _labeled_sq_dists
from ssdr.harness import (_parse_heat, _scorer, _shared_inputs, _sweep_scores,
                          config_from_dict, load_dataset, stratified_folds)


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

    def test_every_fold_failing_reports_the_failure(self):
        # the toy data has rank 2, so every fold fails rather than being skipped
        train = self.make_train()
        spec, tunes = learner_preset("ss-lfda", dim=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="cross validation failed: fold 0 "
                               "failed for gamma=0.1, alpha=1: .*exceeds the data rank"):
                cross_validate(train, spec, tunes, (0.1, 1.0), (1, 2), folds=3)


def reference_scores(train, spec, grid, folds, eval_k=1, seed=0, kernel=None):
    """Fold scores of every (gamma, alpha) from one full fit per candidate
    and fold, warning once per skipped or failed (candidate, fold)."""
    labeled = np.flatnonzero(train.labeled_mask)
    assign = stratified_folds(train.labels, folds, seed)
    all_present = set(train.labels[labeled])
    scores = []
    for gamma, alpha in grid:
        cand = replace(spec, gamma=gamma, alpha=int(alpha))
        scores.append([])
        for f in range(folds):
            held = np.flatnonzero(assign == f)
            if held.size == 0:
                continue
            keep = labeled[~np.isin(labeled, held)]
            if set(train.labels[keep]) != all_present:
                warnings.warn(f"fold {f}: a class is absent from the "
                              "training labels; fold skipped")
                continue
            view = train.with_labels_hidden(keep)
            try:
                if kernel is None:
                    model = fit(view, cand)
                    project = lambda X: embed(model, X)
                else:
                    kmap, model = kpca_trick_fit(view, kernel, cand)
                    project = lambda X: kpca_embed(kmap, model, X)
            except (ValueError, np.linalg.LinAlgError) as exc:
                warnings.warn(f"fold {f} failed for gamma={gamma}, "
                              f"alpha={alpha}: {exc}")
                continue
            index = KnnIndex(points=project(train.X)[:, keep],
                             labels=train.labels[keep], k=min(eval_k, keep.size))
            pred = knn_classify(index, project(train.X[:, held]))
            scores[-1].append(float((pred == train.labels[held]).mean()))
    return scores


def sweep(train, spec, grid, folds, eval_k=1, kernel=None):
    """_sweep_scores of the candidates of ``grid`` through one _scorer."""
    cands = {p: replace(spec, gamma=p[0], alpha=p[1]) for p in grid}
    score = _scorer(_shared_inputs(train, kernel, list(cands.values())), spec, cands, eval_k)
    return _sweep_scores(train, score, grid, folds, 0, [])


def recorded(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run()
        except ValueError as exc:
            out = exc
    return out, sorted(str(w.message) for w in caught)


class TestSweepMatchesFitPerCandidate:
    """The sweep shares every step across candidates and folds; its scores
    must equal those of a full fit per (gamma, alpha, fold)."""

    def train(self, labeled=20, kind="ssl-only"):
        data = generate_multimodal_toy(kind, 30, 0.5, 0)
        lab, _, _ = split(data, SplitSpec(labeled=labeled, seed=2,
                                          per_class_labels=True), 0)
        return data.with_labels_hidden(lab)

    @pytest.mark.parametrize("name, grid, kernel", [
        ("ss-lfda", [(g, a) for g in (0.0, 0.1, 10.0) for a in (1, 2, 4)], None),
        ("self", [(g, 1) for g in (0.1, 1.0, 10.0)], None),
        ("lpp*", [(1.0, a) for a in (1, 2, 8)], None),
        ("ss-lfda", [(g, 1) for g in (0.1, 1.0, 10.0)], KernelSpec("gaussian", sigma=2.0)),
    ])
    def test_scores_and_choice(self, name, grid, kernel):
        train = self.train()
        spec, _ = learner_preset(name, dim=1)
        expect, _ = recorded(lambda: reference_scores(train, spec, grid, folds=4, eval_k=3,
                                                      kernel=kernel))
        got, warned = recorded(lambda: sweep(train, spec, grid, 4, 3, kernel))
        assert got == expect and not warned
        gammas = tuple(dict.fromkeys(g for g, _ in grid))
        alphas = tuple(dict.fromkeys(a for _, a in grid))
        best = min((-float(np.mean(s)), g, a) for (g, a), s in zip(grid, expect))
        tunes = ("gamma",) * (len(gammas) > 1) + ("alpha",) * (len(alphas) > 1)
        assert cross_validate(train, spec, tunes, gammas, alphas, folds=4,
                              eval_k=3, kernel=kernel) == best[1:]

    @pytest.mark.parametrize("kernel", [None, KernelSpec("gaussian", sigma=2.0)],
                             ids=["linear", "gaussian"])
    @pytest.mark.parametrize("eval_k", [1, 3])
    @pytest.mark.parametrize("rank", ["full", "deficient"])
    def test_unchecked_cores_score_as_the_public_path(self, kernel, eval_k, rank):
        # each candidate embeds and votes through the private cores; its
        # scores equal those of fit, embed, KnnIndex and knn_classify, with
        # the PCA basis of rank-deficient inputs and a 2-d embedding too
        train = self.train()
        if rank == "deficient":
            train = replace(train, X=np.vstack([train.X, train.X[:1]]))
            assert ssdr.solver._prepare(train)[2] is not None
        spec, _ = learner_preset("ss-lfda", dim=2)
        grid = [(g, a) for g in (0.1, 10.0) for a in (1, 2)]
        expect, _ = recorded(lambda: reference_scores(train, spec, grid, folds=4,
                                                      eval_k=eval_k, kernel=kernel))
        got, warned = recorded(lambda: sweep(train, spec, grid, 4, eval_k, kernel))
        assert got == expect and not warned
        assert all(len(s) == 4 for s in got)

    def test_one_constraint_per_fold_and_gamma(self, monkeypatch):
        # the candidates run gamma by gamma, and the alphas of one gamma share
        # lfda's B and epsilon = gamma: one constraint per (fold, gamma)
        train = self.train(kind="three-cluster")
        spec, tunes = learner_preset("ss-lfda", dim=1)
        gammas, alphas = (0.1, 1.0, 10.0), (1, 2, 4, 8)
        grid = [(g, a) for g in gammas for a in alphas]
        expect, _ = recorded(lambda: reference_scores(train, spec, grid, folds=5))
        best = min((-float(np.mean(s)), g, a) for (g, a), s in zip(grid, expect))
        calls, constraint = [], ssdr.solver._constraint
        monkeypatch.setattr(ssdr.solver, "_constraint",
                            lambda *a: calls.append(1) or constraint(*a))
        assert cross_validate(train, spec, tunes, gammas, alphas, folds=5) == best[1:]
        assert len(calls) == 5 * len(gammas) and all(len(s) == 5 for s in expect)

    def test_skipped_folds_warn_once_per_candidate_and_fold(self):
        train = self.train(labeled=6)
        # class 2 keeps one label: the fold holding it is skipped, and of
        # four folds over three class-1 labels one is empty
        train = train.with_labels_hidden(np.flatnonzero(train.labels == 1).tolist()
                                         + [int(np.flatnonzero(train.labels == 2)[0])])
        spec, _ = learner_preset("ss-lfda", dim=1)
        grid = [(g, a) for g in (0.1, 1.0) for a in (1, 2)]
        expect, expect_warned = recorded(lambda: reference_scores(train, spec, grid, 4))
        got, warned = recorded(lambda: sweep(train, spec, grid, 4))
        assert got == expect and all(len(s) == 2 for s in got)
        assert warned == expect_warned and len(warned) == len(grid)

    def test_failed_alpha_fails_alone(self):
        # a tiny global heat scale leaves only underflowed costs: at alpha 2
        # the Hadamard power finds an all-zero matrix and fails every fold,
        # while the alpha-1 candidates score
        train = self.train()
        spec, _ = learner_preset("ss-lfda", dim=1, heat=HeatKernelSpec("global", sigma=1e-3))
        grid = [(g, a) for g in (0.1, 1.0) for a in (1, 2)]
        expect, expect_warned = recorded(lambda: reference_scores(train, spec, grid, 4))
        got, warned = recorded(lambda: sweep(train, spec, grid, 4))
        assert got == expect and warned == expect_warned
        assert [bool(s) for s in got] == [True, False] * 2
        assert len(warned) == 2 * 4 and "all-zero cost matrix" in warned[0]

    def test_failed_step_warns_once_per_candidate_and_fold(self):
        train = self.train()
        spec, _ = learner_preset("ss-lfda", dim=3)   # the data has rank 2
        grid = [(g, a) for g in (0.1, 1.0) for a in (1, 2)]
        expect, expect_warned = recorded(lambda: reference_scores(train, spec, grid, 3))
        got, warned = recorded(lambda: sweep(train, spec, grid, 3))
        assert got == expect == [[]] * len(grid)
        assert warned == expect_warned and len(warned) == 3 * len(grid)
        assert "exceeds the data rank" in warned[0]


KERNELS = [None, KernelSpec("gaussian", sigma=2.0)]

# learner orders whose learners share a realization's unlabel stage: a
# ranking learner before a heat learner, two heat learners, every preset
LEARNER_ORDERS = [("ss-lfda", "dne"), ("lfda", "ss-lfda"), ("ss-lfda", "ss-dne"),
                  LEARNER_NAMES]
ORDER_IDS = ["ss-lfda,dne", "lfda,ss-lfda", "ss-lfda,ss-dne", "every preset"]


class TestSweepBuildCounts:
    """One cross_validate call builds each expensive piece once."""

    @staticmethod
    def count(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or original(*a, **k))
        return calls

    @pytest.mark.parametrize("kernel", [None, KernelSpec("gaussian", sigma=2.0)])
    def test_one_build_per_sweep_alpha_and_fold(self, monkeypatch, kernel):
        data = generate_multimodal_toy("three-cluster", 30, 0.5, 0)
        lab, _, _ = split(data, SplitSpec(labeled=20, seed=1, per_class_labels=True), 0)
        train = data.with_labels_hidden(lab)
        heat = self.count(monkeypatch, ssdr.solver, "_heat_costs")
        power = self.count(monkeypatch, ssdr.solver, "hadamard_power")
        label = self.count(monkeypatch, ssdr.solver, "lfda_costs")
        kpca = self.count(monkeypatch, ssdr.kpca, "kpca_fit")
        spec, tunes = learner_preset("ss-lfda", dim=1)
        alphas = (1, 2, 4, 8)
        cross_validate(train, spec, tunes, (0.1, 1.0, 10.0), alphas, folds=5, kernel=kernel)
        assert len(heat) == 1 and len(power) <= len(alphas) and len(label) == 5
        assert len(kpca) == (kernel is not None)

    @pytest.mark.parametrize("kernel", [None, KernelSpec("gaussian", sigma=2.0)])
    def test_final_fit_reuses_the_sweep(self, monkeypatch, kernel):
        heat = self.count(monkeypatch, ssdr.solver, "_heat_costs")
        kpca = self.count(monkeypatch, ssdr.kpca, "kpca_fit")
        # fit is counted wherever it is bound by name (the harness no longer is)
        fits = [self.count(monkeypatch, module, "fit")
                for module in (ssdr.solver, ssdr.kpca, ssdr.harness)
                if hasattr(module, "fit")]
        cfg = toy_config(dataset="three-cluster", kernel=kernel, folds=5,
                         split=SplitSpec(labeled=20, seed=1, realizations=1,
                                         per_class_labels=True),
                         gamma_grid=(0.1, 1.0, 10.0), alpha_grid=(1, 2, 4, 8))
        res = run_learner(load_dataset(cfg), cfg, "ss-lfda")
        assert len(res.accuracies) == 1
        assert len(heat) == 1 and len(kpca) == (kernel is not None)
        assert sum(map(len, fits)) == 0

    @pytest.mark.parametrize("kernel", [None, KernelSpec("gaussian", sigma=2.0)])
    def test_distances_built_once_per_sweep(self, monkeypatch, kernel):
        # one n x n gram: the labeled block that every fold's ranking cuts
        # its own from is cut from the distances the heat kernel then
        # consumes; every gram is turned into distances by _dists_from_gram
        data = generate_multimodal_toy("three-cluster", 30, 0.5, 0)
        lab, _, _ = split(data, SplitSpec(labeled=20, seed=1, per_class_labels=True), 0)
        dists = self.count(monkeypatch, ssdr.costs, "_dists_from_gram")
        spec, tunes = learner_preset("ss-lfda", dim=1)
        cross_validate(data.with_labels_hidden(lab), spec, tunes, (0.1, 1.0, 10.0),
                       (1, 2, 4, 8), folds=5, kernel=kernel)
        assert len(dists) == 1

    @pytest.mark.parametrize("folds", [3, 5])
    def test_sweep_maps_no_fold_points(self, monkeypatch, folds):
        # the training and evaluation points are mapped once per realization;
        # every tuned learner scores a held-out fold from its columns of the
        # training inputs
        transform = self.count(monkeypatch, ssdr.harness, "kpca_transform")
        cfg = toy_config(dataset="three-cluster", kernel=KernelSpec("gaussian", sigma=2.0),
                         folds=folds, learners=("ss-lfda", "self"),
                         split=SplitSpec(labeled=20, seed=1, realizations=1,
                                         per_class_labels=True),
                         gamma_grid=(0.1, 1.0, 10.0), alpha_grid=(1, 2))
        results = run_benchmark(cfg)
        assert [len(r.accuracies) for r in results] == [1, 1]
        assert len(transform) == 2

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("learners", LEARNER_ORDERS, ids=ORDER_IDS)
    def test_distances_and_heat_built_once_per_realization(self, monkeypatch, learners,
                                                          kernel):
        # every learner, its sweep and its final fit take the ranking block and
        # the unlabel scatters from one unlabel stage per realization
        dists = self.count(monkeypatch, ssdr.costs, "_dists_from_gram")
        heat = self.count(monkeypatch, ssdr.solver, "_heat_costs")
        cfg = toy_config(dataset="three-cluster", folds=5, learners=learners, kernel=kernel,
                         split=SplitSpec(labeled=20, seed=1, realizations=2,
                                         per_class_labels=True),
                         gamma_grid=(0.1, 1.0), alpha_grid=(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_benchmark(cfg)
        assert all(len(r.accuracies) == 2 for r in results)
        assert len(dists) == len(heat) == 2


class TestSweepRanking:
    """A fold ranks its label neighbors from its sub-block of the labeled
    distances that the realization keeps, with the graphs a ranking from
    scratch gives."""

    def test_fold_graphs_equal_graphs_ranked_from_scratch(self, monkeypatch):
        # an integer grid: exactly tied distances, broken by their last bits
        rng = np.random.default_rng(31)
        n = 240
        labels = 1 + np.arange(n) % 3
        labels[rng.choice(n, 150, replace=False)] = UNLABELED
        train = Dataset(X=rng.integers(0, 4, (3, n)).astype(float), labels=labels,
                        n_classes=3)
        rank, label_scatters = ssdr.solver._labeled_neighbor_graphs, ssdr.harness._label_scatters
        fits, rankings = [], []

        def record_fit(X, fold_labels, *args):
            fits.append((X, fold_labels))
            return label_scatters(X, fold_labels, *args)

        def record_ranking(*args):
            rankings.append((args, rank(*args)))
            return rankings[-1][1]

        monkeypatch.setattr(ssdr.harness, "_label_scatters", record_fit)
        monkeypatch.setattr(ssdr.solver, "_labeled_neighbor_graphs", record_ranking)
        spec, tunes = learner_preset("ss-lfda", dim=1)
        cross_validate(train, spec, tunes, (0.1, 1.0), (1,), folds=5)
        assert len(fits) == len(rankings) == 5
        for (X, fold_labels), ((d2, lab, k), graphs) in zip(fits, rankings):
            idx = np.flatnonzero(fold_labels != UNLABELED)
            scratch = _labeled_sq_dists(X, idx)
            np.testing.assert_array_equal(d2, scratch)
            for got, want in zip(graphs, rank(scratch, fold_labels[idx], k)):
                np.testing.assert_array_equal(got, want)


def toy_config(**kw):
    base = dict(dataset="ssl-only", split=SplitSpec(labeled=6, seed=0,
                                                    realizations=5,
                                                    per_class_labels=True),
                learners=("ss-lfda",), gamma_grid=(3000.0,), alpha_grid=(8,),
                folds=3, dim=1, n_per_cluster=30)
    base.update(kw)
    return ExperimentConfig(**base)


def reference_run_learner(data, config, name):
    """run_learner as cross_validate followed by a second, full fit of the
    chosen (gamma, alpha) per realization; its accuracies and failures."""
    spec, tunes = learner_preset(name, config.dim, config.heat)
    accs, fails = [], []
    for r in range(config.split.realizations):
        try:
            lab_idx, unl_idx, test_idx = split(data, config.split, r)
            train_idx = np.sort(np.concatenate([lab_idx, unl_idx]))
            train = data.subset(train_idx).with_labels_hidden(
                np.flatnonzero(np.isin(train_idx, lab_idx)))
            gamma, alpha = cross_validate(train, spec, tunes, config.gamma_grid,
                                          config.alpha_grid, config.folds,
                                          config.eval_k, seed=config.split.seed + r,
                                          kernel=config.kernel)
            chosen = replace(spec, gamma=gamma, alpha=alpha)
            if config.kernel is None:
                model = fit(train, chosen)
                project = lambda X: embed(model, X)
            else:
                kmap, model = kpca_trick_fit(train, config.kernel, chosen)
                project = lambda X: kpca_embed(kmap, model, X)
            eval_idx = unl_idx if test_idx.size == 0 else test_idx
            lab = np.flatnonzero(train.labeled_mask)
            index = KnnIndex(points=project(train.X)[:, lab], labels=train.labels[lab],
                             k=min(config.eval_k, lab.size))
            pred = knn_classify(index, project(data.X[:, eval_idx]))
            accs.append(float((pred == data.labels[eval_idx]).mean()))
        except (ValueError, np.linalg.LinAlgError) as exc:
            fails.append(f"realization {r}: {exc}")
    if not accs:
        raise RuntimeError(f"{name}: every realization failed: {fails[:3]}")
    return tuple(accs), tuple(fails)


class TestRunLearnerMatchesSeparateFinalFit:
    """The final fit goes through the sweep's steps; every realization must
    score exactly as a separate full fit after cross validation."""

    @pytest.mark.parametrize("name, kw", [
        ("ss-lfda", dict(gamma_grid=(0.1, 1.0, 10.0), alpha_grid=(1, 2, 4), eval_k=3)),
        ("lfda", {}),
        ("pca", {}),
        ("lfda", dict(kernel=KernelSpec("gaussian", sigma=2.0))),
        ("ss-lfda", dict(gamma_grid=(0.1, 10.0), alpha_grid=(1, 2),
                         kernel=KernelSpec("gaussian", sigma=2.0))),
        ("ss-lfda", dict(gamma_grid=(0.1, 10.0), alpha_grid=(1, 8),
                         split=SplitSpec(labeled=6, unlabeled=60, test=20, seed=0,
                                         realizations=3, per_class_labels=True))),
        # three of these four realizations fail: every fold lacks a class
        ("ss-lfda", dict(gamma_grid=(0.1, 1.0), alpha_grid=(1,), n_per_cluster=10,
                         split=SplitSpec(labeled=2, seed=3, realizations=4))),
    ])
    def test_accuracies_and_failures(self, name, kw):
        cfg = toy_config(**kw)
        data = load_dataset(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expect = reference_run_learner(data, cfg, name)
            res = run_learner(data, cfg, name)
        assert (res.accuracies, res.failures) == expect

    @pytest.mark.parametrize("name", ["ss-lfda", "lfda"])
    def test_every_realization_failing(self, name):
        # the toy data has rank 2: ss-lfda fails in the sweep, lfda (no
        # grid to sweep) in the final fit
        cfg = toy_config(dim=3, gamma_grid=(0.1, 1.0), alpha_grid=(1, 2))
        data = load_dataset(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RuntimeError) as expect:
                reference_run_learner(data, cfg, name)
            with pytest.raises(RuntimeError) as got:
                run_learner(data, cfg, name)
        assert str(got.value) == str(expect.value)
        assert "exceeds the data rank 2" in str(got.value)


def shared_config(kernel, learners=("ss-lfda", "lfda", "mmc", "pca")):
    return toy_config(dataset="three-cluster", kernel=kernel, learners=learners,
                      split=SplitSpec(labeled=12, seed=4, realizations=2,
                                      per_class_labels=True),
                      gamma_grid=(0.1, 1.0, 10.0), alpha_grid=(1, 2))




class TestSharedRealization:
    """run_benchmark builds each realization's split, KPCA map, centering and
    evaluation inputs once for all learners; no result may change."""

    @staticmethod
    def check_same_report(kernel, learners):
        cfg = shared_config(kernel, learners)
        data = load_dataset(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_benchmark(cfg)
            alone = [run_learner(data, cfg, name) for name in cfg.learners]
            expect = [reference_run_learner(data, cfg, name) for name in cfg.learners]
        assert format_report(results) == format_report(alone)
        assert results == alone
        assert [(r.accuracies, r.failures) for r in results] == expect
        assert all(len(r.accuracies) == 2 for r in results)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_same_report_as_one_learner_at_a_time(self, kernel):
        self.check_same_report(kernel, ("ss-lfda", "lfda", "mmc", "pca"))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("learners", LEARNER_ORDERS, ids=ORDER_IDS)
    def test_same_report_for_every_learner_order(self, kernel, learners):
        self.check_same_report(kernel, learners)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_prepared_once_per_realization(self, monkeypatch, kernel):
        calls = {name: TestSweepBuildCounts.count(monkeypatch, ssdr.harness, name)
                 for name in ("_kpca_inputs", "_prepare", "split")}
        cfg = shared_config(kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_benchmark(cfg)
        assert [len(r.accuracies) for r in results] == [2] * 4
        assert {name: len(c) for name, c in calls.items()} == {
            "_kpca_inputs": 2 * (kernel is not None), "_prepare": 2 * (kernel is None),
            "split": 2}

    def test_kpca_inputs_skip_the_rank_svd(self, monkeypatch):
        # KPCA coordinates have full row rank, so the inputs are those of the
        # rank-checked preparation, bit for bit, with no SVD
        kernel = KernelSpec("gaussian", sigma=2.0)
        data = generate_balance().subset(np.arange(0, 625, 4))
        lab, _, _ = split(data, SplitSpec(labeled=60, seed=3), 0)
        train = data.with_labels_hidden(lab)
        svd = TestSweepBuildCounts.count(monkeypatch, np.linalg, "svd")
        inputs = _shared_inputs(train, kernel, [])
        assert svd == []
        coords = Dataset(X=inputs.kmap.train_coords(), labels=train.labels,
                         n_classes=train.n_classes)
        X, mean, basis = ssdr.solver._prepare(coords)
        _, (_, kpca_mean, kpca_basis) = ssdr.kpca._kpca_inputs(train.X, kernel)
        assert len(svd) == 1 and basis is None and kpca_basis is None
        np.testing.assert_array_equal(inputs.X, X)
        np.testing.assert_array_equal(kpca_mean, mean)

    def test_failed_preparation_fails_the_realization_for_every_learner(self, monkeypatch):
        degenerate = "degenerate kernel: no positive eigenvalues above tolerance"
        calls = []
        original = ssdr.harness._kpca_inputs

        def kpca_inputs(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError(degenerate)
            return original(*args)

        cfg = shared_config(KernelSpec("gaussian", sigma=2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clean = run_benchmark(cfg)
            monkeypatch.setattr(ssdr.harness, "_kpca_inputs", kpca_inputs)
            results = run_benchmark(cfg)
        assert len(calls) == 2
        # ss-lfda meets the error in its sweep, the untuned learners in the final fit
        assert [r.failures for r in results] == [
            (f"realization 1: cross validation failed: fold 0 failed for "
             f"gamma=0.1, alpha=1: {degenerate}",)] + [
            (f"realization 1: {degenerate}",)] * 3
        assert [r.accuracies for r in results] == [c.accuracies[:1] for c in clean]

    def test_failed_learner_step_fails_only_that_learner(self, monkeypatch):
        # the solve of mmc's first fit fails: mmc's constraint is the
        # identity, and its final fit of realization 0 is the first solve
        # under one (ss-lfda's sweep and final fit and lfda's come before it)
        original = ssdr.solver._gev
        failed = []

        def solve(L, B_reg, dim, identity):
            if identity and not failed:
                failed.append(1)
                raise np.linalg.LinAlgError("mmc solve failed")
            return original(L, B_reg, dim, identity)

        cfg = shared_config(KernelSpec("gaussian", sigma=2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clean = run_benchmark(cfg)
            monkeypatch.setattr(ssdr.solver, "_gev", solve)
            results = run_benchmark(cfg)
        assert [r.failures for r in results] == [
            (), (), ("realization 0: mmc solve failed",), ()]
        assert results[2].accuracies == clean[2].accuracies[1:]
        assert results[:2] + results[3:] == clean[:2] + clean[3:]


class TestFinalLabelStage:
    """A realization runs every learner's sweep first, then the final fits
    grouped by label-cost key: the scatters of all training labels are built
    once per key, and none is kept through a sweep."""

    ORDERS = [("ss-lfda", "lfda"), ("lfda", "mmc", "ss-lfda")]

    @staticmethod
    def config(learners):
        # 149 KPCA coordinates
        return toy_config(dataset="three-cluster", n_per_cluster=50, learners=learners,
                          kernel=KernelSpec("gaussian", sigma=2.0), folds=3,
                          split=SplitSpec(labeled=30, seed=2, realizations=1,
                                          per_class_labels=True),
                          gamma_grid=(0.1, 1.0, 10.0), alpha_grid=(1, 2))

    @pytest.mark.parametrize("learners, keys", zip(ORDERS, [1, 2]),
                             ids=[",".join(o) for o in ORDERS])
    def test_one_label_stage_per_key(self, monkeypatch, learners, keys):
        # a build per learner would make 2 and 3
        cfg = self.config(learners)
        data = load_dataset(cfg)
        full, original = [], ssdr.harness._label_scatters

        def record(X, labels, spec, *args):
            if np.count_nonzero(labels != UNLABELED) == cfg.split.labeled:
                full.append(spec.base)
            return original(X, labels, spec, *args)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alone = [run_learner(data, cfg, name) for name in learners]
            monkeypatch.setattr(ssdr.harness, "_label_scatters", record)
            results = run_benchmark(cfg)
        assert len(full) == keys == len(set(full))
        assert all(len(r.accuracies) == 1 for r in results)
        assert [r.accuracies for r in results] == [r.accuracies for r in alone]

    def test_no_label_stage_kept_through_a_sweep(self):
        # with lfda first, a label stage kept until the key's last learner
        # would sit through ss-lfda's sweep
        peaks = []
        for learners in (("ss-lfda", "lfda", "mmc"), ("lfda", "mmc", "ss-lfda")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tracemalloc.start()
                try:
                    run_benchmark(self.config(learners))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.25 * 8 * 149 ** 2, peaks


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

    @pytest.mark.parametrize("split_spec", [
        SplitSpec(labeled=6, unlabeled=0, realizations=2, per_class_labels=True),
        SplitSpec(labeled=30, realizations=2)], ids=["no unlabeled", "all labeled"])
    def test_split_with_nothing_to_evaluate_fails(self, split_spec):
        # the mean accuracy over no points was nan, reported as a result
        cfg = toy_config(learners=("lfda", "pca"), split=split_spec, n_per_cluster=10)
        message = "no points to evaluate: the split has unlabeled = 0 and test = 0"
        learners = [(spec, ssdr.harness._grid(spec, tunes, cfg.gamma_grid, cfg.alpha_grid))
                    for spec, tunes in (learner_preset(n, cfg.dim) for n in cfg.learners)]
        data = load_dataset(cfg)
        assert ssdr.harness._realization(data, cfg, 1, learners) == \
            [f"realization 1: {message}"] * 2
        # the one-learner run raises; the benchmark reports both learners
        with pytest.raises(RuntimeError, match=f"lfda: every realization failed: "
                                               f"\\['realization 0: {message}'"):
            run_learner(data, cfg, "lfda")
        results = run_benchmark(cfg)
        assert [(r.name, r.accuracies, r.failures) for r in results] == [
            (name, (), (f"realization 0: {message}", f"realization 1: {message}"))
            for name in ("lfda", "pca")]
        assert format_report(results).splitlines()[1:] == ["lfda\t-\t-\t0", "pca\t-\t-\t0"]

    def test_learner_failing_every_realization_hides_no_other_learner(self):
        # with two labels every fold of ss-lfda's sweep lacks a class; lfda
        # and pca have no sweep and score as they do without ss-lfda
        cfg = toy_config(dataset="three-cluster", learners=("lfda", "ss-lfda", "pca"),
                         split=SplitSpec(labeled=2, realizations=2, per_class_labels=True),
                         gamma_grid=(0.1, 1.0), alpha_grid=(1, 2), n_per_cluster=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_benchmark(cfg)
            alone = run_benchmark(replace(cfg, learners=("lfda", "pca")))
        assert [r.name for r in results] == ["lfda", "ss-lfda", "pca"]
        assert [results[0], results[2]] == alone
        assert all(len(r.accuracies) == 2 and not r.failures for r in alone)
        assert results[1].accuracies == () and results[1].failures == tuple(
            f"realization {r}: cross validation failed: every fold was skipped"
            for r in range(2))
        report = format_report(results).splitlines()
        assert report[2] == "ss-lfda\t-\t-\t0"
        assert [report[1], report[3]] == format_report(alone).splitlines()[1:]

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

    @pytest.mark.parametrize("text", [",", " , ", ""])
    def test_empty_learners_rejected(self, text):
        with pytest.raises(ValueError, match="learners"):
            config_from_dict({"dataset": "three-cluster", "learners": text})

    def test_absent_keys_take_the_dataclass_defaults(self):
        assert config_from_dict({"dataset": "three-cluster"}) == ExperimentConfig(
            dataset="three-cluster", split=SplitSpec(labeled=10))
        assert ExperimentConfig(dataset="three-cluster").learners == ("ss-lfda",)

    def test_every_key(self):
        raw = {"dataset": "ssl-only", "labeled": "6", "unlabeled": "40", "test": "5",
               "seed": "3", "realizations": "4", "per_class_labels": "yes",
               "learners": "ss-lfda, LFDA", "gamma_grid": "0.1, 1", "alpha_grid": "1,2",
               "folds": "3", "eval_k": "2", "dim": "1", "kernel": "gaussian:2",
               "heat": "local", "heat_k": "5", "label_column": "y",
               "missing_label_token": "?", "n_per_cluster": "20", "toy_noise": "0.3",
               "data_seed": "9"}
        assert config_from_dict(raw) == ExperimentConfig(
            dataset="ssl-only",
            split=SplitSpec(labeled=6, unlabeled=40, test=5, seed=3, realizations=4,
                            per_class_labels=True),
            learners=("ss-lfda", "lfda"), gamma_grid=(0.1, 1.0), alpha_grid=(1, 2),
            folds=3, eval_k=2, dim=1, kernel=KernelSpec("gaussian", sigma=2.0),
            heat=HeatKernelSpec("local", k=5), label_column="y",
            missing_label_token="?", n_per_cluster=20, toy_noise=0.3, data_seed=9)
        # heat_k is the rank of a local scale; a global scale has none
        raw.pop("heat_k")
        glob = config_from_dict({**raw, "heat": "global:0.5"})
        assert glob.heat == HeatKernelSpec("global", sigma=0.5)

    def test_heat_k_with_global_heat_errors(self):
        # it was dropped without a word: HeatKernelSpec('global', sigma=2.0, k=7)
        with pytest.raises(ValueError, match="^config keys 'heat' and 'heat_k': "
                                             "a global heat scale has no neighbor rank"):
            config_from_dict({"dataset": "three-cluster", "heat": "global:2",
                              "heat_k": "5"})

    @pytest.mark.parametrize("text, error", [
        ("ss-lfdaa", "unknown learner 'ss-lfdaa'"),
        ("lfda, lfda", "learner 'lfda' is named more than once"),
        ("ss-lfda, LFDA, Lfda", "learner 'lfda' is named more than once")])
    def test_unknown_or_repeated_learner_errors(self, tmp_path, text, error):
        # an unknown name failed only after the dataset loaded (a missing CSV
        # reported the file instead); a repeated one printed two equal rows
        with pytest.raises(ValueError, match=f"^config key 'learners': {error}"):
            config_from_dict({"dataset": str(tmp_path / "missing.csv"), "learners": text})
        names = tuple(s.strip() for s in text.split(","))   # as given, in any case
        with pytest.raises(ValueError, match=f"(?i)^{error}"):
            ExperimentConfig(dataset="three-cluster", learners=names)

    def test_alpha_grid_below_one_errors(self):
        # unchecked, every alpha-0 candidate failed in every fold
        with pytest.raises(ValueError, match="alpha_grid values must be >= 1"):
            config_from_dict({"dataset": "three-cluster", "alpha_grid": "0,1"})
        with pytest.raises(ValueError, match="alpha_grid values must be >= 1"):
            ExperimentConfig(dataset="three-cluster", alpha_grid=(1, -2))

    def test_non_integer_alpha_grid_errors(self):
        # the sweep once truncated each alpha: (1.5, 2.7) tuned over (1, 2)
        with pytest.raises(ValueError, match=r"alpha_grid values must be integers: \(1.5, 2.7\)"):
            ExperimentConfig(dataset="three-cluster", alpha_grid=(1.5, 2.7))
        data = generate_multimodal_toy("three-cluster", 10, 0.5, 0)
        spec, tunes = learner_preset("ss-lfda", dim=1)
        with pytest.raises(ValueError, match="alpha must be an integer, got 1.5"):
            cross_validate(data.with_labels_hidden(np.arange(0, 30, 3)), spec, tunes,
                           (1.0,), (1.5, 2.7), folds=2)

    def test_repeated_key_errors(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("dataset = ssl-only\nlabeled = 30\nseed = 3\n# again\n labeled=12\n")
        with pytest.raises(ValueError, match=rf"^{p}:5: key 'labeled' repeats line 2$"):
            parse_config(p)
        p.write_text("dataset = ssl-only\nlabeled = 30\nseed = 3\n")
        cfg = parse_config(p, overrides={"seed": "7"})
        assert cfg.split.labeled == 30 and cfg.split.seed == 7

    @pytest.mark.parametrize("key, value, error", [
        ("folds", "five", "invalid literal for int"),
        ("gamma_grid", "", "could not convert string to float"),
        ("heat", "cosine", "unknown heat-kernel spec"),
        ("heat_k", "0", "neighbor rank k must be >= 1"),
        # three typos that once parsed: as false, a global heat kernel and a
        # gaussian kernel
        ("per_class_labels", "ture", "expected 1/0/true/false/yes/no"),
        ("heat", "globally", "unknown heat-kernel spec"),
        ("kernel", "gaussianx", "unknown kernel")])
    def test_value_errors_name_their_key(self, key, value, error):
        with pytest.raises(ValueError, match=f"^config key '{key}': {error}"):
            config_from_dict({"dataset": "three-cluster", key: value})

    @pytest.mark.parametrize("key, value, want", [
        ("per_class_labels", " No ", False), ("per_class_labels", "1", True),
        ("heat", "GLOBAL", HeatKernelSpec("global")), ("heat", "", HeatKernelSpec()),
        ("kernel", "poly", KernelSpec("polynomial")), ("kernel", "none", None),
        ("kernel", "gaussian", KernelSpec("gaussian"))])
    def test_exact_names_parse(self, key, value, want):
        cfg = config_from_dict({"dataset": "three-cluster", key: value})
        got = cfg.split.per_class_labels if key == "per_class_labels" else getattr(cfg, key)
        assert got == want

    @pytest.mark.parametrize("key, value, least", [
        ("folds", "0", 2), ("folds", "1", 2), ("eval_k", "0", 1)])
    def test_too_few_folds_or_neighbors_errors(self, key, value, least):
        # unchecked, folds 0 or 1 ran as 2 and eval_k 0 failed every
        # realization with a message naming no key
        with pytest.raises(ValueError, match=f"{key} must be >= {least}, got {value}"):
            config_from_dict({"dataset": "three-cluster", key: value})

    def test_zero_dim_errors(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("dataset = ssl-only\nn_per_cluster = 10\nlabeled = 6\n"
                     "realizations = 2\nlearners = lfda\ndim = 0\n")
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            run_benchmark(parse_config(p))


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

    def test_classify_accuracy_compares_label_names(self, tmp_path, capsys):
        # each CSV numbers its labels from its own sorted names: B is 2 in the
        # training file and 1 in the classified one
        rng = np.random.default_rng(3)

        def write(path, names):
            rows = [f"{name},{10.0 * 'ABC'.index(name) + rng.normal(0, 0.3)},"
                    f"{rng.normal(0, 0.3)}" for name in names]
            path.write_text("label,x,y\n" + "\n".join(rows) + "\n")

        train, data = tmp_path / "train.csv", tmp_path / "data.csv"
        write(train, "ABC" * 6)
        write(data, "BC")
        model = tmp_path / "m.bin"
        assert cli.main(["fit", "--data", str(train), "--base", "lfda", "--unlabel",
                         "none", "--gamma", "0", "--dim", "1", "--out", str(model)]) == 0
        capsys.readouterr()
        assert cli.main(["classify", "--train", str(train), "--data", str(data),
                         "--model", str(model)]) == 0
        out, err = capsys.readouterr()
        assert out.split() == ["B", "C"]
        assert "accuracy 1.000000" in err

    def test_classify_reads_the_model_files_once(self, tmp_path, monkeypatch):
        data_csv = tmp_path / "toy.csv"
        model, kmap = tmp_path / "m.bin", tmp_path / "k.bin"
        assert cli.main(["toy-gen", "--kind", "three-cluster", "--n-per-cluster", "10",
                         "--out", str(data_csv)]) == 0
        assert cli.main(["fit", "--data", str(data_csv), "--kernel", "poly2", "--dim",
                         "1", "--out", str(model), "--kpca-out", str(kmap)]) == 0
        loads = []
        for name in ("load_model", "load_kpca"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda path, name=name, original=original:
                                loads.append(name) or original(path))
        assert cli.main(["classify", "--train", str(data_csv), "--data", str(data_csv),
                         "--model", str(model), "--kpca", str(kmap),
                         "--out", str(tmp_path / "pred.txt")]) == 0
        assert sorted(loads) == ["load_kpca", "load_model"]

    def test_fit_and_graph_export_defaults_are_the_dataclass_defaults(self):
        parser = cli.build_parser()
        fit_args = parser.parse_args(["fit", "--data", "d.csv", "--out", "m.bin"])
        spec = LearnerSpec()
        assert (fit_args.base, fit_args.unlabel, fit_args.gamma, fit_args.alpha,
                fit_args.k, fit_args.dim, fit_args.weighting, fit_args.gamma_prime,
                fit_args.epsilon) == (spec.base, spec.unlabel, spec.gamma, spec.alpha,
                                      spec.k, spec.dim, spec.weighting_mode,
                                      spec.gamma_prime, spec.epsilon)
        graph_args = parser.parse_args(["graph-export", "--data", "d.csv", "--out", "g"])
        for args in (fit_args, graph_args):
            assert _parse_heat(args.heat, args.heat_k) == spec.heat == HeatKernelSpec()

    def test_fit_rejects_negative_dim(self, tmp_path):
        data_csv = tmp_path / "toy.csv"
        run_cli("toy-gen", "--kind", "three-cluster", "--n-per-cluster", "10",
                "--out", str(data_csv))
        model = tmp_path / "m.bin"
        r = run_cli("fit", "--data", str(data_csv), "--dim", "-1", "--out", str(model))
        assert r.returncode == 1 and "dim must be >= 1, got -1" in r.stderr
        assert not model.exists()

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

    def test_kernel_fit_without_kpca_out_fails(self, tmp_path, monkeypatch, capsys):
        # the missing path is reported before the kernel fit runs
        data_csv = tmp_path / "toy.csv"
        assert cli.main(["toy-gen", "--kind", "three-cluster", "--n-per-cluster", "10",
                         "--out", str(data_csv)]) == 0
        fits = []
        monkeypatch.setattr(cli, "kpca_trick_fit", lambda *a: fits.append(a))
        assert cli.main(["fit", "--data", str(data_csv), "--kernel", "poly2",
                         "--out", str(tmp_path / "m.bin")]) == 1
        assert "kpca-out" in capsys.readouterr().err and fits == []

    @pytest.mark.parametrize("option, value", [("--kernel", "gaussianx"),
                                               ("--heat", "globally")])
    def test_fit_rejects_mistyped_names(self, tmp_path, capsys, option, value):
        data_csv = tmp_path / "toy.csv"
        assert cli.main(["toy-gen", "--kind", "three-cluster", "--n-per-cluster", "10",
                         "--out", str(data_csv)]) == 0
        model = tmp_path / "m.bin"
        assert cli.main(["fit", "--data", str(data_csv), option, value,
                         "--kpca-out", str(tmp_path / "k.bin"), "--out", str(model)]) == 1
        assert repr(value) in capsys.readouterr().err and not model.exists()

    @pytest.mark.parametrize("command", ["fit", "graph-export"])
    def test_heat_k_with_global_heat_rejected(self, tmp_path, capsys, command):
        # the rank was dropped without a word and the output written
        data_csv, out = tmp_path / "toy.csv", tmp_path / "out"
        assert cli.main(["toy-gen", "--kind", "three-cluster", "--n-per-cluster", "10",
                         "--out", str(data_csv)]) == 0
        args = [command, "--data", str(data_csv), "--out", str(out)]
        capsys.readouterr()
        assert cli.main(args + ["--heat", "global:2", "--heat-k", "5"]) == 1
        err = capsys.readouterr().err
        assert "--heat global and --heat-k" in err and not out.exists()
        # either flag alone is accepted
        assert cli.main(args + ["--heat", "global:2"]) == 0
        assert cli.main(args + ["--heat-k", "5"]) == 0 and out.exists()

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

    def test_graph_export_rejects_nan_threshold(self, tmp_path, capsys):
        data_csv, out = tmp_path / "toy.csv", tmp_path / "g.tsv"
        assert cli.main(["toy-gen", "--kind", "ssl-only", "--n-per-cluster", "5",
                         "--out", str(data_csv)]) == 0
        assert cli.main(["graph-export", "--data", str(data_csv), "--threshold", "nan",
                         "--out", str(out)]) == 1
        assert "threshold must be non-negative and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, option, message", [
        ("graph-export", ["--threshold", "-1"], "threshold must be non-negative and finite"),
        ("classify", ["--k", "0"], "k must be >= 1, got 0"),
        ("good-neighbors", ["--kernel", "gaussianx"], "unknown kernel 'gaussianx'"),
    ], ids=["graph-export", "classify", "good-neighbors"])
    def test_options_checked_before_any_file_is_read(self, tmp_path, monkeypatch, capsys,
                                                     command, option, message):
        data_csv, model, out = tmp_path / "toy.csv", tmp_path / "m.bin", tmp_path / "out"
        assert cli.main(["toy-gen", "--kind", "ssl-only", "--n-per-cluster", "5",
                         "--out", str(data_csv)]) == 0
        assert cli.main(["fit", "--data", str(data_csv), "--dim", "1",
                         "--out", str(model)]) == 0
        capsys.readouterr()
        paths = {"graph-export": ["--out", str(out)], "good-neighbors": [],
                 "classify": ["--train", str(data_csv), "--model", str(model)]}
        opened, original = [], builtins.open
        monkeypatch.setattr(builtins, "open", lambda file, *a, **k:
                            opened.append(str(file)) or original(file, *a, **k))
        assert cli.main([command, "--data", str(data_csv), *paths[command], *option]) == 1
        assert message in capsys.readouterr().err
        assert opened == []

    def test_toy_gen_rejects_negative_noise(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        assert cli.main(["toy-gen", "--kind", "two-cluster", "--noise", "-0.5",
                         "--out", str(out)]) == 1
        assert "noise must be non-negative and finite, got -0.5" in capsys.readouterr().err
        assert not out.exists()

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
        assert r.stderr == ""

    def test_benchmark_reports_failed_realizations(self, tmp_path):
        # with two labels drawn at random, three of these four realizations
        # label both classes once, so every fold lacks a class
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = ssl-only\nn_per_cluster = 10\nlabeled = 2\nseed = 3\n"
            "realizations = 4\nlearners = ss-lfda\ngamma_grid = 0.1, 1\n"
            "alpha_grid = 1\ndim = 1\n")
        r = run_cli("benchmark", "--config", str(cfg))
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[1].endswith("\t1")
        failed = [line for line in r.stderr.splitlines()
                  if line.startswith("ssdr benchmark: ss-lfda: realization")]
        assert failed == [f"ssdr benchmark: ss-lfda: realization {i}: cross "
                          "validation failed: every fold was skipped" for i in range(3)]

    def test_benchmark_with_nothing_to_evaluate_exits_nonzero(self, tmp_path):
        # this config printed "lfda  nan  nan  2" and exited 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = three-cluster\nlabeled = 30\nper_class_labels = true\n"
            "unlabeled = 0\nrealizations = 2\nlearners = lfda, pca\n")
        r = run_cli("benchmark", "--config", str(cfg))
        assert r.returncode == 1
        assert r.stdout.splitlines()[1:] == ["lfda\t-\t-\t0", "pca\t-\t-\t0"]
        assert "no points to evaluate: the split has unlabeled = 0 and test = 0" \
            in r.stderr
        assert "RuntimeWarning" not in r.stderr and "nan" not in r.stdout

    def test_benchmark_reports_every_learner_when_one_fails(self, tmp_path):
        # this config printed only "ss-lfda: every realization failed" and
        # exited 1: the rows of lfda and pca, which succeed, were lost
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = three-cluster\nlabeled = 2\nper_class_labels = true\n"
            "learners = lfda, ss-lfda, pca\nrealizations = 2\n")
        r = run_cli("benchmark", "--config", str(cfg))
        assert r.returncode == 1
        rows = [line.split("\t") for line in r.stdout.splitlines()[1:]]
        assert [row[0] for row in rows] == ["lfda", "ss-lfda", "pca"]
        assert rows[1][1:] == ["-", "-", "0"]
        assert rows[0][3] == rows[2][3] == "2" and 0.0 <= float(rows[0][1]) <= 1.0
        failed = [line for line in r.stderr.splitlines()
                  if line.startswith("ssdr benchmark: ss-lfda: ")]
        assert failed == [f"ssdr benchmark: ss-lfda: realization {i}: cross validation "
                          "failed: every fold was skipped" for i in range(2)] + [
            "ssdr benchmark: ss-lfda: every realization failed"]
        assert "nan" not in r.stdout and "RuntimeWarning" not in r.stderr

    def test_errors_exit_nonzero_with_diagnostics(self, tmp_path):
        r = run_cli("benchmark", "--config", str(tmp_path / "missing.cfg"))
        assert r.returncode == 1 and "error" in r.stderr
        r = run_cli("fit", "--data", str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path / "m.bin"))
        assert r.returncode == 1 and "error" in r.stderr
