"""The four benchmark workloads.

Each workload builds its inputs from the seed (``setup``) and then runs one
pass of the library on them (``run_pass``).  A pass returns a canonical text
that the output check compares with the recorded reference, the mean k-NN
accuracy over learners, and the operation counts behind ``ok_frac``.

Why these four: ``toy-cv`` is many small fits (Python per-call overhead),
``heat-cv-900`` is the same CV sweep where dense n x n cost work rebuilt on
every fit dominates, ``fit-4000`` is four one-shot fits that are memory- and
n^2-bound with no CV at all, and ``kernel-balance`` is the only path through
``kpca`` and the only one where the solver works at d0 close to n.

``fit-4000`` and ``kernel-balance`` label 300 points: with 30 labels their
accuracy moved by 10-25% (quartile distance over median) from one seed to
the next, too much for a regression bound on ``accuracy``.  ``heat-cv-900``
labels 60: with 30, its single realization scored about 0.55 instead of 1.0
on 5 of 40 seeds, and three such seeds among ten put the spread at 0.41.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Library functions are looked up on the package at call time, so that the
# tracer's wrappers (rebound on ``ssdr``) see the calls made from here.
import ssdr
from ssdr import KernelSpec, KnnIndex, LearnerSpec, SplitSpec
from ssdr.harness import ExperimentConfig


# How strongly a pass's time follows the calibration loop's (the exponent of
# calibrate.Calibrator.scale).  The loop mixes interpreted Python with numpy
# calls.  A slow phase of the host slows interpreted Python (toy-cv) more
# than it slows the loop, and dense numpy/LAPACK work over n x n arrays (the
# other three) less.  On a 2-core VM, over twenty runs per workload (seeds
# 0-19, slow and fast phases), the spread of the run medians was least near
# these values, tried in steps of 1/8 from 0 to 1.5.
PYTHON_EXPONENT = 1.25
DENSE_EXPONENT = 0.75

# The README config runs 25 realizations, about 8 s; a pass runs 5, so that a
# run holds many passes, each timed next to a calibration of the host's speed.
TOY_REALIZATIONS = 5


@dataclass
class PassResult:
    text: str                 # canonical output, compared with the reference
    accuracy: float           # mean over learners
    realizations: int         # realizations (or one-shot fits) attempted
    realizations_failed: int
    fold_evals: int           # cross-validation fold evaluations attempted


def _cv_config(seed: int, **kw) -> ExperimentConfig:
    base = dict(dataset="three-cluster",
                split=SplitSpec(labeled=30, seed=seed, realizations=TOY_REALIZATIONS,
                                per_class_labels=True),
                learners=("ss-lfda", "lfda", "fda", "pca"),
                gamma_grid=(0.1, 1.0, 10.0), alpha_grid=(1, 2, 4, 8),
                folds=5, dim=1, data_seed=seed)
    base.update(kw)
    return ExperimentConfig(**base)


def _fold_evals(config: ExperimentConfig, n_labeled: int) -> int:
    """Fold evaluations ``cross_validate`` attempts for this config."""
    total = 0
    for name in config.learners:
        _, tunes = ssdr.learner_preset(name, config.dim)
        grid = (len(config.gamma_grid) if "gamma" in tunes else 1) * \
            (len(config.alpha_grid) if "alpha" in tunes else 1)
        if grid > 1:
            total += grid * max(2, min(config.folds, n_labeled))
    return total * config.split.realizations


class HarnessWorkload:
    """A config run through ``harness.run_benchmark``; output is the TSV."""

    def __init__(self, name: str, make_config, speed_exponent: float):
        self.name = name
        self.make_config = make_config
        self.speed_exponent = speed_exponent   # see calibrate.Calibrator.scale

    def setup(self, seed: int):
        config = self.make_config(seed)
        ssdr.load_dataset(config)   # the data the pass will generate again
        return config, _fold_evals(config, config.split.labeled)

    def run_pass(self, inputs) -> PassResult:
        config, fold_evals = inputs
        results = ssdr.run_benchmark(config)
        return PassResult(
            text=ssdr.format_report(results),
            accuracy=float(np.mean([r.mean for r in results])),
            realizations=config.split.realizations * len(config.learners),
            realizations_failed=sum(len(r.failures) for r in results),
            fold_evals=fold_evals)


FIT_LEARNERS = (
    ("lfda+heat", LearnerSpec(base="lfda", unlabel="heat", gamma=1.0, dim=1)),
    ("mmc+self_pca", LearnerSpec(base="mmc", unlabel="self_pca", gamma=1.0, dim=1)),
    ("dne", LearnerSpec(base="dne", unlabel="none", gamma=0.0, dim=1)),
    ("fda", LearnerSpec(base="fda", unlabel="none", gamma=0.0, dim=1)),
)


class FitWorkload:
    """One-shot ``solver.fit`` calls, each followed by ``embed`` of every
    point and 1-NN classification of the unlabeled points.  Output is one
    line per learner: accuracy and the SHA-256 of the predicted labels."""

    name = "fit-4000"
    speed_exponent = DENSE_EXPONENT

    def setup(self, seed: int):
        data = ssdr.generate_multimodal_toy("three-cluster", n_per_cluster=1334,
                                            noise=0.5, seed=seed)
        lab, unl, _ = ssdr.split(data, SplitSpec(labeled=300, seed=seed, realizations=1,
                                                 per_class_labels=True), 0)
        return data, data.with_labels_hidden(lab), lab, unl

    def run_pass(self, inputs) -> PassResult:
        data, train, lab, unl = inputs
        lines, accs, failed = ["learner\taccuracy\tpredicted_sha256"], [], 0
        for name, spec in FIT_LEARNERS:
            try:
                model = ssdr.fit(train, spec)
            except (ValueError, np.linalg.LinAlgError) as exc:
                failed += 1
                accs.append(0.0)
                lines.append(f"{name}\tfailed: {exc}\t-")
                continue
            Z = ssdr.embed(model, data.X)
            pred = ssdr.knn_classify(KnnIndex(Z[:, lab], data.labels[lab], k=1), Z[:, unl])
            acc = float((pred == data.labels[unl]).mean())
            accs.append(acc)
            digest = hashlib.sha256(np.asarray(pred, dtype="<i8").tobytes()).hexdigest()
            lines.append(f"{name}\t{acc!r}\t{digest}")
        return PassResult(text="\n".join(lines) + "\n", accuracy=float(np.mean(accs)),
                          realizations=len(FIT_LEARNERS), realizations_failed=failed,
                          fold_evals=0)


WORKLOADS = {w.name: w for w in (
    HarnessWorkload("toy-cv", _cv_config, PYTHON_EXPONENT),
    HarnessWorkload("heat-cv-900", lambda seed: _cv_config(
        seed, learners=("ss-lfda",), n_per_cluster=300,
        split=SplitSpec(labeled=60, seed=seed, realizations=1, per_class_labels=True)),
        DENSE_EXPONENT),
    FitWorkload(),
    HarnessWorkload("kernel-balance", lambda seed: _cv_config(
        seed, dataset="balance", learners=("ss-lfda", "lfda", "mmc"),
        alpha_grid=(1,), folds=3, kernel=KernelSpec("gaussian", sigma=2.0), dim=2,
        split=SplitSpec(labeled=300, seed=seed, realizations=1)),
        DENSE_EXPONENT),
)}
