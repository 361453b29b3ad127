"""Benchmark harness: learner presets, cross-validation over the cost
weights, the repeated-split protocol and TSV reporting."""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .costs import HeatKernelSpec
from .dataset import (Dataset, SplitSpec, UNLABELED, _at_least, generate_balance,
                      generate_multimodal_toy, load_csv, split, TOY_KINDS)
from .knn import _knn
from .kpca import KernelSpec, KpcaMap, _kpca_inputs, _linear_spec, kpca_transform
from .solver import (LearnerSpec, _attempt, _check_dim, _constraint, _join, _label_scatters,
                     _ok, _prepare, _project, _term, _unlabel_stage, _weights)

# Named learner presets.  ``tunes`` lists which of (gamma, alpha) cross
# validation may adjust; the others stay at the preset value.
_PRESETS = {
    "pca":     (LearnerSpec(base="none", unlabel="self_pca", gamma=1.0), ()),
    "lpp":     (LearnerSpec(base="none", unlabel="heat", gamma=1.0, alpha=1), ()),
    "lpp*":    (LearnerSpec(base="none", unlabel="heat", gamma=1.0, alpha=8), ("alpha",)),
    "dne":     (LearnerSpec(base="dne", unlabel="none", gamma=0.0), ()),
    "mfa":     (LearnerSpec(base="mfa", unlabel="none", gamma=0.0), ()),
    "lfda":    (LearnerSpec(base="lfda", unlabel="none", gamma=0.0), ()),
    "fda":     (LearnerSpec(base="fda", unlabel="none", gamma=0.0), ()),
    "mmc":     (LearnerSpec(base="mmc", unlabel="none", gamma=0.0), ()),
    "self":    (LearnerSpec(base="lfda", unlabel="self_pca", gamma=1.0), ("gamma",)),
    "ss-dne":  (LearnerSpec(base="dne", unlabel="heat", gamma=1.0), ("gamma", "alpha")),
    "ss-mfa":  (LearnerSpec(base="mfa", unlabel="heat", gamma=1.0), ("gamma", "alpha")),
    "ss-lfda": (LearnerSpec(base="lfda", unlabel="heat", gamma=1.0), ("gamma", "alpha")),
    "ss-mmc":  (LearnerSpec(base="mmc", unlabel="heat", gamma=1.0), ("gamma", "alpha")),
}

LEARNER_NAMES = tuple(_PRESETS)


def learner_preset(name: str, dim: int,
                   heat: HeatKernelSpec | None = None) -> tuple[LearnerSpec, tuple]:
    try:
        spec, tunes = _PRESETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown learner {name!r}; choose from {sorted(_PRESETS)}")
    return replace(spec, dim=dim, heat=heat or spec.heat), tunes


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str                         # generator name or CSV path
    split: SplitSpec = field(default_factory=SplitSpec)
    learners: tuple[str, ...] = ("ss-lfda",)
    gamma_grid: tuple[float, ...] = (0.01, 0.1, 0.5, 1.0, 5.0, 10.0)
    alpha_grid: tuple[int, ...] = (1, 2, 4, 8)
    folds: int = 5
    eval_k: int = 1
    dim: int = 2
    kernel: KernelSpec | None = None     # applied to the inputs of every learner
    heat: HeatKernelSpec = field(default_factory=HeatKernelSpec)
    label_column: str = "label"
    missing_label_token: str = ""
    n_per_cluster: int = 50
    toy_noise: float = 0.5
    data_seed: int = 0

    def __post_init__(self):
        _at_least(self, integer=True, folds=2, eval_k=1, dim=1, n_per_cluster=2,
                  data_seed=0)
        _at_least(self, toy_noise=0)
        _at_least(self.split, labeled=1)   # the k-NN score needs labeled points
        if not self.learners:
            raise ValueError("learners must name at least one learner")
        for name, least in (("gamma_grid", 0), ("alpha_grid", 1)):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must not be empty")
            if not all(least <= v < math.inf for v in grid):
                raise ValueError(f"{name} values must be >= {least} and finite: {grid}")
        if not all(isinstance(a, numbers.Integral) for a in self.alpha_grid):
            raise ValueError(f"alpha_grid values must be integers: {self.alpha_grid}")


def load_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset == "balance":
        return generate_balance()
    if config.dataset in TOY_KINDS:
        return generate_multimodal_toy(config.dataset, config.n_per_cluster,
                                       config.toy_noise, config.data_seed)
    return load_csv(config.dataset, config.label_column, config.missing_label_token)


def stratified_folds(labels: np.ndarray, folds: int, seed: int):
    """Deterministic stratified fold assignment over labeled positions."""
    rng = np.random.default_rng([seed, 0xF01D])
    assign = np.full(labels.shape[0], -1, dtype=int)
    for k in np.unique(labels[labels != UNLABELED]):
        pos = rng.permutation(np.flatnonzero(labels == k))
        for f, chunk in enumerate(np.array_split(pos, folds)):
            assign[chunk] = f
    return assign


def _grid(spec: LearnerSpec, tunes: tuple, gamma_grid, alpha_grid) -> dict:
    """The learner's candidates: its spec at each (gamma, alpha) that cross
    validation tries, keyed by the pair."""
    gammas = tuple(gamma_grid) if "gamma" in tunes else (spec.gamma,)
    alphas = tuple(alpha_grid) if "alpha" in tunes else (spec.alpha,)
    if not gammas or not alphas:
        raise ValueError("tuning grids must be non-empty")
    return {(g, a): replace(spec, gamma=g, alpha=a) for g in gammas for a in alphas}


@dataclass(frozen=True)
class _Inputs:
    """What every learner of one realization fits on: the centered (and, when
    rank deficient, PCA-projected) training inputs ``X`` with their ``mean``
    and ``basis``, the KPCA map (None without a kernel), the learners'
    inputs of the training points ``train`` and of the evaluation points
    ``eval`` (None without them), both centered and projected as ``embed``
    maps inputs before its product with A, the indices ``labeled`` of the
    training set's labeled points, and the unlabel stage of every learner's
    candidates: the scatters of each unlabel term and the labeled points'
    ranking ``block``.  Without a kernel ``train`` is ``X`` itself; with one
    it is the centered KPCA transform of the training points, which is how
    the final fit's embedding maps them."""
    X: np.ndarray
    mean: np.ndarray
    basis: np.ndarray | None
    kmap: KpcaMap | None
    train: np.ndarray
    eval: np.ndarray | None
    labeled: np.ndarray
    unlabel: dict
    block: np.ndarray | None


def _centered(kmap: KpcaMap | None, mean: np.ndarray, basis: np.ndarray | None,
              X: np.ndarray) -> np.ndarray:
    """Raw points as learner inputs, with the operations of ``embed`` before
    its product with A: their KPCA coordinates under kmap (if any), centered
    by mean and projected onto basis (if any)."""
    if kmap is None:
        cols = X - mean[:, None]
    else:
        cols = kpca_transform(kmap, X)
        cols -= mean[:, None]
    return cols if basis is None else basis.T @ cols


def _shared_inputs(train: Dataset, kernel: KernelSpec | None, specs: list, X_eval=None):
    """The ``_Inputs`` of a training set, its evaluation points ``X_eval`` and
    the candidate ``specs`` of every learner that fits on them, or the error
    of the first failed step, which then fails every learner."""
    try:
        kmap, (X, mean, basis) = (None, _prepare(train)) if kernel is None \
            else _kpca_inputs(train.X, kernel)
        inputs = X if kmap is None else _centered(kmap, mean, basis, train.X)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return exc
    labeled = np.flatnonzero(train.labeled_mask)
    return _Inputs(X, mean, basis, kmap, inputs,
                   None if X_eval is None else _centered(kmap, mean, basis, X_eval),
                   labeled, *_unlabel_stage(X, labeled, specs))


def _scorer(inputs, spec: LearnerSpec, grid: dict, eval_k: int):
    """The scorer of one learner's candidates ``grid`` (a ``_grid``) on a
    realization's ``_shared_inputs`` (or the error they failed with).  The
    dimension is checked once; each candidate takes its unlabel scatters from
    the inputs, and a fold's ranking cuts its sub-block of their block and
    frees it.  ``score(labels, points, X_eval, truth)`` yields, per (gamma,
    alpha) in ``points``, the k-NN accuracy on the raw points ``X_eval``
    (None: the shared evaluation points) of its fit on ``labels``, or its
    first failed step's error.

    A call builds what its candidates share once: the label scatters, the
    inputs of ``X_eval``, and the regularized constraint of consecutive
    candidates with one B and epsilon (one at a time).  A candidate then
    costs one ``L``, one generalized eigensolve, the products
    ``(A @ inputs.train)[:, lab]`` and ``A @ evals`` (sliced after the
    product, which is how ``embed`` rounds them) and one vote of the
    unchecked core ``_knn``: every array it gets is built here from inputs
    checked where they entered."""
    try:
        if _ok(inputs).kmap is not None:
            spec = _linear_spec(spec, inputs.kmap)
            grid = {p: _linear_spec(c, inputs.kmap) for p, c in grid.items()}
        _check_dim(spec.dim, inputs.X)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return lambda labels, points, X_eval, truth, exc=exc: [exc] * len(points)

    def score(labels, points, X_eval, truth):
        lab = np.flatnonzero(labels != UNLABELED)
        pos = np.searchsorted(inputs.labeled, lab)
        k = min(eval_k, lab.size)
        label = _attempt(_label_scatters, inputs.X, labels, spec,
                         lambda: inputs.block[np.ix_(pos, pos)])
        evals = inputs.eval if X_eval is None else \
            _centered(inputs.kmap, inputs.mean, inputs.basis, X_eval)
        last = None   # (B, epsilon, its _constraint) of the last candidate
        for p in points:
            cand = grid[p]
            try:
                L_l, L_u, B = _join(_ok(label), _ok(inputs.unlabel[_term(cand)]))
                eps = _weights(cand, L_u)[1]
                if last is None or last[0] is not B or last[1] != eps:
                    last = None   # free the old B_reg before the new one
                    last = B, eps, _constraint(B, eps)
                A, _ = _project(L_l, L_u, cand, last[2])
            except (ValueError, np.linalg.LinAlgError) as exc:
                yield exc
                continue
            pred = _knn((A @ inputs.train)[:, lab], labels[lab], k, A @ evals)
            yield float(np.count_nonzero(pred == truth) / truth.size)

    return score


def _sweep_scores(train: Dataset, score, grid, folds: int, seed: int,
                  failures: list) -> list[list[float]]:
    """Held-out fold accuracies of every (gamma, alpha) in ``grid`` by ``score``
    (a ``_scorer``).  A failed step is warned and added to ``failures`` once per
    candidate and fold that needs it, as a fit per candidate and fold would."""
    labeled = np.flatnonzero(train.labeled_mask)
    assign = stratified_folds(train.labels, folds, seed)
    all_present = set(train.labels[labeled])
    scores = [[] for _ in grid]
    for f in range(folds):
        held = np.flatnonzero(assign == f)
        if held.size == 0:
            continue
        keep = labeled[~np.isin(labeled, held)]
        if set(train.labels[keep]) != all_present:
            for _ in grid:
                warnings.warn(f"fold {f}: a class is absent from the "
                              "training labels; fold skipped")
            continue
        # the fold's labels, as train.with_labels_hidden(keep) holds them
        hidden = np.full(train.n, UNLABELED, dtype=int)
        hidden[keep] = train.labels[keep]
        accs = score(hidden, grid, train.X[:, held], train.labels[held])
        for (gamma, alpha), acc, out in zip(grid, accs, scores):
            if isinstance(acc, Exception):
                failures.append(f"fold {f} failed for gamma={gamma}, alpha={alpha}: {acc}")
                warnings.warn(failures[-1])
            else:
                out.append(acc)
    return scores


def cross_validate(train: Dataset, spec: LearnerSpec, tunes: tuple,
                   gamma_grid, alpha_grid, folds: int, eval_k: int = 1,
                   seed: int = 0, kernel: KernelSpec | None = None):
    """Pick (gamma, alpha) by held-out labeled-fold 1-NN accuracy.

    Folds are stratified over the labeled examples; the unlabeled examples
    stay in every training fold.  With a ``kernel`` the learner runs on the
    KPCA coordinates of the training inputs.  Ties go to the smaller gamma,
    then the smaller alpha.
    """
    grid = _grid(spec, tunes, gamma_grid, alpha_grid)
    if len(grid) == 1:
        return next(iter(grid))
    inputs = _shared_inputs(train, kernel, list(grid.values()))
    return _choose(train, grid, _scorer(inputs, spec, grid, eval_k), folds, seed)


def _choose(train: Dataset, grid: dict, score, folds: int, seed: int):
    """The (gamma, alpha) of ``grid`` that ``cross_validate`` picks, by the
    fold scores of ``score``, a ``_scorer`` of the candidates ``grid``."""
    folds = max(2, min(folds, train.labeled_count))
    failures = []
    scores = _sweep_scores(train, score, grid, folds, seed, failures)
    best = min(((-float(np.mean(s)), g, a) for (g, a), s in zip(grid, scores) if s),
               default=None)
    if best is None:
        reason = failures[0] if failures else "every fold was skipped"
        raise ValueError(f"cross validation failed: {reason}")
    return best[1], int(best[2])


@dataclass(frozen=True)
class LearnerResult:
    name: str
    accuracies: tuple[float, ...]      # one per successful realization
    failures: tuple[str, ...]          # messages of failed realizations

    @property
    def mean(self) -> float:
        """Mean accuracy; NaN when every realization failed."""
        return float(np.mean(self.accuracies)) if self.accuracies else math.nan

    @property
    def std_error(self) -> float:
        a = np.asarray(self.accuracies)
        if a.size < 2:
            return 0.0
        return float(a.std(ddof=1) / np.sqrt(a.size))


def _realization(data: Dataset, config: ExperimentConfig, r: int, learners) -> list:
    """Per (spec, grid) in ``learners``, its accuracy on realization r or the
    message of its failure.  The split, KPCA map, centering and PCA, the
    evaluation points' inputs and the unlabel stage of every learner's
    candidates are built once and shared by every learner; the label
    scatters and solves stay per learner.  All of it is freed on return."""
    try:
        lab_idx, unl_idx, test_idx = split(data, config.split, r)
        train_idx = np.sort(np.concatenate([lab_idx, unl_idx]))
        train = data.subset(train_idx).with_labels_hidden(
            np.flatnonzero(np.isin(train_idx, lab_idx)))
        eval_idx = unl_idx if test_idx.size == 0 else test_idx
        if eval_idx.size == 0:
            raise ValueError("no points to evaluate: the split has unlabeled = 0 "
                             "and test = 0")
        inputs = _shared_inputs(train, config.kernel,
                                [c for _, grid in learners for c in grid.values()],
                                data.X[:, eval_idx])
    except (ValueError, np.linalg.LinAlgError) as exc:
        return [f"realization {r}: {exc}"] * len(learners)

    def accuracy(spec, grid):
        score = _scorer(inputs, spec, grid, config.eval_k)
        chosen = next(iter(grid)) if len(grid) == 1 else _choose(
            train, grid, score, config.folds, config.split.seed + r)
        [acc] = score(train.labels, [chosen], None, data.labels[eval_idx])
        return _ok(acc)

    outcomes = []
    for spec, grid in learners:
        try:
            outcomes.append(accuracy(spec, grid))
        except (ValueError, np.linalg.LinAlgError) as exc:
            outcomes.append(f"realization {r}: {exc}")
    return outcomes


def _run_learners(data: Dataset, config: ExperimentConfig, names) -> list[LearnerResult]:
    """Every realization once, each learner of ``names`` fitted on it in turn;
    one result per learner, also for a learner whose realizations all failed."""
    learners = [(spec, _grid(spec, tunes, config.gamma_grid, config.alpha_grid))
                for spec, tunes in (learner_preset(name, config.dim, config.heat)
                                    for name in names)]
    runs = [_realization(data, config, r, learners)
            for r in range(config.split.realizations)]
    return [LearnerResult(name=name,
                          accuracies=tuple(o for o in outcomes if isinstance(o, float)),
                          failures=tuple(o for o in outcomes if isinstance(o, str)))
            for name, outcomes in zip(names, zip(*runs))]


def run_learner(data: Dataset, config: ExperimentConfig, name: str) -> LearnerResult:
    """One learner's result; raises ``RuntimeError`` when every realization failed."""
    [res] = _run_learners(data, config, [name])
    if not res.accuracies:
        raise RuntimeError(f"{name}: every realization failed: {list(res.failures[:3])}")
    return res


def run_benchmark(config: ExperimentConfig) -> list[LearnerResult]:
    """Every learner of ``config`` on the same realizations; see ``_realization``.
    A learner whose realizations all failed has no accuracies."""
    return _run_learners(load_dataset(config), config, config.learners)


def format_report(results: list[LearnerResult]) -> str:
    """The TSV report, one row per learner; a learner with no accuracy reads
    ``-`` for its mean and standard error and 0 realizations."""
    lines = ["learner\tmean_accuracy\tstd_error\trealizations"]
    for res in results:
        if res.accuracies:
            lines.append(f"{res.name}\t{res.mean:.6f}\t{res.std_error:.6f}"
                         f"\t{len(res.accuracies)}")
        else:
            lines.append(f"{res.name}\t-\t-\t0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# flat key = value config files

def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a flat ``key = value`` config file; '#' starts a comment.  A key
    may appear once; ``overrides`` replace the file's values."""
    raw: dict[str, str] = {}
    first = {}   # the line of each key
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first[key]}")
            first[key] = lineno
            raw[key] = value
    raw.update(overrides or {})
    return config_from_dict(raw)


def _parse_kernel(text: str) -> KernelSpec | None:
    """``none``, ``linear``, ``poly``/``polyN`` or ``gaussian[:SIGMA]``."""
    name, colon, arg = text.strip().lower().partition(":")
    if name in ("", "none") and not colon:
        return None
    if name == "linear" and not colon:
        return KernelSpec("linear")
    degree = name[4:]
    if name[:4] == "poly" and (degree.isdigit() or not degree) and not colon:
        return KernelSpec("polynomial", degree=int(degree or KernelSpec.degree))
    if name == "gaussian":
        return KernelSpec("gaussian", sigma=float(arg) if colon else KernelSpec.sigma)
    raise ValueError(f"unknown kernel {text!r}")


def _parse_heat(text: str, k: int = HeatKernelSpec.k) -> HeatKernelSpec:
    """``local`` (rank k) or ``global[:SIGMA]``."""
    name, colon, arg = text.strip().lower().partition(":")
    if name in ("", "local") and not colon:
        return HeatKernelSpec("local", k=k)
    if name == "global":
        return HeatKernelSpec("global", sigma=float(arg) if colon else HeatKernelSpec.sigma)
    raise ValueError(f"unknown heat-kernel spec {text!r}")


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(f"expected 1/0/true/false/yes/no, got {text!r}")
    return value in ("1", "true", "yes")


# Every config key with the parser of its text.  Each key is the name of a
# ``SplitSpec`` or ``ExperimentConfig`` field, except ``heat_k``: the neighbor
# rank of a local heat scale.  A key left out keeps the dataclass default.
_CONFIG_KEYS = {
    "dataset": str,
    "labeled": int,
    "unlabeled": lambda text: None if text.strip() in ("", "rest") else int(text),
    "test": int,
    "seed": int,
    "realizations": int,
    "per_class_labels": _parse_bool,
    "learners": lambda text: tuple(s.strip().lower() for s in text.split(",") if s.strip()),
    "gamma_grid": lambda text: tuple(float(s) for s in text.split(",")),
    "alpha_grid": lambda text: tuple(int(s) for s in text.split(",")),
    "folds": int,
    "eval_k": int,
    "dim": int,
    "kernel": _parse_kernel,
    "heat": _parse_heat,
    "heat_k": lambda text: HeatKernelSpec(k=int(text)),
    "label_column": str,
    "missing_label_token": str,
    "n_per_cluster": int,
    "toy_noise": float,
    "data_seed": int,
}


def config_from_dict(raw: dict[str, str]) -> ExperimentConfig:
    """Build the experiment config; every key of ``raw`` must be one it reads."""
    if "dataset" not in raw:
        raise ValueError("config needs a 'dataset' entry")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    values = {}
    for key, text in raw.items():
        try:
            values[key] = _CONFIG_KEYS[key](text)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    split = {f.name: values.pop(f.name) for f in fields(SplitSpec) if f.name in values}
    local = values.pop("heat_k", None)       # a global heat scale has no rank
    if local is not None and values.get("heat", local).scaling == "local":
        values["heat"] = local
    return ExperimentConfig(split=SplitSpec(**split), **values)
