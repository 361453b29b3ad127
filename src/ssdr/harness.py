"""Benchmark harness: learner presets, cross-validation over the cost
weights, the repeated-split protocol and TSV reporting."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import HeatKernelSpec
from .dataset import (Dataset, SplitSpec, UNLABELED, generate_balance,
                      generate_multimodal_toy, load_csv, split, TOY_KINDS)
from .knn import KnnIndex, knn_classify
from .kpca import KernelSpec, _kpca_inputs, kpca_embed, kpca_transform, kpca_trick_fit
from .solver import (LearnerSpec, _label_scatters, _prepare, _solve, _unlabel_costs,
                     _unlabel_scatters, embed, fit)

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


def learner_preset(name: str, dim: int, heat: HeatKernelSpec | None = None,
                   kernel: KernelSpec | None = None) -> tuple[LearnerSpec, tuple]:
    try:
        spec, tunes = _PRESETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown learner {name!r}; choose from {sorted(_PRESETS)}")
    spec = replace(spec, dim=dim, kernel=kernel)
    if heat is not None:
        spec = replace(spec, heat=heat)
    return spec, tunes


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str                         # generator name or CSV path
    split: SplitSpec
    learners: tuple[str, ...]
    gamma_grid: tuple[float, ...] = (0.01, 0.1, 0.5, 1.0, 5.0, 10.0)
    alpha_grid: tuple[int, ...] = (1, 2, 4, 8)
    folds: int = 5
    eval_k: int = 1
    dim: int = 2
    kernel: KernelSpec | None = None
    heat: HeatKernelSpec = field(default_factory=HeatKernelSpec)
    label_column: str = "label"
    missing_label_token: str = ""
    n_per_cluster: int = 50
    toy_noise: float = 0.5
    data_seed: int = 0


def load_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset == "balance":
        return generate_balance()
    if config.dataset in TOY_KINDS:
        return generate_multimodal_toy(config.dataset, config.n_per_cluster,
                                       config.toy_noise, config.data_seed)
    return load_csv(config.dataset, config.label_column, config.missing_label_token)


def _fit_projection(train: Dataset, spec: LearnerSpec):
    """Fit a (possibly kernelized) learner; returns its map of raw inputs."""
    if spec.kernel is not None:
        kmap, model = kpca_trick_fit(train, spec.kernel, replace(spec, kernel=None))
        return lambda X: kpca_embed(kmap, model, X)
    model = fit(train, spec)
    return lambda X: embed(model, X)


def _accuracy(Z_train, labels, Z_eval, truth, eval_k: int) -> float:
    """k-NN accuracy of embedded points against the labeled training points."""
    lab = np.flatnonzero(labels != UNLABELED)
    index = KnnIndex(points=Z_train[:, lab], labels=labels[lab], k=min(eval_k, lab.size))
    return float((knn_classify(index, Z_eval) == truth).mean())


def stratified_folds(labels: np.ndarray, folds: int, seed: int):
    """Deterministic stratified fold assignment over labeled positions."""
    rng = np.random.default_rng([seed, 0xF01D])
    assign = np.full(labels.shape[0], -1, dtype=int)
    for k in np.unique(labels[labels != UNLABELED]):
        pos = rng.permutation(np.flatnonzero(labels == k))
        for f, chunk in enumerate(np.array_split(pos, folds)):
            assign[chunk] = f
    return assign


def _attempt(build, *args):
    """build(*args), or the error it raised, kept for the candidates that need it."""
    try:
        return build(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return exc


def _ok(stage):
    """A stage's result; raises the error it failed with."""
    if isinstance(stage, Exception):
        raise stage
    return stage


def _shared_inputs(train: Dataset, spec: LearnerSpec):
    """What every fold and candidate of a sweep share: the linear spec to fit,
    the map of raw inputs to fit inputs, the training inputs it gives, and
    the centered (PCA-reduced) X with its mean and basis."""
    if spec.kernel is None:
        data, to_inputs = train, lambda X: X
    else:
        kmap, data, spec = _kpca_inputs(train, spec.kernel, spec)
        to_inputs = lambda X: kpca_transform(kmap, X)
    return (spec, to_inputs, to_inputs(train.X)) + _prepare(data, spec.dim)


def _sweep_scores(train: Dataset, spec: LearnerSpec, grid, folds: int,
                  eval_k: int, seed: int, failures=None) -> list[list[float]]:
    """Held-out fold accuracies of every (gamma, alpha) in ``grid``.

    Each step runs once for all that share its inputs: the KPCA map,
    centering and PCA once, the unlabel scatters once per alpha (from one
    heat kernel), the label scatters once per fold; a candidate adds only
    its d0 x d0 solve, the embedding and k-NN.  A step that fails is
    reported for every candidate and fold that needs it, as a fit per
    candidate and fold would report it: warned, and added to ``failures``.
    """
    failures = [] if failures is None else failures
    cands = [replace(spec, gamma=g, alpha=int(a)) for g, a in grid]
    labeled = np.flatnonzero(train.labeled_mask)
    assign = stratified_folds(train.labels, folds, seed)
    all_present = set(train.labels[labeled])
    shared = _attempt(_shared_inputs, train, spec)
    if not isinstance(shared, Exception):
        fit_spec, to_inputs, inputs, X, mean, basis = shared
        cands = [replace(c, kernel=None, dim=fit_spec.dim) for c in cands]
        unlabel = _unlabel_stage(X, fit_spec, cands)
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
        labels = train.with_labels_hidden(keep).labels
        label = shared
        if not isinstance(shared, Exception):
            label = _attempt(_label_scatters, X, labels, fit_spec)
            held_inputs = to_inputs(train.X[:, held])
        for (gamma, alpha), cand, out in zip(grid, cands, scores):
            try:
                L_l, B = _ok(label)
                L_u, B_u = _ok(unlabel[cand.alpha]) if cand.gamma > 0 else (None, None)
                model = _solve(L_l, L_u, B_u if B is None else B, cand, mean, basis)
            except (ValueError, np.linalg.LinAlgError) as exc:
                failures.append(f"fold {f} failed for gamma={gamma}, alpha={alpha}: {exc}")
                warnings.warn(failures[-1])
                continue
            out.append(_accuracy(embed(model, inputs), labels, embed(model, held_inputs),
                                 train.labels[held], eval_k))
    return scores


def _unlabel_stage(X, spec: LearnerSpec, cands) -> dict:
    """(L_u, B_u), or the error building them, per alpha of the candidates
    with an unlabel term; the n x n costs are freed on return."""
    alphas = dict.fromkeys(c.alpha for c in cands if c.gamma > 0)
    if spec.unlabel == "none" or not alphas:
        return dict.fromkeys(alphas, (None, None))
    cu = _attempt(_unlabel_costs, X, spec)
    return {a: cu if isinstance(cu, Exception) else
            _attempt(_unlabel_scatters, X, cu, replace(spec, alpha=a)) for a in alphas}


def cross_validate(train: Dataset, spec: LearnerSpec, tunes: tuple,
                   gamma_grid, alpha_grid, folds: int, eval_k: int = 1,
                   seed: int = 0):
    """Pick (gamma, alpha) by held-out labeled-fold 1-NN accuracy.

    Folds are stratified over the labeled examples; the unlabeled examples
    stay in every training fold.  Ties go to the smaller gamma, then the
    smaller alpha.
    """
    gammas = tuple(gamma_grid) if "gamma" in tunes else (spec.gamma,)
    alphas = tuple(alpha_grid) if "alpha" in tunes else (spec.alpha,)
    if not gammas or not alphas:
        raise ValueError("tuning grids must be non-empty")
    if len(gammas) == 1 and len(alphas) == 1:
        return gammas[0], alphas[0]
    grid = [(g, a) for g in gammas for a in alphas]
    folds = max(2, min(folds, train.labeled_count))
    failures = []
    scores = _sweep_scores(train, spec, grid, folds, eval_k, seed, failures)
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
        return float(np.mean(self.accuracies))

    @property
    def std_error(self) -> float:
        a = np.asarray(self.accuracies)
        if a.size < 2:
            return 0.0
        return float(a.std(ddof=1) / np.sqrt(a.size))


def run_learner(data: Dataset, config: ExperimentConfig, name: str) -> LearnerResult:
    spec, tunes = learner_preset(name, config.dim, config.heat, config.kernel)
    accs, fails = [], []
    for r in range(config.split.realizations):
        try:
            lab_idx, unl_idx, test_idx = split(data, config.split, r)
            transductive = test_idx.size == 0
            train_idx = np.sort(np.concatenate([lab_idx, unl_idx]))
            train = data.subset(train_idx).with_labels_hidden(
                np.flatnonzero(np.isin(train_idx, lab_idx)))
            gamma, alpha = cross_validate(train, spec, tunes, config.gamma_grid,
                                          config.alpha_grid, config.folds,
                                          config.eval_k, seed=config.split.seed + r)
            project = _fit_projection(train, replace(spec, gamma=gamma, alpha=alpha))
            eval_idx = unl_idx if transductive else test_idx
            accs.append(_accuracy(project(train.X), train.labels,
                                  project(data.X[:, eval_idx]), data.labels[eval_idx],
                                  config.eval_k))
        except (ValueError, np.linalg.LinAlgError) as exc:
            fails.append(f"realization {r}: {exc}")
    if not accs:
        raise RuntimeError(f"{name}: every realization failed: {fails[:3]}")
    return LearnerResult(name=name, accuracies=tuple(accs), failures=tuple(fails))


def run_benchmark(config: ExperimentConfig) -> list[LearnerResult]:
    data = load_dataset(config)
    return [run_learner(data, config, name) for name in config.learners]


def format_report(results: list[LearnerResult]) -> str:
    lines = ["learner\tmean_accuracy\tstd_error\trealizations"]
    for res in results:
        lines.append(f"{res.name}\t{res.mean:.6f}\t{res.std_error:.6f}"
                     f"\t{len(res.accuracies)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# flat key = value config files

_GENERATORS = ("balance",) + TOY_KINDS


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a flat ``key = value`` config file; '#' starts a comment."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
    raw.update(overrides or {})
    return config_from_dict(raw)


def _parse_kernel(text: str) -> KernelSpec | None:
    text = text.strip().lower()
    if text in ("", "none"):
        return None
    if text == "linear":
        return KernelSpec("linear")
    if text.startswith("poly"):
        return KernelSpec("polynomial", degree=int(text[4:] or 2))
    if text.startswith("gaussian"):
        sigma = float(text.split(":", 1)[1]) if ":" in text else 1.0
        return KernelSpec("gaussian", sigma=sigma)
    raise ValueError(f"unknown kernel {text!r}")


def _parse_heat(text: str, k: int) -> HeatKernelSpec:
    text = text.strip().lower()
    if text in ("", "local"):
        return HeatKernelSpec("local", k=k)
    if text.startswith("global"):
        sigma = float(text.split(":", 1)[1]) if ":" in text else 1.0
        return HeatKernelSpec("global", sigma=sigma)
    raise ValueError(f"unknown heat-kernel spec {text!r}")


def config_from_dict(raw: dict[str, str]) -> ExperimentConfig:
    """Build the experiment config; every key of ``raw`` must be one it reads."""
    if "dataset" not in raw:
        raise ValueError("config needs a 'dataset' entry")
    read = set()

    def get(key, default):
        read.add(key)
        return raw.get(key, default)

    unlabeled = get("unlabeled", "rest").strip()
    spec = SplitSpec(
        labeled=int(get("labeled", "10")),
        unlabeled=None if unlabeled in ("", "rest") else int(unlabeled),
        test=int(get("test", "0")),
        seed=int(get("seed", "0")),
        realizations=int(get("realizations", "25")),
        per_class_labels=get("per_class_labels", "false").strip().lower()
        in ("1", "true", "yes"),
    )
    learners = tuple(s.strip().lower() for s in get("learners", "ss-lfda").split(",")
                     if s.strip())
    gamma_grid = tuple(float(s) for s in get("gamma_grid", "0.01,0.1,0.5,1,5,10").split(","))
    if any(g < 0 for g in gamma_grid):
        raise ValueError("gamma_grid values must be non-negative")
    alpha_grid = tuple(int(s) for s in get("alpha_grid", "1,2,4,8").split(","))
    heat_k = int(get("heat_k", "7"))
    config = ExperimentConfig(
        dataset=get("dataset", ""),
        split=spec,
        learners=learners,
        gamma_grid=gamma_grid,
        alpha_grid=alpha_grid,
        folds=int(get("folds", "5")),
        eval_k=int(get("eval_k", "1")),
        dim=int(get("dim", "2")),
        kernel=_parse_kernel(get("kernel", "none")),
        heat=_parse_heat(get("heat", "local"), heat_k),
        label_column=get("label_column", "label"),
        missing_label_token=get("missing_label_token", ""),
        n_per_cluster=int(get("n_per_cluster", "50")),
        toy_noise=float(get("toy_noise", "0.5")),
        data_seed=int(get("data_seed", "0")),
    )
    unknown = sorted(set(raw) - read)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    return config
