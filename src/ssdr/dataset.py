"""Data model, CSV ingestion, deterministic splitting and synthetic data.

Examples are stored column-major: ``X`` has shape (d0, n) and column i is
the i-th input vector.  Labels are contiguous integers 1..c; the sentinel
``UNLABELED`` marks examples whose label is unknown (or hidden by a split).
"""
from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

UNLABELED = -1


class DatasetError(ValueError):
    pass


def _at_least(spec, *, integer: bool = False, prefix: str = "", **least) -> None:
    """Reject a field of ``spec`` that is not a finite value at or above its
    least value: NaN and infinity fail too, and with ``integer`` (counts) a
    value that is not an integer.  None passes.  The message names the
    field, after ``prefix``."""
    for name, bound in least.items():
        value = getattr(spec, name)
        if value is None:
            continue
        if integer and not isinstance(value, numbers.Integral):
            raise ValueError(f"{prefix}{name} must be an integer, got {value!r}")
        if not bound <= value < math.inf:
            rule = "finite" if value == math.inf else f">= {bound}"
            raise ValueError(f"{prefix}{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray                 # (d0, n) float64, columns are examples
    labels: np.ndarray            # (n,) int, values in {1..c} or UNLABELED
    n_classes: int
    label_names: tuple[str, ...] | None = None   # original label strings, index k-1

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if X.ndim != 2:
            raise DatasetError("X must be a 2-d array of shape (d0, n)")
        if labels.shape != (X.shape[1],):
            raise DatasetError("labels length must match the number of columns of X")
        bad = ~np.isfinite(X).all(axis=0)
        if bad.any():
            raise DatasetError(f"example {int(np.argmax(bad))} (column of X) has a "
                               "non-finite value")
        present = labels[labels != UNLABELED]
        if present.size and (present.min() < 1 or present.max() > self.n_classes):
            raise DatasetError("labels must lie in {1..c} or be UNLABELED")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)

    @property
    def d0(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.labels != UNLABELED

    @property
    def labeled_count(self) -> int:
        return int(self.labeled_mask.sum())

    @property
    def class_counts(self) -> np.ndarray:
        """Counts n_1..n_c over the labeled entries."""
        counts = np.zeros(self.n_classes, dtype=int)
        for k in range(1, self.n_classes + 1):
            counts[k - 1] = int((self.labels == k).sum())
        return counts

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=int)
        return replace(self, X=self.X[:, idx], labels=self.labels[idx])

    def with_labels_hidden(self, keep_idx) -> "Dataset":
        """Copy with labels kept only at ``keep_idx``; all others unlabeled."""
        hidden = np.full(self.n, UNLABELED, dtype=int)
        keep_idx = np.asarray(keep_idx, dtype=int)
        hidden[keep_idx] = self.labels[keep_idx]
        return replace(self, labels=hidden)


@dataclass(frozen=True)
class SplitSpec:
    labeled: int = 10
    unlabeled: int | None = None   # None: all remaining (transductive when test == 0)
    test: int = 0
    seed: int = 0
    realizations: int = 25
    per_class_labels: bool = False

    def __post_init__(self):
        _at_least(self, integer=True, labeled=0, unlabeled=0, test=0, seed=0, realizations=1)


def load_csv(path, label_column: str, missing_label_token: str = "") -> Dataset:
    """Load a one-row-per-example CSV with a named label column.

    Non-label cells must be finite numbers.  Label strings are remapped to
    contiguous {1..c} in sorted order; the originals are retained in
    ``label_names``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DatasetError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        features = [h for i, h in enumerate(header) if i != label_idx]
        rows, raw_labels = [], []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DatasetError(f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}")
            raw_labels.append(row[label_idx].strip())
            try:
                values = [float(cell) for i, cell in enumerate(row) if i != label_idx]
            except ValueError as exc:
                raise DatasetError(f"{path}: row {rownum}: {exc}")
            for name, value in zip(features, values):
                if not math.isfinite(value):
                    raise DatasetError(f"{path}: row {rownum}, column {name!r}: "
                                       f"non-finite value {value}")
            rows.append(values)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    names = sorted({s for s in raw_labels if s != missing_label_token})
    if not names:
        raise DatasetError(f"{path}: every label is missing; class count undeterminable")
    to_id = {s: k for k, s in enumerate(names, start=1)}
    labels = np.array([to_id.get(s, UNLABELED) if s != missing_label_token else UNLABELED
                       for s in raw_labels], dtype=int)
    X = np.array(rows, dtype=float).T
    return Dataset(X=X, labels=labels, n_classes=len(names), label_names=tuple(names))


def save_csv(dataset: Dataset, path, label_column: str = "label",
             missing_label_token: str = "") -> None:
    """Write ``dataset`` back to CSV; round-trips with :func:`load_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.d0)] + [label_column])
        for j in range(dataset.n):
            lab = dataset.labels[j]
            if lab == UNLABELED:
                name = missing_label_token
            elif dataset.label_names is not None:
                name = dataset.label_names[lab - 1]
            else:
                name = str(lab)
            writer.writerow([repr(float(v)) for v in dataset.X[:, j]] + [name])


def center(dataset: Dataset) -> tuple[Dataset, np.ndarray]:
    """Subtract the column mean; returns the centered data and the mean."""
    mean = dataset.X.mean(axis=1)
    return replace(dataset, X=dataset.X - mean[:, None]), mean


def generate_balance() -> Dataset:
    """All 5^4 = 625 balance-scale examples over integer attributes 1..5.

    Attributes in order: left_weight, left_distance, right_weight,
    right_distance.  The class is decided by the sign of
    left_weight*left_distance - right_weight*right_distance.
    """
    rows, names = [], []
    for lw, ld, rw, rd in itertools.product(range(1, 6), repeat=4):
        rows.append((lw, ld, rw, rd))
        left, right = lw * ld, rw * rd
        names.append("L" if left > right else ("R" if right > left else "B"))
    classes = sorted(set(names))
    to_id = {s: k for k, s in enumerate(classes, start=1)}
    labels = np.array([to_id[s] for s in names], dtype=int)
    return Dataset(X=np.array(rows, dtype=float).T, labels=labels,
                   n_classes=3, label_names=tuple(classes))


# Cluster layouts for the 2-d synthetic problems.  Each blob is
# (center_x, center_y, std_x_factor, std_y_factor, class); per-point noise
# is the ``noise`` argument times the std factors.  The constants were
# chosen so that the qualitative behaviour each problem is meant to show
# (verified by the acceptance suite) is robust across random seeds.
_TOY_BLOBS = {
    # Two clusters of examples (x near 0 and x near 16); inside each
    # cluster the classes sit at +/-1.5 along x.  Class means differ only
    # along x, but the within-class spread along x is dominated by the
    # cluster separation, so a pooled-scatter learner latches onto the
    # noisy y component of the empirical mean difference.
    "two-cluster": [
        (1.5, 0.0, 1.0, 4.0, 1), (-1.5, 0.0, 1.0, 4.0, 2),
        (17.5, 0.0, 1.0, 4.0, 1), (14.5, 0.0, 1.0, 4.0, 2),
    ],
    # Class 1 splits into two blobs flanking class 2.  The x class means
    # coincide; the y means differ by half a noise standard deviation, a
    # decoy mean gap that pooled scatter latches onto even though the y
    # marginals overlap almost completely.  The y noise also carries the
    # largest variance, so maximum variance picks y as well.
    "three-cluster": [
        (-9.0, 0.0, 1.0, 16.0, 1), (9.0, 0.0, 1.0, 16.0, 1),
        (0.0, 4.0, 1.0, 16.0, 2),
    ],
    # Three thin vertical strips (class 1 outer, class 2 middle).  With a
    # handful of labels the labeled pairs alone are ambiguous about the
    # projection axis, and the strip elongation alone prefers a
    # non-discriminative axis; only using both finds x.
    "ssl-only": [
        (-3.0, 0.0, 0.2, 20.0, 1), (3.0, 0.0, 0.2, 20.0, 1),
        (0.0, 0.0, 0.2, 20.0, 2),
    ],
}

TOY_KINDS = tuple(_TOY_BLOBS)


def generate_multimodal_toy(kind: str, n_per_cluster: int = 50,
                            noise: float = 0.5, seed: int = 0) -> Dataset:
    """Deterministic 2-d Gaussian cluster problems (see ``_TOY_BLOBS``)."""
    if kind not in _TOY_BLOBS:
        raise DatasetError(f"unknown toy kind {kind!r}; choose from {sorted(_TOY_BLOBS)}")
    if n_per_cluster < 2:
        raise DatasetError("n_per_cluster must be at least 2")
    if not 0 <= noise < math.inf:
        raise DatasetError(f"noise must be non-negative and finite, got {noise}")
    rng = np.random.default_rng([sorted(_TOY_BLOBS).index(kind), seed])
    cols, labels = [], []
    for cx, cy, sx, sy, cls in _TOY_BLOBS[kind]:
        pts = np.array([cx, cy])[:, None] + noise * np.array([sx, sy])[:, None] \
            * rng.standard_normal((2, n_per_cluster))
        cols.append(pts)
        labels.extend([cls] * n_per_cluster)
    return Dataset(X=np.hstack(cols), labels=np.array(labels, dtype=int), n_classes=2)


def split(dataset: Dataset, spec: SplitSpec, realization: int):
    """Disjoint (labeled_idx, unlabeled_idx, test_idx) index arrays.

    Deterministic given (spec.seed, realization), across processes.  In the
    transductive setting (test == 0, unlabeled is None) the unlabeled
    examples double as the test set.
    """
    if not 0 <= realization < spec.realizations:
        raise DatasetError(f"realization {realization} outside 0..{spec.realizations - 1}")
    rng = np.random.default_rng([spec.seed, realization])
    eligible = np.flatnonzero(dataset.labeled_mask)
    if spec.labeled > eligible.size:
        raise DatasetError("not enough labeled-eligible examples")
    if spec.per_class_labels:
        if spec.labeled % dataset.n_classes:
            raise DatasetError("labeled count must be a multiple of the class count")
        per_class = spec.labeled // dataset.n_classes
        picks = []
        for k in range(1, dataset.n_classes + 1):
            pool = np.flatnonzero(dataset.labels == k)
            if pool.size == 0:
                raise DatasetError(f"class {k} has no available examples")
            if pool.size < per_class:
                raise DatasetError(f"class {k} has fewer than {per_class} examples")
            picks.append(rng.choice(pool, size=per_class, replace=False))
        labeled_idx = np.sort(np.concatenate(picks))
    else:
        labeled_idx = np.sort(rng.choice(eligible, size=spec.labeled, replace=False))
    rest = np.setdiff1d(np.arange(dataset.n), labeled_idx)
    rest = rng.permutation(rest)
    u = rest.size - spec.test if spec.unlabeled is None else spec.unlabeled
    if u + spec.test > rest.size:
        raise DatasetError("labeled + unlabeled + test exceeds the dataset size")
    unlabeled_idx = np.sort(rest[:u])
    test_idx = np.sort(rest[u:u + spec.test])
    return labeled_idx, unlabeled_idx, test_idx
