"""Exact nearest-neighbor classification and neighborhood diagnostics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import _check_threshold, _cross_sq_dists, pairwise_sq_dists
from .dataset import Dataset


@dataclass(frozen=True)
class KnnIndex:
    points: np.ndarray      # (d, m) embedded labeled examples
    labels: np.ndarray      # (m,) class ids
    k: int = 1

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] == 0:
            raise ValueError("index needs a non-empty (d, m) point matrix")
        if not 1 <= self.k <= self.points.shape[1]:
            raise ValueError("k must satisfy 1 <= k <= m")


def _vote(near: np.ndarray) -> np.ndarray:
    """Majority vote per row of neighbor labels, nearest first; a tied vote
    goes to the class of the row's single nearest point."""
    ids, codes = np.unique(near, return_inverse=True)
    counts = np.zeros((near.shape[0], ids.size), dtype=int)
    np.add.at(counts, (np.arange(near.shape[0])[:, None], codes.reshape(near.shape)), 1)
    top = counts == counts.max(axis=1, keepdims=True)
    return np.where(top.sum(axis=1) == 1, ids[counts.argmax(axis=1)], near[:, 0])


def knn_classify(index: KnnIndex, z: np.ndarray) -> int | np.ndarray:
    """Classify one embedded point or a (d, m) batch.

    Distance ties are broken toward the smaller stored index.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    Q = z[:, None] if single else z
    d2 = _cross_sq_dists(Q, index.points)
    if index.k == 1:
        # argmin returns the first minimum: ties go to the smaller index
        out = index.labels[d2.argmin(axis=1)]
    else:
        order = np.argsort(d2, axis=1, kind="stable")[:, : index.k]
        out = _vote(index.labels[order])
    return int(out[0]) if single else out.astype(int)


def good_neighbors_score(dataset: Dataset, mapping=None) -> float:
    """Leave-one-out 1-NN accuracy with every label revealed.

    ``mapping`` optionally maps the (d0, n) inputs to another space (e.g.
    KPCA coordinates) before distances are taken.
    """
    if dataset.n < 2:
        raise ValueError("need at least two examples")
    if not dataset.labeled_mask.all():
        raise ValueError("the diagnostic needs full ground-truth labels")
    X = mapping(dataset.X) if mapping is not None else dataset.X
    d2 = pairwise_sq_dists(np.asarray(X, dtype=float))
    np.fill_diagonal(d2, np.inf)
    # argmin returns the first minimum: ties go to the smaller index
    nearest = d2.argmin(axis=1)
    return int((dataset.labels == dataset.labels[nearest]).sum()) / dataset.n


def good_nearby_ratio(cu: np.ndarray, labels: np.ndarray, threshold: float) -> float:
    """Fraction of same-class pairs among pairs with c^u_ij > threshold."""
    _check_threshold(threshold)
    labels = np.asarray(labels)
    iu, ju = np.triu_indices(cu.shape[0], k=1)
    near = cu[iu, ju] > threshold
    total = int(near.sum())
    if total == 0:
        raise ValueError("no pair exceeds the threshold; ratio undefined")
    good = int((labels[iu[near]] == labels[ju[near]]).sum())
    return good / total
