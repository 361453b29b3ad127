"""Exact nearest-neighbor classification and neighborhood diagnostics.

``KnnIndex`` and ``knn_classify`` check their inputs; the private ``_knn``
core they share takes arrays that are already valid, as the CV sweep builds
them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import _check_threshold, _cross_sq_dists, pairwise_sq_dists
from .dataset import Dataset, UNLABELED, _at_least
from .solver import _input_columns


@dataclass(frozen=True)
class KnnIndex:
    points: np.ndarray      # (d, m) embedded labeled examples
    labels: np.ndarray      # (m,) class ids
    k: int = 1

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] == 0:
            raise ValueError("index needs a non-empty (d, m) point matrix")
        if np.shape(self.labels) != (self.points.shape[1],):
            raise ValueError(f"{np.size(self.labels)} labels for {self.points.shape[1]} "
                             "points; expected one label per point")
        _at_least(self, integer=True, k=1)
        if self.k > self.points.shape[1]:
            raise ValueError("k must satisfy 1 <= k <= m")
        _input_columns(self.points, self.points.shape[0])   # every point finite


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

    Distance ties are broken toward the smaller stored index.  The queries
    are checked here; ``_knn`` classifies them.
    """
    Q, single = _input_columns(z, index.points.shape[0])
    out = _knn(index.points, index.labels, index.k, Q)
    return int(out[0]) if single else out.astype(int)


def _knn(points: np.ndarray, labels: np.ndarray, k: int, queries: np.ndarray) -> np.ndarray:
    """Labels of the (d, q) ``queries`` by :func:`knn_classify`'s rule over a
    valid index ``(points, labels, k)``, unchecked: the CV sweep classifies
    the embeddings it built with it."""
    d2 = _cross_sq_dists(queries, points)
    if k == 1:
        # argmin returns the first minimum: ties go to the smaller index
        return labels[d2.argmin(axis=1)]
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return _vote(labels[order])


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
    if cu.shape != (labels.size,) * 2:
        raise ValueError(f"costs of shape {cu.shape} do not match {labels.size} labels; "
                         "expected an n x n matrix with n the label count")
    if (labels == UNLABELED).any():
        raise ValueError("the ratio needs full ground-truth labels")
    iu, ju = np.triu_indices(cu.shape[0], k=1)
    near = cu[iu, ju] > threshold
    total = int(near.sum())
    if total == 0:
        raise ValueError("no pair exceeds the threshold; ratio undefined")
    good = int((labels[iu[near]] == labels[ju[near]]).sum())
    return good / total
