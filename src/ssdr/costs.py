"""Pair-cost rules built from label and neighborhood information.

Every cost matrix is a plain ``np.ndarray``.  Positive entries pull a pair
of embedded points together, negative entries push them apart.  Every
constructor returns exactly symmetric matrices; rows and columns touching
an unlabeled example are zero in the label-based matrices.  FDA and MMC
share one class-wide between/within cost rule; LFDA weights that rule's
same-class entries by the neighbor graph C^I.
``solver.build_scatters`` turns these costs into the scatters a learner
solves with.  A label cost is zero outside the labeled block, so the solver
builds every label cost on the labeled examples alone (m x m); only the
unlabel heat costs are n x n, and mmc places its block in an n x n matrix to
scatter it.  ``solver._unlabel_stage`` builds the heat costs once for every
learner of a fit or a benchmark realization, scatters them per Hadamard
power, the powers of two from one chain of squarings in place, and frees
them: no caller receives them.  The neighbor graphs are
boolean m x m arrays, ranked from the labeled block of the squared
distances, which the same stage builds once: ``_labeled_sq_dists`` gathers
it from the n x n gram and turns only the block into distances, or, with
heat costs, the stage cuts it from the distances its heat kernel then
consumes; a cross-validation sweep cuts each fold's sub-block from it.
The public ``neighbor_graphs`` places the graphs in boolean n x n arrays.

Dense n x n costs are built in place, in blocks of ``_ROW_BLOCK`` rows: each
matrix is one n x n buffer, and the temporaries stay O(block * n).  The heat
kernel computes the upper block triangle of its exactly symmetric distances
and mirrors it, so no averaging pass is needed.  The Hadamard power squares
one copy of the costs in place, bit by bit of alpha.  ``self_cost`` is for
callers and tests: the solver scatters the self_pca term in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import UNLABELED, _at_least

_ROW_BLOCK = 64  # rows per block of an n x n pass
_EXP_ZERO = -746.0  # exp(x) is +0.0 for every x below this


class CostMatrix:
    """Unused: every cost in ``ssdr`` is a plain ndarray, and no function
    builds or accepts this class.  The name is exported only because the
    benchmark tracer (``perfbench/tracer.py``) imports it."""


@dataclass(frozen=True)
class HeatKernelSpec:
    """Gaussian similarity scale: global sigma, or a local per-point scale
    taken from the distance to the k-th nearest neighbor."""
    scaling: str = "local"            # "global" | "local"
    sigma: float = 1.0                # global scale
    k: int = 7                        # neighbor rank for local scaling

    def __post_init__(self):
        if self.scaling not in ("global", "local"):
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if self.scaling == "global" and not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.scaling == "local":
            _at_least(self, integer=True, prefix="neighbor rank ", k=1)


def pairwise_sq_dists(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of X, exactly
    symmetric: the gram is one symmetric product, and sq_i + sq_j commutes."""
    return _dists_from_gram(*_gram(X))


def _gram(X: np.ndarray):
    """X^T X and the squared norms of the columns of X."""
    X = np.asarray(X, dtype=float)
    if not (X.flags.c_contiguous or X.flags.f_contiguous):
        # a product of strided views may round g_ij and g_ji apart
        X = np.ascontiguousarray(X)
    sq = (X * X).sum(axis=0)   # before the gram: X * X is d0 x n
    # one symmetric product (row-block products would round differently)
    return X.T @ X, sq


def _dists_from_gram(g: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """(sq_i + sq_j) - 2 g_ij, clamped at zero with a zero diagonal, written
    over ``g``: a square block of the gram X^T X whose diagonal is the
    gram's, and ``sq`` the squared norms of its columns."""
    for r in _row_blocks(g.shape[0]):
        np.multiply(g[r], 2.0, out=g[r])
        np.subtract(sq[r, None] + sq[None, :], g[r], out=g[r])
        np.maximum(g[r], 0.0, out=g[r])
    np.fill_diagonal(g, 0.0)
    return g


def _cross_sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """|x_i|^2 + |y_j|^2 - 2 x_i.y_j over the columns of X and Y; unclamped,
    so rounding can leave a small negative value."""
    return (X * X).sum(axis=0)[:, None] + (Y * Y).sum(axis=0)[None, :] - 2.0 * (X.T @ Y)


def _row_blocks(n: int):
    """Slices of _ROW_BLOCK rows covering range(n)."""
    return [slice(lo, lo + _ROW_BLOCK) for lo in range(0, n, _ROW_BLOCK)]


def neighbor_graphs(X: np.ndarray, labels: np.ndarray, k: int):
    """Binary same-class (C^I) and different-class (C^E) neighbor graphs.

    c^I_ij = 1 iff j is among the k nearest labeled same-class neighbors of
    i, or vice versa; C^E analogously over different classes.  Distance ties
    go to the smaller index.  Pairs with an unlabeled endpoint are zero.
    Each graph is a boolean n x n array.
    """
    n = X.shape[1]
    labeled = np.flatnonzero(labels != UNLABELED)
    block = np.ix_(labeled, labeled)
    ci, ce = (np.zeros((n, n), dtype=bool) for _ in range(2))
    ci[block], ce[block] = _labeled_neighbor_graphs(
        _labeled_sq_dists(X, labeled), labels[labeled], k)
    return ci, ce


def _labeled_sq_dists(X: np.ndarray, labeled: np.ndarray) -> np.ndarray:
    """The m x m block of ``pairwise_sq_dists(X)`` over the m sorted column
    indices ``labeled``, with the same bits.

    On integer-grid data many distances tie exactly, so their last bits
    break the ranking's ties; distances of the labeled columns alone round
    differently and would change some graphs.  So the block is gathered from
    the product of all columns, and only the block is turned into distances.
    """
    g, sq = _gram(X)
    if labeled.size < g.shape[0]:
        g, sq = g[np.ix_(labeled, labeled)], sq[labeled]
    return _dists_from_gram(g, sq)


def _labeled_neighbor_graphs(d2: np.ndarray, lab: np.ndarray, k: int):
    """C^I and C^E of :func:`neighbor_graphs` on the labeled examples only:
    boolean m x m arrays ranked from ``d2``, the labeled block of
    :func:`_labeled_sq_dists`, and ``lab``, the m labels in its order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = lab.size
    ci, ce = (np.zeros((m, m), dtype=bool) for _ in range(2))
    # rows go in blocks, so the sort's temporaries stay O(block * m)
    for r in _row_blocks(m):
        rows = np.arange(m)[r]
        # a stable sort keeps equal distances in index order
        order = np.argsort(d2[r], axis=1, kind="stable")
        same = lab[order] == lab[rows, None]
        diff = ~same
        same &= order != rows[:, None]
        same &= np.cumsum(same, axis=1, dtype=np.int32) <= k
        diff &= np.cumsum(diff, axis=1, dtype=np.int32) <= k
        for g, pick in ((ci, same), (ce, diff)):
            # both directions: a pair picked from either end is an edge
            i, j = rows[np.nonzero(pick)[0]], order[pick]
            g[i, j] = g[j, i] = True
    return ci, ce


def _class_costs(labels: np.ndarray, class_counts: np.ndarray,
                 ci: np.ndarray | None = None):
    """Class-wide between (c^b) and within (c^w) costs of FDA and MMC: 1/n_k
    - 1/n and 1/n_k for two labeled points of class k, -1/n and 0 for two of
    different classes, else zero.  n is the labeled count; LFDA passes its
    graph ``ci`` to weight same-class pairs by c^I."""
    labeled = labels != UNLABELED
    n = int(labeled.sum())
    inv_nk = 1.0 / np.where(labeled, class_counts[np.maximum(labels, 1) - 1], 1)
    lab_pair = labeled[:, None] & labeled[None, :]
    np.fill_diagonal(lab_pair, False)
    same = lab_pair & (labels[:, None] == labels[None, :])
    cb = np.where(lab_pair, -1.0 / n, 0.0)
    np.copyto(cb, (inv_nk - 1.0 / n)[:, None], where=same)
    cw = np.zeros(same.shape)
    np.copyto(cw, inv_nk[:, None], where=same)
    if ci is not None:
        # in place, under the mask already built: no n x n temporary
        np.multiply(cb, ci, out=cb, where=same)
        cw *= ci
    return cb, cw


def lfda_costs(ci: np.ndarray, labels: np.ndarray, class_counts: np.ndarray):
    """Between/within cost matrices of local Fisher discriminant analysis:
    the class-wide FDA costs with each same-class pair weighted by c^I."""
    return _class_costs(np.asarray(labels), class_counts, ci)


def mmc_costs(labels: np.ndarray, class_counts: np.ndarray):
    """Between (c^b) and within (c^w) scatter costs of the maximum margin
    criterion: the class-wide FDA costs; rows and columns of unlabeled
    examples are zero."""
    labels = np.asarray(labels)
    if not (labels != UNLABELED).any():
        raise ValueError("the MMC/FDA scatter costs need labeled examples")
    return _class_costs(labels, class_counts)


def heat_kernel_costs(X: np.ndarray, spec: HeatKernelSpec) -> np.ndarray:
    """Gaussian neighborhood costs exp(-||x_i - x_j||^2 / scale).

    The exponent is negated: a positive exponent would grow without bound
    with distance and penalize exactly the wrong pairs.  With local scaling
    the scale is sigma_i * sigma_j, sigma_i the distance to the k-th
    nearest neighbor of x_i, floored at 1e-12 * max(diameter, 1) so that
    duplicate points keep a positive scale.
    """
    return _heat_costs(pairwise_sq_dists(X), spec)


def _heat_costs(cu: np.ndarray, spec: HeatKernelSpec) -> np.ndarray:
    """:func:`heat_kernel_costs` of the points whose ``pairwise_sq_dists``
    is ``cu``, written over it one row block at a time.

    ``cu`` must be exactly symmetric, as ``pairwise_sq_dists`` returns it.
    The scale sigma_i sigma_j commutes too, so c_ij and c_ji are the same
    float: each row block computes only its columns from its first row on
    and mirrors the part right of its diagonal block below it.  Averaging
    0.5 (c_ij + c_ji) would return the same bits, so no pass does.
    """
    n = cu.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    blocks = _row_blocks(n)
    sigma = None
    if spec.scaling == "local":
        k = min(spec.k, n - 1)
        # distance to the k-th nearest other point (sqrt is monotone), and
        # each block's largest distance for the floor
        sigma, top = np.empty(n), np.empty(len(blocks))
        for i, r in enumerate(blocks):
            part = np.partition(cu[r], k, axis=1)
            sigma[r], top[i] = part[:, k], part[:, k:].max()
        np.sqrt(sigma, out=sigma)
        # duplicate points put sigma_i at 0, and 0/0 at their pair: a floor
        # relative to the diameter keeps every scale positive
        sigma = np.maximum(sigma, 1e-12 * max(np.sqrt(top.max()), 1.0))
    for r in blocks:
        lo = r.start
        # d / -s is -d / s bit for bit
        if sigma is None:
            blk = cu[r, lo:] / -spec.sigma**2
        else:
            blk = np.multiply.outer(-sigma[r], sigma[lo:])
            np.divide(cu[r, lo:], blk, out=blk)
        w = len(blk)
        flat = blk.reshape(-1)
        # exp is exactly +0.0 below -745.13; skipping those entries keeps
        # exp off its slow underflow path
        kept = np.flatnonzero(~(flat < _EXP_ZERO))
        e = flat[kept]
        np.exp(e, out=e)
        flat.fill(0.0)
        flat[kept] = e
        cu[r, lo:] = blk
        cu[lo + w:, r] = blk[:, w:].T
    np.fill_diagonal(cu, 0.0)
    return cu


def self_cost(n: int) -> np.ndarray:
    """Constant -1/(2n) cost over all pairs; on centered data the unlabel
    objective then equals the (negated) PCA objective."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.full((n, n), -1.0 / (2 * n))


def hadamard_power(cu: np.ndarray, alpha: int) -> np.ndarray:
    """Entrywise alpha-th power rescaled to preserve the Frobenius norm.

    The power is taken by repeated squaring in one buffer, so an entry may
    differ from ``e**alpha`` in the last place."""
    if alpha < 1 or int(alpha) != alpha:
        raise ValueError("alpha must be a positive integer")
    e = np.asarray(cu)
    norm = np.linalg.norm(e)
    p = e.copy()
    # square-and-multiply over the bits of alpha after the leading one
    for bit in bin(int(alpha))[3:]:
        np.square(p, out=p)
        if bit == "1":
            p *= e
    p_norm = norm if alpha == 1 else np.linalg.norm(p)
    if p_norm == 0.0:
        # the squares in a norm underflow: power e scaled to a largest |entry| of 1
        scale = np.abs(e).max(initial=0.0)
        if scale == 0.0:
            raise ValueError("all-zero cost matrix: norm ratio undefined")
        p = hadamard_power(e / scale, alpha)
        p *= scale
    elif alpha > 1:
        p *= norm / p_norm
    return p


_EDGE_HEADER = "i\tj\tc_ij"


def _check_threshold(threshold: float) -> None:
    """Reject a cost threshold that is negative, infinite or NaN."""
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be non-negative and finite, got {threshold}")


def export_edge_list(e: np.ndarray, threshold: float, path) -> None:
    """TSV rows (i, j, c_ij) for upper-triangle entries above threshold."""
    _check_threshold(threshold)
    with open(path, "w") as fh:
        fh.write(_EDGE_HEADER + "\n")
        iu, ju = np.triu_indices(e.shape[0], k=1)
        keep = e[iu, ju] > threshold
        for i, j in zip(iu[keep], ju[keep]):
            fh.write(f"{i}\t{j}\t{float(e[i, j])!r}\n")


def import_edge_list(path, n: int) -> np.ndarray:
    """Rebuild the thresholded matrix written by :func:`export_edge_list`.
    A malformed line, a diagonal pair or a pair given twice (in either
    order) is rejected with the file name and the line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [_EDGE_HEADER]:
        raise ValueError(f"{path}: line 1: expected the header {_EDGE_HEADER!r}")
    e = np.zeros((n, n))
    first = {}   # the line of each unordered pair
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            i, j, v = _edge(line.split("\t"), n)
            pair = (min(i, j), max(i, j))
            if pair in first:
                raise ValueError(f"pair ({i}, {j}) repeats line {first[pair]}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        first[pair] = lineno
        e[i, j] = e[j, i] = v
    return e


def _edge(cells: list[str], n: int) -> tuple[int, int, float]:
    """The (i, j, c_ij) of one edge-list row over n points."""
    if len(cells) != 3:
        raise ValueError(f"expected 3 tab-separated fields, got {len(cells)}")
    i, j, v = int(cells[0]), int(cells[1]), float(cells[2])
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"index pair ({i}, {j}) outside 0..{n - 1}")
    if i == j:
        raise ValueError(f"diagonal pair ({i}, {j}); costs are zero on the diagonal")
    if not np.isfinite(v):
        raise ValueError(f"non-finite cost {v}")
    return i, j, v
