"""Explicit kernel-PCA coordinates: the kernelization trick.

Instead of rederiving a kernel version of each learner, every training and
test point is given explicit finite-dimensional coordinates whose inner
products reproduce the (feature-space centered) kernel.  Any linear learner
then runs unchanged on those coordinates.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .costs import _cross_sq_dists
from .dataset import Dataset, _at_least
from .solver import (EmbeddingModel, LearnerSpec, _check_count, _fit, _input_columns,
                     _read_header, _read_payload, embed)


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "linear"        # "linear" | "polynomial" | "gaussian"
    degree: int = 2             # polynomial degree; no additive constant
    sigma: float = 1.0          # gaussian bandwidth

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "gaussian"):
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.kind == "polynomial":
            _at_least(self, integer=True, prefix="polynomial ", degree=1)
        if self.kind == "gaussian" and not 0 < self.sigma < math.inf:
            raise ValueError(f"gaussian bandwidth sigma must be positive and finite, "
                             f"got {self.sigma}")


def kernel_values(kernel: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """k(x_i, y_j) for columns of X against columns of Y."""
    if kernel.kind == "linear":
        return X.T @ Y
    if kernel.kind == "polynomial":
        return (X.T @ Y) ** kernel.degree
    d2 = np.maximum(_cross_sq_dists(X, Y), 0.0)
    return np.exp(-d2 / (2.0 * kernel.sigma**2))


def gram(X: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    K = kernel_values(kernel, X, X)
    return 0.5 * (K + K.T)


@dataclass(frozen=True)
class KpcaMap:
    kernel: KernelSpec
    train_inputs: np.ndarray        # (d0, n); needed for test-time kernels
    col_means: np.ndarray           # (n,) column means of the training Gram
    grand_mean: float
    eigenvalues: np.ndarray         # (r,) retained, descending, all > 0
    eigenvectors: np.ndarray        # (n, r)

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[1]

    @property
    def out_dim(self) -> int:
        return self.eigenvalues.shape[0]

    def train_coords(self) -> np.ndarray:
        """(out_dim, n) coordinates of the training points."""
        return (np.sqrt(self.eigenvalues)[:, None]) * self.eigenvectors.T


def kpca_fit(X: np.ndarray, kernel: KernelSpec) -> KpcaMap:
    """Eigendecompose the double-centered Gram matrix.

    The feature-space points are centered implicitly; components with
    eigenvalue <= 1e-10 * lambda_max are dropped, so duplicate directions and
    the centering null direction never enter the coordinates.
    """
    n = X.shape[1]
    if n < 2:
        raise ValueError("need at least two training points")
    K = gram(X, kernel)
    col_means = K.mean(axis=1)
    grand = float(K.mean())
    K -= col_means[:, None]     # centered in place, in the order of
    K -= col_means[None, :]     # K - m[:, None] - m[None, :] + grand
    K += grand
    lam, V = scipy.linalg.eigh(K, overwrite_a=True)
    lam, V = lam[::-1], V[:, ::-1]
    keep = lam > max(1e-10 * lam[0], 0.0)
    if not keep.any():
        raise ValueError("degenerate kernel: no positive eigenvalues above tolerance")
    return KpcaMap(kernel=kernel, train_inputs=X.copy(), col_means=col_means,
                   grand_mean=grand, eigenvalues=lam[keep], eigenvectors=V[:, keep])


def kpca_transform(kmap: KpcaMap, x: np.ndarray) -> np.ndarray:
    """Coordinates of new points; accepts a vector or a (d0, m) matrix."""
    cols, single = _input_columns(x, kmap.train_inputs.shape[0])
    kv = kernel_values(kmap.kernel, kmap.train_inputs, cols)   # (n, m)
    kc = kv - kmap.col_means[:, None] - kv.mean(axis=0)[None, :] + kmap.grand_mean
    phi = (kmap.eigenvectors.T @ kc) / np.sqrt(kmap.eigenvalues)[:, None]
    return phi[:, 0] if single else phi


def kpca_trick_fit(dataset: Dataset, kernel: KernelSpec,
                   spec: LearnerSpec) -> tuple[KpcaMap, EmbeddingModel]:
    """Kernelize a linear learner: KPCA coordinates, then the plain fit.

    Classification of a new point x' uses ||A phi - A phi'|| with
    phi' = kpca_transform(map, x').
    """
    kmap, prepared = _kpca_inputs(dataset.X, kernel)
    return kmap, _fit(*prepared, dataset.labels, _linear_spec(spec, kmap))


def _kpca_inputs(X: np.ndarray, kernel: KernelSpec):
    """The KPCA map of the training inputs X and ``solver._prepare``'s
    (inputs, mean, basis) for its coordinates: centered as ``center`` does,
    basis None.  kpca_fit keeps only eigenvalues above 1e-10 of the largest,
    so the coordinates' singular values exceed 1e-5 of the largest: they
    have full row rank and need no rank SVD."""
    kmap = kpca_fit(X, kernel)
    coords = kmap.train_coords()
    mean = coords.mean(axis=1)
    coords -= mean[:, None]
    return kmap, (coords, mean, None)


def _linear_spec(spec: LearnerSpec, kmap: KpcaMap) -> LearnerSpec:
    """The spec to fit on kmap's coordinates: dim capped at their count."""
    return replace(spec, dim=min(spec.dim, kmap.out_dim))


def kpca_embed(kmap: KpcaMap, model: EmbeddingModel, x: np.ndarray) -> np.ndarray:
    """Embed raw inputs through the kernel map and the linear model."""
    return embed(model, kpca_transform(kmap, x))


_MAGIC = b"SSDK"
_VERSION = 1
_KERNEL_CODES = {"linear": 1, "polynomial": 2, "gaussian": 3}
_CODE_KERNELS = {v: k for k, v in _KERNEL_CODES.items()}


def save_kpca(kmap: KpcaMap, path) -> None:
    """Flat-file serialization matching the embedding-model scheme."""
    d0, n = kmap.train_inputs.shape
    r = kmap.out_dim
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Iqqqqqdd", _VERSION, d0, n, r,
                             _KERNEL_CODES[kmap.kernel.kind], kmap.kernel.degree,
                             kmap.kernel.sigma, kmap.grand_mean))
        for arr in (kmap.train_inputs, kmap.col_means, kmap.eigenvalues,
                    kmap.eigenvectors):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_kpca(path) -> KpcaMap:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a kernel-map file")
        version, d0, n, r, kind, degree, sigma, grand = \
            _read_header(fh, path, "<Iqqqqqdd")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if kind not in _CODE_KERNELS:
            raise ValueError(f"{path}: unknown kernel code {kind}")
        _check_count(path, "d0", d0, 1)
        _check_count(path, "n", n, 2)
        _check_count(path, "r", r, 1, ("n", n))
        X, col_means, lam, V = _read_payload(fh, path, (d0 * n, n, r, n * r))
    if not (np.isfinite(lam).all() and (lam > 0).all()):
        raise ValueError(f"{path}: eigenvalues must be positive and finite, got {lam}")
    for name, values in (("grand mean", grand), ("column means", col_means),
                         ("training inputs", X), ("eigenvectors", V)):
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: the {name} must be finite")
    try:
        kernel = KernelSpec(_CODE_KERNELS[kind], degree, sigma)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return KpcaMap(kernel=kernel, train_inputs=X.reshape(d0, n), col_means=col_means,
                   grand_mean=grand, eigenvalues=lam, eigenvectors=V.reshape(n, r))
