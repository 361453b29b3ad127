"""Laplacian scatter assembly and the regularized generalized eigenproblem.

The projection is found by minimizing trace(A X (D - C) X^T A^T) subject to
A B A^T = I: the rows of A are the generalized eigenvectors of
(X(D-C)X^T, B + eps*I) for the d smallest eigenvalues.

Every solve runs through one loop, ``_solves``: ``fit``, each fold of the
CV sweep and each final fit of the harness.  Per candidate it joins the
label and unlabel scatters, regularizes and checks the constraint (once for
consecutive candidates that share it), builds L in a buffer of its own and
solves it with the unchecked core ``_gev``, which dsygvx overwrites without a
copy: every scatter is symmetrized exactly, so L is too, and its transpose
is L itself.  The constraint step skips the rank eigensolve of a B that is
scattered from fewer columns than its order, which is singular.
"""
from __future__ import annotations

import functools
import math
import numbers
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .costs import HeatKernelSpec, _class_costs, _heat_costs, _labeled_neighbor_graphs, \
    _labeled_sq_dists, hadamard_power, lfda_costs, mmc_costs, pairwise_sq_dists
from .dataset import Dataset, UNLABELED, _at_least, center

BASES = ("dne", "mfa", "lfda", "fda", "mmc", "none")
UNLABEL_MODES = ("heat", "self_pca", "none")
WEIGHTING_MODES = ("T1_identity", "T2_unit_rows", "T3_sqrt_lambda", "T4_combined")


@dataclass(frozen=True)
class LearnerSpec:
    """Which cost matrices to build and how to solve for the projection."""
    base: str = "lfda"                 # label-cost family, or "none"
    unlabel: str = "heat"              # "heat" | "self_pca" | "none"
    gamma: float = 1.0                 # weight of the unlabel cost
    alpha: int = 1                     # Hadamard power degree (heat costs only)
    k: int | None = None               # neighbor count; None: min(3, min_c n_c)
    dim: int = 2                       # target dimensionality
    weighting_mode: str = "T1_identity"
    heat: HeatKernelSpec = field(default_factory=HeatKernelSpec)
    gamma_prime: float = 1.0           # MMC within-scatter weight
    epsilon: float | None = None       # constraint regularizer; None: gamma

    def __post_init__(self):
        if self.base not in BASES:
            raise ValueError(f"unknown base {self.base!r}")
        if self.unlabel not in UNLABEL_MODES:
            raise ValueError(f"unknown unlabel mode {self.unlabel!r}")
        if self.weighting_mode not in WEIGHTING_MODES:
            raise ValueError(f"unknown weighting mode {self.weighting_mode!r}")
        for name in ("gamma", "gamma_prime"):
            value = getattr(self, name)
            # NaN fails too: no comparison holds for NaN
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        if self.base == "none" and _term(self) is None:
            raise ValueError("base 'none' requires an unlabel cost with gamma > 0")
        _at_least(self, integer=True, dim=1, k=1, alpha=1)
        _at_least(self, epsilon=0)


@dataclass(frozen=True)
class EmbeddingModel:
    A: np.ndarray                      # (d, r) projection, rows are axes
    eigenvalues: np.ndarray            # (d,) ascending
    train_mean: np.ndarray             # (d0,)
    pre_pca: np.ndarray | None = None  # (d0, r) basis applied before A
    weighting_mode: str = "T1_identity"
    gamma: float = 0.0
    alpha: int = 1
    epsilon: float = 0.0

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.train_mean.shape[0]


def laplacian_scatter(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """X (D - C) X^T with D the diagonal of row sums of C."""
    if X.shape[1] != C.shape[0]:
        raise ValueError("column count of X must match the cost matrix size")
    d = C.sum(axis=1)
    L = (X * d) @ X.T - X @ C @ X.T
    return 0.5 * (L + L.T)


def regularize(B: np.ndarray, epsilon: float) -> np.ndarray:
    """B + epsilon * I, bit for bit, with no identity matrix: a copy B + 0.0
    (which turns an off-diagonal -0.0 into +0.0, as adding epsilon * 0.0
    does) with epsilon added to its diagonal.  B must be square and epsilon
    non-negative and finite: an infinite epsilon times the identity's zeros
    would put NaN off the diagonal."""
    B = np.asarray(B)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"epsilon regularizes a square constraint matrix, got shape "
                         f"{B.shape}")
    # NaN fails too: no comparison holds for NaN
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be non-negative and finite, got {epsilon}")
    B_reg = B + 0.0
    B_reg.flat[::B.shape[0] + 1] += epsilon
    return B_reg


def _is_identity(M: np.ndarray) -> bool:
    """Whether the square matrix M equals the identity, without building it."""
    return np.count_nonzero(M) == M.shape[0] and bool((M.diagonal() == 1.0).all())


_NON_FINITE = "array must not contain infs or NaNs"   # scipy's message for one

# LAPACK's dsygvx and its workspace query: the driver that
# ``scipy.linalg.eigh(L, B, subset_by_index=...)`` calls, without its
# per-call dispatch and validation
_SYGVX, _SYGVX_LWORK = scipy.linalg.get_lapack_funcs(("sygvx", "sygvx_lwork"))


@functools.cache
def _sygvx_lwork(d0: int) -> int:
    """The workspace size that LAPACK reports for dsygvx at order d0."""
    work, info = _SYGVX_LWORK(d0, uplo="L")
    if info:
        raise np.linalg.LinAlgError(f"dsygvx workspace query failed with info {info}")
    return int(work)


def solve_gev(L: np.ndarray, B_reg: np.ndarray, dim: int):
    """Bottom-d generalized eigenpairs of L a = lambda B_reg a.

    L is symmetric and B_reg symmetric positive definite; the lower
    triangle of L is solved.  One LAPACK call (dsygvx, with the workspace
    it reports for the order d0) factors B_reg, reduces the problem to a
    standard symmetric one and computes only the ``dim`` bottom eigenpairs,
    bit for bit what ``scipy.linalg.eigh(L, B_reg, subset_by_index=[0, dim -
    1])`` returns.  Rows of the returned A satisfy A B_reg A^T = I; each
    row's first non-negligible component is made positive for
    reproducibility.  L and B_reg are left unchanged.
    """
    d0 = L.shape[0]
    if L.shape != (d0, d0) or B_reg.shape != (d0, d0):
        raise ValueError(f"L and B_reg must be square of one size, got {L.shape} "
                         f"and {B_reg.shape}")
    if not isinstance(dim, numbers.Integral):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if not 1 <= dim <= d0:
        raise ValueError(f"dim must be between 1 and the input dimension {d0}, got {dim}")
    if not (np.isfinite(L).all() and np.isfinite(B_reg).all()):
        raise ValueError(_NON_FINITE)
    return _gev(np.array(L.T, order="C"), B_reg, dim, _is_identity(B_reg))


def _gev(L: np.ndarray, B_reg: np.ndarray, dim: int, identity: bool):
    """:func:`solve_gev` of finite square L and B_reg and a valid dim,
    unchecked; ``identity`` says whether B_reg is the identity.  L is a
    C-ordered buffer that the solve destroys: LAPACK gets L.T, a
    Fortran-ordered view of the same memory, with overwrite_a set, so f2py
    copies no L, and solves the lower triangle of L.T, the upper one of L."""
    if identity:
        # the full spectrum, as the Cholesky reduction by R = I computed it:
        # mmc's bottom eigenvalues are near zero and rounding picks its
        # eigenvectors, so a partial solve would move them.  Once mmc's sign
        # is fixed, this folds into the subset solve below
        lam, V = scipy.linalg.eigh(L.T, overwrite_a=True)
    else:
        d0 = L.shape[0]
        lam, V, _, _, info = _SYGVX(L.T, B_reg, itype=1, jobz="V", range="I", il=1,
                                    iu=dim, uplo="L", lwork=_sygvx_lwork(d0),
                                    overwrite_a=True)
        if info > d0:
            raise np.linalg.LinAlgError(
                "constraint matrix is not positive definite; increase the "
                "regularizer epsilon")
        if info:
            raise np.linalg.LinAlgError(f"dsygvx failed with info {info}")
    A = V[:, :dim].T.copy()
    # sign convention: first component of non-trivial magnitude positive
    mag = np.abs(A)
    big = mag > 1e-12 * np.maximum(mag.max(axis=1), 1e-300)[:, None]
    A[A[np.arange(dim), big.argmax(axis=1)] < 0] *= -1.0
    return A, lam[:dim]


def axis_weighting(A: np.ndarray, lam: np.ndarray, mode: str) -> np.ndarray:
    """Apply the diagonal axis-weight transform T to the rows of A."""
    if mode == "T1_identity":
        return A.copy()
    norms = np.linalg.norm(A, axis=1)
    if mode in ("T2_unit_rows", "T4_combined") and np.any(norms == 0):
        raise ValueError("zero-norm projection row; cannot normalize axes")
    # sqrt(|lambda|): a discriminant's bottom eigenvalues are negative, and
    # sqrt(-lambda) is LFDA's sqrt(lambda) in the maximization form
    w = np.sqrt(np.abs(lam))
    if mode in ("T3_sqrt_lambda", "T4_combined") and np.any(w == 0):
        i = int(np.argmin(w))
        raise ValueError(f"{mode}: eigenvalue {float(lam[i])!r} of axis {i} gives a "
                         "zero axis weight")
    if mode == "T2_unit_rows":
        t = 1.0 / norms
    elif mode == "T3_sqrt_lambda":
        t = w
    elif mode == "T4_combined":
        t = w / norms
    else:
        raise ValueError(f"unknown weighting mode {mode!r}")
    return t[:, None] * A


_RANK_TOL = 1e-10   # singular values at most this times the largest count as zero


def _above_tol(s: np.ndarray) -> np.ndarray:
    return s > _RANK_TOL * s.max(initial=0.0)


def pca_preprocess(X: np.ndarray):
    """Project the (centered) columns of X onto their principal subspace.

    Components with singular value <= _RANK_TOL * sigma_max are dropped, so
    the output has full row rank; pairwise distances are preserved exactly
    when only numerically null components are removed.
    """
    if X.shape[1] < 2:
        raise ValueError("need at least two examples")
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    basis = U[:, _above_tol(s)]
    return basis.T @ X, basis


def numerical_rank(X: np.ndarray) -> int:
    return int(_above_tol(np.linalg.svd(X, compute_uv=False)).sum())


def resolve_k(class_counts: np.ndarray) -> int:
    """Default neighbor count: min(3, smallest labeled class size)."""
    counts = np.asarray(class_counts)
    if np.any(counts == 0):
        raise ValueError("every class needs at least one labeled example")
    return int(min(3, counts.min()))


def _prepare(dataset: Dataset):
    """Centered inputs, projected onto their principal subspace when rank
    deficient: (X, train mean, PCA basis or None), from one SVD."""
    ds, mean = center(dataset)
    X, basis = pca_preprocess(ds.X)
    if basis.shape[1] == ds.X.shape[0]:
        return ds.X, mean, None
    return X, mean, basis


def _check_dim(dim: int, X: np.ndarray) -> None:
    """Reject a target dimension above the rank of the prepared inputs X."""
    if dim > X.shape[0]:
        raise ValueError(f"target dimension {dim} exceeds the data rank {X.shape[0]}")


def _label_scatters(X: np.ndarray, labels: np.ndarray, spec: LearnerSpec, take_block=None):
    """L_l of the label costs and the constraint B of the base.

    A label cost is zero on every pair with an unlabeled end, so
    X (D - C) X^T = X_l (D_l - C_l) X_l^T over the m labeled columns X_l and
    the m x m labeled block C_l: fda, lfda, dne and mfa build only that
    block; mmc builds its costs on that block too, but scatters them from an
    n x n matrix.  The neighbor ranking of dne, mfa and lfda reads the m x m
    block of ``pairwise_sq_dists(X)`` over the labeled points, built here or
    taken from ``take_block()`` (``build_scatters`` pops the one that
    ``_unlabel_stage`` cut, a sweep cuts a fold's from the block it keeps),
    and frees it before the costs are built.  B is None only for base
    "none", whose constraint the unlabel term sets.
    """
    d0 = X.shape[0]
    if spec.base == "none":
        return np.zeros((d0, d0)), None
    labeled = np.flatnonzero(labels != UNLABELED)
    if not labeled.size:
        raise ValueError(f"base {spec.base!r} needs labeled examples")
    lab = labels[labeled]
    class_counts = np.bincount(lab)[1:]
    if spec.base == "mmc":
        # C^l = gamma' C^w - C^b on the labeled block, in c^w's buffer.  With
        # this sign of C^b the bottom eigenvalues are near zero and rounding
        # decides the projection, so the block is scattered from n x n costs
        # that are zero elsewhere; X_l serves once the sign is fixed
        cb, cw = mmc_costs(lab, class_counts)
        cw *= spec.gamma_prime
        cw -= cb
        del cb
        C = cw
        if labeled.size < X.shape[1]:
            C = np.zeros((X.shape[1],) * 2)
            C[np.ix_(labeled, labeled)] = cw
        return laplacian_scatter(X, C), np.eye(d0)
    X_l = X[:, labeled]
    if spec.base == "fda":
        # LFDA with every labeled same-class pair a neighbor
        cb, cw = _class_costs(lab, class_counts)
        return laplacian_scatter(X_l, cb), laplacian_scatter(X_l, cw)
    k = spec.k if spec.k is not None else resolve_k(class_counts[class_counts > 0])
    ci, ce = _labeled_neighbor_graphs(
        _labeled_sq_dists(X, labeled) if take_block is None else take_block(), lab, k)
    if spec.base == "dne":
        # C^l = C^I - C^E
        return laplacian_scatter(X_l, np.subtract(ci, ce, dtype=float)), np.eye(d0)
    if spec.base == "mfa":
        # C^l = -C^E under the same-class graph constraint
        return laplacian_scatter(X_l, np.where(ce, -1.0, 0.0)), laplacian_scatter(X_l, ci)
    cbet, cwit = lfda_costs(ci, lab, class_counts)
    return laplacian_scatter(X_l, cbet), laplacian_scatter(X_l, cwit)


def _attempt(build, *args):
    """build(*args), or the error it raised, kept for the steps that need it."""
    try:
        return build(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return exc


def _ok(stage):
    """A stage's result; raises the error it failed with."""
    if isinstance(stage, Exception):
        raise stage
    return stage


def _term(spec: LearnerSpec):
    """The learner's unlabel term ``(unlabel, alpha)``, or None without one
    (unlabel "none" or gamma = 0).  Learners of one term share its scatters;
    only base "none" takes the constraint B_u from them."""
    if spec.unlabel == "none" or not spec.gamma > 0:
        return None
    return spec.unlabel, spec.alpha


def _unlabel_stage(X: np.ndarray, labeled: np.ndarray, specs: list):
    """``(terms, block)`` of the learners ``specs``, which share one
    ``HeatKernelSpec``, from at most one n x n distance matrix.  ``terms``
    maps each ``_term`` of ``specs`` to its scatters ``(L_u, B_u)`` or to the
    error their build raised, and None to (None, None); B_u is None unless a
    base-"none" spec takes it.  ``block`` is the ranking block of
    ``pairwise_sq_dists(X)`` over the sorted indices ``labeled`` if a spec
    ranks (dne, mfa, lfda), cut before the heat kernel turns the distances
    into costs.  The heat terms' alphas share one chain of squarings (see
    ``_heat_terms``); the costs are freed on return."""
    terms = dict.fromkeys(map(_term, specs))
    ranks = any(s.base in ("dne", "mfa", "lfda") for s in specs)
    constrained = {_term(s) for s in specs if s.base == "none"}
    alphas = sorted(t[1] for t in terms if t and t[0] == "heat")
    if alphas:
        d2 = pairwise_sq_dists(X)
        block = d2[np.ix_(labeled, labeled)] if ranks else None
        cu = _heat_costs(d2, specs[0].heat)
        for a, scatters in _heat_terms(X, cu, alphas, constrained).items():
            terms["heat", a] = scatters
    else:
        block = _labeled_sq_dists(X, labeled) if ranks else None
    for t in terms:
        if t and t[0] == "self_pca":
            terms[t] = _self_pca_scatters(X, t in constrained)
    if None in terms:
        terms[None] = None, None
    return terms, block


def _heat_terms(X: np.ndarray, cu: np.ndarray, alphas: list, constrained: set) -> dict:
    """Per alpha of the ascending ``alphas``, the scatters of
    ``hadamard_power(cu, alpha)`` (cu itself at alpha 1), or the error of
    their build, bit for bit, from one chain of squarings of the heat costs
    cu, which it consumes.  Alpha 1 and the alphas that ``_chained`` leaves
    out are built from the intact costs first.  Then cu is squared in place
    along the chained powers of two; each power is rescaled to cu's norm in
    one reused buffer, as ``hadamard_power`` rescales its power, and
    scattered.  So no more than two n x n matrices are live at once."""
    out = {}
    chain = _chained(cu, alphas)
    for a in alphas:
        if a not in chain:
            out[a] = _attempt(_heat_scatters, X, cu, a, ("heat", a) in constrained)
    if chain:
        norm, q, power = np.linalg.norm(cu), np.empty_like(cu), 1
        for a in chain:
            while power < a:
                np.square(cu, out=cu)
                power *= 2
            np.multiply(cu, norm / np.linalg.norm(cu), out=q)
            out[a] = _attempt(_heat_scatters, X, q, 1, ("heat", a) in constrained)
    return out


def _chained(cu: np.ndarray, alphas: list) -> list:
    """The alphas of the ascending ``alphas`` that a chain of squarings of cu
    gives bit for bit: the powers of two above 1 at which the power's
    largest entry, squared alike as a scalar, still squares to a positive
    number.  Then the power's norm is positive, and ``hadamard_power`` takes
    no underflow fallback; from the first alpha that fails, every larger
    power of two fails too."""
    powers = [a for a in alphas if a > 1 and not a & (a - 1)]
    chain, top, power = [], float(cu.max()) if powers else 0.0, 1
    for a in powers:
        while power < a:
            top *= top
            power *= 2
        if not top * top > 0.0:
            break
        chain.append(a)
    return chain


def _heat_scatters(X: np.ndarray, cu: np.ndarray, alpha: int, constraint: bool):
    """``(L_u, B_u)`` of ``hadamard_power(cu, alpha)`` (cu itself at alpha
    1); with ``constraint`` B_u is the classical locality-preserving
    constraint X D^u X^T that base "none" takes, else None."""
    if alpha != 1:
        cu = hadamard_power(cu, alpha)
    L_u = laplacian_scatter(X, cu)
    if not constraint:
        return L_u, None
    B_u = (X * cu.sum(axis=1)) @ X.T
    return L_u, 0.5 * (B_u + B_u.T)


def _self_pca_scatters(X: np.ndarray, constraint: bool):
    """``(L_u, B_u)`` of self_cost(n), whose rows each sum to -1/2:
    -(1/2) X X^T + s s^T / (2n) with s = X 1, and no n x n matrix; with
    ``constraint`` B_u is the identity, else None."""
    s = X.sum(axis=1)
    L_u = np.outer(s, s) / (2 * X.shape[1]) - 0.5 * (X @ X.T)
    return 0.5 * (L_u + L_u.T), np.eye(X.shape[0]) if constraint else None


def _join(label, unlabel):
    """(L_l, L_u, B) from (L_l, B) and (L_u, B_u): base "none" takes B_u."""
    (L_l, B), (L_u, B_u) = label, unlabel
    return L_l, L_u, B_u if B is None else B


def build_scatters(X: np.ndarray, labels: np.ndarray, spec: LearnerSpec):
    """Label scatter L_l, unlabel scatter L_u and constraint B of a learner.

    Each scatter is X (D - C) X^T of the learner's pair costs C, so the
    objective scatter of C^l + gamma C^u is L_l + gamma L_u.  L_l is zero
    for base "none"; L_u is None when the learner has no unlabel term
    (unlabel "none" or gamma = 0).  B is the base's constraint; only base
    "none" takes it from the unlabel term (X D^u X^T for heat costs).  The
    unlabel costs are scattered and freed before the label costs are built.
    """
    label, terms = _stages(X, labels, spec)
    return _join(label, terms[_term(spec)])


def _stages(X: np.ndarray, labels: np.ndarray, spec: LearnerSpec):
    """``(label, terms)`` of one learner: its ``_label_scatters`` and its
    ``_unlabel_stage`` terms.  The unlabel term's error is raised before the
    label costs are built."""
    # the ranking block in a list, which the ranking pops: it frees the block
    # before the label costs, where a local or an argument would keep it
    terms, *block = _unlabel_stage(X, np.flatnonzero(labels != UNLABELED), [spec])
    _ok(terms[_term(spec)])
    return _label_scatters(X, labels, spec, block.pop), terms


def _constraint(B: np.ndarray, eps: float, rank: int | None):
    """``(B_reg, eps, identity)``: the regularized constraint B + eps I, the
    epsilon in it and whether B_reg is the identity.  With eps = 0 a
    singular B takes a small fallback epsilon.  A ``rank`` bound below B's
    order d0 makes B singular; otherwise an eigensolve of B counts its
    rank."""
    d0 = B.shape[0]
    # B is symmetric, so |eigenvalues| are its singular values
    if eps == 0.0 and not _is_identity(B) and (
            rank is not None and rank < d0
            or _above_tol(np.abs(scipy.linalg.eigvalsh(B))).sum() < d0):
        eps = 1e-8 * max(np.trace(B), 1.0) / d0
    B_reg = regularize(B, eps)
    if not np.isfinite(B_reg).all():
        raise ValueError(_NON_FINITE)
    return B_reg, eps, _is_identity(B_reg)


def _solves(label, terms: dict, specs, m: int):
    """Per spec of ``specs``, fitted on m labeled points, ``(A, eigenvalues,
    gamma, epsilon)`` of the axis-weighted projection minimizing L_l + gamma
    L_u under B + epsilon I, or the error of its first failed step.
    ``label`` is ``(L_l, B)`` of ``_label_scatters`` and ``terms`` the terms
    of ``_unlabel_stage``; either may hold errors.  gamma is 0 without an
    unlabel term and epsilon None means gamma; a fallback epsilon is warned
    once per spec.  m bounds the rank of the B of fda, lfda and mfa, which
    are scattered from the m labeled columns.  Consecutive specs with one B
    and epsilon share one ``_constraint``.  L is built as gamma L_u plus L_l
    (the same bits: addition commutes), or as a copy of L_l, in a buffer
    that the solve destroys."""
    last = None   # (B, epsilon, its _constraint) of the last spec
    for spec in specs:
        try:
            L_l, L_u, B = _join(_ok(label), _ok(terms[_term(spec)]))
            gamma = spec.gamma if L_u is not None else 0.0
            eps = spec.epsilon if spec.epsilon is not None else gamma
            if last is None or last[0] is not B or last[1] != eps:
                last = None   # free the old B_reg before building the next
                rank = m if spec.base in ("fda", "lfda", "mfa") else None
                last = B, eps, _constraint(B, eps, rank)
            B_reg, used, identity = last[2]
            if used != eps:
                warnings.warn("constraint matrix is singular with epsilon = 0; "
                              f"falling back to epsilon = {used:g}")
            if L_u is None:
                L = L_l.copy()
            else:
                L = gamma * L_u
                L += L_l
            if not np.isfinite(L).all():
                raise ValueError(_NON_FINITE)
            A, lam = _gev(L, B_reg, spec.dim, identity)
            del L   # destroyed by the solve: not kept while the caller uses A
            A = axis_weighting(A, lam, spec.weighting_mode)
        except (ValueError, np.linalg.LinAlgError) as exc:
            yield exc
            continue
        yield A, lam, gamma, used


def fit(dataset: Dataset, spec: LearnerSpec) -> EmbeddingModel:
    """Full pipeline: center, optional PCA, scatters, GEV, weighting.  A
    kernel is applied to the inputs first, by ``ssdr.kpca.kpca_trick_fit``."""
    return _fit(*_prepare(dataset), dataset.labels, spec)


def _fit(X, mean, basis, labels: np.ndarray, spec: LearnerSpec) -> EmbeddingModel:
    """:func:`fit` on inputs that ``_prepare`` returned."""
    _check_dim(spec.dim, X)
    [solve] = _solves(*_stages(X, labels, spec), [spec],
                      np.count_nonzero(labels != UNLABELED))
    A, lam, gamma, eps = _ok(solve)
    return EmbeddingModel(A=A, eigenvalues=lam, train_mean=mean, pre_pca=basis,
                          weighting_mode=spec.weighting_mode, gamma=gamma,
                          alpha=spec.alpha, epsilon=eps)


def _input_columns(x, dim: int):
    """Inputs as a (dim, m) column matrix and whether a single vector was
    given; the dimension must match and every value must be finite."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    cols = x[:, None] if single else x
    if cols.shape[0] != dim:
        raise ValueError(f"expected inputs of dimension {dim}, got {cols.shape[0]}")
    if not np.isfinite(cols).all():
        bad = ~np.isfinite(cols).all(axis=0)
        raise ValueError(f"input column {int(np.argmax(bad))} has a non-finite value")
    return cols, single


def embed(model: EmbeddingModel, x: np.ndarray) -> np.ndarray:
    """Map an input vector (or a (d0, m) column matrix) to the subspace:
    center, project onto the PCA basis (if any), then apply A."""
    cols, single = _input_columns(x, model.input_dim)
    cols = cols - model.train_mean[:, None]
    if model.pre_pca is not None:
        cols = model.pre_pca.T @ cols
    z = model.A @ cols
    return z[:, 0] if single else z


_MAGIC = b"SSDR"
_VERSION = 1
_MODE_CODES = {m: i + 1 for i, m in enumerate(WEIGHTING_MODES)}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


def save_model(model: EmbeddingModel, path) -> None:
    """Versioned little-endian flat file: header, then train_mean, the PCA
    basis (row-major), A (row-major) and the eigenvalues as float64."""
    r = model.pre_pca.shape[1] if model.pre_pca is not None else 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IqqqqdqdQ", _VERSION, model.input_dim, model.dim, r,
                             _MODE_CODES[model.weighting_mode], model.epsilon,
                             model.alpha, model.gamma, model.A.shape[1]))
        for arr in (model.train_mean, model.pre_pca, model.A, model.eigenvalues):
            if arr is not None:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_header(fh, path, fmt: str) -> tuple:
    """The fixed-size header after the magic, unpacked with ``fmt``."""
    size = struct.calcsize(fmt)
    header = fh.read(size)
    if len(header) != size:
        raise ValueError(f"{path}: expected {size} header bytes after the "
                         f"magic, found {len(header)}")
    return struct.unpack(fmt, header)


def _check_count(path, name: str, value: int, least: int, most=None) -> None:
    """A header count of at least ``least`` and, unless ``most`` is None, at
    most the count ``most = (its field name, its value)``; else an error that
    names the file and the field."""
    if value < least or (most is not None and value > most[1]):
        upper = "" if most is None else f" <= {most[0]} = {most[1]}"
        raise ValueError(f"{path}: header field {name} = {value}; expected "
                         f"{least} <= {name}{upper}")


def _read_payload(fh, path, counts) -> list[np.ndarray]:
    """The rest of an open model file as float64 arrays of the given sizes;
    its length must be exactly what the header announced."""
    payload = fh.read()
    expected = 8 * sum(counts)
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes after the "
                         f"header, found {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f8").copy()
    return np.split(flat, np.cumsum(counts)[:-1])


def load_model(path) -> EmbeddingModel:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a model file")
        version, d0, dim, r, mode, eps, alpha, gamma, a_cols = \
            _read_header(fh, path, "<IqqqqdqdQ")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if mode not in _CODE_MODES:
            raise ValueError(f"{path}: unknown weighting mode code {mode}")
        _check_count(path, "d0", d0, 1)
        _check_count(path, "r", r, 0, ("d0", d0))
        if a_cols != (r or d0):
            raise ValueError(f"{path}: A has {a_cols} columns; expected {r or d0}, "
                             f"the {'PCA rank r' if r else 'input dimension d0'}")
        _check_count(path, "dim", dim, 1, ("a_cols", a_cols))
        if not (math.isfinite(eps) and math.isfinite(gamma)):
            raise ValueError(f"{path}: epsilon {eps} and gamma {gamma} must be finite")
        mean, basis, A, lam = _read_payload(fh, path, (d0, d0 * r, dim * a_cols, dim))
    for name, values in (("train_mean", mean), ("pre_pca", basis), ("A", A),
                         ("eigenvalues", lam)):
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: {name} must be finite")
    basis = basis.reshape(d0, r) if r else None
    A = A.reshape(dim, a_cols)
    return EmbeddingModel(A=A, eigenvalues=lam, train_mean=mean, pre_pca=basis,
                          weighting_mode=_CODE_MODES[mode], gamma=gamma,
                          alpha=alpha, epsilon=eps)
