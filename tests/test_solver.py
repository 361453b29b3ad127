import struct
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import ssdr.costs
import ssdr.solver
from ssdr import (BASES, Dataset, EmbeddingModel, LearnerSpec, UNLABELED,
                  UNLABEL_MODES, axis_weighting, build_scatters, cross_validate,
                  embed, fit, generate_multimodal_toy, hadamard_power, heat_kernel_costs,
                  center, laplacian_scatter, lfda_costs, load_model, mmc_costs,
                  neighbor_graphs, numerical_rank, pairwise_sq_dists,
                  pca_preprocess, regularize, resolve_k, save_model,
                  self_cost, solve_gev)
from ssdr.solver import _prepare, _solve


def random_pd(rng, d):
    M = rng.standard_normal((d, d))
    return M @ M.T + d * np.eye(d)


def random_symmetric(rng, d):
    M = rng.standard_normal((d, d))
    return 0.5 * (M + M.T)


def explicit_reduction(L, B_reg, dim):
    """Bottom-dim pairs through R^-T L R^-1 with B_reg = R^T R, a full eigh
    and the back-substitution: the reference for solve_gev."""
    R = scipy.linalg.cholesky(B_reg, lower=False)
    Rinv = scipy.linalg.solve_triangular(R, np.eye(L.shape[0]), lower=False)
    M = Rinv.T @ L @ Rinv
    lam, V = scipy.linalg.eigh(0.5 * (M + M.T))
    return (Rinv @ V[:, :dim]).T, lam[:dim]


def sign_convention(A):
    """Rows of A with their first non-negligible component positive."""
    A = A.copy()
    for row in A:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * max(np.abs(row).max(), 1e-300))
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return A


def labeled_dataset(rng, d0=4, n=40, c=2):
    X = rng.standard_normal((d0, n))
    labels = np.array([1 + i % c for i in range(n)])
    return Dataset(X=X, labels=labels, n_classes=c)


class TestLaplacianScatter:
    def test_zero_cost(self):
        X = np.random.default_rng(0).standard_normal((3, 5))
        assert np.allclose(laplacian_scatter(X, np.zeros((5, 5))), 0)

    def test_hand_example(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(laplacian_scatter(X, C),
                                   [[1.0, 0.0], [0.0, 0.0]])

    def test_pairwise_sum_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 10))
        C = random_symmetric(rng, 10)
        np.fill_diagonal(C, 0.0)
        A = rng.standard_normal((2, 4))
        L = laplacian_scatter(X, C)
        ordered = float((C * pairwise_sq_dists(A @ X)).sum())
        assert 2 * np.trace(A @ L @ A.T) == pytest.approx(ordered, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            laplacian_scatter(np.zeros((2, 3)), np.zeros((4, 4)))


class TestRegularize:
    def test_epsilon_zero(self):
        B = random_pd(np.random.default_rng(2), 3)
        np.testing.assert_array_equal(regularize(B, 0.0), B)

    def test_zero_matrix(self):
        np.testing.assert_allclose(regularize(np.zeros((3, 3)), 0.1),
                                   0.1 * np.eye(3))

    def test_eigenvalue_shift(self):
        B = random_symmetric(np.random.default_rng(3), 5)
        lo = scipy.linalg.eigh(B, eigvals_only=True)[0]
        lo_reg = scipy.linalg.eigh(regularize(B, 0.7), eigvals_only=True)[0]
        assert lo_reg == pytest.approx(lo + 0.7, rel=1e-10)

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            regularize(np.eye(2), -1.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, eps):
        # nan < 0 is False: a NaN epsilon returned all NaN, and an infinite one
        # put inf * 0 = NaN off the diagonal
        with pytest.raises(ValueError, match="epsilon must be non-negative and finite"):
            regularize(2 * np.eye(3), eps)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="epsilon regularizes a square"):
            regularize(np.ones((2, 3)), 0.5)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1e-300])
    def test_equals_adding_epsilon_times_identity(self, eps):
        # bit for bit, the sign of every zero included
        B = random_symmetric(np.random.default_rng(4), 4)
        B[0, 1] = B[1, 0] = -0.0
        B[2, 2] = -0.0
        want = B + eps * np.eye(4)
        got = regularize(B, eps)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert got is not B


class TestSolveGev:
    def test_diagonal_case(self):
        A, lam = solve_gev(np.diag([3.0, 1.0, 2.0]), np.eye(3), 2)
        np.testing.assert_allclose(lam, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(A), [[0, 1, 0], [0, 0, 1]], atol=1e-12)
        assert A[0, 1] > 0 and A[1, 2] > 0  # sign convention

    def test_residuals_and_constraint(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d0 = int(rng.integers(2, 11))
            L = random_symmetric(rng, d0)
            B = random_pd(rng, d0)
            A, lam = solve_gev(L, B, d0)
            assert (np.diff(lam) >= -1e-12).all()
            np.testing.assert_allclose(A @ B @ A.T, np.eye(d0), atol=1e-8)
            for j in range(d0):
                res = np.linalg.norm(L @ A[j] - lam[j] * B @ A[j])
                assert res <= 1e-8 * (np.linalg.norm(L, "fro")
                                      + abs(lam[j]) * np.linalg.norm(B, "fro"))

    def test_optimality_against_random_feasible(self):
        rng = np.random.default_rng(5)
        L = random_symmetric(rng, 5)
        B = random_pd(rng, 5)
        A, _ = solve_gev(L, B, 2)
        best = np.trace(A @ L @ A.T)
        R = scipy.linalg.cholesky(B, lower=False)
        Rinv = scipy.linalg.solve_triangular(R, np.eye(5), lower=False)
        for _ in range(200):
            Q = np.linalg.qr(rng.standard_normal((5, 2)))[0]  # feasible in the
            At = (Rinv @ Q).T                                 # whitened space
            np.testing.assert_allclose(At @ B @ At.T, np.eye(2), atol=1e-8)
            assert best <= np.trace(At @ L @ At.T) + 1e-10

    def test_not_pd_error_mentions_epsilon(self):
        with pytest.raises(np.linalg.LinAlgError, match="epsilon"):
            solve_gev(np.eye(3), np.zeros((3, 3)), 2)

    def test_dim_too_large(self):
        with pytest.raises(ValueError):
            solve_gev(np.eye(3), np.eye(3), 4)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected_by_name(self, dim):
        # it used to return empty arrays
        for B in (np.eye(3), 2 * np.eye(3)):
            with pytest.raises(ValueError, match=rf"^dim must be .*got {dim}$"):
                solve_gev(np.eye(3), B, dim)

    @pytest.mark.parametrize("d0", [5, 40, 200])
    def test_matches_explicit_reduction(self, d0):
        # well-separated spectrum: L = R^T Q diag(s) Q^T R with B = R^T R
        rng = np.random.default_rng(d0)
        B = random_pd(rng, d0)
        R = scipy.linalg.cholesky(B, lower=False)
        Q = np.linalg.qr(rng.standard_normal((d0, d0)))[0]
        s = rng.permutation(np.linspace(-3.0, 5.0, d0) + 0.5 / d0)
        L = R.T @ (Q * s) @ Q.T @ R
        L = 0.5 * (L + L.T)
        for dim in sorted({1, 2, d0 // 2, d0}):
            A, lam = solve_gev(L, B, dim)
            A_ref, lam_ref = explicit_reduction(L, B, dim)
            assert A.shape == (dim, d0) and lam.shape == (dim,)
            np.testing.assert_allclose(lam, lam_ref, rtol=1e-9)
            np.testing.assert_allclose(lam, np.sort(s)[:dim], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(A @ B @ A.T, np.eye(dim), atol=1e-10)
            np.testing.assert_allclose(A, sign_convention(A_ref), atol=1e-8)

    def test_identity_constraint_is_bitwise_full_eigh(self):
        # B_reg = I (mmc, and dne at epsilon 0): the full spectrum, bit for bit
        # what the explicit reduction by R = I computed
        rng = np.random.default_rng(6)
        for d0, dim in ((5, 2), (40, 3), (120, 2)):
            L = random_symmetric(rng, d0)
            A, lam = solve_gev(L, np.eye(d0), dim)
            w, V = scipy.linalg.eigh(L)
            np.testing.assert_array_equal(lam, w[:dim])
            np.testing.assert_array_equal(A, sign_convention(V[:, :dim].T))
            A_ref, lam_ref = explicit_reduction(L, np.eye(d0), dim)
            np.testing.assert_array_equal(lam, lam_ref)
            np.testing.assert_array_equal(A, sign_convention(A_ref))

    def test_indefinite_constraint_keeps_the_message(self):
        with pytest.raises(np.linalg.LinAlgError,
                           match="^constraint matrix is not positive definite; "
                                 "increase the regularizer epsilon$"):
            solve_gev(np.eye(3), np.diag([1.0, -1.0, 2.0]), 1)

    def test_one_partial_lapack_call(self, monkeypatch):
        eigh_calls, sygvx_calls, triangular = [], [], []
        sygvx = ssdr.solver._SYGVX
        monkeypatch.setattr(scipy.linalg, "eigh",
                            lambda *a, **k: eigh_calls.append(1))
        monkeypatch.setattr(ssdr.solver, "_SYGVX",
                            lambda *a, **k: sygvx_calls.append((len(a), k)) or sygvx(*a, **k))
        monkeypatch.setattr(scipy.linalg, "solve_triangular",
                            lambda *a, **k: triangular.append(1))
        rng = np.random.default_rng(7)
        A, lam = solve_gev(random_symmetric(rng, 30), random_pd(rng, 30), 2)
        assert A.shape == (2, 30) and lam.shape == (2,)
        [(args, kw)] = sygvx_calls
        assert args == 2 and (kw["range"], kw["il"], kw["iu"]) == ("I", 1, 2)
        assert eigh_calls == [] and triangular == []

    @pytest.mark.parametrize("d0", [1, 2, 3, 17, 64, 601])
    def test_bitwise_eigh_subset_with_sign_loop(self, d0):
        # the direct dsygvx call returns what eigh's subset solve did, with the
        # per-row sign loop it replaced; at 601 the blocked reduction uses the
        # workspace, so its size matters
        rng = np.random.default_rng(d0)
        L, B = random_symmetric(rng, d0), random_pd(rng, d0)
        for dim in range(1, min(d0, 5) + 1):
            A, lam = solve_gev(L, B, dim)
            w, V = scipy.linalg.eigh(L, B, subset_by_index=[0, dim - 1])
            np.testing.assert_array_equal(lam, w)
            np.testing.assert_array_equal(A, sign_convention(V.T))

    def test_lapack_workspace_is_the_reported_one(self):
        _, lwork = scipy.linalg.get_lapack_funcs(("sygvx", "sygvx_lwork"))
        for d0 in (1, 2, 64, 601):
            assert ssdr.solver._sygvx_lwork(d0) == int(lwork(d0, uplo="L")[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["L", "B_reg"])
    def test_non_finite_input_rejected(self, bad, which):
        rng = np.random.default_rng(8)
        mats = {"L": random_symmetric(rng, 4), "B_reg": random_pd(rng, 4)}
        mats[which][1, 2] = mats[which][2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_gev(mats["L"], mats["B_reg"], 2)

    def test_non_square_input_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_gev(np.zeros((2, 3)), np.eye(2), 1)
        with pytest.raises(ValueError, match="square"):
            solve_gev(np.eye(2), np.eye(3), 1)


class TestAxisWeighting:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.A = rng.standard_normal((3, 5))
        self.lam = np.array([0.5, 1.5, 4.0])

    def test_t1_identity(self):
        np.testing.assert_array_equal(
            axis_weighting(self.A, self.lam, "T1_identity"), self.A)

    def test_t2_unit_rows(self):
        out = axis_weighting(self.A, self.lam, "T2_unit_rows")
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_t3_sqrt_lambda(self):
        out = axis_weighting(self.A, self.lam, "T3_sqrt_lambda")
        np.testing.assert_allclose(out, np.sqrt(self.lam)[:, None] * self.A)

    def test_t4_composition(self):
        t3 = axis_weighting(self.A, self.lam, "T3_sqrt_lambda")
        norms = np.linalg.norm(self.A, axis=1)
        np.testing.assert_allclose(axis_weighting(self.A, self.lam, "T4_combined"),
                                   t3 / norms[:, None])

    def test_negative_lambda_weighted_by_magnitude(self):
        out = axis_weighting(self.A, np.array([-0.25, 1.0, 4.0]), "T3_sqrt_lambda")
        np.testing.assert_array_equal(out, np.array([0.5, 1.0, 2.0])[:, None] * self.A)

    @pytest.mark.parametrize("mode", ["T3_sqrt_lambda", "T4_combined"])
    def test_zero_lambda_errors(self, mode):
        with pytest.raises(ValueError, match=f"{mode}: eigenvalue -0.0 of axis 1"):
            axis_weighting(self.A, np.array([-1.0, -0.0, 2.0]), mode)

    @pytest.mark.parametrize("base", ["lfda", "fda", "dne", "mfa"])
    def test_t3_is_sqrt_minus_lambda_times_t1(self, base):
        # the bottom eigenvalues of every supervised base are negative, and
        # T3 weights each T1 axis by sqrt(-lambda) instead of zeroing it
        d = labeled_dataset(np.random.default_rng(7), c=3)
        d = replace(d, X=d.X + 3.0 * np.eye(4, 3)[:, d.labels - 1])  # separated
        spec = LearnerSpec(base=base, unlabel="none", gamma=0.0, k=2, dim=2)
        t1 = fit(d, spec)
        t3 = fit(d, replace(spec, weighting_mode="T3_sqrt_lambda"))
        assert (t1.eigenvalues < 0).all()
        np.testing.assert_allclose(
            t3.A, np.sqrt(-t1.eigenvalues)[:, None] * t1.A, rtol=1e-12)

    def test_zero_row_error(self):
        A = self.A.copy()
        A[1] = 0.0
        with pytest.raises(ValueError):
            axis_weighting(A, self.lam, "T2_unit_rows")


class TestPcaPreprocess:
    def test_full_rank_keeps_dimension(self):
        X = np.random.default_rng(7).standard_normal((3, 20))
        Xr, basis = pca_preprocess(X)
        assert Xr.shape[0] == 3 and basis.shape == (3, 3)

    def test_duplicated_row_drops_dimension(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 20))
        X = np.vstack([X, X[0]])
        Xr, _ = pca_preprocess(X)
        assert Xr.shape[0] == 3
        assert numerical_rank(X) == 3

    def test_distances_preserved(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((2, 15))
        X = np.vstack([X, X.sum(axis=0)])  # rank-deficient 3rd row
        Xr, _ = pca_preprocess(X)
        np.testing.assert_allclose(pairwise_sq_dists(Xr), pairwise_sq_dists(X),
                                   rtol=1e-8, atol=1e-8)


def old_prepare(dataset):
    """The former rule: a rank SVD, then PCA iff the rank is below d0."""
    ds, mean = center(dataset)
    if numerical_rank(ds.X) < ds.X.shape[0]:
        return (*pca_preprocess(ds.X), mean)
    return ds.X, None, mean


class TestPrepare:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(31)
        base = rng.standard_normal((3, 25))
        return {"full rank": base,
                "rank deficient": np.vstack([base, base[0] - 2 * base[2]]),
                "d0 > n": rng.standard_normal((30, 12)),
                "constant feature": np.vstack([base, np.full(25, 4.0)])}

    @pytest.mark.parametrize("name", ["full rank", "rank deficient", "d0 > n",
                                      "constant feature"])
    def test_same_arrays_as_the_rank_checked_rule(self, name):
        X = self.inputs()[name]
        data = Dataset(X=X, labels=np.full(X.shape[1], UNLABELED), n_classes=1)
        Xp, mean, basis = _prepare(data)
        want_X, want_basis, want_mean = old_prepare(data)
        np.testing.assert_array_equal(Xp, want_X)
        np.testing.assert_array_equal(mean, want_mean)
        assert (basis is None) == (want_basis is None) == (name == "full rank")
        if basis is not None:
            np.testing.assert_array_equal(basis, want_basis)

    def test_one_svd_on_rank_deficient_inputs(self, monkeypatch):
        X = self.inputs()["rank deficient"]
        data = Dataset(X=X, labels=np.full(X.shape[1], UNLABELED), n_classes=1)
        calls = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        _, _, basis = _prepare(data)
        assert basis.shape == (4, 3) and len(calls) == 1


class TestEpsilonFallback:
    @pytest.mark.parametrize("floor", [0.0, 1e-13, 1e-6, 1.0],
                             ids=["rank deficient", "below tolerance",
                                  "near singular", "full rank"])
    def test_fires_exactly_when_the_rank_is_short(self, floor):
        # B = V diag(s) V^T, PSD, with its smallest eigenvalues at floor
        rng = np.random.default_rng(41)
        d0 = 6
        V, _ = np.linalg.qr(rng.standard_normal((d0, d0)))
        s = np.array([3.0, 2.0, 1.5, 1.0, floor, floor])
        B = (V * s) @ V.T
        B = 0.5 * (B + B.T)
        L = random_symmetric(rng, d0)
        spec = LearnerSpec(base="lfda", unlabel="none", gamma=0.0, epsilon=0.0, dim=2)
        singular = numerical_rank(B) < d0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = _solve(L, None, B, spec, np.zeros(d0), None)
        assert (len(caught) == 1) == singular == (floor < 1e-10)
        want = 1e-8 * max(np.trace(B), 1.0) / d0 if singular else 0.0
        assert model.epsilon == want


class TestResolveK:
    def test_values(self):
        assert resolve_k(np.array([10, 10])) == 3
        assert resolve_k(np.array([2, 5])) == 2
        assert resolve_k(np.array([1, 1])) == 1

    def test_zero_count_errors(self):
        with pytest.raises(ValueError):
            resolve_k(np.array([3, 0]))


def reference_costs(X, labels, spec):
    """C^l, C^u and B of a learner from the public cost builders."""
    n, d0 = X.shape[1], X.shape[0]
    counts = np.bincount(labels[labels != UNLABELED])[1:]
    k = resolve_k(counts)
    cl, cu, B = np.zeros((n, n)), np.zeros((n, n)), None
    if spec.base in ("dne", "mfa"):
        ci, ce = neighbor_graphs(X, labels, k)
        cl = np.subtract(ci if spec.base == "dne" else 0, ce, dtype=float)
        B = np.eye(d0) if spec.base == "dne" else laplacian_scatter(X, ci)
    elif spec.base == "lfda":
        ci, _ = neighbor_graphs(X, labels, k)
        cbet, cwit = lfda_costs(ci, labels, counts)
        cl, B = cbet, laplacian_scatter(X, cwit)
    elif spec.base == "fda":
        # FDA's between/within costs are MMC's class-wide costs
        cb, cw = mmc_costs(labels, counts)
        cl, B = cb, laplacian_scatter(X, cw)
    elif spec.base == "mmc":
        cb, cw = mmc_costs(labels, counts)
        cl = spec.gamma_prime * cw - cb
        B = np.eye(d0)
    # only base "none" takes its constraint from the unlabel term
    if spec.unlabel == "heat":
        cu = hadamard_power(heat_kernel_costs(X, spec.heat), spec.alpha)
        if B is None:
            B = (X * cu.sum(axis=1)) @ X.T
            B = 0.5 * (B + B.T)
    elif spec.unlabel == "self_pca":
        cu = self_cost(n)
    return cl, cu, np.eye(d0) if B is None else B


LEARNERS = [(b, u) for b in BASES for u in UNLABEL_MODES
            if not (b == "none" and u == "none")]


class TestBuildScatters:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.X = rng.standard_normal((4, 30))
        self.labels = np.array([1 + i % 3 for i in range(30)])
        self.labels[rng.choice(30, 12, replace=False)] = UNLABELED

    @pytest.mark.parametrize("base,unlabel", LEARNERS)
    def test_scatters_match_combined_cost(self, base, unlabel):
        spec = LearnerSpec(base=base, unlabel=unlabel, gamma=0.7, alpha=2,
                           gamma_prime=0.5)
        L_l, L_u, B = build_scatters(self.X, self.labels, spec)
        cl, cu, B_ref = reference_costs(self.X, self.labels, spec)
        assert (L_u is None) == (unlabel == "none")
        L = L_l if L_u is None else L_l + spec.gamma * L_u
        L_ref = laplacian_scatter(self.X, cl + spec.gamma * cu)
        assert np.linalg.norm(L - L_ref) <= 1e-10 * np.linalg.norm(L_ref)
        np.testing.assert_allclose(B, B_ref, rtol=1e-12, atol=0)

    def test_gamma_zero_has_no_unlabel_scatter(self):
        spec = LearnerSpec(base="lfda", unlabel="heat", gamma=0.0)
        L_l, L_u, _ = build_scatters(self.X, self.labels, spec)
        assert L_u is None
        cl, _, _ = reference_costs(self.X, self.labels, spec)
        # the labeled block of C^l, scattered over the labeled columns
        lab = self.labels != UNLABELED
        np.testing.assert_array_equal(L_l, laplacian_scatter(self.X[:, lab],
                                                             cl[np.ix_(lab, lab)]))

    @pytest.mark.parametrize("base", ["lfda", "dne", "mfa"])
    @pytest.mark.parametrize("points", ["random", "integer grid", "all labeled"])
    def test_ranking_and_heat_share_one_distance_matrix(self, monkeypatch, base, points):
        # the ranking cuts its labeled block from the distances that the heat
        # kernel then consumes: one gram, and the scatters of the two built apart
        rng = np.random.default_rng(25)
        n = 150
        X = rng.integers(0, 4, (3, n)).astype(float) if points == "integer grid" \
            else rng.standard_normal((3, n))
        labels = 1 + np.arange(n) % 3
        if points != "all labeled":
            labels[rng.choice(n, 90, replace=False)] = UNLABELED
        spec = LearnerSpec(base=base, unlabel="heat", gamma=0.7, alpha=2, k=3)
        L_l, B = ssdr.solver._label_scatters(X, labels, spec)
        L_u = laplacian_scatter(X, hadamard_power(heat_kernel_costs(X, spec.heat), spec.alpha))
        grams = []
        original = ssdr.costs._dists_from_gram
        monkeypatch.setattr(ssdr.costs, "_dists_from_gram",
                            lambda *a: grams.append(1) or original(*a))
        got = build_scatters(X, labels, spec)
        assert len(grams) == 1
        for g, want in zip(got, (L_l, L_u, B)):
            np.testing.assert_array_equal(g, want)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_shared_heat_alpha_scattered_once(self, monkeypatch, alpha):
        # lpp (base "none", which takes B_u) and ss-lfda at one alpha share
        # one term: one n x n scatter of the heat costs, with the constraint
        # B_u that only lpp takes; ss-lfda keeps its own B.  A power of two
        # is squared in place, with no hadamard_power call
        rng = np.random.default_rng(27)
        n = 200
        X = rng.standard_normal((3, n))
        labels = np.full(n, UNLABELED)
        labels[::4] = 1 + np.arange(n // 4) % 2
        specs = [LearnerSpec(base="none", unlabel="heat", gamma=1.0, alpha=alpha),
                 LearnerSpec(base="lfda", unlabel="heat", gamma=1.0, alpha=alpha)]
        cu = hadamard_power(heat_kernel_costs(X, specs[0].heat), alpha)
        L_ref, B_ref = laplacian_scatter(X, cu), (X * cu.sum(axis=1)) @ X.T
        _, _, B_lfda = build_scatters(X, labels, specs[1])
        scatters, powers = [], []
        scatter, power = ssdr.solver.laplacian_scatter, ssdr.solver.hadamard_power
        monkeypatch.setattr(ssdr.solver, "laplacian_scatter",
                            lambda X, C: scatters.append(C.shape) or scatter(X, C))
        monkeypatch.setattr(ssdr.solver, "hadamard_power",
                            lambda *a: powers.append(1) or power(*a))
        terms, _ = ssdr.solver._unlabel_stage(X, np.arange(0, n, 4), specs)
        assert scatters == [(n, n)] and powers == []
        assert list(terms) == [("heat", alpha)]
        L_u, B_u = terms[("heat", alpha)]
        np.testing.assert_array_equal(L_u, L_ref)
        np.testing.assert_array_equal(B_u, 0.5 * (B_ref + B_ref.T))
        monkeypatch.undo()
        label = ssdr.solver._label_scatters(X, labels, specs[1])
        _, _, B = ssdr.solver._join(label, terms[("heat", alpha)])
        np.testing.assert_array_equal(B, label[1])
        np.testing.assert_array_equal(B, B_lfda)
        assert not np.array_equal(B, B_u)

    @pytest.mark.parametrize("base", ["dne", "mmc"])
    def test_heat_keeps_identity_constraint(self, base):
        # dne and mmc constrain A A^T, whatever the unlabel term
        spec = LearnerSpec(base=base, unlabel="heat", gamma=0.7)
        _, _, B = build_scatters(self.X, self.labels, spec)
        np.testing.assert_array_equal(B, np.eye(self.X.shape[0]))
        d = labeled_dataset(np.random.default_rng(24))
        model = fit(d, replace(spec, dim=2))
        np.testing.assert_allclose(model.A @ model.A.T,
                                   np.eye(2) / (1.0 + model.epsilon), atol=1e-10)

    def test_fit_rejects_negative_gamma_prime(self):
        d = labeled_dataset(np.random.default_rng(22))
        with pytest.raises(ValueError, match="gamma_prime"):
            fit(d, LearnerSpec(base="mmc", unlabel="none", gamma=0.0,
                               gamma_prime=-1.0))

    def test_fit_rejects_base_none_without_unlabel_weight(self):
        d = labeled_dataset(np.random.default_rng(23))
        with pytest.raises(ValueError, match="unlabel cost"):
            fit(d, LearnerSpec(base="none", unlabel="heat", gamma=0.0))


def heat_reference(X, heat, alpha, constraint):
    """An unlabel heat term's (L_u, B_u) as one hadamard_power per alpha."""
    cu = heat_kernel_costs(X, heat)
    p = cu if alpha == 1 else hadamard_power(cu, alpha)
    B_u = (X * p.sum(axis=1)) @ X.T
    return laplacian_scatter(X, p), 0.5 * (B_u + B_u.T) if constraint else None


class TestHeatChain:
    """The heat terms' alphas share one chain of squarings, bit for bit the
    scatters of one hadamard_power per alpha."""

    @staticmethod
    def stage(X, alphas, base, heat=ssdr.costs.HeatKernelSpec()):
        specs = [LearnerSpec(base=base, unlabel="heat", gamma=1.0, alpha=a, heat=heat)
                 for a in alphas]
        terms, _ = ssdr.solver._unlabel_stage(X, np.arange(0, X.shape[1], 5), specs)
        return terms

    @pytest.mark.parametrize("base", ["none", "lfda"])
    @pytest.mark.parametrize("alphas", [(1, 2, 4, 8), (2, 8), (1, 3, 4), (16,),
                                        (1, 2, 3, 4, 6, 8)])
    def test_scatters_equal_one_power_per_alpha(self, alphas, base):
        X = np.random.default_rng(12).standard_normal((3, 120))
        terms = self.stage(X, alphas, base)
        assert list(terms) == [("heat", a) for a in alphas]
        for a in alphas:
            for got, want in zip(terms["heat", a], heat_reference(
                    X, ssdr.costs.HeatKernelSpec(), a, base == "none")):
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, want)

    def test_powers_of_two_take_no_hadamard_power(self, monkeypatch):
        X = np.random.default_rng(13).standard_normal((3, 80))
        powers = []
        power = ssdr.solver.hadamard_power
        monkeypatch.setattr(ssdr.solver, "hadamard_power",
                            lambda cu, a: powers.append(a) or power(cu, a))
        self.stage(X, (1, 2, 3, 4, 6, 8), "lfda")
        assert powers == [3, 6]

    @pytest.mark.parametrize("sigma, powered", [(0.12, [8]), (1e-3, [2, 4, 8])],
                             ids=["8th power underflows", "all-zero costs"])
    def test_underflow_takes_hadamard_powers_path(self, monkeypatch, sigma, powered):
        # points one apart on a line: the largest global heat cost is
        # exp(-1 / sigma^2), 7e-31 at sigma 0.12, whose 8th power squares to
        # 0, so hadamard_power's underflow fallback rescales it; at sigma
        # 1e-3 every cost is 0 and each power above 1 fails
        n = 60
        X = np.vstack([np.arange(n, dtype=float), np.zeros(n)])
        heat = ssdr.costs.HeatKernelSpec("global", sigma=sigma)
        powers = []
        power = ssdr.solver.hadamard_power
        monkeypatch.setattr(ssdr.solver, "hadamard_power",
                            lambda cu, a: powers.append(a) or power(cu, a))
        terms = self.stage(X, (1, 2, 4, 8), "none", heat)
        assert powers == powered
        monkeypatch.undo()
        for a in (1, 2, 4, 8):
            try:
                want = heat_reference(X, heat, a, True)
            except ValueError as exc:
                assert isinstance(terms["heat", a], ValueError)
                assert str(terms["heat", a]) == str(exc) == "all-zero cost matrix: " \
                    "norm ratio undefined"
                continue
            for got, w in zip(terms["heat", a], want):
                np.testing.assert_array_equal(got, w)


class TestSelfPcaScatter:
    """self_pca's scatter in closed form: -(1/2) X X^T + s s^T / (2n), s = X 1."""

    @pytest.mark.parametrize("n", [2, 5, 2 * ssdr.costs._ROW_BLOCK + 7])
    @pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
    @pytest.mark.parametrize("base", ["none", "lfda"])
    def test_matches_the_dense_self_cost_scatter(self, n, centered, base):
        rng = np.random.default_rng(n)
        X = 3.0 + rng.standard_normal((4, n)) * [[1.0], [5.0], [0.2], [2.0]]
        if centered:
            X -= X.mean(axis=1, keepdims=True)
        spec = LearnerSpec(base=base, unlabel="self_pca", gamma=1.0)
        terms, block = ssdr.solver._unlabel_stage(X, np.arange(0), [spec])
        assert list(terms) == [("self_pca", 1)]
        assert block is None if base == "none" else block.shape == (0, 0)
        [(L_u, B_u)] = terms.values()
        want = laplacian_scatter(X, self_cost(n))
        assert np.linalg.norm(L_u - want) <= 1e-12 * np.linalg.norm(want)
        np.testing.assert_array_equal(L_u, L_u.T)
        if base == "none":
            np.testing.assert_array_equal(B_u, np.eye(4))
        else:
            assert B_u is None

    def test_builds_no_cost_matrix(self, monkeypatch):
        calls = []
        for module in (ssdr.costs, ssdr.solver):
            monkeypatch.setattr(module, "self_cost", calls.append, raising=False)
        X = np.random.default_rng(26).standard_normal((3, 30))
        build_scatters(X, np.full(30, UNLABELED),
                       LearnerSpec(base="none", unlabel="self_pca", gamma=1.0))
        assert calls == []

    def test_pca_preset_finds_the_top_principal_axis(self):
        rng = np.random.default_rng(27)
        axes = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        X = 4.0 + axes @ (rng.standard_normal((3, 200)) * [[3.0], [1.0], [0.3]])
        spec, _ = ssdr.learner_preset("pca", 1)
        model = fit(Dataset(X=X, labels=np.full(200, UNLABELED), n_classes=1), spec)
        top = np.linalg.svd(X - X.mean(axis=1, keepdims=True))[0][:, 0]
        a = model.A[0] / np.linalg.norm(model.A[0])
        assert abs(a @ top) >= 1.0 - 1e-10


class TestFit:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LearnerSpec(base="pca")
        with pytest.raises(ValueError):
            LearnerSpec(base="none", unlabel="none")
        with pytest.raises(ValueError):
            LearnerSpec(weighting_mode="T5")
        with pytest.raises(ValueError, match="gamma must be non-negative"):
            LearnerSpec(base="lfda", unlabel="heat", gamma=-1.0)

    def test_constraint_satisfaction_t1(self):
        rng = np.random.default_rng(10)
        d = labeled_dataset(rng)
        model = fit(d, LearnerSpec(base="lfda", unlabel="heat", gamma=0.5, dim=2))
        # reconstruct B + eps*I from the training pipeline
        from ssdr.dataset import center
        ds, _ = center(d)
        _, _, B = build_scatters(ds.X, ds.labels,
                                 LearnerSpec(base="lfda", unlabel="heat",
                                             gamma=0.5, dim=2))
        np.testing.assert_allclose(
            model.A @ regularize(B, model.epsilon) @ model.A.T, np.eye(2),
            atol=1e-8)

    def test_lpp_star_alpha_one_equals_lpp(self):
        from dataclasses import replace
        from ssdr import learner_preset
        rng = np.random.default_rng(11)
        d = labeled_dataset(rng)
        star, _ = learner_preset("lpp*", dim=2)
        plain, _ = learner_preset("lpp", dim=2)
        m1 = fit(d, replace(star, alpha=1))
        m2 = fit(d, plain)
        np.testing.assert_array_equal(m1.A, m2.A)

    def test_gamma_zero_equals_supervised(self):
        rng = np.random.default_rng(12)
        d = labeled_dataset(rng)
        ss = fit(d, LearnerSpec(base="dne", unlabel="heat", gamma=0.0, dim=2))
        sup = fit(d, LearnerSpec(base="dne", unlabel="none", gamma=0.0, dim=2))
        np.testing.assert_array_equal(ss.A, sup.A)
        np.testing.assert_array_equal(ss.eigenvalues, sup.eigenvalues)

    def test_rank_deficient_data_triggers_pca(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((2, 30))
        X = np.vstack([X, X[0] + X[1]])
        d = Dataset(X=X, labels=np.array([1 + i % 2 for i in range(30)]),
                    n_classes=2)
        model = fit(d, LearnerSpec(base="lfda", unlabel="none", gamma=0.0, dim=2))
        assert model.pre_pca is not None and model.pre_pca.shape == (3, 2)
        assert embed(model, d.X).shape == (2, 30)

    def test_singular_constraint_epsilon_fallback_warns(self):
        # few labeled points make the within-scatter singular at epsilon = 0
        rng = np.random.default_rng(14)
        X = rng.standard_normal((5, 30))
        labels = np.full(30, UNLABELED)
        labels[:4] = [1, 1, 2, 2]
        d = Dataset(X=X, labels=labels, n_classes=2)
        with pytest.warns(UserWarning, match="singular"):
            fit(d, LearnerSpec(base="lfda", unlabel="none", gamma=0.0, dim=2))

    def test_dim_exceeds_rank_errors(self):
        rng = np.random.default_rng(15)
        d = labeled_dataset(rng, d0=3)
        with pytest.raises(ValueError):
            fit(d, LearnerSpec(base="lfda", unlabel="none", gamma=0.0, dim=4))

    def test_needs_labels(self):
        d = Dataset(X=np.random.default_rng(16).standard_normal((2, 10)),
                    labels=np.full(10, UNLABELED), n_classes=2)
        with pytest.raises(ValueError):
            fit(d, LearnerSpec(base="dne", unlabel="none", gamma=0.0, dim=1))

    @pytest.mark.parametrize("field, value", [("dim", -1), ("dim", 0), ("k", 0)])
    def test_nonpositive_dim_or_k_rejected(self, field, value):
        # dim = -1 used to fit d0 - 1 axes, dim = 0 an empty model, and
        # mmc ignored k = 0
        d = labeled_dataset(np.random.default_rng(16))
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            fit(d, LearnerSpec(base="mmc", unlabel="none", gamma=0.0,
                               **{field: value}))

    @pytest.mark.parametrize("field, value, least", [
        ("alpha", 0, 1), ("alpha", -3, 1), ("epsilon", -1.0, 0)])
    def test_alpha_below_one_or_negative_epsilon_rejected(self, field, value, least):
        # alpha = -3 with self_pca fitted and was saved to the model file;
        # alpha = 0 failed only in the Hadamard power, epsilon = -1 only in
        # the solve
        with pytest.raises(ValueError, match=f"{field} must be >= {least}, got {value}"):
            LearnerSpec(base="lfda", unlabel="self_pca", **{field: value})

    def test_spec_has_no_kernel(self):
        # a kernel maps the inputs: it is given to kpca_trick_fit,
        # cross_validate or ExperimentConfig, never to the linear learner
        assert "kernel" not in {f.name for f in fields(LearnerSpec)}
        with pytest.raises(TypeError):
            LearnerSpec(kernel=None)


class TestClassWideBases:
    """FDA and MMC take their costs from the class labels alone."""

    @pytest.mark.parametrize("base", ["fda", "mmc", "lfda"])
    @pytest.mark.parametrize("unlabel", ["none", "self_pca"])
    def test_fit_builds_distances_and_graphs_only_for_lfda(self, monkeypatch,
                                                            base, unlabel):
        calls = []
        # every n x n gram is turned into distances by _dists_from_gram
        for module, name in ((ssdr.costs, "_dists_from_gram"),
                             (ssdr.solver, "_labeled_neighbor_graphs")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        d = labeled_dataset(np.random.default_rng(26), c=3)
        fit(d, LearnerSpec(base=base, unlabel=unlabel,
                           gamma=0.5 if unlabel == "self_pca" else 0.0))
        if base == "lfda":
            # the ranking takes the labeled block of the distances as its argument
            assert calls == ["_dists_from_gram", "_labeled_neighbor_graphs"]
        else:
            assert calls == []

    @pytest.mark.parametrize("names", [(1, 3), (2, 3)])
    def test_fda_fits_with_a_class_absent(self, names):
        # one of three classes has no labeled example; naming the classes
        # {1, 2} instead gives the same costs and the same A, and no 1/n_k
        # divides by zero, unlabeled examples included
        d = labeled_dataset(np.random.default_rng(27)).with_labels_hidden(np.arange(30))
        gap = Dataset(X=d.X, labels=np.select([d.labels == 1, d.labels == 2], names,
                                              UNLABELED), n_classes=3)
        spec = LearnerSpec(base="fda", unlabel="heat", gamma=0.5)
        with np.errstate(divide="raise", invalid="raise"):
            model = fit(gap, spec)
        np.testing.assert_array_equal(model.A, fit(d, spec).A)


class TestNeighborGraphArrays:
    """A fit takes its neighbor graphs as boolean labeled-block arrays."""

    @pytest.mark.parametrize("spec", [
        LearnerSpec(base="dne", unlabel="none", gamma=0.0),
        LearnerSpec(base="mfa", unlabel="none", gamma=0.0),
        LearnerSpec(base="lfda", unlabel="none", gamma=0.0),
        LearnerSpec(base="lfda", unlabel="heat", gamma=0.5),
    ], ids=["dne", "mfa", "lfda", "ss-lfda"])
    def test_fit_builds_no_sparse_matrix(self, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("a fit built a scipy.sparse matrix")
        for name in ("csr_matrix", "csc_matrix", "coo_matrix"):
            monkeypatch.setattr(scipy.sparse, name, refuse)
        d = labeled_dataset(np.random.default_rng(28), c=3).with_labels_hidden(np.arange(24))
        fit(d, spec)
        # the harness's fits: cross_validate sweeps through _scorer
        cross_validate(d, spec, ("gamma",), (0.5, 1.0), (1,), folds=2)


class TestPermutationAndTranslationInvariance:
    """Reordering the examples (with their labels) or shifting every input
    by one vector leaves the projection unchanged.  Continuous random data,
    so that no two distances tie and the neighbor graphs are unique."""

    SPECS = [LearnerSpec(base="lfda", unlabel="heat", gamma=0.5, alpha=2),
             LearnerSpec(base="mfa", unlabel="none", gamma=0.0),
             LearnerSpec(base="mmc", unlabel="self_pca", gamma=0.5)]

    @staticmethod
    def data(rng):
        labels = 1 + np.arange(60) % 3
        labels[rng.choice(60, 20, replace=False)] = UNLABELED
        return Dataset(X=rng.standard_normal((5, 60)), labels=labels, n_classes=3)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.base}-{s.unlabel}")
    def test_permuting_examples(self, spec):
        rng = np.random.default_rng(28)
        d = self.data(rng)
        perm = rng.permutation(d.n)
        permuted = Dataset(X=d.X[:, perm], labels=d.labels[perm], n_classes=3)
        np.testing.assert_allclose(fit(permuted, spec).A, fit(d, spec).A,
                                   rtol=0, atol=1e-8)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.base}-{s.unlabel}")
    def test_translating_inputs(self, spec):
        rng = np.random.default_rng(29)
        d = self.data(rng)
        shifted = Dataset(X=d.X + 3.0 * rng.standard_normal((5, 1)),
                          labels=d.labels, n_classes=3)
        np.testing.assert_allclose(fit(shifted, spec).A, fit(d, spec).A,
                                   rtol=0, atol=1e-8)


class TestEmbed:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.d = labeled_dataset(rng)
        self.model = fit(self.d, LearnerSpec(base="lfda", unlabel="heat",
                                             gamma=0.3, dim=2))

    def test_train_mean_maps_to_zero(self):
        np.testing.assert_allclose(embed(self.model, self.model.train_mean), 0,
                                   atol=1e-12)

    def test_batch_matches_single(self):
        Z = embed(self.model, self.d.X)
        for j in (0, 5, 17):
            np.testing.assert_allclose(Z[:, j], embed(self.model, self.d.X[:, j]))

    def test_distance_invariance_under_orthogonal_row_mix(self):
        rng = np.random.default_rng(18)
        Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        rotated = EmbeddingModel(A=Q @ self.model.A,
                                 eigenvalues=self.model.eigenvalues,
                                 train_mean=self.model.train_mean,
                                 pre_pca=self.model.pre_pca)
        z = embed(self.model, self.d.X)
        zr = embed(rotated, self.d.X)
        np.testing.assert_allclose(pairwise_sq_dists(zr), pairwise_sq_dists(z),
                                   rtol=1e-8, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed(self.model, np.zeros(7))

    def test_non_finite_input_rejected(self):
        X = self.d.X[:, :6].copy()
        X[2, 4] = np.nan
        with pytest.raises(ValueError, match="input column 4 has a non-finite"):
            embed(self.model, X)
        with pytest.raises(ValueError, match="input column 0 has a non-finite"):
            embed(self.model, np.full(self.d.d0, np.inf))


class TestObjectiveInvariances:
    def test_trace_ratio_invariant_under_nonsingular_transform(self):
        rng = np.random.default_rng(19)
        L = random_symmetric(rng, 5)
        B = random_pd(rng, 5)
        A, _ = solve_gev(L, B, 3)
        value = np.trace(np.linalg.solve(A @ B @ A.T, A @ L @ A.T))
        for _ in range(10):
            T = rng.standard_normal((3, 3))
            while abs(np.linalg.det(T)) < 1e-3:
                T = rng.standard_normal((3, 3))
            TA = T @ A
            v = np.trace(np.linalg.solve(TA @ B @ TA.T, TA @ L @ TA.T))
            assert v == pytest.approx(value, rel=1e-8)


class TestModelSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((2, 30))
        X = np.vstack([X, X[0]])  # force a pre-PCA basis
        d = Dataset(X=X, labels=np.array([1 + i % 2 for i in range(30)]),
                    n_classes=2)
        model = fit(d, LearnerSpec(base="lfda", unlabel="heat", gamma=0.4,
                                   alpha=2, dim=2, weighting_mode="T3_sqrt_lambda"))
        assert (np.linalg.norm(model.A, axis=1) > 0).all()
        save_model(model, tmp_path / "m.bin")
        back = load_model(tmp_path / "m.bin")
        np.testing.assert_array_equal(back.A, model.A)
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
        np.testing.assert_array_equal(back.train_mean, model.train_mean)
        np.testing.assert_array_equal(back.pre_pca, model.pre_pca)
        assert back.weighting_mode == model.weighting_mode
        assert back.gamma == model.gamma and back.alpha == model.alpha
        assert back.epsilon == model.epsilon
        np.testing.assert_array_equal(embed(back, d.X), embed(model, d.X))

    def test_payload_length_checked(self, tmp_path):
        d = labeled_dataset(np.random.default_rng(24))
        model = fit(d, LearnerSpec(base="lfda", unlabel="none", gamma=0.0, dim=2))
        save_model(model, tmp_path / "m.bin")
        data = (tmp_path / "m.bin").read_bytes()
        size = 8 * (model.input_dim + model.A.size + model.dim)
        for cut, found in ((data[:-5], size - 5), (data + b"\0" * 8, size + 8)):
            (tmp_path / "bad.bin").write_bytes(cut)
            with pytest.raises(ValueError, match=rf"bad\.bin: expected {size} "
                                                 rf"payload bytes .*found {found}"):
                load_model(tmp_path / "bad.bin")

    def test_short_header_names_file_and_sizes(self, tmp_path):
        d = labeled_dataset(np.random.default_rng(24))
        save_model(fit(d, LearnerSpec(base="lfda", unlabel="none", gamma=0.0, dim=2)),
                   tmp_path / "m.bin")
        (tmp_path / "bad.bin").write_bytes((tmp_path / "m.bin").read_bytes()[:30])
        with pytest.raises(ValueError, match=r"bad\.bin: expected 68 header bytes "
                                             r"after the magic, found 26"):
            load_model(tmp_path / "bad.bin")

    def test_unknown_weighting_mode_code_names_file_and_code(self, tmp_path):
        d = labeled_dataset(np.random.default_rng(24))
        save_model(fit(d, LearnerSpec(base="lfda", unlabel="none", gamma=0.0, dim=2)),
                   tmp_path / "m.bin")
        data = bytearray((tmp_path / "m.bin").read_bytes())
        data[32] = 9  # low byte of the mode code: magic, version, d0, dim, r before it
        (tmp_path / "bad.bin").write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"bad\.bin: unknown weighting mode code 9"):
            load_model(tmp_path / "bad.bin")

    @pytest.mark.parametrize("r", [0, 2])
    def test_column_count_disagreeing_with_header_names_file(self, tmp_path, r):
        # A's columns must be r (the PCA rank), or d0 = 4 without a basis
        model = EmbeddingModel(A=np.ones((2, 3)), eigenvalues=np.array([1.0, 2.0]),
                               train_mean=np.zeros(4),
                               pre_pca=np.eye(4)[:, :r] if r else None)
        save_model(model, tmp_path / "bad.bin")
        with pytest.raises(ValueError, match=rf"bad\.bin: A has 3 columns; expected "
                                             rf"{r or 4}"):
            load_model(tmp_path / "bad.bin")

    @pytest.mark.parametrize("field, value", [("epsilon", np.nan), ("epsilon", np.inf),
                                              ("gamma", np.nan),
                                              ("eigenvalues", np.array([np.nan, 1.0]))])
    def test_non_finite_scalars_name_file(self, tmp_path, field, value):
        model = fit(labeled_dataset(np.random.default_rng(24)),
                    LearnerSpec(base="lfda", unlabel="none", gamma=0.0, dim=2))
        save_model(replace(model, **{field: value}), tmp_path / "bad.bin")
        with pytest.raises(ValueError, match=rf"bad\.bin: .*{field}.* must be finite"):
            load_model(tmp_path / "bad.bin")

    @pytest.mark.parametrize("field", ["train_mean", "pre_pca", "A"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_arrays_name_file_and_array(self, tmp_path, field, value):
        # a NaN in A loaded, and embed then returned NaN for every point
        model = EmbeddingModel(A=np.ones((2, 3)), eigenvalues=np.array([1.0, 2.0]),
                               train_mean=np.zeros(4), pre_pca=np.eye(4)[:, :3])
        bad = getattr(model, field).copy()
        bad[-1, ...] = value
        save_model(replace(model, **{field: bad}), tmp_path / "bad.bin")
        with pytest.raises(ValueError, match=rf"bad\.bin: {field} must be finite"):
            load_model(tmp_path / "bad.bin")

    @pytest.mark.parametrize("d0, dim, r, a_cols, field, value, bound", [
        (4, 0, 0, 4, "dim", 0, "1 <= dim <= a_cols = 4"),
        (4, -2, 0, 4, "dim", -2, "1 <= dim <= a_cols = 4"),
        (4, 5, 0, 4, "dim", 5, "1 <= dim <= a_cols = 4"),
        (2, 1, 5, 5, "r", 5, "0 <= r <= d0 = 2"),
        (4, 1, -1, 4, "r", -1, "0 <= r <= d0 = 4"),
        (0, 1, 0, 0, "d0", 0, "1 <= d0"),
        (-2, 1, 0, 0, "d0", -2, "1 <= d0"),
    ], ids=["no axes", "negative dim", "more axes than columns", "basis rank above d0",
            "negative rank", "no inputs", "negative d0"])
    def test_impossible_counts_name_file_and_field(self, tmp_path, d0, dim, r, a_cols,
                                                   field, value, bound):
        # a model with dim = 0 loaded, and embed then returned []; negative
        # counts met only the payload length
        header = struct.pack("<IqqqqdqdQ", ssdr.solver._VERSION, d0, dim, r, 1, 0.0, 1,
                             0.0, a_cols)
        size = max(0, d0 + d0 * r + dim * a_cols + dim)
        (tmp_path / "bad.bin").write_bytes(ssdr.solver._MAGIC + header
                                           + np.ones(size).tobytes())
        with pytest.raises(ValueError, match=rf"bad\.bin: header field {field} = "
                                             rf"{value}; expected {bound}$"):
            load_model(tmp_path / "bad.bin")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="not a model file"):
            load_model(tmp_path / "junk.bin")


class TestToyEndToEnd:
    def test_two_cluster_ssl_beats_fda_single_split(self):
        from ssdr import KnnIndex, SplitSpec, knn_classify, split
        data = generate_multimodal_toy("two-cluster", 50, 0.5, 0)
        lab, unl, _ = split(data, SplitSpec(labeled=20, seed=0,
                                            per_class_labels=True), 0)
        train = data.with_labels_hidden(lab)

        def acc(spec):
            m = fit(train, spec)
            Z = embed(m, data.X)
            idx = KnnIndex(Z[:, lab], data.labels[lab], 1)
            return float((knn_classify(idx, Z[:, unl]) == data.labels[unl]).mean())

        ss = acc(LearnerSpec(base="lfda", unlabel="heat", gamma=1.0, dim=1))
        fda = acc(LearnerSpec(base="fda", unlabel="none", gamma=0.0, dim=1))
        assert ss >= 0.9 and fda <= 0.75
