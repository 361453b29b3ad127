import math
import subprocess
import sys

import numpy as np
import pytest

from ssdr import (Dataset, HeatKernelSpec, LearnerSpec, UNLABELED,
                  build_scatters, export_edge_list, fit,
                  hadamard_power, heat_kernel_costs, import_edge_list,
                  laplacian_scatter, lfda_costs, mmc_costs, neighbor_graphs,
                  pairwise_sq_dists, self_cost)
from ssdr.costs import _labeled_neighbor_graphs, _labeled_sq_dists


def unordered_cost_sum(c, Z):
    """Independent oracle: sum over i<j of c_ij * ||z_i - z_j||^2."""
    d2 = pairwise_sq_dists(Z)
    iu, ju = np.triu_indices(c.shape[0], k=1)
    return float((c[iu, ju] * d2[iu, ju]).sum())


def brute_force_graphs(X, labels, k):
    """Exhaustive re-derivation of the binary neighbor graphs."""
    n = X.shape[1]
    ci = np.zeros((n, n))
    ce = np.zeros((n, n))
    d = np.sqrt(pairwise_sq_dists(X))
    for i in range(n):
        if labels[i] == UNLABELED:
            continue
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        diff = [j for j in range(n)
                if labels[j] != UNLABELED and labels[j] != labels[i]]
        for j in sorted(same, key=lambda j: (d[i, j], j))[:k]:
            ci[i, j] = ci[j, i] = 1.0
        for j in sorted(diff, key=lambda j: (d[i, j], j))[:k]:
            ce[i, j] = ce[j, i] = 1.0
    return ci, ce


class TestNeighborGraphs:
    def test_all_unlabeled_zero(self):
        X = np.random.default_rng(0).standard_normal((2, 5))
        ci, ce = neighbor_graphs(X, np.full(5, UNLABELED), k=2)
        assert ci.sum() == 0 and ce.sum() == 0

    def test_two_same_class_points(self):
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        ci, ce = neighbor_graphs(X, np.array([1, 1]), k=1)
        np.testing.assert_array_equal(ci, [[0, 1], [1, 0]])
        assert ce.sum() == 0

    def test_line_matches_brute_force(self):
        X = np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], np.zeros(6)])
        labels = np.array([1, 2, 1, 2, 1, 2])
        ci, ce = neighbor_graphs(X, labels, k=2)
        bi, be = brute_force_graphs(X, labels, 2)
        np.testing.assert_array_equal(ci, bi)
        np.testing.assert_array_equal(ce, be)

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3, 15))
        labels = rng.integers(1, 4, 15)
        labels[rng.choice(15, 4, replace=False)] = UNLABELED
        ci, ce = neighbor_graphs(X, labels, k=3)
        bi, be = brute_force_graphs(X, labels, 3)
        np.testing.assert_array_equal(ci, bi)
        np.testing.assert_array_equal(ce, be)

    def test_distance_ties_match_brute_force(self):
        # an integer grid: many exactly equal distances, ties to the smaller index
        rng = np.random.default_rng(19)
        X = rng.integers(0, 3, (2, 60)).astype(float)
        labels = rng.integers(1, 3, 60)
        labels[rng.choice(60, 10, replace=False)] = UNLABELED
        ci, ce = neighbor_graphs(X, labels, k=3)
        bi, be = brute_force_graphs(X, labels, 3)
        assert ci.dtype == ce.dtype == bool and ci.shape == ce.shape == (60, 60)
        np.testing.assert_array_equal(ci, bi)
        np.testing.assert_array_equal(ce, be)
        # the fit's graphs: boolean arrays over the labeled block
        lab = labels != UNLABELED
        d2 = _labeled_sq_dists(X, np.flatnonzero(lab))
        for g, b in zip(_labeled_neighbor_graphs(d2, labels[lab], 3), (bi, be)):
            assert g.dtype == bool
            np.testing.assert_array_equal(g, b[np.ix_(lab, lab)])

    def test_unlabeled_rows_zero_and_symmetry(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((2, 10))
        labels = np.array([1, 2, UNLABELED, 1, 2, UNLABELED, 1, 2, 1, 2])
        ci, ce = neighbor_graphs(X, labels, k=2)
        for m in (ci, ce):
            assert (m == m.T).all()
            assert (m[2] == 0).all() and (m[:, 5] == 0).all()
            assert (np.diag(m) == 0).all()

    def test_k_validation(self):
        with pytest.raises(ValueError):
            neighbor_graphs(np.zeros((2, 3)), np.array([1, 1, 2]), k=0)


def label_scatters(X, labels, base, k=2, gamma_prime=1.0):
    """(L_l, B) of a supervised learner from solver.build_scatters."""
    spec = LearnerSpec(base=base, unlabel="none", gamma=0.0, k=k,
                       gamma_prime=gamma_prime)
    L_l, _, B = build_scatters(X, labels, spec)
    return L_l, B


class TestDneMfa:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.X = rng.standard_normal((3, 8))
        self.labels = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        self.ci, self.ce = neighbor_graphs(self.X, self.labels, k=2)
        self.A = np.random.default_rng(6).standard_normal((2, 3))

    def test_dne_ce_zero(self):
        labels = np.ones(8, dtype=int)  # one class: C^E is empty
        ci, ce = neighbor_graphs(self.X, labels, k=2)
        assert ce.sum() == 0
        L_l, B = label_scatters(self.X, labels, "dne")
        np.testing.assert_allclose(L_l, laplacian_scatter(self.X, ci), rtol=1e-12)
        np.testing.assert_array_equal(B, np.eye(3))

    def test_dne_entries_match_manual_subtraction(self):
        L_l, _ = label_scatters(self.X, self.labels, "dne")
        cl = np.subtract(self.ci, self.ce, dtype=float)
        assert set(np.unique(cl)) <= {-1.0, 0.0, 1.0}
        oracle = unordered_cost_sum(cl, self.A @ self.X)
        assert np.trace(self.A @ L_l @ self.A.T) == pytest.approx(oracle, rel=1e-10)

    def test_mfa_label_cost_and_constraint(self):
        L_l, B = label_scatters(self.X, self.labels, "mfa")
        oracle = unordered_cost_sum(np.subtract(0, self.ce, dtype=float), self.A @ self.X)
        assert np.trace(self.A @ L_l @ self.A.T) == pytest.approx(oracle, rel=1e-10)
        oracle = unordered_cost_sum(self.ci, self.A @ self.X)
        assert np.trace(self.A @ B @ self.A.T) == pytest.approx(oracle, rel=1e-10)

    def test_mfa_degenerate_intra(self):
        labels = np.full(8, UNLABELED)
        labels[:2] = [1, 2]  # one labeled point per class: C^I is empty
        _, B = label_scatters(self.X, labels, "mfa")
        assert np.allclose(B, 0)


class TestLfdaCosts:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.X = rng.standard_normal((2, 6))
        self.labels = np.array([1, 1, 1, 2, 2, 2])
        self.counts = np.array([3, 3])
        self.ci, _ = neighbor_graphs(self.X, self.labels, k=2)

    def test_same_class_non_neighbor_zero(self):
        cbet, _ = lfda_costs(self.ci, self.labels, self.counts)
        ci_d = self.ci
        same = self.labels[:, None] == self.labels[None, :]
        assert (cbet[same & (ci_d == 0)] == 0).all()

    def test_different_class_minus_one_over_n(self):
        cbet, _ = lfda_costs(self.ci, self.labels, self.counts)
        diff = self.labels[:, None] != self.labels[None, :]
        assert (cbet[diff] == -1.0 / 6).all()

    def test_within_trace_identity(self):
        _, B = label_scatters(self.X, self.labels, "lfda")
        A = np.random.default_rng(8).standard_normal((2, 2))
        cw = self.ci / 3.0
        oracle = unordered_cost_sum(cw, A @ self.X)
        assert np.trace(A @ B @ A.T) == pytest.approx(oracle, rel=1e-10)

    def test_unlabeled_pairs_zero(self):
        labels = np.array([1, 1, UNLABELED, 2, 2, UNLABELED])
        ci, _ = neighbor_graphs(self.X, labels, k=1)
        cbet, cwit = lfda_costs(ci, labels, np.array([2, 2]))
        for m in (cbet, cwit):
            assert (m[2] == 0).all() and (m[:, 5] == 0).all()

    def test_every_same_class_pair_a_neighbor_gives_mmc_costs(self):
        # FDA: LFDA whose graph joins every labeled same-class pair has
        # exactly the class-wide costs of MMC, entry for entry
        rng = np.random.default_rng(11)
        labels = rng.integers(1, 4, 30)
        labels[rng.choice(30, 9, replace=False)] = UNLABELED
        counts = np.bincount(labels[labels != UNLABELED])[1:]
        lab = labels != UNLABELED
        ci = (lab[:, None] & (labels[:, None] == labels[None, :])).astype(float)
        np.fill_diagonal(ci, 0.0)
        for got, want in zip(lfda_costs(ci, labels, counts), mmc_costs(labels, counts)):
            assert np.array_equal(got, want)


class TestMmcCosts:
    def test_gamma_zero_different_class(self):
        # C^l = -C^b: c_01 = 1/2 between the two singleton classes
        X = np.random.default_rng(8).standard_normal((3, 2))
        L_l, _ = label_scatters(X, np.array([1, 2]), "mmc", gamma_prime=0.0)
        dx = X[:, 0] - X[:, 1]
        np.testing.assert_allclose(L_l, 0.5 * np.outer(dx, dx), rtol=1e-12)

    def test_single_class_gamma_one(self):
        # C^l = C^w - C^b = 1/3 off the diagonal: the within-class scatter
        X = np.random.default_rng(8).standard_normal((3, 3))
        L_l, _ = label_scatters(X, np.array([1, 1, 1]), "mmc", gamma_prime=1.0)
        D = X - X.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(L_l, D @ D.T, rtol=1e-12)

    def test_within_scatter_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((4, 12))
        labels = rng.integers(1, 4, 12)
        while len(set(labels)) < 3:
            labels = rng.integers(1, 4, 12)
        counts = np.bincount(labels, minlength=4)[1:]
        _, cw = mmc_costs(labels, counts)
        A = rng.standard_normal((2, 4))
        Sw = np.zeros((4, 4))
        for k in (1, 2, 3):
            Xk = X[:, labels == k]
            D = Xk - Xk.mean(axis=1, keepdims=True)
            Sw += D @ D.T
        assert np.trace(A @ Sw @ A.T) == pytest.approx(
            unordered_cost_sum(cw, A @ X), rel=1e-10)

    def test_unlabeled_rows_zero(self):
        labels = np.array([1, UNLABELED, 2, 1])
        cb, cw = mmc_costs(labels, np.array([2, 1]))
        for m in (cb, cw):
            assert (m[1] == 0).all() and (m[:, 1] == 0).all()

    def test_zero_class_count_allowed(self):
        # a class with no labeled example has no pairs: the costs are those
        # of the classes that are present
        with np.errstate(divide="raise"):
            costs = mmc_costs(np.array([1, 1]), np.array([2, 0]))
        for got, want in zip(costs, mmc_costs(np.array([1, 1]), np.array([2]))):
            np.testing.assert_array_equal(got, want)

    def test_class_without_labels_fits(self):
        # labels {1, 3} of three classes fit as labels {1, 2} do
        rng = np.random.default_rng(15)
        X = rng.standard_normal((3, 30))
        labels = np.where(np.arange(30) < 20, 1 + np.arange(30) % 2, UNLABELED)
        spec = LearnerSpec(base="mmc", gamma_prime=0.3)
        with np.errstate(divide="raise"):
            m13 = fit(Dataset(X, np.where(labels == 2, 3, labels), 3), spec)
        m12 = fit(Dataset(X, labels, 3), spec)
        np.testing.assert_array_equal(m13.A, m12.A)

    def test_negative_gamma_prime_errors(self):
        with pytest.raises(ValueError, match="gamma_prime"):
            LearnerSpec(base="mmc", unlabel="none", gamma=0.0, gamma_prime=-1.0)


class TestHeatKernel:
    def test_duplicates_global(self):
        X = np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        cu = heat_kernel_costs(X, HeatKernelSpec("global", sigma=1.0))
        assert cu[0, 1] == pytest.approx(1.0)

    def test_distance_equal_sigma(self):
        X = np.array([[0.0, 2.0]])
        cu = heat_kernel_costs(X, HeatKernelSpec("global", sigma=2.0))
        assert cu[0, 1] == pytest.approx(np.exp(-1.0))

    def test_local_line_brute_force(self):
        x = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
        X = x[None, :]
        cu = heat_kernel_costs(X, HeatKernelSpec("local", k=1))
        # sigma_i = distance to the nearest other point
        sigma = np.array([1.0, 1.0, 2.0, 3.0, 4.0])
        expect = np.exp(-np.subtract.outer(x, x) ** 2 / np.outer(sigma, sigma))
        np.fill_diagonal(expect, 0.0)
        np.testing.assert_allclose(cu, expect, rtol=1e-12)

    def test_local_duplicate_clamp(self):
        X = np.array([[0.0, 0.0, 5.0]])
        cu = heat_kernel_costs(X, HeatKernelSpec("local", k=1))
        assert np.isfinite(cu).all()
        assert cu[0, 1] == pytest.approx(1.0)  # zero distance, any scale

    def test_symmetry_zero_diagonal_nonnegative(self):
        X = np.random.default_rng(10).standard_normal((3, 12))
        for spec in (HeatKernelSpec("global", sigma=0.7),
                     HeatKernelSpec("local", k=3)):
            cu = heat_kernel_costs(X, spec)
            assert (cu == cu.T).all()
            assert (np.diag(cu) == 0).all()
            assert (cu >= 0).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HeatKernelSpec("global", sigma=0.0)
        with pytest.raises(ValueError):
            HeatKernelSpec("local", k=0)
        with pytest.raises(ValueError):
            HeatKernelSpec("chi-square")


class TestSelfCost:
    def test_n2_entries(self):
        np.testing.assert_allclose(self_cost(2), -0.25)

    def test_centered_equals_negative_pca_objective(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((4, 15))
        X -= X.mean(axis=1, keepdims=True)
        A = rng.standard_normal((2, 4))
        Z = A @ X
        cu = self_cost(15)
        ordered = float((cu * pairwise_sq_dists(Z)).sum())
        assert ordered == pytest.approx(-np.sum(Z**2), rel=1e-10)

    def test_uncentered_gap_is_mean_term(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((4, 15)) + 3.0
        A = rng.standard_normal((2, 4))
        Z = A @ X
        cu = self_cost(15)
        ordered = float((cu * pairwise_sq_dists(Z)).sum())
        gap = ordered - (-np.sum(Z**2))
        assert gap == pytest.approx(np.sum(Z.sum(axis=1) ** 2) / 15, rel=1e-8)


class TestHadamardPower:
    def test_alpha_one_identity(self):
        cu = np.array([[0.0, 0.5], [0.5, 0.0]])
        np.testing.assert_array_equal(hadamard_power(cu, 1), cu)

    def test_hand_example(self):
        cu = np.array([[0.0, 0.9], [0.9, 0.1]])
        out = hadamard_power(cu, 2)
        p = np.array([[0.0, 0.81], [0.81, 0.01]])
        scale = np.sqrt(2 * 0.81 + 0.01) / np.sqrt(2 * 0.6561 + 0.0001)
        np.testing.assert_allclose(out, p * scale, rtol=1e-12)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = rng.random((6, 6))
            m = 0.5 * (m + m.T)
            cu = m
            for alpha in (1, 2, 3, 5):
                out = hadamard_power(cu, alpha)
                assert np.linalg.norm(out) == pytest.approx(
                    np.linalg.norm(m), rel=1e-12)
                assert (out == out.T).all() and (out >= 0).all()

    def test_rank_order_preserved(self):
        rng = np.random.default_rng(14)
        m = rng.random((5, 5))
        m = 0.5 * (m + m.T)
        out = hadamard_power(m, 3)
        iu, ju = np.triu_indices(5, 1)
        assert (np.argsort(m[iu, ju]) == np.argsort(out[iu, ju])).all()

    @pytest.mark.parametrize("alpha", range(2, 9))
    def test_matches_power_formula(self, alpha):
        # repeated squaring rounds differently from e**alpha, in the last place
        m = np.random.default_rng(alpha).random((40, 40))
        m = 0.5 * (m + m.T)
        want = m**alpha * (np.linalg.norm(m) / np.linalg.norm(m**alpha))
        np.testing.assert_allclose(hadamard_power(m, alpha), want,
                                   rtol=2e-15, atol=0)

    def test_validation(self):
        cu = np.ones((2, 2))
        with pytest.raises(ValueError):
            hadamard_power(cu, 0)
        with pytest.raises(ValueError):
            hadamard_power(np.zeros((2, 2)), 2)

    @staticmethod
    def scaled_norm(m):
        s = np.abs(m).max()
        return s * np.linalg.norm(m / s)

    @pytest.mark.parametrize("seed, alpha", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)])
    def test_tiny_entries_keep_their_norm(self, seed, alpha):
        # a small global sigma leaves only tiny positive heat costs: for seed 0
        # the largest is 2.2e-226, so np.linalg.norm reads 0; for seed 1 the
        # norm is 1.5e-83 but that of the power underflows
        X = np.random.default_rng(seed).standard_normal((3, 5))
        e = heat_kernel_costs(X, HeatKernelSpec("global", sigma=0.05))
        assert 0.0 < e.max() < 1e-80
        out = hadamard_power(e, alpha)
        assert np.isfinite(out).all() and out.max() > 0.0
        assert self.scaled_norm(out) == pytest.approx(self.scaled_norm(e), rel=1e-12)
        assert out.argmax() == e.argmax() and (out >= 0).all()


    @pytest.mark.parametrize("scale", [1e30, 1e40])
    def test_huge_entries_keep_their_norm(self, scale):
        # unscaled, the 8th power of entries near 1e40 overflows (NaN after
        # the rescaling), and near 1e30 the power's norm does (all zeros)
        m = np.random.default_rng(17).random((3, 3))
        e = scale * (0.5 + 0.5 * (m + m.T))
        out = hadamard_power(e, 8)
        assert np.isfinite(out).all()
        assert self.scaled_norm(out) == pytest.approx(self.scaled_norm(e), rel=1e-12)
        assert out.argmax() == e.argmax()


class TestTraceIdentity:
    def test_random_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            d0 = int(rng.integers(1, 9))
            X = rng.standard_normal((d0, n))
            C = rng.standard_normal((n, n))
            C = 0.5 * (C + C.T)
            np.fill_diagonal(C, 0.0)
            A = rng.standard_normal((min(3, d0), d0))
            L = laplacian_scatter(X, C)
            lhs = float((C * pairwise_sq_dists(A @ X)).sum())  # ordered sum
            rhs = 2.0 * np.trace(A @ L @ A.T)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


class TestEdgeListExport:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((2, 8))
        cu = heat_kernel_costs(X, HeatKernelSpec("global", sigma=1.0))
        export_edge_list(cu, 0.3, tmp_path / "e.tsv")
        back = import_edge_list(tmp_path / "e.tsv", 8)
        expect = np.where(cu > 0.3, cu, 0.0)
        np.testing.assert_array_equal(back, expect)

    @pytest.mark.parametrize("body,message", [
        ("i\tj\tc_ij\n-1\t2\t0.5\n", r"line 2: index pair \(-1, 2\) outside 0\.\.3"),
        ("i\tj\tc_ij\n0\t4\t0.5\n", r"line 2: index pair \(0, 4\) outside 0\.\.3"),
        ("i\tj\tc_ij\n0\t1\t0.5\n1\t2\tnan\n", r"line 3: non-finite cost nan"),
        ("i\tj\tc_ij\n0\t1\n", r"line 2: expected 3 tab-separated fields, got 2"),
        ("i\tj\tc_ij\n0\tx\t0.5\n", r"line 2: invalid literal"),
        ("", r"line 1: expected the header"),
        ("i,j,c_ij\n0\t1\t0.5\n", r"line 1: expected the header"),
        ("i\tj\tc_ij\n0\t1\t0.5\n2\t2\t0.5\n", r"line 3: diagonal pair \(2, 2\)"),
        ("i\tj\tc_ij\n0\t1\t0.5\n0\t1\t0.7\n", r"line 3: pair \(0, 1\) repeats line 2"),
        ("i\tj\tc_ij\n0\t1\t0.5\n1\t2\t0.5\n1\t0\t0.7\n",
         r"line 4: pair \(1, 0\) repeats line 2"),
    ], ids=["negative index", "index past n", "nan", "field count", "not an integer",
            "empty file", "wrong header", "diagonal", "repeated pair", "reversed pair"])
    def test_malformed_edge_list_names_file_and_line(self, tmp_path, body, message):
        (tmp_path / "bad.tsv").write_text(body)
        with pytest.raises(ValueError, match=r"bad\.tsv: " + message):
            import_edge_list(tmp_path / "bad.tsv", 4)

    def test_threshold_above_max(self, tmp_path):
        cu = np.full((3, 3), 0.1) - 0.1 * np.eye(3)
        export_edge_list(cu, 5.0, tmp_path / "e.tsv")
        assert (tmp_path / "e.tsv").read_text() == "i\tj\tc_ij\n"

    @pytest.mark.parametrize("threshold", [-0.1, math.nan, math.inf])
    def test_threshold_out_of_range_rejected(self, tmp_path, threshold):
        cu = np.full((3, 3), 0.1) - 0.1 * np.eye(3)
        with pytest.raises(ValueError, match="threshold must be non-negative and finite"):
            export_edge_list(cu, threshold, tmp_path / "e.tsv")
        assert not (tmp_path / "e.tsv").exists()

    def test_threshold_zero_dense_count(self, tmp_path):
        X = np.random.default_rng(18).standard_normal((2, 7))
        cu = heat_kernel_costs(X, HeatKernelSpec("global", sigma=1.0))
        export_edge_list(cu, 0.0, tmp_path / "e.tsv")
        lines = (tmp_path / "e.tsv").read_text().strip().split("\n")
        assert len(lines) - 1 == 7 * 6 // 2


class TestPlainArrays:
    """Every cost is a plain ndarray; no scipy.sparse matrix is involved."""

    def test_import_loads_no_sparse_module(self):
        code = "import sys, ssdr; print('scipy.sparse' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.strip()
        assert out == "False"

    def test_every_builder_returns_an_ndarray(self, tmp_path):
        X = np.random.default_rng(20).standard_normal((2, 9))
        labels = np.array([1, 2, 1, 2, 1, 2, UNLABELED, UNLABELED, 1])
        counts = np.array([4, 3])
        cu = heat_kernel_costs(X, HeatKernelSpec("global", sigma=1.0))
        export_edge_list(cu, 0.2, tmp_path / "e.tsv")
        ci, ce = neighbor_graphs(X, labels, k=2)
        built = {"heat_kernel_costs": (cu,), "self_cost": (self_cost(9),),
                 "hadamard_power": (hadamard_power(cu, 2),),
                 "import_edge_list": (import_edge_list(tmp_path / "e.tsv", 9),),
                 "neighbor_graphs": (ci, ce),
                 "lfda_costs": lfda_costs(ci, labels, counts),
                 "mmc_costs": mmc_costs(labels, counts)}
        for name, out in built.items():
            assert isinstance(out, tuple) and len(out) in (1, 2), name
            for c in out:
                assert type(c) is np.ndarray and c.shape == (9, 9), name
