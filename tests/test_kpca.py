import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import ssdr.kpca
from ssdr import (Dataset, KernelSpec, KnnIndex, LearnerSpec, SplitSpec, UNLABELED,
                  center, embed, fit, generate_balance, gram, kernel_values,
                  knn_classify, kpca_embed, kpca_fit, kpca_transform,
                  kpca_trick_fit, load_kpca, numerical_rank, pairwise_sq_dists,
                  save_kpca, split)
from ssdr.kpca import _kpca_inputs

KERNELS = (KernelSpec("linear"), KernelSpec("polynomial", degree=2),
           KernelSpec("gaussian", sigma=1.3))


def centered(K):
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    return H @ K @ H


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelSpec("gaussian", sigma=0.0)


class TestGram:
    def test_linear_orthonormal_columns(self):
        np.testing.assert_allclose(gram(np.eye(3), KernelSpec("linear")),
                                   np.eye(3), atol=1e-12)

    def test_polynomial_orthogonal_pair(self):
        X = np.array([[1.0, 1.0], [1.0, -1.0]])
        K = gram(X, KernelSpec("polynomial", degree=2))
        assert K[0, 1] == pytest.approx(0.0)
        assert K[0, 0] == pytest.approx(4.0)

    def test_gaussian_unit_diagonal(self):
        X = np.random.default_rng(0).standard_normal((4, 6))
        K = gram(X, KernelSpec("gaussian", sigma=0.8))
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(1)
        for kernel in KERNELS:
            X = rng.standard_normal((3, 12))
            K = gram(X, kernel)
            assert (K == K.T).all()
            lam = scipy.linalg.eigh(K, eigvals_only=True)
            assert lam[0] >= -1e-10 * max(lam[-1], 1.0)


class TestKpcaFit:
    def test_linear_kernel_preserves_distances(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 10))
        X -= X.mean(axis=1, keepdims=True)
        kmap = kpca_fit(X, KernelSpec("linear"))
        phi = kmap.train_coords()
        np.testing.assert_allclose(pairwise_sq_dists(phi), pairwise_sq_dists(X),
                                   rtol=1e-8, atol=1e-10)

    def test_inner_products_match_centered_gram(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            kernel = KERNELS[trial % 3]
            n = int(rng.integers(3, 31))
            X = rng.standard_normal((int(rng.integers(2, 6)), n))
            kmap = kpca_fit(X, kernel)
            phi = kmap.train_coords()
            Kc = centered(gram(X, kernel))
            np.testing.assert_allclose(phi.T @ phi, Kc, atol=1e-8)

    def test_feature_distances_match_uncentered_gram(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 12))
        for kernel in KERNELS:
            kmap = kpca_fit(X, kernel)
            phi = kmap.train_coords()
            K = gram(X, kernel)
            expect = np.diag(K)[:, None] + np.diag(K)[None, :] - 2 * K
            np.testing.assert_allclose(pairwise_sq_dists(phi), expect,
                                       rtol=1e-8, atol=1e-8)

    def test_duplicates_get_identical_coordinates(self):
        X = np.array([[0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 0.0, 3.0]])
        kmap = kpca_fit(X, KernelSpec("gaussian", sigma=1.0))
        phi = kmap.train_coords()
        np.testing.assert_allclose(phi[:, 0], phi[:, 1], atol=1e-10)

    def test_degenerate_kernel_errors(self):
        X = np.ones((2, 4))  # all identical points: centered Gram is zero
        with pytest.raises(ValueError, match="degenerate"):
            kpca_fit(X, KernelSpec("linear"))

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_centered_coordinates_have_full_row_rank(self, kernel):
        # the harness fits on them with no rank SVD
        rng = np.random.default_rng(6)
        base = rng.standard_normal((2, 16))
        balance = generate_balance().X[:, ::9]        # integer grid, with ties
        for X in (rng.standard_normal((3, 20)),
                  np.vstack([base, base[0] - 2 * base[1]]),    # rank-deficient rows
                  np.hstack([base, base[:, :6]]),              # duplicate points
                  balance):
            kmap = kpca_fit(X, kernel)
            coords = Dataset(X=kmap.train_coords(), n_classes=1,
                             labels=np.full(X.shape[1], UNLABELED))
            assert numerical_rank(center(coords)[0].X) == kmap.out_dim

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_inputs_are_the_centered_coordinates(self, kernel):
        X = np.random.default_rng(7).standard_normal((3, 20))
        kmap, (Xp, mean, basis) = _kpca_inputs(X, kernel)
        coords = Dataset(X=kmap.train_coords(), n_classes=1,
                         labels=np.full(X.shape[1], UNLABELED))
        want, want_mean = center(coords)
        np.testing.assert_array_equal(Xp, want.X)
        np.testing.assert_array_equal(mean, want_mean)
        assert basis is None

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_centered_in_place_bit_for_bit(self, kernel):
        X = generate_balance().X[:, ::5]
        K = gram(X, kernel)
        col_means, grand = K.mean(axis=1), float(K.mean())
        lam, V = scipy.linalg.eigh(K - col_means[:, None] - col_means[None, :] + grand)
        kmap = kpca_fit(X, kernel)
        np.testing.assert_array_equal(kmap.col_means, col_means)
        np.testing.assert_array_equal(kmap.eigenvalues, lam[::-1][:kmap.out_dim])
        np.testing.assert_array_equal(kmap.eigenvectors, V[:, ::-1][:, :kmap.out_dim])

    def test_peak_memory(self):
        # the Gram matrix is centered in place and handed to eigh: it and the
        # eigenvectors, past the kernel values' own temporaries; a centered
        # copy beside the Gram matrix peaked at 4.07 n^2
        X = generate_balance().X
        n = X.shape[1]
        tracemalloc.start()
        try:
            kpca_fit(X, KernelSpec("gaussian", sigma=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * 8 * n * n

    def test_out_dim_bounded_by_n_minus_one(self):
        X = np.random.default_rng(5).standard_normal((6, 3))
        for kernel in KERNELS:
            assert kpca_fit(X, kernel).out_dim <= 2


class TestKpcaTransform:
    def test_training_points_reproduced(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 9))
        for kernel in KERNELS:
            kmap = kpca_fit(X, kernel)
            np.testing.assert_allclose(kpca_transform(kmap, X),
                                       kmap.train_coords(), atol=1e-8)

    def test_new_point_inner_products(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 10))
        x_new = rng.standard_normal(3)
        for kernel in KERNELS:
            kmap = kpca_fit(X, kernel)
            phi = kmap.train_coords()
            phi_new = kpca_transform(kmap, x_new)
            kv = kernel_values(kernel, X, x_new[:, None])[:, 0]
            K = gram(X, kernel)
            kc = kv - K.mean(axis=1) - kv.mean() + K.mean()
            # centered inner products, exact on the retained span
            np.testing.assert_allclose(phi.T @ phi_new, kc, atol=1e-8)

    def test_linear_kernel_is_affine(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 8))
        kmap = kpca_fit(X, KernelSpec("linear"))
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        f = lambda x: kpca_transform(kmap, x)
        lhs = f(0.3 * u + 0.7 * v)
        rhs = 0.3 * f(u) + 0.7 * f(v)  # affine map with weights summing to 1
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_dimension_mismatch(self):
        kmap = kpca_fit(np.random.default_rng(9).standard_normal((3, 5)),
                        KernelSpec("linear"))
        with pytest.raises(ValueError):
            kpca_transform(kmap, np.zeros(4))

    def test_non_finite_input_rejected(self):
        rng = np.random.default_rng(10)
        data = Dataset(X=rng.standard_normal((3, 12)),
                       labels=np.array([1, 2] * 6), n_classes=2)
        # lfda's constraint on 12 KPCA coordinates is singular at epsilon 0
        with pytest.warns(UserWarning, match="falling back to epsilon"):
            kmap, model = kpca_trick_fit(data, KernelSpec("gaussian"),
                                         LearnerSpec(base="lfda", unlabel="none",
                                                     gamma=0.0, dim=1))
        X = rng.standard_normal((3, 4))
        X[0, 2] = -np.inf
        for f in (lambda x: kpca_transform(kmap, x), lambda x: kpca_embed(kmap, model, x)):
            with pytest.raises(ValueError, match="input column 2 has a non-finite"):
                f(X)


class TestKpcaTrick:
    def test_linear_kernel_matches_linear_pipeline(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 40))
        labels = np.array([1 + i % 2 for i in range(40)])
        data = Dataset(X=X, labels=labels, n_classes=2)
        spec = LearnerSpec(base="lfda", unlabel="heat", gamma=0.5, dim=2)
        for r in range(3):
            lab, unl, _ = split(data, SplitSpec(labeled=10, seed=3,
                                                realizations=3), r)
            train = data.with_labels_hidden(lab)
            lin = fit(train, spec)
            Zl = embed(lin, data.X)
            kmap, km = kpca_trick_fit(train, KernelSpec("linear"), spec)
            Zk = kpca_embed(kmap, km, data.X)
            pl = knn_classify(KnnIndex(Zl[:, lab], data.labels[lab], 1), Zl[:, unl])
            pk = knn_classify(KnnIndex(Zk[:, lab], data.labels[lab], 1), Zk[:, unl])
            np.testing.assert_array_equal(pl, pk)

    def test_three_point_out_dim_bound(self):
        data = Dataset(X=np.array([[0.0, 1.0, 4.0], [0.0, 2.0, 1.0]]),
                       labels=np.array([1, 2, 1]), n_classes=2)
        for kernel in KERNELS:
            kmap, model = kpca_trick_fit(
                data, kernel, LearnerSpec(base="dne", unlabel="none",
                                          gamma=0.0, dim=2, k=1))
            assert kmap.out_dim <= 2
            assert model.dim <= kmap.out_dim

    @pytest.mark.parametrize("spec", [
        LearnerSpec(base="lfda", unlabel="heat", gamma=0.5, dim=2),
        LearnerSpec(base="mmc", unlabel="none", gamma=0.0, dim=2),
    ], ids=["ss-lfda", "mmc"])
    @pytest.mark.parametrize("kernel", KERNELS[1:], ids=["poly2", "gaussian"])
    def test_no_rank_svd_on_the_coordinates(self, monkeypatch, kernel, spec):
        # the coordinates have full row rank by construction; the model is
        # bit for bit that of fit on the dataset of coordinates
        rng = np.random.default_rng(21)
        labels = np.where(np.arange(60) < 30, 1 + np.arange(60) % 2, UNLABELED)
        data = Dataset(X=rng.standard_normal((3, 60)), labels=labels, n_classes=2)
        svd = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda X, *a, **kw: svd.append(X.shape) or original(X, *a, **kw))
        kmap, model = kpca_trick_fit(data, kernel, spec)
        assert svd == []
        monkeypatch.undo()
        mapped = Dataset(X=kmap.train_coords(), labels=labels, n_classes=2)
        want = fit(mapped, replace(spec, dim=min(spec.dim, kmap.out_dim)))
        assert model.pre_pca is None and want.pre_pca is None
        for got, ref in ((model.A, want.A), (model.train_mean, want.train_mean),
                         (model.eigenvalues, want.eigenvalues)):
            np.testing.assert_array_equal(got, ref)

    def test_quadratic_kernel_beats_linear_on_balance(self):
        data = generate_balance()
        sp = SplitSpec(labeled=100, seed=0, realizations=10)
        spec = LearnerSpec(base="lfda", unlabel="heat", gamma=0.001, dim=4)
        lin_acc, ker_acc = [], []
        for r in range(10):
            lab, unl, _ = split(data, sp, r)
            train = data.with_labels_hidden(lab)
            lin = fit(train, spec)
            Zl = embed(lin, data.X)
            kmap, km = kpca_trick_fit(train, KernelSpec("polynomial", 2), spec)
            Zk = kpca_embed(kmap, km, data.X)
            for Z, acc in ((Zl, lin_acc), (Zk, ker_acc)):
                idx = KnnIndex(Z[:, lab], data.labels[lab], 1)
                acc.append(float((knn_classify(idx, Z[:, unl])
                                  == data.labels[unl]).mean()))
        assert np.mean(ker_acc) > np.mean(lin_acc)


class TestKpcaSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((3, 8))
        for kernel in KERNELS:
            kmap = kpca_fit(X, kernel)
            save_kpca(kmap, tmp_path / "k.bin")
            back = load_kpca(tmp_path / "k.bin")
            assert back.kernel == kmap.kernel
            np.testing.assert_array_equal(back.train_inputs, kmap.train_inputs)
            np.testing.assert_array_equal(back.eigenvalues, kmap.eigenvalues)
            x = rng.standard_normal(3)
            # memory layout of the reloaded arrays may change BLAS summation
            # order, so equality is only up to round-off
            np.testing.assert_allclose(kpca_transform(back, x),
                                       kpca_transform(kmap, x), rtol=1e-12)

    def test_payload_length_checked(self, tmp_path):
        kmap = kpca_fit(np.random.default_rng(12).standard_normal((3, 8)),
                        KernelSpec("gaussian"))
        save_kpca(kmap, tmp_path / "k.bin")
        data = (tmp_path / "k.bin").read_bytes()
        n, r = kmap.n_train, kmap.out_dim
        size = 8 * (kmap.train_inputs.size + n + r + n * r)
        for cut, found in ((data[:-5], size - 5), (data + b"\0" * 8, size + 8)):
            (tmp_path / "bad.bin").write_bytes(cut)
            with pytest.raises(ValueError, match=rf"bad\.bin: expected {size} "
                                                 rf"payload bytes .*found {found}"):
                load_kpca(tmp_path / "bad.bin")

    def test_short_header_names_file_and_sizes(self, tmp_path):
        kmap = kpca_fit(np.random.default_rng(12).standard_normal((3, 8)),
                        KernelSpec("gaussian"))
        save_kpca(kmap, tmp_path / "k.bin")
        (tmp_path / "bad.bin").write_bytes((tmp_path / "k.bin").read_bytes()[:10])
        with pytest.raises(ValueError, match=r"bad\.bin: expected 60 header bytes "
                                             r"after the magic, found 6"):
            load_kpca(tmp_path / "bad.bin")

    def test_unknown_kernel_code_names_file_and_code(self, tmp_path):
        kmap = kpca_fit(np.random.default_rng(12).standard_normal((3, 8)),
                        KernelSpec("gaussian"))
        save_kpca(kmap, tmp_path / "k.bin")
        data = bytearray((tmp_path / "k.bin").read_bytes())
        data[32] = 9  # low byte of the kernel code: magic, version, d0, n, r before it
        (tmp_path / "bad.bin").write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"bad\.bin: unknown kernel code 9"):
            load_kpca(tmp_path / "bad.bin")

    @pytest.mark.parametrize("field, value, message", [
        ("eigenvalues", -1.0, "eigenvalues must be positive and finite"),
        ("eigenvalues", 0.0, "eigenvalues must be positive and finite"),
        ("eigenvalues", np.nan, "eigenvalues must be positive and finite"),
        ("eigenvalues", np.inf, "eigenvalues must be positive and finite"),
        ("grand_mean", np.nan, "the grand mean must be finite"),
        ("col_means", np.inf, "the column means must be finite"),
        ("train_inputs", np.nan, "the training inputs must be finite"),
        ("eigenvectors", np.nan, "the eigenvectors must be finite"),
    ], ids=["negative eigenvalue", "zero eigenvalue", "nan eigenvalue",
            "inf eigenvalue", "nan grand mean", "inf column mean", "nan input",
            "nan eigenvector"])
    def test_inconsistent_map_names_file(self, tmp_path, field, value, message):
        kmap = kpca_fit(np.random.default_rng(12).standard_normal((3, 8)),
                        KernelSpec("gaussian"))
        if field == "grand_mean":
            bad = value
        else:
            bad = getattr(kmap, field).copy()
            bad.flat[0] = value
        save_kpca(replace(kmap, **{field: bad}), tmp_path / "bad.bin")
        with pytest.raises(ValueError, match=r"bad\.bin: " + message):
            load_kpca(tmp_path / "bad.bin")

    @pytest.mark.parametrize("kernel, message", [
        (KernelSpec("gaussian"), "gaussian bandwidth sigma must be positive and finite"),
        (KernelSpec("polynomial", degree=2), "polynomial degree must be >= 1"),
    ], ids=["gaussian sigma", "polynomial degree"])
    def test_bad_kernel_parameter_names_file(self, tmp_path, kernel, message):
        kmap = kpca_fit(np.random.default_rng(12).standard_normal((3, 8)), kernel)
        save_kpca(kmap, tmp_path / "k.bin")
        data = bytearray((tmp_path / "k.bin").read_bytes())
        # the header: magic, version, d0, n, r, kernel code, degree, sigma
        at = 48 if kernel.kind == "gaussian" else 40
        data[at:at + 8] = bytes(8)   # sigma 0.0, or degree 0
        (tmp_path / "bad.bin").write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"bad\.bin: " + message):
            load_kpca(tmp_path / "bad.bin")

    @pytest.mark.parametrize("d0, n, r, field, value, bound", [
        (3, 8, 0, "r", 0, "1 <= r <= n = 8"),
        (3, 8, -1, "r", -1, "1 <= r <= n = 8"),
        (3, 4, 5, "r", 5, "1 <= r <= n = 4"),
        (3, 1, 2, "n", 1, "2 <= n"),
        (3, -2, 1, "n", -2, "2 <= n"),
        (0, 8, 2, "d0", 0, "1 <= d0"),
    ], ids=["no output", "negative r", "r above n", "one point", "negative n",
            "no inputs"])
    def test_impossible_counts_name_file_and_field(self, tmp_path, d0, n, r, field,
                                                   value, bound):
        # maps with r = 0 (out_dim 0) and with n = 1, r = 2 loaded
        header = struct.pack("<Iqqqqqdd", ssdr.kpca._VERSION, d0, n, r,
                             ssdr.kpca._KERNEL_CODES["gaussian"], 2, 1.0, 0.0)
        size = max(0, d0 * n + n + r + n * r)
        (tmp_path / "bad.bin").write_bytes(ssdr.kpca._MAGIC + header
                                           + np.ones(size).tobytes())
        with pytest.raises(ValueError, match=rf"bad\.bin: header field {field} = "
                                             rf"{value}; expected {bound}$"):
            load_kpca(tmp_path / "bad.bin")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"XXXX" + b"\0" * 80)
        with pytest.raises(ValueError, match="not a kernel-map file"):
            load_kpca(tmp_path / "junk.bin")
