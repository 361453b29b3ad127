"""The dense cost constructors work in place, in row blocks, and return the same
floats as the whole-matrix formulas below, bit for bit; so do the k-NN and
gaussian-kernel distances, which share one cross-distance rule.  The label
scatters of fda, lfda, dne and mfa come from the labeled block: bit for bit
the labeled-block formula below, and the n x n formula up to rounding."""
import tracemalloc

import numpy as np
import pytest

import ssdr.solver
from ssdr import (BASES, Dataset, HeatKernelSpec, KernelSpec, LearnerSpec, UNLABELED,
                  hadamard_power, heat_kernel_costs, kernel_values,
                  laplacian_scatter, lfda_costs, mmc_costs, neighbor_graphs,
                  pairwise_sq_dists)
from ssdr.costs import _ROW_BLOCK, _class_costs, _cross_sq_dists, _labeled_sq_dists
from ssdr.harness import _scorer, _shared_inputs


def ref_pairwise_sq_dists(X):
    sq = (X * X).sum(axis=0)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X.T @ X)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def ref_heat_kernel_costs(X, spec):
    n = X.shape[1]
    d2 = ref_pairwise_sq_dists(X)
    if spec.scaling == "global":
        cu = np.exp(-d2 / spec.sigma**2)
    else:
        k = min(spec.k, n - 1)
        sigma = np.partition(np.sqrt(d2), k, axis=1)[:, k]
        sigma = np.maximum(sigma, 1e-12 * max(np.sqrt(d2.max()), 1.0))
        cu = np.exp(-d2 / (sigma[:, None] * sigma[None, :]))
    np.fill_diagonal(cu, 0.0)
    return 0.5 * (cu + cu.T)


def ref_class_costs(labels, class_counts, ci=None):
    labeled = labels != UNLABELED
    n_total = int(labeled.sum())
    inv_nk = 1.0 / np.where(labeled, class_counts[np.maximum(labels, 1) - 1], 1)
    lab_pair = labeled[:, None] & labeled[None, :]
    np.fill_diagonal(lab_pair, False)
    same = lab_pair & (labels[:, None] == labels[None, :])
    cb = np.where(same, inv_nk[:, None] - 1.0 / n_total,
                  np.where(lab_pair, -1.0 / n_total, 0.0))
    cw = np.where(same, inv_nk[:, None], 0.0)
    if ci is not None:
        np.multiply(cb, ci, out=cb, where=same)
        cw *= ci
    return cb, cw


def ref_hadamard_power(e, alpha):
    """The power as the product chain of square-and-multiply."""
    norm = np.linalg.norm(e)
    e2 = e * e
    p = {2: e2, 5: (e2 * e2) * e}[alpha]
    return p * (norm / np.linalg.norm(p))


def ref_label_scatters(X, labels, spec):
    """The label scatters from the full n x n costs."""
    labeled = labels != UNLABELED
    counts = np.bincount(labels[labeled])[1:]
    if spec.base in ("fda", "mmc"):
        cb, cw = ref_class_costs(labels, counts)
        if spec.base == "fda":
            return laplacian_scatter(X, cb), laplacian_scatter(X, cw)
        return laplacian_scatter(X, spec.gamma_prime * cw - cb), np.eye(X.shape[0])
    ci, ce = neighbor_graphs(X, labels, spec.k)
    if spec.base == "dne":
        return laplacian_scatter(X, np.subtract(ci, ce, dtype=float)), np.eye(X.shape[0])
    if spec.base == "mfa":
        return laplacian_scatter(X, np.subtract(0, ce, dtype=float)), laplacian_scatter(X, ci)
    cb, cw = ref_class_costs(labels, counts, ci)
    return laplacian_scatter(X, cb), laplacian_scatter(X, cw)


def ref_block_label_scatters(X, labels, spec):
    """The label scatters of fda, lfda, dne and mfa from the public builders'
    costs on the labeled examples, scattered over the labeled columns."""
    lab = labels != UNLABELED
    X_l, labels_l = X[:, lab], labels[lab]
    counts = np.bincount(labels_l)[1:]
    if spec.base == "fda":
        cb, cw = mmc_costs(labels_l, counts)
        return laplacian_scatter(X_l, cb), laplacian_scatter(X_l, cw)
    ci, ce = (g[np.ix_(lab, lab)] for g in neighbor_graphs(X, labels, spec.k))
    if spec.base == "dne":
        return laplacian_scatter(X_l, np.subtract(ci, ce, dtype=float)), np.eye(X.shape[0])
    if spec.base == "mfa":
        return laplacian_scatter(X_l, np.subtract(0, ce, dtype=float)), laplacian_scatter(X_l, ci)
    cb, cw = lfda_costs(ci, labels_l, counts)
    return laplacian_scatter(X_l, cb), laplacian_scatter(X_l, cw)


def _points(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "random":
        return rng.standard_normal((3, 2 * _ROW_BLOCK + 7))
    if name == "small":
        return rng.standard_normal((4, 5))
    if name == "one block":
        return rng.standard_normal((2, _ROW_BLOCK))
    if name == "grid ties":
        return rng.integers(0, 4, (2, _ROW_BLOCK + 1)).astype(float)
    if name == "duplicates":
        # every point three times: the 2nd-nearest distance is zero
        return np.repeat(rng.standard_normal((2, 40)), 3, axis=1)
    if name == "non-contiguous":
        return rng.standard_normal((6, 3 * _ROW_BLOCK + 5))[::2, ::3]
    if name == "more features":
        return rng.standard_normal((2 * _ROW_BLOCK + 7, _ROW_BLOCK + 3))
    if name == "features near points":
        # as KPCA coordinates: d0 = n - 1, across several row blocks
        return rng.standard_normal((3 * _ROW_BLOCK + 4, 3 * _ROW_BLOCK + 5))
    if name == "strided features":
        # a product of these strided views rounds g_ij and g_ji apart
        return rng.standard_normal((400, 300))[::2, ::3]
    # a line whose scaled squared distances run from 0 to about -1000,
    # across the subnormal band of exp and its underflow to zero
    return np.linspace(0.0, 32.0, 3 * _ROW_BLOCK - 1)[None, :]


POINTS = ("random", "small", "one block", "grid ties", "duplicates",
          "non-contiguous", "line")
SPECS = (HeatKernelSpec("local", k=7), HeatKernelSpec("local", k=1),
         HeatKernelSpec("global", sigma=1.0), HeatKernelSpec("global", sigma=0.05))


@pytest.mark.parametrize("name", POINTS)
def test_pairwise_sq_dists_bitwise(name):
    X = _points(name)
    np.testing.assert_array_equal(pairwise_sq_dists(X), ref_pairwise_sq_dists(X))


@pytest.mark.parametrize("name", POINTS + ("more features", "features near points",
                                          "strided features"))
def test_pairwise_sq_dists_exactly_symmetric(name):
    # the heat kernel computes only the upper block triangle and mirrors it:
    # bit for bit the averaged kernel only if d2_ij and d2_ji are one float
    d2 = pairwise_sq_dists(_points(name))
    assert np.array_equal(d2, d2.T)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.scaling}-k{s.k}-s{s.sigma}")
@pytest.mark.parametrize("name", POINTS)
def test_heat_kernel_costs_bitwise(name, spec):
    X = _points(name)
    got = heat_kernel_costs(X, spec)
    assert np.array_equal(got, ref_heat_kernel_costs(X, spec))


def test_line_crosses_the_exp_underflow():
    # the line case reaches every regime of exp: normal, subnormal and zero
    cu = ref_heat_kernel_costs(_points("line"), HeatKernelSpec("global", sigma=1.0))
    tiny = np.finfo(float).tiny
    assert (cu > tiny).any() and ((cu > 0) & (cu < tiny)).any()
    assert ((cu == 0) & ~np.eye(len(cu), dtype=bool)).any()


def test_duplicates_hit_the_distance_floor():
    X = _points("duplicates")
    cu = heat_kernel_costs(X, HeatKernelSpec("local", k=2))
    assert cu[0, 1] == 1.0 and cu[0, 3] == 0.0


def test_class_costs_bitwise():
    rng = np.random.default_rng(3)
    labels = rng.integers(1, 4, 2 * _ROW_BLOCK + 3)
    labels[rng.random(labels.size) < 0.4] = UNLABELED
    counts = np.bincount(labels[labels != UNLABELED])[1:]
    ci = rng.random((labels.size,) * 2)
    ci = 0.5 * (ci + ci.T)
    for c in (None, ci):
        for got, want in zip(_class_costs(labels, counts, c),
                             ref_class_costs(labels, counts, c)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("base", ["lfda", "fda", "mmc", "dne", "mfa"])
def test_label_scatters_bitwise(base):
    # mmc scatters its n x n costs, the other bases their labeled block
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4, 150))
    labels = rng.integers(1, 4, 150)
    labels[rng.random(150) < 0.5] = UNLABELED
    spec = LearnerSpec(base=base, k=3, gamma_prime=0.3)
    ref = ref_label_scatters if base == "mmc" else ref_block_label_scatters
    for got, want in zip(ssdr.solver._label_scatters(X, labels, spec),
                         ref(X, labels, spec)):
        np.testing.assert_array_equal(got, want)


def _labeled_points(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    n = 2 * _ROW_BLOCK + 22
    labels = rng.integers(1, 4, n)
    labels[rng.random(n) < 0.5] = UNLABELED
    X = rng.standard_normal((4, n))
    if name == "grid ties":
        X = rng.integers(0, 4, (2, n)).astype(float)
    elif name == "all labeled":
        labels = rng.integers(1, 4, n)
    elif name == "one-label class":
        labels[labels == 3] = UNLABELED
        labels[np.flatnonzero(labels == UNLABELED)[5]] = 3
    elif name == "non-contiguous":
        X = rng.standard_normal((8, 3 * n))[::2, ::3]
    return X, labels


@pytest.mark.parametrize("base", ["lfda", "fda", "dne", "mfa"])
@pytest.mark.parametrize("name", ["random", "grid ties", "all labeled",
                                  "one-label class", "non-contiguous"])
def test_label_scatters_scatter_the_labeled_block(name, base):
    # equal to the n x n formula up to rounding, and to the labeled-block
    # formula from the public builders bit for bit
    X, labels = _labeled_points(name)
    spec = LearnerSpec(base=base, k=3)
    got = ssdr.solver._label_scatters(X, labels, spec)
    for g, want in zip(got, ref_label_scatters(X, labels, spec)):
        assert np.linalg.norm(g - want) <= 1e-10 * np.linalg.norm(want)
    for g, want in zip(got, ref_block_label_scatters(X, labels, spec)):
        np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("base,bound", [("lfda", 1.25), ("dne", 1.25), ("fda", 0.05),
                                        ("mmc", 1.1)])
def test_label_scatters_peak_memory(base, bound):
    # lfda and dne gather the ranking block from the n x n gram; past the
    # ranking, every label cost is an m x m block, and mmc scatters its
    # block from one n x n matrix
    n = 1500
    rng = np.random.default_rng(6)
    X = rng.standard_normal((3, n))
    labels = np.full(n, UNLABELED)
    labels[rng.choice(n, 150, replace=False)] = 1 + np.arange(150) % 3
    tracemalloc.start()
    try:
        ssdr.solver._label_scatters(X, labels, LearnerSpec(base=base))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * n


@pytest.mark.parametrize("base,bound", [("dne", 1.5), ("mfa", 1.5), ("lfda", 2.75)])
def test_fully_labeled_label_scatters_peak_memory(base, bound):
    # m = n: dne and mfa hold the ranking distances and then one m x m cost
    # next to the two boolean graphs; lfda its two m x m costs, and no float
    # copy of C^I
    n = 1500
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3, n))
    labels = 1 + np.arange(n) % 3
    tracemalloc.start()
    try:
        ssdr.solver._label_scatters(X, labels, LearnerSpec(base=base))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * n


@pytest.mark.parametrize("base,bound", [("dne", 1.5), ("mfa", 1.5), ("lfda", 2.75)])
def test_fully_labeled_build_scatters_frees_the_ranking_block(base, bound):
    # build_scatters hands the n x n ranking block over to the ranking, which
    # frees it before the label costs: the peak of _label_scatters alone
    n = 1500
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3, n))
    labels = 1 + np.arange(n) % 3
    tracemalloc.start()
    try:
        ssdr.solver.build_scatters(X, labels, LearnerSpec(base=base, unlabel="none",
                                                          gamma=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * n


@pytest.mark.parametrize("base,bound", [("dne", 1.5), ("mfa", 1.5), ("lfda", 2.75)])
def test_fully_labeled_sweep_fit_frees_its_sub_block(base, bound):
    # a sweep's fit on every label cuts an n x n sub-block from the block the
    # realization keeps, and the ranking frees it: past the kept block, the
    # peak of _label_scatters alone, through the solve, embedding and k-NN
    n = 1500
    rng = np.random.default_rng(7)
    train = Dataset(rng.standard_normal((3, n)), 1 + np.arange(n) % 3, 3)
    spec = LearnerSpec(base=base, unlabel="none", gamma=0.0, dim=1)
    score = _scorer(_shared_inputs(train, None, [spec], train.X[:, :5]), spec,
                    {(0.0, 1): spec}, 1)
    tracemalloc.start()
    try:
        [acc] = score(train.labels, [(0.0, 1)], None, train.labels[:5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(acc, float)
    assert peak <= bound * 8 * n * n


# peak of build_scatters without heat costs, in 8 n^2 bytes at n = 1500 with
# 150 labels: the self_pca scatter is closed-form, so with it or with no
# unlabel term only the ranking's gram (lfda, dne, mfa) and mmc's zero-padded
# costs are n x n.  A self_pca case keeps base and bound alone as its id, so
# the names of the existing cases stay
LABEL_ONLY_PEAKS = [("self_pca", base, bound) for base, bound in (
    ("fda", 0.05), ("none", 0.05), ("lfda", 1.05), ("dne", 1.05), ("mfa", 1.05),
    ("mmc", 1.05))] + [("none", base, bound) for base, bound in (
        ("fda", 0.025), ("lfda", 1.02), ("dne", 1.02), ("mfa", 1.02), ("mmc", 1.02))]


@pytest.mark.parametrize("unlabel,base,bound", LABEL_ONLY_PEAKS, ids=[
    f"{base}-{bound}" if unlabel == "self_pca" else f"{unlabel}-{base}-{bound}"
    for unlabel, base, bound in LABEL_ONLY_PEAKS])
def test_self_pca_scatters_peak_memory(unlabel, base, bound):
    n = 1500
    rng = np.random.default_rng(9)
    X = rng.standard_normal((3, n))
    labels = np.full(n, UNLABELED)
    labels[rng.choice(n, 150, replace=False)] = 1 + np.arange(150) % 3
    spec = LearnerSpec(base=base, unlabel=unlabel, gamma=1.0)
    tracemalloc.start()
    try:
        ssdr.solver.build_scatters(X, labels, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * n


# peak of build_scatters with heat costs, in 8 n^2 bytes at n = 1500: the
# one distance matrix turned into the heat costs in place, a second n x n for
# the Hadamard power at alpha 2, and the label costs built after the heat
# costs are freed.  Fully labeled dne and mfa hold their n x n ranking block,
# cut before the heat kernel, through the Hadamard power
HEAT_PEAKS = {
    "150 labels": {base: (1.215, 2.025) for base in BASES},
    "all labeled": {"lfda": (3.53, 3.53), "dne": (2.28, 3.05), "mfa": (2.28, 3.05),
                    "mmc": (2.27, 2.27), "fda": (2.27, 2.27), "none": (1.215, 2.025)},
}


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("labeled", list(HEAT_PEAKS))
def test_heat_scatters_peak_memory(labeled, base, alpha):
    n = 1500
    rng = np.random.default_rng(10)
    X = rng.standard_normal((3, n))
    labels = 1 + np.arange(n) % 3
    if labeled == "150 labels":
        labels = np.full(n, UNLABELED)
        labels[rng.choice(n, 150, replace=False)] = 1 + np.arange(150) % 3
    spec = LearnerSpec(base=base, unlabel="heat", gamma=1.0, alpha=alpha)
    tracemalloc.start()
    try:
        ssdr.solver.build_scatters(X, labels, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= HEAT_PEAKS[labeled][base][alpha - 1] * 8 * n * n


@pytest.mark.parametrize("base", ["none", "lfda"])
def test_heat_chain_peak_memory(base):
    # with one hadamard_power copy per alpha the unlabel stage of alphas 1,
    # 2, 4 and 8 peaked at 2.005 n^2 (2.015 with lfda's 150 x 150 ranking
    # block); the chain squares the heat costs in place and rescales each
    # power into one reused second n x n buffer, so it adds no third
    n = 1500
    X = np.random.default_rng(11).standard_normal((3, n))
    specs = [LearnerSpec(base=base, unlabel="heat", gamma=1.0, alpha=a) for a in (1, 2, 4, 8)]
    tracemalloc.start()
    try:
        terms, _ = ssdr.solver._unlabel_stage(X, np.arange(0, n, 10), specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(terms) == 4
    assert peak <= 2.05 * 8 * n * n


@pytest.mark.parametrize("m", [0, 1, 7, _ROW_BLOCK + 3, 2 * _ROW_BLOCK + 40, 200])
def test_labeled_sq_dists_bitwise(m):
    # gathered from the gram across row blocks; all-labeled is the n x n matrix
    rng = np.random.default_rng(m)
    X = rng.integers(0, 4, (3, 200)).astype(float)
    idx = np.sort(rng.choice(200, m, replace=False))
    np.testing.assert_array_equal(_labeled_sq_dists(X, idx),
                                  pairwise_sq_dists(X)[np.ix_(idx, idx)])


@pytest.mark.parametrize("labeled", [None, 60], ids=["pairwise", "labeled block"])
def test_sq_dists_peak_memory_with_as_many_features_as_points(labeled):
    # KPCA coordinates have d0 close to n, so X * X is as large as the gram:
    # the squared norms are taken before the gram is built
    n = 600
    X = np.random.default_rng(8).standard_normal((n, n))
    tracemalloc.start()
    try:
        if labeled is None:
            pairwise_sq_dists(X)
        else:
            _labeled_sq_dists(X, np.arange(0, n, n // labeled))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


@pytest.mark.parametrize("alpha", [1, 2, 5])
def test_hadamard_power_bitwise(alpha):
    X = _points("random")
    cu = heat_kernel_costs(X, HeatKernelSpec())
    want = cu if alpha == 1 else ref_hadamard_power(cu, alpha)
    np.testing.assert_array_equal(hadamard_power(cu, alpha), want)


@pytest.mark.parametrize("scale", [0.3, 3.0, 1e-3, 1e5])
@pytest.mark.parametrize("alpha", [2, 5])
def test_hadamard_power_bitwise_at_scale(alpha, scale):
    # costs whose largest entry is outside [0.5, 1) are scaled by a power of
    # two first, which is exact: the bits are the unscaled chain's
    m = np.random.default_rng(alpha).random((60, 60))
    cu = scale * (m + m.T)
    np.testing.assert_array_equal(hadamard_power(cu, alpha), ref_hadamard_power(cu, alpha))


@pytest.mark.parametrize("spec", [HeatKernelSpec("local"), HeatKernelSpec("global", sigma=10.0)],
                         ids=["local", "global"])
def test_heat_kernel_peak_memory(spec):
    # one n x n buffer plus row-block temporaries; every entry is kept by exp
    n = 1500
    X = np.random.default_rng(5).standard_normal((3, n))
    tracemalloc.start()
    try:
        cu = heat_kernel_costs(X, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cu[~np.eye(n, dtype=bool)] > 0).all()
    assert peak <= 1.25 * 8 * n * n


def ref_knn_sq_dists(points, Q):
    """knn_classify's query-to-point distances, as it wrote them."""
    sq_p = (points**2).sum(axis=0)
    return sq_p[None, :] + (Q**2).sum(axis=0)[:, None] - 2.0 * (Q.T @ points)


def ref_gaussian_kernel(X, Y, sigma):
    """kernel_values' gaussian kernel, as it wrote it."""
    sq_x = (X * X).sum(axis=0)
    sq_y = (Y * Y).sum(axis=0)
    d2 = np.maximum(sq_x[:, None] + sq_y[None, :] - 2.0 * (X.T @ Y), 0.0)
    return np.exp(-d2 / (2.0 * sigma**2))


def test_cross_sq_dists_bitwise():
    # k-NN keeps the unclamped values, the gaussian kernel clamps them at 0;
    # points far from the origin make rounding leave negative self-distances
    rng = np.random.default_rng(17)
    negative = False
    for trial in range(60):
        d, n, m = rng.integers(1, 9), rng.integers(1, 40), rng.integers(1, 40)
        scale, offset = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 4)
        X = offset + scale * rng.standard_normal((d, n))
        Y = np.hstack([X[:, : m // 2], offset + scale * rng.standard_normal((d, m - m // 2))])
        ref = ref_knn_sq_dists(X, Y)
        negative |= bool((ref < 0).any())
        np.testing.assert_array_equal(_cross_sq_dists(Y, X), ref)
        sigma = scale * rng.uniform(0.5, 4.0)
        np.testing.assert_array_equal(kernel_values(KernelSpec("gaussian", sigma=sigma), X, Y),
                                      ref_gaussian_kernel(X, Y, sigma))
    assert negative
