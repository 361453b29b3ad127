"""Acceptance suite: one numbered pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ssdr import (ExperimentConfig, HeatKernelSpec, KernelSpec, KnnIndex,
                  LearnerSpec, SplitSpec, embed, fit, generate_balance,
                  generate_multimodal_toy, good_nearby_ratio,
                  good_neighbors_score, gram, hadamard_power,
                  heat_kernel_costs, knn_classify, kpca_embed, kpca_fit,
                  kpca_trick_fit, laplacian_scatter, load_csv, mmc_costs,
                  neighbor_graphs, pairwise_sq_dists, run_benchmark, self_cost,
                  solve_gev, split)
from ssdr.costs import lfda_costs
from ssdr.dataset import Dataset


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def unordered_sum(c, Z):
    d2 = pairwise_sq_dists(Z)
    iu, ju = np.triu_indices(c.shape[0], 1)
    return float((c[iu, ju] * d2[iu, ju]).sum())


def test_criterion_1_trace_identity():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        d0 = int(rng.integers(1, 9))
        X = rng.standard_normal((d0, n))
        C = rng.standard_normal((n, n))
        C = 0.5 * (C + C.T)
        np.fill_diagonal(C, 0.0)
        A = rng.standard_normal((int(rng.integers(1, d0 + 1)), d0))
        lhs = float((C * pairwise_sq_dists(A @ X)).sum())
        rhs = 2.0 * np.trace(A @ laplacian_scatter(X, C) @ A.T)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, ok, f"pairwise cost sum vs 2*trace on 200 instances, "
                  f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gev_correctness():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    worst_res, worst_con, violations = 0.0, 0.0, 0
    for _ in range(100):
        d0 = int(rng.integers(2, 11))
        L = rng.standard_normal((d0, d0))
        L = 0.5 * (L + L.T)
        M = rng.standard_normal((d0, d0))
        B = M @ M.T + d0 * np.eye(d0)
        d = int(rng.integers(1, d0 + 1))
        A, lam = solve_gev(L, B, d)
        scale = np.linalg.norm(L, "fro")
        for j in range(d):
            res = np.linalg.norm(L @ A[j] - lam[j] * B @ A[j])
            worst_res = max(worst_res, res / (scale + abs(lam[j])
                                              * np.linalg.norm(B, "fro")))
        worst_con = max(worst_con,
                        np.abs(A @ B @ A.T - np.eye(d)).max())
        best = np.trace(A @ L @ A.T)
        R = scipy.linalg.cholesky(B, lower=False)
        Rinv = scipy.linalg.solve_triangular(R, np.eye(d0), lower=False)
        for _ in range(10):
            Qs = np.linalg.qr(rng.standard_normal((d0, d)))[0]
            At = (Rinv @ Qs).T
            if best > np.trace(At @ L @ At.T) + 1e-9:
                violations += 1
    # the heavy 1000-point sweep on a fixed representative instance
    L = rng.standard_normal((8, 8)); L = 0.5 * (L + L.T)
    M = rng.standard_normal((8, 8)); B = M @ M.T + 8 * np.eye(8)
    A, _ = solve_gev(L, B, 3)
    best = np.trace(A @ L @ A.T)
    R = scipy.linalg.cholesky(B, lower=False)
    Rinv = scipy.linalg.solve_triangular(R, np.eye(8), lower=False)
    for _ in range(1000):
        Qs = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        At = (Rinv @ Qs).T
        if best > np.trace(At @ L @ At.T) + 1e-9:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = (worst_res <= 1e-8 and worst_con <= 1e-8 and violations == 0
          and elapsed < 10.0)
    report(2, ok, f"100 GEV instances: worst residual {worst_res:.2e}, worst "
                  f"constraint dev {worst_con:.2e}, optimality violations "
                  f"{violations}, {elapsed:.2f}s")


def test_criterion_3_self_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 30))
        d0 = int(rng.integers(1, 6))
        X = rng.standard_normal((d0, n))
        X -= X.mean(axis=1, keepdims=True)
        A = rng.standard_normal((min(2, d0), d0))
        Z = A @ X
        f_u = float((self_cost(n) * pairwise_sq_dists(Z)).sum())
        f_pca = -float(np.sum(Z**2))
        worst = max(worst, abs(f_u - f_pca) / max(abs(f_pca), 1e-12))
    ok = worst <= 1e-10
    report(3, ok, f"constant-cost objective equals negated variance objective "
                  f"on 50 centered datasets, worst rel err {worst:.2e}")


def test_criterion_4_mmc_equivalence():
    rng = np.random.default_rng(104)
    worst_w, worst_b, printed_form_holds = 0.0, 0.0, True
    for _ in range(50):
        n = int(rng.integers(6, 25))
        d0 = int(rng.integers(2, 6))
        c = int(rng.integers(2, 4))
        labels = rng.integers(1, c + 1, n)
        while len(set(labels)) < c:
            labels = rng.integers(1, c + 1, n)
        X = rng.standard_normal((d0, n))
        counts = np.bincount(labels, minlength=c + 1)[1:]
        cb, cw = mmc_costs(labels, counts)
        A = rng.standard_normal((2, d0))
        Z = A @ X
        mu = X.mean(axis=1)
        Sw = np.zeros((d0, d0))
        Sb_w = np.zeros((d0, d0))
        Sb_plain = np.zeros((d0, d0))
        for k in range(1, c + 1):
            Xk = X[:, labels == k]
            mk = Xk.mean(axis=1)
            D = Xk - mk[:, None]
            Sw += D @ D.T
            Sb_w += counts[k - 1] * np.outer(mk - mu, mk - mu)
            Sb_plain += np.outer(mk - mu, mk - mu)
        tw = np.trace(A @ Sw @ A.T)
        sw_sum = unordered_sum(cw, Z)
        worst_w = max(worst_w, abs(tw - sw_sum) / max(abs(tw), 1e-12))
        # between-scatter: the pairwise form equals the NEGATED trace of the
        # class-size-WEIGHTED between scatter; the unweighted, unsigned form
        # does not hold and is checked to fail
        tb_w = np.trace(A @ Sb_w @ A.T)
        sb_sum = unordered_sum(cb, Z)
        worst_b = max(worst_b, abs(tb_w + sb_sum) / max(abs(tb_w), 1e-12))
        if abs(np.trace(A @ Sb_plain @ A.T) - sb_sum) \
                > 1e-6 * max(abs(sb_sum), 1.0):
            printed_form_holds = False
    ok = worst_w <= 1e-8 and worst_b <= 1e-8 and not printed_form_holds
    report(4, ok, "within-scatter identity exact (worst rel err "
                  f"{worst_w:.2e}); between-scatter identity holds in the "
                  f"sign-corrected, class-size-weighted form (worst rel err "
                  f"{worst_b:.2e}); unweighted unsigned form demonstrably "
                  "does not hold (see decisions ledger)")


def test_criterion_5_lfda_constraint_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(5):
        n, d0, d, c = 60, 4, 2, 2
        X = rng.standard_normal((d0, n))
        labels = np.array([1 + i % c for i in range(n)])
        data = Dataset(X=X, labels=labels, n_classes=c)
        model = fit(data, LearnerSpec(base="lfda", unlabel="none", gamma=0.0,
                                      dim=d, epsilon=0.0))
        Z = embed(model, X)
        counts = data.class_counts
        Xc = X - X.mean(axis=1, keepdims=True)
        ci, _ = neighbor_graphs(Xc, labels, k=3)
        _, cwit = lfda_costs(ci, labels, counts, n_total=n)
        s = unordered_sum(cwit, Z)
        worst = max(worst, abs(s - d))
    ok = worst <= 1e-6
    report(5, ok, f"within-cost sum equals target dimension {2} under the "
                  f"unregularized constraint, worst abs err {worst:.2e}")


def test_criterion_6_hadamard_operator():
    rng = np.random.default_rng(106)
    worst = 0.0
    identity_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 12))
        m = rng.random((n, n))
        m = 0.5 * (m + m.T)
        cu = m
        if not np.array_equal(hadamard_power(cu, 1), m):
            identity_ok = False
        for alpha in (2, 3, 4, 8):
            out = hadamard_power(cu, alpha)
            worst = max(worst, abs(np.linalg.norm(out) - np.linalg.norm(m))
                        / np.linalg.norm(m))
    ok = worst <= 1e-12 and identity_ok
    report(6, ok, f"Frobenius norm preserved over 100 random matrices "
                  f"(worst rel err {worst:.2e}); alpha=1 is the identity")


def test_criterion_7_kpca_no_information_loss():
    rng = np.random.default_rng(107)
    kernels = (KernelSpec("linear"), KernelSpec("polynomial", 2),
               KernelSpec("gaussian", sigma=1.1))
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 31))
        X = rng.standard_normal((int(rng.integers(2, 6)), n))
        kernel = kernels[trial % 3]
        kmap = kpca_fit(X, kernel)
        phi = kmap.train_coords()
        K = gram(X, kernel)
        H = np.eye(n) - np.ones((n, n)) / n
        worst = max(worst, np.abs(phi.T @ phi - H @ K @ H).max())
    # linear-kernel pipeline equivalence on identical splits
    preds_equal = True
    X = rng.standard_normal((4, 50))
    labels = np.array([1 + i % 2 for i in range(50)])
    data = Dataset(X=X, labels=labels, n_classes=2)
    spec = LearnerSpec(base="lfda", unlabel="heat", gamma=0.5, dim=2)
    for r in range(5):
        lab, unl, _ = split(data, SplitSpec(labeled=12, seed=7,
                                            realizations=5), r)
        train = data.with_labels_hidden(lab)
        lin = fit(train, spec)
        Zl = embed(lin, data.X)
        kmap, km = kpca_trick_fit(train, KernelSpec("linear"), spec)
        Zk = kpca_embed(kmap, km, data.X)
        pl = knn_classify(KnnIndex(Zl[:, lab], labels[lab], 1), Zl[:, unl])
        pk = knn_classify(KnnIndex(Zk[:, lab], labels[lab], 1), Zk[:, unl])
        if not np.array_equal(pl, pk):
            preds_equal = False
    ok = worst <= 1e-8 and preds_equal
    report(7, ok, f"explicit-coordinate inner products match the centered "
                  f"Gram (worst abs err {worst:.2e}); linear-kernel pipeline "
                  f"predictions identical to the linear pipeline")


def _toy_benchmark(kind, labeled, learners, gamma_grid, alpha_grid,
                   realizations=25):
    cfg = ExperimentConfig(
        dataset=kind,
        split=SplitSpec(labeled=labeled, seed=0, realizations=realizations,
                        per_class_labels=True),
        learners=learners, gamma_grid=gamma_grid, alpha_grid=alpha_grid,
        folds=3, dim=1)
    return {r.name: r.mean for r in run_benchmark(cfg)}


def test_criterion_8_toy_reproductions():
    t0 = time.monotonic()
    two = _toy_benchmark("two-cluster", 20, ("ss-lfda", "lfda", "fda"),
                         (1.0,), (1,))
    three = _toy_benchmark("three-cluster", 30, ("ss-lfda", "fda", "pca"),
                           (1.0,), (1,))
    ssl = _toy_benchmark("ssl-only", 6, ("ss-lfda", "lfda", "lpp*"),
                         (3000.0,), (1, 2, 4, 8))
    elapsed = time.monotonic() - t0
    a_ok = two["ss-lfda"] >= 0.95 and two["fda"] <= 0.60
    b_ok = (three["ss-lfda"] >= 0.90 and three["fda"] <= 0.70
            and three["pca"] <= 0.70)
    c_ok = (ssl["ss-lfda"] >= ssl["lfda"] + 0.05
            and ssl["ss-lfda"] >= ssl["lpp*"] + 0.05)
    ok = a_ok and b_ok and c_ok and elapsed < 60.0
    report(8, ok,
           f"(a) two-cluster ss-lfda {two['ss-lfda']:.3f} fda {two['fda']:.3f}; "
           f"(b) three-cluster ss-lfda {three['ss-lfda']:.3f} "
           f"fda {three['fda']:.3f} pca {three['pca']:.3f}; "
           f"(c) ssl-only ss-lfda {ssl['ss-lfda']:.3f} vs lfda "
           f"{ssl['lfda']:.3f} and lpp* {ssl['lpp*']:.3f}; {elapsed:.1f}s")
    # companion check from the harness contract: plain lfda also solves (a)
    assert two["lfda"] >= 0.95


def test_criterion_9_balance_generator():
    d = generate_balance()
    ok = d.n == 625 and d.n_classes == 3
    mismatches = 0
    for j in range(d.n):
        lw, ld, rw, rd = d.X[:, j]
        left, right = lw * ld, rw * rd
        expect = "L" if left > right else ("R" if right > left else "B")
        if d.label_names[d.labels[j] - 1] != expect:
            mismatches += 1
    ok = ok and mismatches == 0
    report(9, ok, f"625 examples, 3 classes, {mismatches} row mismatches "
                  "against the independent product-rule check")


IONOSPHERE = os.environ.get(
    "SSDR_IONOSPHERE",
    str(Path(__file__).parent / "data" / "ionosphere.csv"))


@pytest.mark.skipif(not os.path.exists(IONOSPHERE),
                    reason="user-supplied ionosphere CSV not present "
                           f"(looked at {IONOSPHERE}; set SSDR_IONOSPHERE)")
def test_criterion_10_ionosphere_sanity():
    data = load_csv(IONOSPHERE, "label")
    assert data.d0 == 34 and data.n == 351 and data.n_classes == 2
    score = good_neighbors_score(data)
    score_ok = abs(score - 0.866) <= 0.02
    cu = heat_kernel_costs(data.X, HeatKernelSpec("local", k=7))
    ratio = good_nearby_ratio(cu, data.labels, 0.36)
    ratio_ok = abs(ratio - 394 / 408) <= 0.03
    cfg = ExperimentConfig(dataset=IONOSPHERE,
                           split=SplitSpec(labeled=10, seed=0, realizations=25),
                           learners=("ss-dne", "dne"), folds=3, dim=2)
    ss, sup = run_benchmark(cfg)
    gap_ok = ss.mean >= sup.mean + 0.02
    ok = score_ok and ratio_ok and gap_ok
    report(10, ok, f"neighbor agreement score {score:.3f}; nearby-pair purity "
                   f"{ratio:.3f}; semi-supervised gain {ss.mean - sup.mean:+.3f}")


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = three-cluster\nn_per_cluster = 30\nlabeled = 10\n"
        "per_class_labels = true\nrealizations = 5\nseed = 3\n"
        "learners = ss-lfda, lfda\ngamma_grid = 0.1, 1\nalpha_grid = 1, 2\n"
        "folds = 3\ndim = 1\n")
    outs = []
    for name in ("a.tsv", "b.tsv"):
        out = tmp_path / name
        r = subprocess.run([sys.executable, "-m", "ssdr.cli", "benchmark",
                            "--config", str(cfg), "--out", str(out)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and outs[0].startswith(b"learner\t")
    report(11, ok, "two benchmark runs with identical config and seed "
                   f"produced byte-identical reports ({len(outs[0])} bytes)")
