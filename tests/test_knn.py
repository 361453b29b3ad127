import numpy as np
import pytest

from ssdr import (Dataset, HeatKernelSpec, KnnIndex, UNLABELED,
                  good_nearby_ratio, good_neighbors_score, hadamard_power,
                  heat_kernel_costs, knn_classify, pairwise_sq_dists)


def lexsort_knn(index, Q):
    """Per-query reference: lexsort by (distance, index), then majority vote
    with ties going to the single nearest point's class."""
    d2 = ((index.points**2).sum(axis=0)[None, :] + (Q**2).sum(axis=0)[:, None]
          - 2.0 * (Q.T @ index.points))
    out = []
    for row in d2:
        near = index.labels[np.lexsort((np.arange(row.size), row))[: index.k]]
        ids, counts = np.unique(near, return_counts=True)
        winners = ids[counts == counts.max()]
        out.append(int(winners[0]) if winners.size == 1 else int(near[0]))
    return np.array(out)


def lexsort_good_neighbors(dataset):
    d2 = pairwise_sq_dists(dataset.X)
    np.fill_diagonal(d2, np.inf)
    hits = [dataset.labels[i] == dataset.labels[np.lexsort((np.arange(dataset.n), d2[i]))[0]]
            for i in range(dataset.n)]
    return sum(hits) / dataset.n


class TestKnnClassify:
    def test_exact_match_k1(self):
        idx = KnnIndex(points=np.array([[0.0, 1.0, 2.0]]),
                       labels=np.array([1, 2, 1]), k=1)
        assert knn_classify(idx, np.array([1.0])) == 2

    def test_majority_k3(self):
        pts = np.array([[0.0, 0.1, 5.0]])
        idx = KnnIndex(points=pts, labels=np.array([1, 1, 2]), k=3)
        assert knn_classify(idx, np.array([0.05])) == 1

    def test_vote_tie_goes_to_nearest(self):
        pts = np.array([[0.0, 1.0]])
        idx = KnnIndex(points=pts, labels=np.array([2, 1]), k=2)
        assert knn_classify(idx, np.array([0.3])) == 2
        assert knn_classify(idx, np.array([0.7])) == 1

    def test_distance_tie_smaller_index(self):
        pts = np.array([[-1.0, 1.0]])
        idx = KnnIndex(points=pts, labels=np.array([3, 1]), k=1)
        assert knn_classify(idx, np.array([0.0])) == 3

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((3, 20))
        labels = rng.integers(1, 4, 20)
        idx = KnnIndex(points=pts, labels=labels, k=5)
        for _ in range(30):
            z = rng.standard_normal(3)
            d = np.linalg.norm(pts - z[:, None], axis=0)
            order = sorted(range(20), key=lambda j: (d[j], j))[:5]
            got, counts = np.unique(labels[order], return_counts=True)
            winners = got[counts == counts.max()]
            expect = winners[0] if winners.size == 1 else labels[order[0]]
            assert knn_classify(idx, z) == expect

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((2, 10))
        labels = rng.integers(1, 3, 10)
        idx = KnnIndex(points=pts, labels=labels, k=3)
        Q = rng.standard_normal((2, 7))
        batch = knn_classify(idx, Q)
        assert batch.tolist() == [knn_classify(idx, Q[:, j]) for j in range(7)]

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_batch_matches_lexsort_loop_on_grid_ties(self, k):
        # integer grids make many exactly equal distances and tied votes
        rng = np.random.default_rng(k)
        for _ in range(5):
            pts = rng.integers(0, 3, (2, 25)).astype(float)
            labels = rng.integers(1, 4, 25)
            idx = KnnIndex(points=pts, labels=labels, k=k)
            Q = rng.integers(-1, 4, (2, 40)).astype(float)
            got = knn_classify(idx, Q)
            np.testing.assert_array_equal(got, lexsort_knn(idx, Q))
            assert [knn_classify(idx, Q[:, j]) for j in range(3)] == got[:3].tolist()

    def test_invariance_under_rotation_and_scaling(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((3, 15))
        labels = rng.integers(1, 3, 15)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        zs = rng.standard_normal((3, 10))
        a = knn_classify(KnnIndex(pts, labels, 3), zs)
        b = knn_classify(KnnIndex(2.5 * Q @ pts, labels, 3), 2.5 * Q @ zs)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            KnnIndex(points=np.zeros((2, 0)), labels=np.array([]), k=1)
        with pytest.raises(ValueError):
            KnnIndex(points=np.zeros((2, 3)), labels=np.array([1, 1, 2]), k=4)

    @pytest.mark.parametrize("labels", [[1, 2], [1, 2, 1, 2], [[1, 2, 1]]],
                             ids=["fewer", "more", "2-d"])
    def test_label_count_must_match_points(self, labels):
        # 2 or 4 labels for 3 points classified without error
        with pytest.raises(ValueError, match=rf"{np.size(labels)} labels for 3 points"):
            KnnIndex(points=np.zeros((2, 3)), labels=np.array(labels), k=1)

    @pytest.mark.parametrize("labels, bad", [([UNLABELED, 1], 0), ([1, 2, 0], 2)])
    def test_labels_below_one_rejected(self, labels, bad):
        # an UNLABELED point voted: the query 0.1 was classified -1
        points = np.arange(len(labels), dtype=float)[None, :]
        with pytest.raises(ValueError, match=f"point {bad} has label {labels[bad]}"):
            KnnIndex(points=points, labels=np.array(labels))


    def test_non_finite_index_point_rejected(self):
        # argmin picks NaN: the NaN point won every query
        with pytest.raises(ValueError, match="input column 1 has a non-finite"):
            KnnIndex(points=np.array([[0.0, np.nan, 1.0]]), labels=np.array([1, 2, 1]))

    @pytest.mark.parametrize("z", [np.nan, [np.inf], [[0.9, np.nan]]],
                             ids=["scalar", "vector", "batch"])
    def test_non_finite_query_rejected(self, z):
        # a NaN query took the label of index 0
        index = KnnIndex(points=np.array([[0.0, 2.0, 1.0]]), labels=np.array([1, 2, 1]))
        with pytest.raises(ValueError, match="has a non-finite value"):
            knn_classify(index, np.array(z) if np.ndim(z) else np.array([z]))

    @pytest.mark.parametrize("z", [np.zeros(3), np.zeros((3, 4))], ids=["single", "batch"])
    def test_query_dimension_must_match_index(self, z):
        index = KnnIndex(points=np.zeros((2, 3)), labels=np.array([1, 2, 1]))
        with pytest.raises(ValueError, match="expected inputs of dimension 2, got 3"):
            knn_classify(index, z)

    def test_single_query_returns_an_int(self):
        index = KnnIndex(points=np.array([[0.0, 2.0, 1.0]]), labels=np.array([1, 2, 1]))
        assert knn_classify(index, np.array([1.9])) == 2
        assert isinstance(knn_classify(index, np.array([1.9])), int)


class TestGoodNeighborsScore:
    def test_two_same_class_points(self):
        d = Dataset(X=np.array([[0.0, 1.0]]), labels=np.array([1, 1]),
                    n_classes=1)
        assert good_neighbors_score(d) == 1.0

    def test_alternating_line(self):
        d = Dataset(X=np.arange(6.0)[None, :],
                    labels=np.array([1, 2, 1, 2, 1, 2]), n_classes=2)
        assert good_neighbors_score(d) == 0.0

    def test_matches_lexsort_loop_on_grid_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            d = Dataset(X=rng.integers(0, 3, (2, 30)).astype(float),
                        labels=rng.integers(1, 4, 30), n_classes=3)
            assert good_neighbors_score(d) == lexsort_good_neighbors(d)

    def test_requires_full_labels(self):
        d = Dataset(X=np.zeros((1, 3)), labels=np.array([1, UNLABELED, 1]),
                    n_classes=1)
        with pytest.raises(ValueError):
            good_neighbors_score(d)

    def test_too_small(self):
        d = Dataset(X=np.zeros((1, 1)), labels=np.array([1]), n_classes=1)
        with pytest.raises(ValueError):
            good_neighbors_score(d)

    def test_mapping_changes_space(self):
        # classes separated along y but interleaved along x; dropping y
        # destroys the neighborhood structure
        X = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 9.0, 0.0, 9.0]])
        d = Dataset(X=X, labels=np.array([1, 2, 1, 2]), n_classes=2)
        assert good_neighbors_score(d) == 1.0
        assert good_neighbors_score(d, mapping=lambda X: X[:1]) == 0.0


class TestGoodNearbyRatio:
    def test_all_same_class(self):
        cu = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.4], [0.2, 0.4, 0.0]])
        assert good_nearby_ratio(cu, np.array([1, 1, 1]), 0.1) == 1.0

    def test_threshold_above_max_errors(self):
        cu = np.full((3, 3), 0.2) - 0.2 * np.eye(3)
        with pytest.raises(ValueError):
            good_nearby_ratio(cu, np.array([1, 2, 1]), 0.9)

    @pytest.mark.parametrize("threshold", [-0.1, float("nan"), float("inf")])
    def test_threshold_out_of_range_rejected(self, threshold):
        cu = np.full((3, 3), 0.2) - 0.2 * np.eye(3)
        with pytest.raises(ValueError, match="threshold must be non-negative and finite"):
            good_nearby_ratio(cu, np.array([1, 2, 1]), threshold)

    def test_unlabeled_examples_rejected(self):
        # the only near pair joins the two unlabeled points: no class to compare
        cu = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.1], [0.1, 0.1, 0.0]])
        with pytest.raises(ValueError, match="full ground-truth labels"):
            good_nearby_ratio(cu, np.array([UNLABELED, UNLABELED, 1]), 0.5)

    @pytest.mark.parametrize("shape, n", [((4, 4), 6), ((4, 4), 3), ((3, 4), 3),
                                          ((4, 3), 4)],
                             ids=["more labels", "fewer labels", "wide", "tall"])
    def test_costs_not_matching_the_labels_rejected(self, shape, n):
        # 4 x 4 costs with 6 labels scored the pairs of the first four labels
        cu = np.full(shape, 0.5)
        labels = 1 + np.arange(n) % 2
        with pytest.raises(ValueError, match=rf"costs of shape \({shape[0]}, "
                                             rf"{shape[1]}\) do not match {n} labels"):
            good_nearby_ratio(cu, labels, 0.1)

    def test_pair_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        X = np.hstack([rng.standard_normal((2, 10)),
                       rng.standard_normal((2, 10)) + 5.0])
        labels = np.array([1] * 10 + [2] * 10)
        cu = heat_kernel_costs(X, HeatKernelSpec("global", sigma=2.0))
        e = cu
        for t in (0.01, 0.1, 0.5):
            good = total = 0
            for i in range(20):
                for j in range(i + 1, 20):
                    if e[i, j] > t:
                        total += 1
                        good += labels[i] == labels[j]
            assert good_nearby_ratio(cu, labels, t) == good / total

    def test_monotone_in_threshold_for_separated_blobs(self):
        rng = np.random.default_rng(4)
        X = np.hstack([rng.standard_normal((2, 15)),
                       rng.standard_normal((2, 15)) + 8.0])
        labels = np.array([1] * 15 + [2] * 15)
        cu = heat_kernel_costs(X, HeatKernelSpec("global", sigma=3.0))
        ratios = [good_nearby_ratio(cu, labels, t) for t in (0.0, 0.2, 0.5)]
        assert ratios[0] <= ratios[1] <= ratios[2]

    def test_hadamard_power_keeps_quantile_pair_set(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((2, 12))
        labels = rng.integers(1, 3, 12)
        cu = heat_kernel_costs(X, HeatKernelSpec("global", sigma=1.0))
        e = cu
        iu, ju = np.triu_indices(12, 1)
        vals = np.sort(e[iu, ju])
        t = float(vals[len(vals) // 2])  # median entry as threshold
        base = good_nearby_ratio(cu, labels, t)
        for alpha in (2, 3, 5):
            powered = hadamard_power(cu, alpha)
            pv = np.sort(powered[iu, ju])
            t_alpha = float(pv[len(pv) // 2])
            assert good_nearby_ratio(powered, labels, t_alpha) == base
