import subprocess
import sys

import numpy as np
import pytest

from ssdr import (Dataset, DatasetError, SplitSpec, UNLABELED, center,
                  generate_balance, generate_multimodal_toy, load_csv,
                  save_csv, split)
from ssdr.harness import config_from_dict, load_dataset


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_fields(self, tmp_path):
        p = write(tmp_path / "d.csv",
                  "a,b,c,d,label\n1,2,3,4,L\n5,6,7,8,B\n9,10,11,12,R\n")
        d = load_csv(p, "label")
        assert d.d0 == 4 and d.n == 3 and d.n_classes == 3
        assert d.label_names == ("B", "L", "R")
        np.testing.assert_array_equal(d.X[:, 0], [1, 2, 3, 4])

    def test_missing_label_fraction(self, tmp_path):
        rows = ["x,label"] + [f"{i}," for i in range(18)] + ["18,a", "19,b"]
        d = load_csv(write(tmp_path / "d.csv", "\n".join(rows) + "\n"), "label")
        assert d.n == 20 and d.labeled_count == 2
        assert (d.labels[:18] == UNLABELED).all()

    def test_malformed_row_reports_index(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,label\n1,a\noops,b\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(p, "label")

    def test_non_finite_cell_reports_row_and_column(self, tmp_path):
        for cell in ("nan", "inf", "-Infinity"):
            p = write(tmp_path / "d.csv", f"x,y,label\n1,2,a\n1,{cell},a\n")
            with pytest.raises(DatasetError, match="row 3, column 'y'"):
                load_csv(p, "label")

    def test_ragged_row_reports_index(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y,label\n1,2,a\n1,a\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(p, "label")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetError, match="empty"):
            load_csv(write(tmp_path / "d.csv", ""), "label")

    def test_all_labels_missing(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            load_csv(write(tmp_path / "d.csv", "x,label\n1,\n2,\n"), "label")

    def test_unknown_label_column(self, tmp_path):
        with pytest.raises(DatasetError, match="no column"):
            load_csv(write(tmp_path / "d.csv", "x,y\n1,2\n"), "label")

    def test_roundtrip(self, tmp_path):
        d = generate_multimodal_toy("two-cluster", 5, 0.5, 3)
        d = d.with_labels_hidden(np.arange(0, d.n, 2))
        save_csv(d, tmp_path / "out.csv")
        back = load_csv(str(tmp_path / "out.csv"), "label")
        np.testing.assert_allclose(back.X, d.X)
        np.testing.assert_array_equal(back.labels, d.labels)

    def test_roundtrip_keeps_the_ids_of_twelve_classes(self, tmp_path):
        # ids are written as 01..12, which sort as the numbers do
        d = Dataset(X=np.arange(12.0)[None, :], labels=np.arange(1, 13), n_classes=12)
        save_csv(d, tmp_path / "out.csv")
        back = load_csv(str(tmp_path / "out.csv"), "label")
        np.testing.assert_array_equal(back.labels, d.labels)
        assert back.n_classes == 12


class TestDatasetModel:
    def test_label_range_validation(self):
        with pytest.raises(DatasetError):
            Dataset(X=np.zeros((2, 2)), labels=np.array([1, 3]), n_classes=2)

    @pytest.mark.parametrize("fields, message", [
        (dict(n_classes=0), "n_classes must be >= 1, got 0"),
        (dict(n_classes=2.5), "n_classes must be an integer, got 2.5"),
        (dict(n_classes=3, label_names=("a", "b")), "label_names has 2 names for n_classes = 3"),
    ], ids=["no class", "fractional", "too few names"])
    def test_impossible_class_count_rejected_by_name(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(X=np.zeros((1, 4)), labels=[UNLABELED] * 4, **fields)

    @pytest.mark.parametrize("labels, example", [
        ([1.7, 2.2, -1.0], 0), ([1.0, np.nan, 2.0], 1), ([1.0, 2.0, np.inf], 2)])
    def test_non_integral_label_names_example(self, labels, example):
        # a cast to int used to store 1.7 as 1
        with pytest.raises(DatasetError, match=f"^example {example} has the label"):
            Dataset(X=np.zeros((2, 3)), labels=labels, n_classes=2)

    def test_integral_float_labels_accepted(self):
        d = Dataset(X=np.zeros((2, 3)), labels=[1.0, 2.0, -1.0], n_classes=2)
        assert d.labels.dtype.kind == "i" and d.labels.tolist() == [1, 2, -1]

    def test_non_finite_x_names_example(self):
        X = np.zeros((2, 5))
        for value in (np.nan, np.inf, -np.inf):
            X[1, 3] = value
            with pytest.raises(DatasetError, match="example 3 "):
                Dataset(X=X, labels=np.ones(5, dtype=int), n_classes=1)

    def test_class_counts(self):
        d = Dataset(X=np.zeros((1, 4)), labels=np.array([1, 2, 2, UNLABELED]),
                    n_classes=2)
        np.testing.assert_array_equal(d.class_counts, [1, 2])
        assert d.labeled_count == 3

    def test_subset_and_hide(self):
        d = Dataset(X=np.arange(8.0).reshape(2, 4), labels=np.array([1, 2, 1, 2]),
                    n_classes=2)
        s = d.subset([1, 3])
        np.testing.assert_array_equal(s.labels, [2, 2])
        h = d.with_labels_hidden([0])
        assert h.labels.tolist() == [1, UNLABELED, UNLABELED, UNLABELED]


class TestCenter:
    def test_already_centered(self):
        d = Dataset(X=np.array([[1.0, -1.0], [1.0, -1.0]]),
                    labels=np.array([1, 1]), n_classes=1)
        c, mean = center(d)
        np.testing.assert_allclose(c.X, d.X)
        np.testing.assert_allclose(mean, [0, 0])

    def test_arithmetic(self):
        d = Dataset(X=np.array([[2.0, 0.0], [0.0, 2.0]]),
                    labels=np.array([1, 1]), n_classes=1)
        c, mean = center(d)
        np.testing.assert_allclose(mean, [1, 1])
        np.testing.assert_allclose(c.X, [[1, -1], [-1, 1]])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        d = Dataset(X=rng.standard_normal((3, 10)),
                    labels=np.ones(10, dtype=int), n_classes=1)
        once, _ = center(d)
        twice, mean2 = center(once)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-12)
        np.testing.assert_allclose(mean2, 0, atol=1e-12)


class TestGenerateBalance:
    def test_size_and_classes(self):
        d = generate_balance()
        assert d.n == 625 and d.n_classes == 3
        assert d.label_names == ("B", "L", "R")

    def test_known_rows(self):
        d = generate_balance()
        def cls(row):
            j = np.flatnonzero((d.X.T == row).all(axis=1))[0]
            return d.label_names[d.labels[j] - 1]
        assert cls([1, 1, 1, 1]) == "B"
        assert cls([5, 5, 1, 1]) == "L"


class TestToyGenerators:
    def test_deterministic(self):
        a = generate_multimodal_toy("ssl-only", 10, 0.5, 7)
        b = generate_multimodal_toy("ssl-only", 10, 0.5, 7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_noise_hits_centers(self):
        d = generate_multimodal_toy("two-cluster", 3, 0.0, 0)
        centers = {(1.5, 0.0), (-1.5, 0.0), (17.5, 0.0), (14.5, 0.0)}
        assert {tuple(col) for col in d.X.T} == centers

    def test_three_cluster_bookkeeping(self):
        d = generate_multimodal_toy("three-cluster", 50, 0.5, 0)
        assert d.n == 150 and d.n_classes == 2
        # class 1 is generated as the first two blobs, class 2 as the third
        assert d.labels.tolist() == [1] * 100 + [2] * 50
        # bimodality: the two class-1 blobs sit on opposite sides of x = 0
        x1 = d.X[0, :50], d.X[0, 50:100]
        assert (x1[0] < 0).all() and (x1[1] > 0).all()

    def test_unknown_kind(self):
        with pytest.raises(DatasetError, match="unknown toy kind"):
            generate_multimodal_toy("spiral", 10, 0.5, 0)

    @pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
    def test_bad_noise_rejected_by_name(self, noise):
        with pytest.raises(DatasetError, match="noise must be non-negative and finite"):
            generate_multimodal_toy("two-cluster", 5, noise, 0)

    def test_n_per_cluster_minimum(self):
        with pytest.raises(DatasetError):
            generate_multimodal_toy("ssl-only", 1, 0.5, 0)


class TestSplit:
    def make(self, n=20, n_classes=2):
        rng = np.random.default_rng(1)
        labels = np.array([1 + i % n_classes for i in range(n)])
        return Dataset(X=rng.standard_normal((3, n)), labels=labels,
                       n_classes=n_classes)

    def test_disjoint_and_exhaustive_transductive(self):
        d = self.make()
        lab, unl, test = split(d, SplitSpec(labeled=5, seed=0), 0)
        assert test.size == 0
        assert set(lab) | set(unl) == set(range(20))
        assert not set(lab) & set(unl)

    def test_all_labeled_boundary(self):
        d = self.make()
        lab, unl, test = split(d, SplitSpec(labeled=20, seed=0), 0)
        assert lab.size == 20 and unl.size == 0 and test.size == 0

    def test_per_class_counts(self):
        d = self.make(n=50, n_classes=5)
        spec = SplitSpec(labeled=20, seed=0, per_class_labels=True)
        lab, _, _ = split(d, spec, 0)
        counts = np.bincount(d.labels[lab], minlength=6)[1:]
        assert counts.tolist() == [4, 4, 4, 4, 4]

    def test_per_class_empty_class_errors(self):
        d = Dataset(X=np.zeros((2, 6)), labels=np.array([1, 1, 1, 2, 2, 2]),
                    n_classes=3)
        with pytest.raises(DatasetError, match="class 3"):
            split(d, SplitSpec(labeled=3, per_class_labels=True), 0)

    def test_inductive_sizes(self):
        d = self.make()
        lab, unl, test = split(d, SplitSpec(labeled=5, unlabeled=8, test=4), 0)
        assert (lab.size, unl.size, test.size) == (5, 8, 4)
        assert not (set(lab) & set(unl) or set(lab) & set(test)
                    or set(unl) & set(test))

    def test_oversubscription_errors(self):
        d = self.make()
        with pytest.raises(DatasetError):
            split(d, SplitSpec(labeled=5, unlabeled=10, test=10), 0)

    def test_test_count_beyond_the_rest_errors(self):
        # 15 points, 3 labeled: a test set of 20 used to shrink to 8 test
        # and 4 unlabeled points
        d = generate_multimodal_toy("ssl-only", 5, 0.5, 0)
        with pytest.raises(DatasetError, match="exceeds the dataset size"):
            split(d, SplitSpec(labeled=3, test=20), 0)
        lab, unl, test = split(d, SplitSpec(labeled=3, test=12), 0)
        assert (lab.size, unl.size, test.size) == (3, 0, 12)

    def test_config_test_count_beyond_the_rest_errors(self):
        cfg = config_from_dict({"dataset": "ssl-only", "n_per_cluster": "5",
                                "labeled": "3", "test": "20"})
        with pytest.raises(DatasetError, match="exceeds the dataset size"):
            split(load_dataset(cfg), cfg.split, 0)

    def test_realization_bounds(self):
        d = self.make()
        with pytest.raises(DatasetError):
            split(d, SplitSpec(labeled=5, realizations=3), 3)

    @pytest.mark.parametrize("field, value, least", [
        ("labeled", -2, 0), ("unlabeled", -3, 0), ("test", -5, 0), ("realizations", 0, 1)])
    def test_negative_counts_rejected(self, field, value, least):
        # unchecked, unlabeled=-3 kept all but 3 points, test=-5 ran
        # transductively and realizations=0 ran no realization
        d = generate_multimodal_toy("ssl-only", 30, 0.5, 0)
        with pytest.raises(ValueError, match=f"{field} must be >= {least}, got {value}"):
            split(d, SplitSpec(**{"labeled": 6, field: value}), 0)

    def test_determinism_in_process(self):
        d = self.make()
        spec = SplitSpec(labeled=5, seed=42, realizations=5)
        for r in range(5):
            a = split(d, spec, r)
            b = split(d, spec, r)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)
        # different realizations differ
        assert not np.array_equal(split(d, spec, 0)[0], split(d, spec, 1)[0])

    def test_determinism_across_processes(self):
        code = (
            "import numpy as np\n"
            "from ssdr import Dataset, SplitSpec, split\n"
            "rng = np.random.default_rng(1)\n"
            "labels = np.array([1 + i % 2 for i in range(20)])\n"
            "d = Dataset(X=rng.standard_normal((3, 20)), labels=labels, n_classes=2)\n"
            "lab, unl, _ = split(d, SplitSpec(labeled=5, seed=42, realizations=5), 2)\n"
            "print(list(lab), list(unl))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.strip()
        d = self.make()
        lab, unl, _ = split(d, SplitSpec(labeled=5, seed=42, realizations=5), 2)
        assert out == f"{list(lab)} {list(unl)}"

    def test_toy_determinism_across_processes(self):
        code = (
            "from ssdr import generate_multimodal_toy\n"
            "d = generate_multimodal_toy('ssl-only', 4, 0.5, 9)\n"
            "print(repr(d.X.tolist()))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.strip()
        d = generate_multimodal_toy("ssl-only", 4, 0.5, 9)
        assert out == repr(d.X.tolist())
