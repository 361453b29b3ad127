"""Range checks reject NaN and infinity where a value enters, by name.  No
comparison holds for NaN, so each check states what a valid value meets
(``not value >= bound``) rather than what an invalid one does."""
import math

import numpy as np
import pytest

from ssdr import (ExperimentConfig, HeatKernelSpec, KernelSpec, KnnIndex, LearnerSpec,
                  SplitSpec)
from ssdr.harness import config_from_dict

# (constructor, the other arguments it needs, the field under test)
FIELDS = [
    (LearnerSpec, {}, "gamma"),
    (LearnerSpec, {}, "gamma_prime"),
    (LearnerSpec, {}, "dim"),
    (LearnerSpec, {}, "k"),
    (LearnerSpec, {}, "alpha"),
    (LearnerSpec, {}, "epsilon"),
    (HeatKernelSpec, {"scaling": "global"}, "sigma"),
    (KernelSpec, {"kind": "gaussian"}, "sigma"),
    (SplitSpec, {}, "labeled"),
    (SplitSpec, {}, "unlabeled"),
    (SplitSpec, {}, "test"),
    (SplitSpec, {}, "realizations"),
    (ExperimentConfig, {"dataset": "three-cluster"}, "folds"),
    (ExperimentConfig, {"dataset": "three-cluster"}, "eval_k"),
    (ExperimentConfig, {"dataset": "three-cluster"}, "gamma_grid"),
    (ExperimentConfig, {"dataset": "three-cluster"}, "alpha_grid"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("cls, fixed, name", FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in FIELDS])
def test_non_finite_value_rejected_by_name(cls, fixed, name, value):
    if name.endswith("_grid"):
        value = (1.0, value)
    with pytest.raises(ValueError, match=rf"(^|\s){name} (values )?must"):
        cls(**fixed, **{name: value})


@pytest.mark.parametrize("name", ["gamma_grid", "alpha_grid"])
def test_empty_grid_rejected_at_construction(name):
    # it used to fail later, inside every realization's tuning
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        ExperimentConfig(dataset="three-cluster", **{name: ()})


# (constructor, the other arguments it needs, the field under test, a value
# out of its range): counts must be integers, and every bound holds
BAD_VALUES = [
    (LearnerSpec, {}, "dim", 1.5),
    (LearnerSpec, {}, "dim", 2.0),
    (LearnerSpec, {}, "k", 1.5),
    (LearnerSpec, {}, "alpha", 2.5),
    (HeatKernelSpec, {}, "k", 1.5),
    (HeatKernelSpec, {}, "k", math.nan),
    (KernelSpec, {"kind": "polynomial"}, "degree", 1.5),
    (KernelSpec, {"kind": "polynomial"}, "degree", math.nan),
    (KernelSpec, {"kind": "polynomial"}, "degree", 0),
    (SplitSpec, {}, "labeled", 2.5),
    (SplitSpec, {}, "unlabeled", 0.5),
    (SplitSpec, {}, "test", 1.5),
    (SplitSpec, {}, "seed", -1),
    (SplitSpec, {}, "realizations", 1.5),
    (ExperimentConfig, {"dataset": "three-cluster"}, "folds", 2.5),
    (ExperimentConfig, {"dataset": "three-cluster"}, "eval_k", 1.5),
    (ExperimentConfig, {"dataset": "three-cluster"}, "dim", 0),
    (ExperimentConfig, {"dataset": "three-cluster"}, "dim", 1.5),
    (ExperimentConfig, {"dataset": "three-cluster"}, "n_per_cluster", 0),
    (ExperimentConfig, {"dataset": "three-cluster"}, "n_per_cluster", 1),
    (ExperimentConfig, {"dataset": "three-cluster"}, "n_per_cluster", 2.5),
    (ExperimentConfig, {"dataset": "three-cluster"}, "toy_noise", -1.0),
    (ExperimentConfig, {"dataset": "three-cluster"}, "toy_noise", math.nan),
    (ExperimentConfig, {"dataset": "three-cluster"}, "toy_noise", math.inf),
    (ExperimentConfig, {"dataset": "three-cluster"}, "data_seed", -1),
    (KnnIndex, {"points": np.zeros((1, 3)), "labels": np.array([1, 1, 2])}, "k", 1.5),
    (KnnIndex, {"points": np.zeros((1, 3)), "labels": np.array([1, 1, 2])}, "k", 0),
]


@pytest.mark.parametrize("cls, fixed, name, value", BAD_VALUES,
                         ids=[f"{cls.__name__}.{name}={value}"
                              for cls, _, name, value in BAD_VALUES])
def test_out_of_range_value_rejected_by_name(cls, fixed, name, value):
    with pytest.raises(ValueError, match=rf"(^|\s){name} must be"):
        cls(**fixed, **{name: value})


@pytest.mark.parametrize("value", [1, 2, 7])
def test_integer_counts_accepted(value):
    assert LearnerSpec(dim=value, k=value, alpha=value).dim == value
    assert HeatKernelSpec(k=value).k == value
    assert KernelSpec("polynomial", degree=value).degree == value


# every numeric config key, with a text out of its range
BAD_CONFIG = [
    ("labeled", "-1"), ("unlabeled", "-1"), ("test", "-2"), ("seed", "-1"),
    ("realizations", "0"), ("gamma_grid", "1,-1"), ("alpha_grid", "0"),
    ("folds", "1"), ("eval_k", "0"), ("dim", "0"), ("heat_k", "0"),
    ("n_per_cluster", "1"), ("toy_noise", "-0.5"), ("toy_noise", "nan"),
    ("data_seed", "-3"), ("kernel", "poly0"), ("kernel", "gaussian:0"),
    ("heat", "global:nan"),
]


@pytest.mark.parametrize("key, text", BAD_CONFIG, ids=[f"{k}={t}" for k, t in BAD_CONFIG])
def test_out_of_range_config_value_names_its_key(key, text):
    # a config key is the name of its field, or it leads the message
    field = {"heat_k": "k", "kernel": "(degree|sigma)", "heat": "sigma"}.get(key, key)
    with pytest.raises(ValueError, match=rf"^(config key '{key}': .*)?{field} (values )?must"):
        config_from_dict({"dataset": "three-cluster", key: text})
