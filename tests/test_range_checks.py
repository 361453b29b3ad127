"""Range checks reject NaN and infinity where a value enters, by name.  No
comparison holds for NaN, so each check states what a valid value meets
(``not value >= bound``) rather than what an invalid one does."""
import math

import pytest

from ssdr import ExperimentConfig, HeatKernelSpec, KernelSpec, LearnerSpec, SplitSpec

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
