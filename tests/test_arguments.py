"""One rule for every numeric argument of the library, checked site by site.

A real argument must be a finite ``numbers.Real`` inside its bounds; an
integral one must also equal its ``int``, so 3.0 is taken as 3 and 2.5 is
refused.  Every violation, a numeric string included, is an
``InvalidInputError``.
"""

import math

import numpy as np
import pytest

from stabcp import (
    GeneratorSpec,
    InvalidInputError,
    LadRidgeModel,
    RidgeModel,
    ScoreFunction,
    TabularDataset,
    default_candidate_grid,
    gen_linear_gaussian,
    oracle_cp,
    rank,
    split_cp,
    tau_user_supplied,
)
from stabcp.core import check_alpha
from stabcp.data import dataset_from_rows
from stabcp.harness import RunConfig, run_benchmark, synthetic_source

DS = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 10, 2, 1.0, seed=0))
ABS = ScoreFunction.absolute_residual()
NORMS = np.ones(DS.n + 1)
SOURCE = synthetic_source(GeneratorSpec("linear-gaussian", 6, 2, 1.0, seed=0))


def _benchmark(repetitions=1, seed=0):
    report, rows = run_benchmark(SOURCE, ["splitcp"], repetitions, seed, RunConfig())
    return report["repetitions"], report["seed"], [row["length"] for row in rows]


# site: (call with the argument under test, a value outside its bounds);
# None where every finite real is allowed
REAL_SITES = {
    "check_alpha": (check_alpha, 1.0),
    "candidate_range-lo": (lambda v: tau_user_supplied(NORMS, candidate_range=(v, 1.0)), 2.0),
    "candidate_range-hi": (lambda v: tau_user_supplied(NORMS, candidate_range=(0.0, v)), -1.0),
    # the absolute residual's own constant is 1: a smaller gamma is refused
    "ScoreFunction-gamma": (lambda v: ScoreFunction("absolute-residual", v), 0.5),
    "ScoreFunction.custom-gamma": (lambda v: ScoreFunction.custom(np.subtract, v), -1.0),
    # each model's stability bound is built from the score's gamma, and LAD's
    # divides by its penalty: neither can be built from a refused value
    "lipschitz-gamma": (lambda v: LadRidgeModel(0.5).stability_bound(
        DS, ScoreFunction.custom(np.subtract, v)), -1.0),
    "lipschitz-lambda_sc": (lambda v: LadRidgeModel(v).stability_bound(DS, ABS), 0.0),
    "linear_exact-gamma": (lambda v: RidgeModel(0.5).stability_bound(
        DS, ScoreFunction.custom(np.subtract, v)), -1.0),
    "RidgeModel-lambda_reg": (RidgeModel, -1.0),
    "RidgeModel.fit-candidate": (lambda v: RidgeModel(0.5).fit(DS, v), None),
    "LadRidgeModel-lambda_reg": (LadRidgeModel, 0.0),
    "LadRidgeModel-solver_tol": (lambda v: LadRidgeModel(1.0, solver_tol=v), 0.0),
    "GeneratorSpec-noise_sd": (lambda v: GeneratorSpec("linear-gaussian", 10, 2, v), -1.0),
    "TabularDataset-test_target": (lambda v: TabularDataset(DS.features, DS.targets,
                                                            DS.test_point, v), None),
    "augmented_targets-candidate": (DS.augmented_targets, None),
    "oracle_cp-true_target": (lambda v: oracle_cp(DS, v, RidgeModel(0.5), ABS, 0.1), None),
    "RunConfig-lambda_reg": (lambda v: RunConfig(lambda_reg=v), -1.0),
    "RunConfig-solver_tol": (lambda v: RunConfig(solver_tol=v), 0.0),
    "RunConfig-alpha": (lambda v: RunConfig(alpha=v), 0.0),
    "RunConfig-split_fraction": (lambda v: RunConfig(split_fraction=v), 1.0),
}

# the same for integral arguments; each call returns what the argument set,
# so that its result at 3.0 can be compared with its result at 3
INTEGRAL_SITES = {
    "default_candidate_grid-num": (lambda v: default_candidate_grid(DS, v), 0),
    "rank-index": (lambda v: rank([3.0, 1.0, 2.0, 5.0], v), 5),
    "LadRidgeModel-max_iter": (lambda v: LadRidgeModel(1.0, max_iter=v).max_iter, 0),
    "GeneratorSpec-n": (lambda v: GeneratorSpec("linear-gaussian", v, 2), 1),
    "GeneratorSpec-p": (lambda v: GeneratorSpec("linear-gaussian", 10, v), 0),
    "GeneratorSpec-seed": (lambda v: GeneratorSpec("linear-gaussian", 10, 2, 1.0, v), -1),
    "dataset_from_rows-test_index": (
        lambda v: dataset_from_rows(DS.features, DS.targets, v).test_point, DS.n),
    "split_cp-split_index": (
        lambda v: split_cp(DS, v, RidgeModel(0.5), ABS, 0.1).details["split_index"], DS.n),
    "RunConfig-max_iter": (lambda v: RunConfig(max_iter=v), 0),
    "RunConfig-grid_size": (lambda v: RunConfig(grid_size=v), 0),
    "run_benchmark-repetitions": (lambda v: _benchmark(repetitions=v), 0),
    "run_benchmark-seed": (lambda v: _benchmark(seed=v), -1),
}

# the text reads as a number inside every site's bounds, so only its type is wrong
CASES = ([(site, case) for site, (_, bound) in REAL_SITES.items()
          for case in ["text", "nan", "inf", *(["out-of-bound"] if bound is not None else [])]]
         + [(site, case) for site in INTEGRAL_SITES
            for case in ["text", "nan", "inf", "out-of-bound", "2.5", "3.0"]])


@pytest.mark.parametrize("site, case", CASES, ids=[f"{site}-{case}" for site, case in CASES])
def test_every_numeric_argument_follows_one_rule(site, case):
    integral = site in INTEGRAL_SITES
    call, bound = INTEGRAL_SITES[site] if integral else REAL_SITES[site]
    if case == "3.0":
        # taken as 3, down to the type of what it sets
        assert repr(call(3.0)) == repr(call(3))
        return
    value = {"text": "3" if integral else "0.5", "nan": math.nan, "inf": math.inf,
             "out-of-bound": bound, "2.5": 2.5}[case]
    with pytest.raises(InvalidInputError):
        call(value)
