"""One rule for every numeric argument of the library, checked site by site.

A real argument must be a finite ``numbers.Real`` inside its bounds; an
integral one must also equal its ``int``, so 3.0 is taken as 3 and 2.5 is
refused.  Every violation, a numeric string included, is an
``InvalidInputError``, in an array argument's entries too.
"""

import math

import numpy as np
import pytest

from stabcp import (
    GeneratorSpec,
    InvalidInputError,
    LadRidgeModel,
    PredictionSet,
    RidgeModel,
    ScoreFunction,
    TabularDataset,
    anchor_bounds,
    default_candidate_grid,
    gen_linear_gaussian,
    grid_cp,
    oracle_cp,
    rank,
    split_cp,
    split_pi,
)
from stabcp.core import check_alpha
from stabcp.data import dataset_from_rows
from stabcp.harness import RunConfig, run_benchmark, synthetic_source

DS = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 10, 2, 1.0, seed=0))
ABS = ScoreFunction.absolute_residual()
SOURCE = synthetic_source(GeneratorSpec("linear-gaussian", 6, 2, 1.0, seed=0))


def _benchmark(repetitions=1, seed=0):
    report, rows = run_benchmark(SOURCE, ["splitcp"], repetitions, seed, RunConfig())
    return report["repetitions"], report["seed"], [row["length"] for row in rows]


# site: (call with the argument under test, a value outside its bounds);
# None where every finite real is allowed
REAL_SITES = {
    "check_alpha": (check_alpha, 1.0),
    # the one range argument: a whole-range set's
    "candidate_range-lo": (lambda v: PredictionSet.whole_range("m", 0.1, (v, 1.0)), 2.0),
    "candidate_range-hi": (lambda v: PredictionSet.whole_range("m", 0.1, (0.0, v)), -1.0),
    # the absolute residual's own constant is 1: a smaller gamma is refused
    "ScoreFunction-gamma": (lambda v: ScoreFunction("absolute-residual", v), 0.5),
    "ScoreFunction.custom-gamma": (lambda v: ScoreFunction.custom(np.subtract, v), -1.0),
    # LAD's stability bound divides by its penalty: it cannot be built from a
    # refused value
    "lipschitz-lambda_sc": (lambda v: LadRidgeModel(v).stability_bound(DS), 0.0),
    "RidgeModel-lambda_reg": (RidgeModel, -1.0),
    "RidgeModel.fit-candidate": (lambda v: RidgeModel(0.5).fit(DS, v), None),
    "LadRidgeModel-lambda_reg": (LadRidgeModel, 0.0),
    "LadRidgeModel-solver_tol": (lambda v: LadRidgeModel(1.0, solver_tol=v), 0.0),
    "GeneratorSpec-noise_sd": (lambda v: GeneratorSpec("linear-gaussian", 10, 2, v), -1.0),
    "TabularDataset-test_target": (lambda v: TabularDataset(DS.features, DS.targets,
                                                            DS.test_point, v), None),
    "augmented_targets-candidate": (DS.augmented_targets, None),
    "oracle_cp-true_target": (lambda v: oracle_cp(DS, v, RidgeModel(0.5), ABS, 0.1), None),
    # a curve's candidate: the envelope's and split's conformity, as pi_exact's
    "ConformityBounds.pi_bounds_at-z": (
        anchor_bounds(DS, RidgeModel(0.5), ABS)[0].pi_bounds_at, None),
    "split_pi-z": (split_pi(DS, 5, RidgeModel(0.5), ABS), None),
    # a whole-range set contains every real, and still refuses what is not one
    "PredictionSet.contains-value": (PredictionSet.whole_range("stabcp", 0.1, (0.0, 1.0)).contains,
                                     None),
    "RunConfig-lambda_reg": (lambda v: RunConfig(lambda_reg=v), -1.0),
    "RunConfig-solver_tol": (lambda v: RunConfig(solver_tol=v), 0.0),
    "RunConfig-alpha": (lambda v: RunConfig(alpha=v), 0.0),
    "RunConfig-split_fraction": (lambda v: RunConfig(split_fraction=v), 1.0),
    # array arguments, every entry set to the value: a string entry is
    # refused as a string scalar is
    "TabularDataset-features": (lambda v: TabularDataset(np.full(DS.features.shape, v),
                                                         DS.targets, DS.test_point), None),
    "TabularDataset-targets": (lambda v: TabularDataset(DS.features, np.full(DS.n, v),
                                                        DS.test_point), None),
    "TabularDataset-test_point": (lambda v: TabularDataset(DS.features, DS.targets,
                                                           np.full(DS.p, v)), None),
    "grid_cp-grid": (lambda v: grid_cp(DS, RidgeModel(0.5), ABS, 0.1, [v, v]), None),
    "split_pi-z-list": (lambda v: split_pi(DS, 5, RidgeModel(0.5), ABS)([v, v]), None),
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

