import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcp import (
    GeneratorSpec,
    InvalidInputError,
    LadRidgeModel,
    RidgeModel,
    ScoreFunction,
    StabilityBounds,
    TabularDataset,
    augmented_row_norms,
    bound_loss_C,
    conformity_scores,
    gen_linear_gaussian,
    scaled_squared_loss,
    tau_linear_exact,
    tau_regularized_lipschitz,
    tau_regularized_smooth,
    tau_strongly_convex,
)

ABS = ScoreFunction.absolute_residual()


# ------------------------------------------------------------ validation

def test_bounds_reject_negative_and_nan():
    with pytest.raises(InvalidInputError):
        StabilityBounds(np.array([0.1, -0.2]), "user-supplied")
    with pytest.raises(InvalidInputError):
        StabilityBounds(np.array([0.1, np.nan]), "user-supplied")
    with pytest.raises(InvalidInputError):
        StabilityBounds(np.array([0.1, 0.2]), "nonsense")


# ------------------------------------------------- strongly convex bound

def test_strongly_convex_arithmetic():
    bounds = tau_strongly_convex(gamma=1.0, rho=0.5, lambda_sc=1.0, n=4)
    assert np.allclose(bounds.tau, 1.0)
    assert bounds.tau.size == 5
    assert bounds.provenance == "strongly-convex-loss"


def test_strongly_convex_zero_gamma_zero_bound():
    assert np.allclose(tau_strongly_convex(0.0, 3.0, 2.0, 3).tau, 0.0)


def test_strongly_convex_halves_when_lambda_doubles():
    a = tau_strongly_convex(1.0, 1.0, 1.0, 3).tau
    b = tau_strongly_convex(1.0, 1.0, 2.0, 3).tau
    assert np.allclose(a, 2 * b)


def test_strongly_convex_rejects_nonpositive_lambda():
    with pytest.raises(InvalidInputError):
        tau_strongly_convex(1.0, 1.0, 0.0, 3)


# -------------------------------------------- regularized lipschitz bound

def test_regularized_lipschitz_arithmetic():
    bounds = tau_regularized_lipschitz(1.0, 1.0, 2.0, np.ones(4))
    assert np.allclose(bounds.tau, 1.0)


def test_regularized_lipschitz_zero_row():
    norms = np.array([1.0, 0.0, 2.0])
    bounds = tau_regularized_lipschitz(1.0, 1.0, 2.0, norms)
    assert bounds.tau[1] == 0.0


def test_regularized_lipschitz_rejects_negative_norm():
    with pytest.raises(InvalidInputError):
        tau_regularized_lipschitz(1.0, 1.0, 2.0, np.array([1.0, -1.0]))


def test_lad_score_deviations_within_lipschitz_bound():
    # The benchmark configuration: n=30, p=100, penalty 0.5.  Only the query
    # row's averaged loss term moves with the candidate, so the declared
    # Lipschitz constant is ||x_query||/m; the penalty is 2*0.5-strongly
    # convex.  The bound must hold for every candidate pair, so compare
    # max-minus-min prediction spread per row against tau.
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 30, 100, 1.0, 3))
    lam = 0.5
    spec = LadRidgeModel(lam, solver_tol=1e-10)
    lo, hi = ds.target_range()
    bounds = spec.stability_bound(ds, ABS, (lo, hi))
    assert bounds.provenance == "regularized-lipschitz"
    query_norm = float(np.linalg.norm(ds.test_point))
    assert np.array_equal(bounds.tau, tau_regularized_lipschitz(
        ABS.gamma, query_norm / (ds.n + 1), 2.0 * lam, augmented_row_norms(ds)).tau)
    zs = np.linspace(lo, hi, 30)
    preds = np.vstack([spec.fit(ds, z).row_predictions for z in zs])
    deviations = preds.max(axis=0) - preds.min(axis=0)
    assert np.all(ABS.gamma * deviations <= bounds.tau + 1e-8)
    # score deviations against q = y_i can only be smaller
    scores = np.abs(ds.augmented_targets(zs[0])[None, :-1] - preds[:, :-1])
    row_dev = scores.max(axis=0) - scores.min(axis=0)
    assert np.all(row_dev <= bounds.tau[:-1] + 1e-8)


# ---------------------------------------------- regularized smooth bound

def test_regularized_smooth_arithmetic():
    bounds = tau_regularized_smooth(gamma=1.0, nu=1.0, loss_bound_C=2.0,
                                    lambda_sc=2.0, row_norms=np.ones(3))
    assert np.allclose(bounds.tau, 4.0)


def test_regularized_smooth_zero_loss_bound():
    bounds = tau_regularized_smooth(1.0, 1.0, 0.0, 2.0, np.ones(3))
    assert np.allclose(bounds.tau, 0.0)


def test_regularized_smooth_rejects_nu_at_least_lambda():
    with pytest.raises(InvalidInputError):
        tau_regularized_smooth(1.0, 2.0, 1.0, 2.0, np.ones(3))


def test_ridge_deviations_within_smooth_bound():
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 20, 3, 1.0, 9))
    lam = 0.5
    spec = RidgeModel(lam)
    m = ds.n + 1
    z_range = ds.target_range()
    C = bound_loss_C(ds, z_range=z_range)
    bounds = tau_regularized_smooth(ABS.gamma, 2.0 / m, C, 2.0 * lam,
                                    augmented_row_norms(ds), candidate_range=z_range)
    # the model's own bound is this one, bit for bit
    own = spec.stability_bound(ds, ABS, z_range)
    assert own.provenance == "regularized-smooth" and own.candidate_range == z_range
    assert np.array_equal(own.tau, bounds.tau)
    # exact deviations via the affine-in-candidate decomposition
    fitted = spec.fit(ds, 0.0)
    exact_dev = np.abs(fitted.row_b) * (z_range[1] - z_range[0])
    assert np.all(ABS.gamma * exact_dev <= bounds.tau + 1e-10)


# ------------------------------------------------------------ loss bound

def test_loss_bound_endpoint_evaluation():
    ds = TabularDataset(np.ones((2, 1)), np.array([1.0, -1.0]), np.ones(1))
    C = bound_loss_C(ds, z_range=(-1.0, 1.0))
    assert C == pytest.approx(1.0)


def test_loss_bound_degenerate_zero():
    ds = TabularDataset(np.ones((2, 1)), np.zeros(2), np.ones(1))
    assert bound_loss_C(ds, z_range=(0.0, 0.0)) == 0.0


def test_loss_bound_grid_matches_endpoints_for_convex_loss():
    # the scaled squared loss is convex in the candidate: a dense grid finds
    # no larger value than the endpoints that bound_loss_C evaluates
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 30, 100, 1.0, 3))
    zeros = np.zeros(ds.n + 1)
    grid = max(scaled_squared_loss(ds.augmented_targets(z), zeros)
               for z in np.linspace(*ds.target_range(), 1000))
    assert grid == pytest.approx(bound_loss_C(ds), rel=1e-12)


# ------------------------------------------------------------ linear exact

def test_linear_exact_zero_slope_row(small_dataset):
    fitted = RidgeModel(0.5).fit(small_dataset, 0.0)
    bounds = tau_linear_exact(fitted, small_dataset, z_range=(0.0, 0.0))
    assert np.allclose(bounds.tau, 0.0)
    # a zero feature row has zero candidate slope, hence a zero bound
    X = small_dataset.features.copy()
    X[0] = 0.0
    ds = TabularDataset(X, small_dataset.targets, small_dataset.test_point)
    fitted = RidgeModel(0.5).fit(ds, 0.0)
    bounds = tau_linear_exact(fitted, ds, z_range=(-2.0, 2.0))
    assert bounds.tau[0] == 0.0
    assert bounds.tau[-1] > 0.0


def test_linear_exact_scales_with_range(small_dataset):
    fitted = RidgeModel(0.5).fit(small_dataset, 0.0)
    one = tau_linear_exact(fitted, small_dataset, z_range=(0.0, 1.0))
    two = tau_linear_exact(fitted, small_dataset, z_range=(0.0, 2.0))
    assert np.allclose(2 * one.tau, two.tau)


def test_linear_exact_dominates_dense_grid_deviations(small_dataset):
    lam = 0.5
    spec = RidgeModel(lam)
    z_range = small_dataset.target_range()
    anchor = z_range[0]
    fitted = spec.fit(small_dataset, anchor)
    bounds = tau_linear_exact(fitted, small_dataset, z_range=z_range)
    zs = np.linspace(z_range[0], z_range[1], 500)
    preds = np.vstack([spec.fit(small_dataset, z).row_predictions for z in zs])
    dev = np.abs(preds - fitted.row_predictions[None, :]).max(axis=0)
    assert np.all(dev <= bounds.tau + 1e-10)
    # worst case is approached at the far endpoint
    nonzero = bounds.tau > 1e-12
    assert np.all(dev[nonzero] >= 0.99 * bounds.tau[nonzero])


def test_linear_exact_requires_affine_decomposition(small_dataset):
    with pytest.raises(InvalidInputError):
        tau_linear_exact(object(), small_dataset)


# ------------------------------------------------------------ monotonicity

@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(0.0, 5.0),
    rho=st.floats(0.0, 5.0),
    lam=st.floats(0.1, 5.0),
    bump=st.floats(0.0, 2.0),
)
def test_bounds_monotone_in_constants(gamma, rho, lam, bump):
    base = tau_strongly_convex(gamma, rho, lam, 3).tau
    assert np.all(tau_strongly_convex(gamma + bump, rho, lam, 3).tau >= base)
    assert np.all(tau_strongly_convex(gamma, rho + bump, lam, 3).tau >= base)
    assert np.all(tau_strongly_convex(gamma, rho, lam + bump, 3).tau <= base)


def test_smooth_bound_monotone_in_nu_C_norms():
    norms = np.ones(4)
    base = tau_regularized_smooth(1.0, 0.5, 1.0, 2.0, norms).tau
    assert np.all(tau_regularized_smooth(1.0, 0.8, 1.0, 2.0, norms).tau >= base)
    assert np.all(tau_regularized_smooth(1.0, 0.5, 2.0, 2.0, norms).tau >= base)
    assert np.all(tau_regularized_smooth(1.0, 0.5, 1.0, 2.0, 2 * norms).tau >= base)


# --------------------------------------------------------- range coverage

def test_candidate_range_contains_next_draw():
    # For continuous i.i.d. draws the next value escapes the observed range
    # exactly when it is the overall min or max: probability 2/(n+1).
    rng = np.random.default_rng(12)
    draws, n = 20000, 19
    Y = rng.standard_normal((draws, n + 1))
    inside = (Y[:, -1] >= Y[:, :-1].min(axis=1)) & (Y[:, -1] <= Y[:, :-1].max(axis=1))
    freq = inside.mean()
    bound = 1 - 2 / (n + 1)
    assert freq >= bound - 3 * math.sqrt(bound * (1 - bound) / draws)


# ----------------------------------------------------------------- auto

def test_tau_auto_dispatches_by_model(small_dataset):
    z_range = small_dataset.target_range()
    lad_bounds = LadRidgeModel(0.5).stability_bound(small_dataset, ABS, z_range)
    assert lad_bounds.provenance == "regularized-lipschitz"
    ridge_bounds = RidgeModel(0.5).stability_bound(small_dataset, ABS, z_range)
    assert ridge_bounds.provenance == "regularized-smooth"
