import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabcp
from stabcp import (
    GeneratorSpec,
    InvalidInputError,
    LadRidgeModel,
    RidgeModel,
    ScoreFunction,
    StabilityBounds,
    TabularDataset,
    gen_linear_gaussian,
)

ABS = ScoreFunction.absolute_residual()


def _custom(gamma):
    return ScoreFunction.custom(lambda q, m: np.abs(q - m), gamma=gamma)


# ------------------------------------------------------------ validation

def test_bounds_reject_negative_and_nan():
    with pytest.raises(InvalidInputError):
        StabilityBounds(np.array([0.1, -0.2]), "user-supplied")
    with pytest.raises(InvalidInputError):
        StabilityBounds(np.array([0.1, np.nan]), "user-supplied")
    with pytest.raises(InvalidInputError):
        StabilityBounds(np.array([0.1, 0.2]), "nonsense")


def test_free_standing_recipes_are_gone():
    # each model builds its one bound; tau_user_supplied is the only other way
    removed = ("tau_linear_exact", "tau_regularized_lipschitz", "tau_regularized_smooth",
               "bound_loss_C", "scaled_squared_loss", "augmented_row_norms")
    for name in removed:
        assert name not in dir(stabcp)
        assert name not in dir(stabcp.stability)
    assert "regularized-smooth" not in stabcp.stability.PROVENANCES


# -------------------------------------------- regularized lipschitz bound

def _lad_closed_form(ds, gamma, lam):
    """``gamma * ||x_q|| * ||x_i|| / ((n + 1) * lambda)`` per augmented row."""
    rows = np.vstack([ds.features, ds.test_point[None, :]])
    return gamma * np.linalg.norm(ds.test_point) * np.linalg.norm(rows, axis=1) / (
        (ds.n + 1) * lam)


def test_regularized_lipschitz_arithmetic():
    # ||x_q|| = 1 and n + 1 = 4 at lambda = 0.5: the bound is gamma * ||x_i|| / 2
    ds = TabularDataset(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]]),
                        np.array([1.0, -1.0, 0.5]), np.array([0.0, 1.0]))
    bounds = LadRidgeModel(0.5).stability_bound(ds, ABS, ds.target_range())
    assert np.allclose(bounds.tau, [0.5, 1.0, 2.5, 0.5])
    bounds = LadRidgeModel(0.5).stability_bound(ds, _custom(3.0), ds.target_range())
    assert np.allclose(bounds.tau, [1.5, 3.0, 7.5, 1.5])
    drawn = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 30, 5, 1.0, 4))
    bounds = LadRidgeModel(0.2).stability_bound(drawn, _custom(2.0), drawn.target_range())
    assert np.allclose(bounds.tau, _lad_closed_form(drawn, 2.0, 0.2), rtol=1e-14, atol=0)
    # the range is checked but changes nothing: without one the bound is the same
    unranged = LadRidgeModel(0.2).stability_bound(drawn, _custom(2.0), None)
    assert np.array_equal(unranged.tau, bounds.tau)
    assert unranged.candidate_range is bounds.candidate_range is None


def test_regularized_lipschitz_zero_row():
    # a zero feature row never moves, and a zero query row moves nothing
    X = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    y = np.array([1.0, -1.0, 0.5])
    bounds = LadRidgeModel(0.5).stability_bound(TabularDataset(X, y, np.ones(2)), ABS, None)
    assert bounds.tau[1] == 0.0
    assert np.all(np.delete(bounds.tau, 1) > 0.0)
    bounds = LadRidgeModel(0.5).stability_bound(TabularDataset(X, y, np.zeros(2)), ABS, None)
    assert np.all(bounds.tau == 0.0)


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
    zs = np.linspace(lo, hi, 30)
    preds = np.vstack([spec.fit(ds, z).row_predictions for z in zs])
    deviations = preds.max(axis=0) - preds.min(axis=0)
    assert np.all(ABS.gamma * deviations <= bounds.tau + 1e-8)
    # score deviations against q = y_i can only be smaller
    scores = np.abs(ds.augmented_targets(zs[0])[None, :-1] - preds[:, :-1])
    row_dev = scores.max(axis=0) - scores.min(axis=0)
    assert np.all(row_dev <= bounds.tau[:-1] + 1e-8)


# ------------------------------------------------------------ linear exact

def test_linear_exact_zero_slope_row(small_dataset):
    bounds = RidgeModel(0.5).stability_bound(small_dataset, ABS, (0.0, 0.0))
    assert np.allclose(bounds.tau, 0.0)
    # a zero feature row has zero candidate slope, hence a zero bound
    X = small_dataset.features.copy()
    X[0] = 0.0
    ds = TabularDataset(X, small_dataset.targets, small_dataset.test_point)
    bounds = RidgeModel(0.5).stability_bound(ds, ABS, (-2.0, 2.0))
    assert bounds.tau[0] == 0.0
    assert bounds.tau[-1] > 0.0


def test_linear_exact_scales_with_range(small_dataset):
    spec = RidgeModel(0.5)
    one = spec.stability_bound(small_dataset, ABS, (0.0, 1.0))
    two = spec.stability_bound(small_dataset, ABS, (0.0, 2.0))
    assert np.allclose(2 * one.tau, two.tau)
    assert np.allclose(3 * one.tau, spec.stability_bound(small_dataset, _custom(3.0),
                                                         (0.0, 1.0)).tau)


def test_linear_exact_dominates_dense_grid_deviations(small_dataset):
    lam = 0.5
    spec = RidgeModel(lam)
    z_range = small_dataset.target_range()
    anchor = z_range[0]
    fitted = spec.fit(small_dataset, anchor)
    bounds = spec.stability_bound(small_dataset, ABS, z_range)
    zs = np.linspace(z_range[0], z_range[1], 500)
    preds = np.vstack([spec.fit(small_dataset, z).row_predictions for z in zs])
    dev = np.abs(preds - fitted.row_predictions[None, :]).max(axis=0)
    assert np.all(dev <= bounds.tau + 1e-10)
    # worst case is approached at the far endpoint
    nonzero = bounds.tau > 1e-12
    assert np.all(dev[nonzero] >= 0.99 * bounds.tau[nonzero])


def test_linear_exact_builds_no_fit(small_dataset, monkeypatch):
    # the bound reads b off the dataset's one augmented solve, not off a fit
    def no_fit(self, dataset, candidate):
        raise AssertionError("stability_bound must not fit")

    monkeypatch.setattr(RidgeModel, "fit", no_fit)
    spec = RidgeModel(0.5)
    lo, hi = small_dataset.target_range()
    bounds = spec.stability_bound(small_dataset, _custom(2.0), (lo, hi))
    b = spec._affine(small_dataset)[-1]
    assert np.array_equal(bounds.tau, 2.0 * np.abs(b) * (hi - lo))
    assert bounds.provenance == "linear-exact" and bounds.candidate_range == (lo, hi)


def test_linear_exact_needs_a_range(small_dataset):
    # the bound is over a range; None is refused like every other malformed one
    with pytest.raises(InvalidInputError, match=r"finite \(lo, hi\) pair"):
        RidgeModel(0.5).stability_bound(small_dataset, ABS, None)


# ------------------------------------------------------------ monotonicity

@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(0.0, 5.0),
    lam=st.floats(0.1, 5.0),
    scale=st.floats(0.0, 5.0),
    bump=st.floats(0.0, 2.0),
)
def test_bounds_monotone_in_constants(gamma, lam, scale, bump):
    X = np.array([[1.0, 0.0], [0.5, -2.0], [0.0, 0.0]])
    y = np.array([1.0, -1.0, 0.5])

    def tau(gamma, lam, scale):
        ds = TabularDataset(X, y, scale * np.array([1.0, 1.5]))
        return LadRidgeModel(lam).stability_bound(ds, _custom(gamma), None).tau

    base = tau(gamma, lam, scale)
    assert np.all(tau(gamma + bump, lam, scale) >= base)
    assert np.all(tau(gamma, lam + bump, scale) <= base)
    assert np.all(tau(gamma, lam, scale + bump) >= base)


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


# --------------------------------------------------------- one bound per model

def test_tau_auto_dispatches_by_model(small_dataset):
    # each model builds its own bound: no recipe is chosen for it
    z_range = small_dataset.target_range()
    lad_bounds = LadRidgeModel(0.5).stability_bound(small_dataset, ABS, z_range)
    assert lad_bounds.provenance == "regularized-lipschitz"
    assert lad_bounds.candidate_range is None  # it holds on the whole line
    ridge_bounds = RidgeModel(0.5).stability_bound(small_dataset, ABS, z_range)
    assert ridge_bounds.provenance == "linear-exact"
    assert ridge_bounds.candidate_range == z_range
