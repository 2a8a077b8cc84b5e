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
    anchor_bounds,
    gen_linear_gaussian,
)


def _custom(gamma):
    return ScoreFunction.custom(lambda q, m: np.abs(q - m), gamma=gamma)


def _assert_envelope_scaled(ds, spec, gamma):
    """The envelope widens each observed score by ``gamma`` times the
    model's bound, and its query bound is ``gamma * tau[-1]``: the one place
    a score's constant meets a bound."""
    tau = spec.stability_bound(ds)
    bounds, _ = anchor_bounds(ds, spec.anchor(ds), spec, _custom(gamma), tau)
    assert np.allclose(bounds._upper - bounds._lower, 2 * gamma * tau.tau[:-1],
                       rtol=1e-12, atol=1e-12)
    assert bounds.tau_test == gamma * tau.tau_test


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


def test_bound_tau_is_read_only(small_dataset):
    # a bound is a snapshot: a write through its tau would change every later
    # set built on it while it stays flagged as coverage-safe
    values = np.zeros(small_dataset.n + 1)
    for bounds in (RidgeModel(0.5).stability_bound(small_dataset),
                   LadRidgeModel(0.5).stability_bound(small_dataset),
                   stabcp.tau_user_supplied(values)):
        with pytest.raises(ValueError):
            bounds.tau[0] = 1.0
    # the caller's array keeps its own flags
    values[0] = 1.0


# -------------------------------------------- regularized lipschitz bound

def _lad_closed_form(ds, lam):
    """``||x_q|| * ||x_i|| / ((n + 1) * lambda)`` per augmented row."""
    rows = np.vstack([ds.features, ds.test_point[None, :]])
    return np.linalg.norm(ds.test_point) * np.linalg.norm(rows, axis=1) / ((ds.n + 1) * lam)


def test_regularized_lipschitz_arithmetic():
    # ||x_q|| = 1 and n + 1 = 4 at lambda = 0.5: the bound is ||x_i|| / 2
    ds = TabularDataset(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]]),
                        np.array([1.0, -1.0, 0.5]), np.array([0.0, 1.0]))
    bounds = LadRidgeModel(0.5).stability_bound(ds)
    assert np.allclose(bounds.tau, [0.5, 1.0, 2.5, 0.5])
    # a score's constant scales the envelope, not the bound
    _assert_envelope_scaled(ds, LadRidgeModel(0.5), 3.0)
    drawn = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 30, 5, 1.0, 4))
    bounds = LadRidgeModel(0.2).stability_bound(drawn)
    assert np.allclose(bounds.tau, _lad_closed_form(drawn, 0.2), rtol=1e-14, atol=0)
    _assert_envelope_scaled(drawn, LadRidgeModel(0.2), 2.0)
    # the bound holds on the whole line: it carries no range
    assert bounds.candidate_range is None


def test_regularized_lipschitz_zero_row():
    # a zero feature row never moves, and a zero query row moves nothing
    X = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    y = np.array([1.0, -1.0, 0.5])
    bounds = LadRidgeModel(0.5).stability_bound(TabularDataset(X, y, np.ones(2)))
    assert bounds.tau[1] == 0.0
    assert np.all(np.delete(bounds.tau, 1) > 0.0)
    bounds = LadRidgeModel(0.5).stability_bound(TabularDataset(X, y, np.zeros(2)))
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
    bounds = spec.stability_bound(ds)
    assert bounds.provenance == "regularized-lipschitz"
    zs = np.linspace(lo, hi, 30)
    preds = np.vstack([spec.fit(ds, z).row_predictions for z in zs])
    deviations = preds.max(axis=0) - preds.min(axis=0)
    assert np.all(deviations <= bounds.tau + 1e-8)
    # score deviations against q = y_i can only be smaller
    scores = np.abs(ds.augmented_targets(zs[0])[None, :-1] - preds[:, :-1])
    row_dev = scores.max(axis=0) - scores.min(axis=0)
    assert np.all(row_dev <= bounds.tau[:-1] + 1e-8)


# ------------------------------------------------------------ linear exact

def test_linear_exact_zero_slope_row(small_dataset):
    # constant targets leave a zero-width range, hence a zero bound
    constant = TabularDataset(small_dataset.features, np.full(small_dataset.n, 1.5),
                              small_dataset.test_point)
    bounds = RidgeModel(0.5).stability_bound(constant)
    assert bounds.candidate_range == (1.5, 1.5)
    assert np.array_equal(bounds.tau, np.zeros(small_dataset.n + 1))
    # a zero feature row has zero candidate slope, hence a zero bound
    X = small_dataset.features.copy()
    X[0] = 0.0
    ds = TabularDataset(X, small_dataset.targets, small_dataset.test_point)
    bounds = RidgeModel(0.5).stability_bound(ds)
    assert bounds.tau[0] == 0.0
    assert bounds.tau[-1] > 0.0


def test_linear_exact_scales_with_range(small_dataset):
    # doubling the targets doubles the range's width and leaves b alone
    spec = RidgeModel(0.5)
    doubled = TabularDataset(small_dataset.features, 2 * small_dataset.targets,
                             small_dataset.test_point)
    one = spec.stability_bound(small_dataset)
    two = spec.stability_bound(doubled)
    assert np.array_equal(spec.fit(small_dataset, 0.0).row_b, spec.fit(doubled, 0.0).row_b)
    assert np.allclose(2 * one.tau, two.tau)
    _assert_envelope_scaled(small_dataset, spec, 3.0)


def test_linear_exact_dominates_dense_grid_deviations(small_dataset):
    lam = 0.5
    spec = RidgeModel(lam)
    z_range = small_dataset.target_range()
    anchor = z_range[0]
    fitted = spec.fit(small_dataset, anchor)
    bounds = spec.stability_bound(small_dataset)
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
    bounds = spec.stability_bound(small_dataset)
    b = spec._affine(small_dataset)[-1]
    assert np.array_equal(bounds.tau, np.abs(b) * (hi - lo))
    assert bounds.provenance == "linear-exact" and bounds.candidate_range == (lo, hi)
    monkeypatch.undo()
    _assert_envelope_scaled(small_dataset, spec, 2.0)


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

    def dataset(scale):
        return TabularDataset(X, y, scale * np.array([1.0, 1.5]))

    def tau(lam, scale):
        return LadRidgeModel(lam).stability_bound(dataset(scale)).tau

    base = tau(lam, scale)
    assert np.all(tau(lam + bump, scale) <= base)
    assert np.all(tau(lam, scale + bump) >= base)
    # the score's constant widens the envelope around the one anchor fit
    ds, spec = dataset(scale), LadRidgeModel(lam)
    bound = spec.stability_bound(ds)
    narrow, _ = anchor_bounds(ds, 0.0, spec, _custom(gamma), bound)
    wide, _ = anchor_bounds(ds, 0.0, spec, _custom(gamma + bump), bound)
    assert np.all(wide._lower <= narrow._lower) and np.all(wide._upper >= narrow._upper)
    assert wide.tau_test >= narrow.tau_test


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
    lad_bounds = LadRidgeModel(0.5).stability_bound(small_dataset)
    assert lad_bounds.provenance == "regularized-lipschitz"
    assert lad_bounds.candidate_range is None  # it holds on the whole line
    ridge_bounds = RidgeModel(0.5).stability_bound(small_dataset)
    assert ridge_bounds.provenance == "linear-exact"
    assert ridge_bounds.candidate_range == z_range
