"""Property tests of the single-fit set extraction on adversarial data.

The absolute residual given as a custom score goes through the outward
bracketing and bisection of ``sublevel_set``; the built-in one takes the
closed form.  For stabcp, oracle and split the two must agree to within the
bisection tolerance with the bisected endpoints never inside, and the stabcp
set must contain the grid-evaluated exact conformal set and, within the
bisection tolerance, rootcp's endpoints inside the bound's range; rootcp must
return a set even on all-tied targets, whose range has zero width.  Every
model must keep the model protocol (one contract test, parametrized over
the models): its anchor finite and inside its bound's range, no prediction
moving between two candidates further than its stability bound allows, and
its fit on the dataset the fit on the augmented rows from scratch.  The
ridge fit that reuses the dataset's augmented solve must match a refit
from scratch on the augmented rows, its anchor (taken from that augmented
solve) the clipped observed-rows fit at ``(n+1)/n`` the penalty, the
LAD-ridge fit that reuses the dataset's diagonalized design a cold fit bit
for bit, and the LAD-ridge duality gap must bound the suboptimality of the
returned fit, warm-started or not, against random points and against a fit
stopped at a 1e-12 gap, and every LAD-ridge fit, cold or warm, must report
the objective of its own coefficients without a ``RuntimeWarning``.
The data mix in outliers, tied targets, ``n`` close to ``p``, a constant
column and a zero-norm query row.  A custom score with a closed-form set
must have each endpoint just outside the exact one, also where the float
spacing exceeds the bisection tolerance.
"""

import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stabcp import (
    LadRidgeModel,
    NumericalError,
    PretrainedLinearModel,
    RidgeModel,
    ScoreFunction,
    TabularDataset,
    default_candidate_grid,
    grid_cp,
    oracle_cp,
    root_cp,
    split_cp,
    stab_cp_interval,
)
from stabcp.conformal import _EPS_R, sublevel_set
from stabcp.core import _read_only

ABS = ScoreFunction.absolute_residual()
CUSTOM_ABS = ScoreFunction.custom(lambda q, m: np.abs(q - m), 1.0)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def adversarial_datasets(draw):
    n = draw(st.integers(3, 25))
    p = draw(st.sampled_from([1, 3, n - 1, n, n + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n + 1, p))
    y = X @ rng.standard_normal(p) + rng.standard_normal(n + 1)
    targets = draw(st.sampled_from(["plain", "outliers", "rounded", "all-tied"]))
    if targets == "outliers":
        count = draw(st.integers(1, 2))
        y[:count] = draw(st.sampled_from([1e3, -1e3, 1e6])) * np.array([1.0, -1.0])[:count]
    elif targets == "rounded":
        y = np.round(y)
    elif targets == "all-tied":
        y[:] = 2.0
    if draw(st.booleans()):
        X[:, 0] = draw(st.sampled_from([0.0, 1.0]))
    if draw(st.booleans()):
        X[-1] = 0.0
    return TabularDataset(X[:-1], y[:-1], X[-1], test_target=float(y[-1]))


def assert_outer_match(closed, bisected):
    """Same shape; bisected endpoints within _EPS_R of the closed form, never inside."""
    assert bisected.set.shape == closed.set.shape
    if closed.set.shape == "interval":
        (lo, hi), = closed.set.intervals
        (blo, bhi), = bisected.set.intervals
        assert lo - _EPS_R <= blo <= lo
        assert hi <= bhi <= hi + _EPS_R


@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.01, 0.5]),
       alpha=st.sampled_from([0.05, 0.1, 0.2, 0.5]))
def test_stabcp_bisection_matches_closed_form_and_contains_exact_set(ds, lam, alpha):
    spec = RidgeModel(lam)
    anchor = spec.anchor(ds)  # always inside the target range
    z_range = ds.target_range()
    tau = spec.stability_bound(ds)
    closed = stab_cp_interval(ds, anchor, spec, ABS, tau, alpha)
    assert closed.details["tau_coverage_safe"] is True
    assert_outer_match(closed, stab_cp_interval(ds, anchor, spec, CUSTOM_ABS, tau, alpha))
    exact = grid_cp(ds, spec, ABS, alpha, default_candidate_grid(ds, 40)).set
    for lo, hi in exact.intervals:
        assert closed.set.contains(lo) and closed.set.contains(hi)
    root = root_cp(ds, spec, ABS, alpha).set
    for end in np.ravel(root.intervals):
        if z_range[0] <= end <= z_range[1]:
            assert closed.set.shape == "whole-range" or any(
                lo - _EPS_R <= end <= hi + _EPS_R for lo, hi in closed.set.intervals)


@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.01, 0.5]),
       candidates=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_memoized_ridge_fit_matches_refit_from_scratch(ds, lam, candidates):
    spec = RidgeModel(lam)
    X = ds.augmented_design()
    for z in candidates:
        refit = spec.fit_rows(X, ds.augmented_targets(z)).predict_rows(X)
        memoized = spec.fit(ds, z).row_predictions
        assert np.max(np.abs(memoized - refit)) <= 1e-9 * max(1.0, np.max(np.abs(refit)))


@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.01, 0.5]),
       candidates=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
       max_iter=st.sampled_from([10, 2000]))
def test_memoized_lad_fit_matches_refit_from_scratch(ds, lam, candidates, max_iter):
    # a fit first at the anchor warms the memo: the fits after it take the
    # dataset's diagonalized design, and must be the cold fits bit for bit
    spec = LadRidgeModel(lam, max_iter=max_iter)
    spec.fit(ds, spec.anchor(ds))
    X = ds.augmented_design()
    for z in candidates:
        memoized = spec.fit(ds, z)
        for cold in (spec.fit(replace(ds), z), spec.fit_rows(X, ds.augmented_targets(z))):
            assert np.array_equal(memoized.coefficients, cold.coefficients)
            assert (memoized.objective, memoized.duality_gap, memoized.iterations) == \
                (cold.objective, cold.duality_gap, cold.iterations)


@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.01, 0.5]))
def test_ridge_anchor_is_the_observed_fit_at_the_augmented_penalty(ds, lam):
    # at z0 = a_q / (1 - b_q) the augmented normal equations reduce to the
    # observed rows' ones at penalty (n+1) * lam / n
    observed = RidgeModel(lam * (ds.n + 1) / ds.n).fit_rows(ds.features, ds.targets)
    lo, hi = ds.target_range()
    expected = min(max(observed.predict(ds.test_point), lo), hi)
    anchor = RidgeModel(lam).anchor(ds)
    assert abs(anchor - expected) <= 1e-9 * max(1.0, abs(expected))


def _radius(fit) -> float:
    """How far a fit's coefficients may lie from the exact minimizer: with
    duality gap g, 2 lambda-strong convexity puts them within sqrt(g/lambda);
    closed-form fits carry no gap and are exact.  The gap is a difference of
    two sums near the objective, so it is known to the objective's rounding,
    taken as in the certificate tests below (a gap computed as 0 at a query
    target of -1e3 left a deviation of 1e-8 unexplained)."""
    gap = getattr(fit, "duality_gap", None)
    if gap is None:
        return 0.0
    return math.sqrt((gap + 64 * np.spacing(fit.objective)) / fit.lambda_reg)


@pytest.mark.parametrize("model", ["ridge", "ladridge", "pretrained"])
@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.0, 0.01, 0.5]),
       max_iter=st.sampled_from([10, 2000]), seed=st.integers(0, 2**32 - 1),
       spots=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       candidates=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_every_model_keeps_the_model_protocol(model, ds, lam, max_iter, seed, spots,
                                              candidates):
    # LAD-ridge needs lam > 0; ten iterations leave its gaps open
    assume(model != "ladridge" or lam > 0)
    spec = {"ridge": lambda: RidgeModel(lam),
            "ladridge": lambda: LadRidgeModel(lam, max_iter=max_iter),
            "pretrained": lambda: PretrainedLinearModel(
                np.random.default_rng(seed).standard_normal(ds.p))}[model]()
    lo, hi = ds.target_range()

    # anchor: finite, and inside the range where the bound holds
    try:
        anchor = spec.anchor(ds)
    except NumericalError:
        # a zero column in every row leaves the unpenalized system singular
        assert model == "ridge" and lam == 0.0
        return
    bound = spec.stability_bound(ds)
    assert bound.tau.shape == (ds.n + 1,)
    assert math.isfinite(anchor)
    if bound.candidate_range is not None:
        assert bound.candidate_range[0] <= anchor <= bound.candidate_range[1]
    if model != "pretrained":
        assert lo <= anchor <= hi

    # bound: no prediction moves further than tau between two candidates of
    # its range (the target range widened by 1e3 for a whole-line bound),
    # beyond each fit's certified distance from its exact minimizer and the
    # rounding of the predictions
    reach = bound.candidate_range or (lo - 1e3, hi + 1e3)
    zs = [anchor] + [reach[0] + spot * (reach[1] - reach[0]) for spot in spots]
    fits = [spec.fit(ds, z) for z in zs]  # the first warms LAD-ridge's memo
    norms = np.linalg.norm(ds.augmented_design(), axis=1)
    for one, other in itertools.combinations(fits, 2):
        mu, mu0 = one.row_predictions, other.row_predictions
        rounding = 1e-9 * max(1.0, np.max(np.abs(mu)), np.max(np.abs(mu0)))
        assert np.all(np.abs(mu - mu0)
                      <= bound.tau + norms * (_radius(one) + _radius(other)) + rounding)

    # fit: the fit on the dataset is the fit on the augmented rows from
    # scratch, ridge's up to the rounding of its other solve, the others bit
    # for bit and also the fit on a fresh memo
    X = ds.augmented_design()
    for z in candidates:
        memoized = spec.fit(ds, z)
        scratch = spec.fit_rows(X, ds.augmented_targets(z))
        if model == "ridge":
            refit = scratch.predict_rows(X)
            assert np.max(np.abs(memoized.row_predictions - refit)) \
                <= 1e-9 * max(1.0, np.max(np.abs(refit)))
            continue
        for cold in (scratch, spec.fit(replace(ds), z)):
            assert np.array_equal(memoized.coefficients, cold.coefficients)
            assert np.array_equal(memoized.row_predictions, cold.predict_rows(X))
            assert all(getattr(memoized, key, None) == getattr(cold, key, None)
                       for key in ("objective", "duality_gap", "iterations"))


@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.01, 0.5]),
       alpha=st.sampled_from([0.05, 0.1, 0.2, 0.5]), split_share=st.floats(0.1, 0.9))
def test_oracle_and_split_bisection_match_closed_form(ds, lam, alpha, split_share):
    spec = RidgeModel(lam)
    assert_outer_match(oracle_cp(ds, ds.test_target, spec, ABS, alpha),
                       oracle_cp(ds, ds.test_target, spec, CUSTOM_ABS, alpha))
    m = min(ds.n - 1, max(1, round(split_share * ds.n)))
    assert_outer_match(split_cp(ds, m, spec, ABS, alpha),
                       split_cp(ds, m, spec, CUSTOM_ABS, alpha))


@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.01, 0.5]),
       candidate=st.floats(-1e3, 1e3), max_iter=st.sampled_from([10, 2000]),
       seed=st.integers(0, 2**32 - 1))
def test_lad_certificate_bounds_suboptimality(ds, lam, candidate, max_iter, seed):
    # ten iterations leave the gap open: the certificate must hold for any iterate
    spec = LadRidgeModel(lam, max_iter=max_iter)
    fit = spec.fit(ds, candidate)
    X, y = ds.augmented_design(), ds.augmented_targets(candidate)

    def objective(beta):
        return np.abs(y - X @ beta).sum() / y.size + lam * beta @ beta

    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.max(np.abs(fit.coefficients))))
    others = [np.zeros(X.shape[1]), RidgeModel(lam).fit_rows(X, y).coefficients]
    others += [fit.coefficients + s * scale * rng.standard_normal(X.shape[1])
               for s in (1e-6, 1e-3, 1.0)]
    for beta in others:
        assert objective(beta) >= fit.objective - fit.duality_gap - 1e-12
    # a fit stopped at a 1e-12 gap sits at the optimum up to its own gap;
    # objectives near 4e4 (rows of 1e6) round at a few units in the last place
    reference = LadRidgeModel(lam, solver_tol=1e-12).fit_rows(X, y)
    slack = 1e-12 + 64 * np.spacing(reference.objective)
    assert fit.objective <= reference.objective + fit.duality_gap + slack
    assert reference.objective <= fit.objective + reference.duality_gap + slack
    assert np.isclose(fit.objective, objective(fit.coefficients), rtol=1e-12, atol=0.0)
    assert fit.converged == (fit.duality_gap <= spec.solver_tol)
    assert np.array_equal(fit.row_predictions, X @ fit.coefficients)


@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.01, 0.5]),
       first=st.floats(-1e3, 1e3), second=st.floats(-1e3, 1e3),
       max_iter=st.sampled_from([10, 2000]))
def test_lad_warm_start_keeps_the_certificate(ds, lam, first, second, max_iter):
    # the two fits differ only in the query target, as two refits of root_cp
    # do; ten iterations leave some warm fits uncertified, and they must say so
    spec = LadRidgeModel(lam, max_iter=max_iter)
    X = ds.augmented_design()
    y = ds.augmented_targets(second)
    warm = spec.fit_rows(X, y, start=spec.fit_rows(X, ds.augmented_targets(first)))
    cold = spec.fit_rows(X, y)
    assert warm.converged == (warm.duality_gap <= spec.solver_tol)
    # both objectives lie in [optimum, optimum + own gap]; a gap computed as 0
    # still leaves the rounding of two sums over at most 26 rows, each term up
    # to 1e6 (objectives near 4e4 differed by one unit in the last place)
    slack = 1e-12 + 64 * np.spacing(cold.objective)
    assert abs(warm.objective - cold.objective) <= warm.duality_gap + cold.duality_gap + slack


@SETTINGS
@given(ds=adversarial_datasets(), lam=st.sampled_from([0.01, 0.5]),
       first=st.floats(-1e3, 1e3), shift=st.floats(-10.0, 10.0),
       max_iter=st.sampled_from([10, 2000]))
def test_lad_fit_reports_its_own_objective_and_a_sound_certificate(ds, lam, first, shift,
                                                                   max_iter):
    # a cold fit and a warm fit from it at a neighbouring query target, on one
    # read-only design as in a refit chain; ten iterations leave gaps open
    spec = LadRidgeModel(lam, max_iter=max_iter)
    X = _read_only(ds.augmented_design())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cold = spec.fit_rows(X, ds.augmented_targets(first))
        warm = spec.fit_rows(X, ds.augmented_targets(first + shift), start=cold)
        for fit, z in ((cold, first), (warm, first + shift)):
            y = ds.augmented_targets(z)
            beta = fit.coefficients
            primal = np.abs(y - X @ beta).sum() / y.size + lam * beta @ beta
            assert np.isclose(fit.objective, primal, rtol=1e-12, atol=0.0)
            # objectives near 2.5e5 (a row of 1e6) round at a unit in the last
            # place, above 1e-12
            tight = LadRidgeModel(lam, solver_tol=1e-12).fit_rows(X, y)
            slack = 1e-12 + 64 * np.spacing(tight.objective)
            assert fit.objective - tight.objective <= fit.duality_gap + slack


def kinked(q, m):
    """Slope 2 above the prediction and 1 below, so ``{S <= T} = [m - T, m + T/2]``."""
    d = np.asarray(q, dtype=float) - np.asarray(m, dtype=float)
    return np.where(d > 0, 2.0 * d, -d)


@SETTINGS
@given(mu=st.one_of(st.floats(-1e3, 1e3), st.floats(1e12 - 1e3, 1e12 + 1e3),
                    st.floats(-1e12 - 1e3, -1e12 + 1e3)),
       threshold=st.one_of(st.just(0.0), st.floats(1e-7, 1e3)),
       width=st.one_of(st.just(0.0), st.floats(1e-7, 1e4)))
def test_custom_score_ends_lie_just_outside_the_closed_form(mu, threshold, width):
    # near 1e12 floats are 1.2e-4 apart, more than _EPS_R: there an end must
    # be the first float past the exact end
    calls = []

    def counted(q, m):
        calls.append(np.size(q))
        assert len(calls) <= 200, "the endpoint search does not end"
        return kinked(q, m)

    score = ScoreFunction.custom(counted, 2.0)
    prediction = sublevel_set(score, mu, threshold, 0.1, (mu, mu + width), "stabcp")
    (lo, hi), = prediction.intervals
    # the score is exact up to the rounding of one subtraction, at most
    # half a unit in the last place of the threshold
    rounding = Fraction(float(np.spacing(threshold)))
    for end, exact, side in ((lo, Fraction(mu) - Fraction(threshold), -1),
                             (hi, Fraction(mu) + Fraction(threshold) / 2, 1)):
        beyond = side * (Fraction(end) - exact)
        assert beyond >= 0
        inner = side * (Fraction(float(np.nextafter(end, mu))) - exact)
        assert beyond <= _EPS_R + rounding or inner <= rounding
