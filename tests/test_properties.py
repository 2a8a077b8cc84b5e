"""Property tests of the single-fit set extraction on adversarial data.

The absolute residual given as a custom score goes through the outward
bracketing and bisection of ``sublevel_set``; the built-in one takes the
closed form.  For stabcp, oracle and split the two must agree to within the
bisection tolerance with the bisected endpoints never inside, and the stabcp
set must contain the grid-evaluated exact conformal set and, within the
bisection tolerance, rootcp's endpoints inside the bound's range; rootcp must
return a set even on all-tied targets, whose range has zero width.  The
ridge fit that reuses the dataset's Gram matrix and augmented solve must
match a refit from scratch on the augmented rows, and the LAD-ridge duality
gap must bound the suboptimality of the returned fit, warm-started or not.
The data mix in outliers, tied targets, ``n`` close to ``p``, a constant
column and a zero-norm query row.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabcp import (
    LadRidgeModel,
    RidgeModel,
    ScoreFunction,
    TabularDataset,
    default_anchor,
    default_candidate_grid,
    grid_cp,
    oracle_cp,
    ridge_coefficients,
    root_cp,
    split_cp,
    stab_cp_interval,
    tau_linear_exact,
)
from stabcp.conformal import _EPS_R

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
    anchor = default_anchor(ds, spec)
    # the bound covers every candidate's distance to the anchor only on a
    # range holding both, and the anchor may lie outside the target range
    lo, hi = ds.target_range()
    z_range = (min(lo, anchor), max(hi, anchor))
    tau = tau_linear_exact(spec.fit(ds, anchor), ds, z_range=z_range)
    closed = stab_cp_interval(ds, anchor, spec, ABS, tau, alpha)
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
    others = [np.zeros(X.shape[1]), ridge_coefficients(X, y, lam)]
    others += [fit.coefficients + s * scale * rng.standard_normal(X.shape[1])
               for s in (1e-6, 1e-3, 1.0)]
    for beta in others:
        assert objective(beta) >= fit.objective - fit.duality_gap - 1e-12
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
