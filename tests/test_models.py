from dataclasses import replace

import numpy as np
import pytest

from stabcp import (
    GeneratorSpec,
    InvalidInputError,
    LadRidgeModel,
    NotFittedError,
    NumericalError,
    PretrainedLinearModel,
    RidgeModel,
    ScoreFunction,
    TabularDataset,
    anchor_bounds,
    gen_linear_gaussian,
    oracle_cp,
    stab_cp_interval,
)
from stabcp import models
from stabcp.core import _read_only
from stabcp.harness import RunConfig, run_method


ABS = ScoreFunction.absolute_residual()


def fig2_like_dataset(n, p=100, seed=0):
    return gen_linear_gaussian(GeneratorSpec("linear-gaussian", n, p, 1.0, seed))


# ----------------------------------------------------------------- ridge

def test_ridge_unregularized_mean_of_responses():
    beta = RidgeModel(0.0).fit_rows(np.ones((2, 1)), np.array([2.0, 4.0])).coefficients
    assert beta[0] == pytest.approx(3.0)


def test_ridge_norm_shrinks_with_regularization(small_dataset):
    norms = []
    for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
        fitted = RidgeModel(lam).fit(small_dataset, 0.0)
        norms.append(np.linalg.norm(fitted.coefficients))
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-2 * norms[0]


def test_ridge_singular_without_regularization():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(NumericalError):
        RidgeModel(0.0).fit_rows(X, np.array([1.0, 2.0, 3.0]))


def test_ridge_candidate_slope_matches_two_refits():
    rng = np.random.default_rng(11)
    ds = TabularDataset(rng.standard_normal((10, 3)), rng.standard_normal(10),
                        rng.standard_normal(3))
    lam = 0.4
    fitted0 = RidgeModel(lam).fit(ds, 0.0)
    fitted1 = RidgeModel(lam).fit(ds, 1.0)
    b = ds.test_point @ fitted0.beta_candidate
    assert b == pytest.approx(fitted1.row_predictions[-1] - fitted0.row_predictions[-1], abs=1e-10)


def test_ridge_affine_in_candidate(small_dataset):
    lam = 0.3
    rng = np.random.default_rng(8)
    fitted = RidgeModel(lam).fit(small_dataset, 0.0)
    x = small_dataset.test_point
    a, b = x @ fitted.beta_base, x @ fitted.beta_candidate
    for _ in range(100):
        z1, z2 = rng.uniform(-5, 5, size=2)
        m1 = RidgeModel(lam).fit(small_dataset, z1).row_predictions[-1]
        m2 = RidgeModel(lam).fit(small_dataset, z2).row_predictions[-1]
        diff = m1 - m2
        expected = b * (z1 - z2)
        assert diff == pytest.approx(expected, rel=1e-8, abs=1e-12)
        assert m1 == pytest.approx(a + b * z1, rel=1e-8, abs=1e-10)


def test_ridge_fits_at_two_penalties_on_one_dataset_solve_separately(small_dataset):
    ds = small_dataset
    X = ds.augmented_design()
    # the first penalty again after the second: each keeps its own solve
    for lam, z in ((0.1, 0.0), (2.0, 0.0), (0.1, 1.5), (2.0, 1.5)):
        refit = RidgeModel(lam).fit_rows(X, ds.augmented_targets(z)).predict_rows(X)
        assert np.allclose(RidgeModel(lam).fit(ds, z).row_predictions, refit,
                           rtol=1e-12, atol=1e-12)
        # the anchor a_q / (1 - b_q) is the observed-rows fit at (n+1)/n the penalty
        observed = RidgeModel(lam * (ds.n + 1) / ds.n).fit_rows(ds.features, ds.targets)
        assert RidgeModel(lam).anchor(ds) == pytest.approx(
            observed.predict(ds.test_point), abs=1e-12)
    assert not np.allclose(RidgeModel(0.1).fit(ds, 0.0).row_predictions,
                           RidgeModel(2.0).fit(ds, 0.0).row_predictions)


def test_ridge_singular_observed_rows_still_give_an_anchor():
    # lambda = 0, four observed rows, five features and a zero first column:
    # the observed-row system is singular, the augmented one is not, and the
    # anchor comes from the augmented solve alone
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 5))
    X[:, 0] = 0.0
    for anchor_first in (True, False):
        ds = TabularDataset(X, rng.standard_normal(4), rng.standard_normal(5), test_target=0.3)
        lo, hi = ds.target_range()
        if anchor_first:
            assert lo <= RidgeModel(0.0).anchor(ds) <= hi
        assert oracle_cp(ds, 0.3, RidgeModel(0.0), ABS, 0.2).set.shape == "interval"
        assert np.all(np.isfinite(RidgeModel(0.0).fit(ds, 0.0).row_predictions))
        assert lo <= RidgeModel(0.0).anchor(ds) <= hi


def test_ridge_anchor_of_an_unpenalized_query_direction_is_the_range_midpoint():
    # lambda = 0 and zero observed features: the augmented fit reproduces any
    # query candidate (a_q = 0, b_q = 1), so a_q / (1 - b_q) is 0/0; the
    # anchor is the target range's midpoint and the set stays coverage-safe
    ds = TabularDataset(np.zeros((2, 1)), np.array([-1.0, 3.0]), np.array([1.0]),
                        test_target=0.5)
    spec = RidgeModel(0.0)
    assert spec.anchor(ds) == 1.0
    report = run_method("stabcp", ds, RunConfig(lambda_reg=0.0))
    assert report.details["anchor"] == 1.0
    assert report.details["tau_coverage_safe"] is True


@pytest.mark.parametrize("seed", range(6))
def test_ridge_anchor_of_a_query_direction_free_up_to_rounding_is_the_midpoint(seed):
    # p = 21 features on 20 observed rows: at lambda = 0 the query direction
    # is unpenalized, the exact 1 - b_q is 0, and the computed one is rounding
    # noise of either sign, so the anchor is the range's midpoint, not 0/0
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 20, 21, 1.0, seed))
    lo, hi = ds.target_range()
    assert RidgeModel(0.0).anchor(ds) == 0.5 * (lo + hi)
    # a tiny penalty leaves 1 - b_q far above rounding: the quotient is kept,
    # clipped into the target range
    spec = RidgeModel(1e-6)
    _, _, a, b = spec._affine(ds)
    assert 1.0 - b[-1] > 1e-6
    assert spec.anchor(ds) == min(max(a[-1] / (1.0 - b[-1]), lo), hi)


def test_ridge_stabcp_set_makes_one_gram_and_one_solve(monkeypatch):
    # the anchor comes from the augmented solve that the bound and the
    # envelope fit share: one linear solve per set, which forms its own Gram
    # matrix
    solves = []
    solve = models._solve_normal_equations

    def counted_solve(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(models, "_solve_normal_equations", counted_solve)
    ds = fig2_like_dataset(n=50, p=10, seed=3)
    report = run_method("stabcp", ds, RunConfig(model="ridge"))
    assert report.set.shape == "interval"
    assert len(solves) == 1


def test_ridge_permutation_symmetry(small_dataset):
    order = np.random.default_rng(0).permutation(small_dataset.n)
    f1 = RidgeModel(0.5).fit(small_dataset, 0.7)
    f2 = RidgeModel(0.5).fit(small_dataset.permuted(order), 0.7)
    assert f1.row_predictions[-1] == pytest.approx(f2.row_predictions[-1], abs=1e-10)


# ------------------------------------------------------------- lad-ridge

def test_lad_one_dimensional_sign_consistency():
    for c in (2.0, -3.0):
        ds = TabularDataset(np.ones((4, 1)), np.full(4, c), np.ones(1))
        fitted = LadRidgeModel(0.2).fit(ds, c)
        beta = fitted.coefficients[0]
        assert np.sign(beta) == np.sign(c)
        assert abs(beta) <= abs(c) + 1e-8


def test_lad_objective_no_worse_than_zero(small_dataset):
    fitted = LadRidgeModel(0.5).fit(small_dataset, 0.5)
    X = small_dataset.augmented_design()
    y = small_dataset.augmented_targets(0.5)
    zero_obj = np.abs(y).mean()
    assert fitted.objective <= zero_obj + 1e-12


def test_lad_matches_hundredfold_longer_reference_run():
    ds = fig2_like_dataset(n=30, p=100, seed=1)
    short = LadRidgeModel(0.5, solver_tol=1e-8, max_iter=2000).fit(ds, 0.0)
    reference = LadRidgeModel(0.5, solver_tol=1e-16, max_iter=200_000).fit(ds, 0.0)
    assert short.objective == pytest.approx(reference.objective, abs=1e-6)


def test_lad_certificate_and_convergence_flag(small_dataset):
    fitted = LadRidgeModel(0.5, solver_tol=1e-8).fit(small_dataset, 0.0)
    assert fitted.converged
    assert fitted.duality_gap <= 1e-8
    starved = LadRidgeModel(0.5, solver_tol=1e-12, max_iter=5).fit(small_dataset, 0.0)
    assert starved.row_predictions is not None and starved.converged is False


def test_lad_anchor_is_the_observed_median_and_fits_nothing(monkeypatch):
    # the LAD bound holds on the whole line, so any anchor is sound; the
    # median of the responses is taken without a fit
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 5))
    spec = LadRidgeModel(0.2)

    def no_fit(*args, **kwargs):
        raise AssertionError("the anchor made a fit")

    monkeypatch.setattr(LadRidgeModel, "fit_rows", no_fit)
    monkeypatch.setattr(LadRidgeModel, "fit", no_fit)
    anchor = spec.anchor(ds)
    assert type(anchor) is float and anchor == np.median(ds.targets)


def test_lad_stabcp_set_makes_one_fit_and_one_eigendecomposition(eigh_calls):
    # the anchor costs no fit: the envelope fit is the set's one fit, with
    # the one eigendecomposition of its design
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 5))
    report = run_method("stabcp", ds, RunConfig(model="ladridge", lambda_reg=0.2))
    assert report.set.shape == "interval" and report.details["converged"] is True
    assert report.fit_count == 1 and len(eigh_calls) == 1


def huber(q, m):
    r = np.abs(np.asarray(q, dtype=float) - np.asarray(m, dtype=float))
    return np.where(r <= 1.0, 0.5 * r * r, r - 0.5)


def test_lad_fits_once_per_dataset_and_anchor(eigh_calls, monkeypatch):
    # the anchor fit depends on neither alpha nor the score, so every set at
    # one anchor shares it; a fit at another candidate shares the dataset's
    # eigendecomposition
    admm_runs, admm = [], LadRidgeModel._admm

    def counted(self, *args):
        admm_runs.append(1)
        return admm(self, *args)

    monkeypatch.setattr(LadRidgeModel, "_admm", counted)
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 5))
    spec = LadRidgeModel(0.2)
    anchor = spec.anchor(ds)
    score = ScoreFunction.custom(huber, 1.0)

    def summary(report):
        return [repr(report.set), report.fit_count, report.covered] + [
            report.details[k] for k in ("iterations", "duality_gap", "converged")]

    builders = [lambda d, alpha=alpha: stab_cp_interval(
                    d, anchor, spec, ABS, spec.stability_bound(d, ABS), alpha)
                for alpha in (0.05, 0.1, 0.2)]
    builders.append(lambda d: stab_cp_interval(d, anchor, spec, score,
                                               spec.stability_bound(d, score), 0.1))
    reports = [build(ds) for build in builders]
    assert (len(eigh_calls), len(admm_runs)) == (1, 1)
    builders.append(lambda d: oracle_cp(d, d.test_target, spec, ABS, 0.1))
    reports.append(builders[-1](ds))
    assert (len(eigh_calls), len(admm_runs)) == (1, 2)
    for build, report in zip(builders, reports):
        assert summary(build(replace(ds))) == summary(report)

    # the memoized fit cannot be written through, so no caller changes a later set
    _, fitted = anchor_bounds(ds, anchor, spec, ABS, spec.stability_bound(ds, ABS))
    for name in ("coefficients", "row_predictions"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(fitted, name)[0] += 1.0
    assert summary(builders[1](ds)) == summary(reports[1])

    # it still warm-starts a refit, as a cold fit on the same rows does, and
    # the refit leaves it as it was
    kept = [fitted.coefficients.copy(), fitted.row_predictions.copy(),
            *(np.copy(v) for v in fitted._admm_state)]
    X = ds.augmented_design()
    y, moved = ds.augmented_targets(anchor), ds.augmented_targets(anchor + 0.5)
    warm = spec.fit_rows(X, moved, start=fitted)
    again = spec.fit_rows(X, moved, start=spec.fit_rows(X, y))
    assert warm.converged and np.array_equal(warm.coefficients, again.coefficients)
    assert warm.iterations == again.iterations
    assert spec.fit(ds, anchor) is fitted
    for before, after in zip(kept, [fitted.coefficients, fitted.row_predictions,
                                    *fitted._admm_state]):
        assert np.array_equal(before, after)


def test_lad_permutation_symmetry_within_tolerance():
    ds = fig2_like_dataset(n=30, p=20, seed=4)
    order = np.random.default_rng(1).permutation(ds.n)
    f1 = LadRidgeModel(0.5, solver_tol=1e-10).fit(ds, 0.3)
    f2 = LadRidgeModel(0.5, solver_tol=1e-10).fit(ds.permuted(order), 0.3)
    assert f1.row_predictions[-1] == pytest.approx(f2.row_predictions[-1], abs=1e-4)


def test_lad_warm_start_needs_a_fit_on_as_many_rows(small_dataset, eigh_calls):
    spec = LadRidgeModel(0.2)
    X, y = small_dataset.augmented_design(), small_dataset.augmented_targets(0.0)
    start = spec.fit_rows(X, y)
    for bad in (spec.fit_rows(X[:-1], y[:-1]), spec.fit_rows(X[:, :-1], y), spec,
                RidgeModel(0.2).fit_rows(X, y)):
        with pytest.raises(InvalidInputError, match="start"):
            spec.fit_rows(X, y, start=bad)
    assert spec.fit_rows(X, y, start=start).converged
    # the closed-form models ignore a start
    assert np.array_equal(RidgeModel(0.2).fit_rows(X, y, start=start).coefficients,
                          RidgeModel(0.2).fit_rows(X, y).coefficients)

    # a start lends its eigendecomposition only to a fit on the very same
    # read-only array; any other design of the same shape is decomposed anew
    del eigh_calls[:]
    X1 = _read_only(X.copy())
    on_X1 = spec.fit_rows(X1, y)
    assert len(eigh_calls) == 1
    assert spec.fit_rows(X1, y, start=on_X1).converged and len(eigh_calls) == 1
    for X2 in (_read_only(X.copy()), X1[:], X.copy()):
        del eigh_calls[:]
        assert spec.fit_rows(X2, y, start=on_X1).converged
        assert len(eigh_calls) == 1
    # nor to the same array once it has been made writable again
    X1.flags.writeable = True
    del eigh_calls[:]
    assert spec.fit_rows(X1, y, start=on_X1).converged and len(eigh_calls) == 1
    # a fit on a writable design keeps none of that work alive
    assert spec.fit_rows(X, y)._design is None


@pytest.mark.parametrize("spec", [RidgeModel(0.5), LadRidgeModel(0.5)])
def test_fit_on_zero_rows_is_invalid_input(spec):
    with pytest.raises(InvalidInputError, match="zero rows"):
        spec.fit_rows(np.empty((0, 3)), np.empty(0))


def test_lad_fit_solves_no_linear_system(monkeypatch):
    # one eigendecomposition per fit serves every penalty value
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 0))
    X, y = ds.augmented_design(), ds.augmented_targets(0.0)

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    fit = LadRidgeModel(0.2).fit_rows(X, y)
    assert fit.converged and fit.duality_gap <= 1e-8


def test_lad_warm_start_from_a_converged_fit_stops_at_the_first_check():
    # the final residual split and scaled dual map back to the same iterate
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 0))
    X, y = ds.augmented_design(), ds.augmented_targets(0.0)
    spec = LadRidgeModel(0.2)
    cold = spec.fit_rows(X, y)
    assert cold.converged and cold.iterations > 10
    warm = spec.fit_rows(X, y, start=cold)
    assert warm.converged and warm.iterations <= 10
    assert warm.objective <= cold.objective


def far_query_targets(seed=0):
    """A (300, 20) draw's augmented rows with the query target far above its
    fit, and the same targets with the query moved 3 further up."""
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, seed))
    X = ds.augmented_design()
    y = ds.augmented_targets(ds.target_range()[1] + 5.0)
    moved = y.copy()
    moved[-1] += 3.0
    return X, y, moved


def test_lad_warm_start_follows_a_query_target_that_keeps_its_side():
    # the query residual keeps its sign, so by the KKT conditions the solution
    # does not move; the warm state holds the split's fitted part, so the
    # refit starts at the new targets' residuals and its first check certifies
    X, y, moved = far_query_targets()
    spec = LadRidgeModel(0.2)
    cold = spec.fit_rows(X, y)
    assert cold.converged and y[-1] - cold.predict(X[-1]) > 1.0
    warm = spec.fit_rows(X, moved, start=cold)
    assert warm.converged and warm.iterations == 10
    again = spec.fit_rows(X, moved)
    assert again.converged and again.iterations > 10
    assert np.allclose(warm.coefficients, again.coefficients, rtol=0.0, atol=1e-4)
    assert warm.objective <= again.objective + spec.solver_tol


def test_lad_warm_state_aliases_no_caller_array():
    # the caller moves the query target of the very array a fit was given; a
    # warm refit from that fit runs as one from a fit on an untouched copy
    X, y, moved = far_query_targets()
    spec = LadRidgeModel(0.2)
    kept = spec.fit_rows(X, y.copy())
    reused = spec.fit_rows(X, y)
    y[:] = moved
    from_kept = spec.fit_rows(X, moved.copy(), start=kept)
    from_reused = spec.fit_rows(X, y, start=reused)
    assert from_kept.iterations == from_reused.iterations == 10
    assert np.array_equal(from_kept.coefficients, from_reused.coefficients)
    assert from_kept.duality_gap == from_reused.duality_gap


@pytest.mark.parametrize("seed", range(5))
def test_lad_converges_with_a_singular_gram_matrix(seed):
    # p = 60 features on 9 rows: X^T X has rank at most 9
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 8, 60, 1.0, seed))
    X = ds.augmented_design()
    assert np.linalg.matrix_rank(X.T @ X) < X.shape[1]
    spec = LadRidgeModel(0.05)
    for fit in (spec.fit(ds, 0.0), spec.fit(ds, ds.test_target),
                spec.fit_rows(ds.features, ds.targets)):
        assert fit.converged and fit.duality_gap <= spec.solver_tol


def test_lad_default_iteration_cap_matches_run_config():
    assert LadRidgeModel(0.5).max_iter == RunConfig().max_iter == 50_000


def test_lad_rejects_bad_settings():
    with pytest.raises(InvalidInputError):
        LadRidgeModel(0.0)
    with pytest.raises(InvalidInputError):
        LadRidgeModel(0.5, solver_tol=0.0)
    with pytest.raises(InvalidInputError):
        LadRidgeModel(0.5, max_iter=0)


# ---------------------------------------------------------- dataset memo

def _held_arrays(value):
    """Every array a memo entry holds, inside tuples and memoized fits too."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _held_arrays(item)
    elif isinstance(value, LadRidgeModel):
        yield from _held_arrays((value.coefficients, value.row_predictions, value._admm_state))


@pytest.mark.parametrize("spec", [RidgeModel(0.5), LadRidgeModel(0.2)], ids=["ridge", "ladridge"])
def test_each_model_keeps_its_shared_work_once(spec, eigh_calls, monkeypatch):
    # anchor, bound, stabcp at two levels and the oracle on one dataset: the
    # memo holds each model's shared work once, in the form its fits use, and
    # nothing in it can be written through
    designs, augmented_design = [], TabularDataset.augmented_design

    def counted(dataset):
        designs.append(1)
        return augmented_design(dataset)

    monkeypatch.setattr(TabularDataset, "augmented_design", counted)
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 5))
    anchor = spec.anchor(ds)
    bound = spec.stability_bound(ds, ABS)
    for alpha in (0.1, 0.2):
        stab_cp_interval(ds, anchor, spec, ABS, bound, alpha)
    oracle_cp(ds, ds.test_target, spec, ABS, 0.1)
    keys = set(ds._memo)
    if isinstance(spec, RidgeModel):
        assert keys == {"target_range", ("ridge-affine", 0.5)}
    else:
        fits = {key for key in keys if isinstance(key, tuple) and key[0] == "lad-fit"}
        assert len(fits) == 2 and keys - fits == {"target_range", "lad-design"}
        assert (len(eigh_calls), len(designs)) == (1, 1)
    held = [array for value in ds._memo.values() for array in _held_arrays(value)]
    assert held and not any(array.flags.writeable for array in held)


# ------------------------------------------------------------- predict

def test_predict_zero_coefficients(tiny_dataset):
    fitted = PretrainedLinearModel(np.zeros(2)).fit(tiny_dataset, 0.0)
    assert fitted.predict(np.array([3.0, -4.0])) == 0.0
    assert fitted.predict_rows(tiny_dataset.features).tolist() == [0.0, 0.0, 0.0]


def test_predict_basis_vector_picks_coordinate(tiny_dataset):
    spec = PretrainedLinearModel(np.array([1.0, 0.0]))
    # frozen coefficients: the unfitted model predicts, and fitting changes nothing
    for model in (spec, spec.fit(tiny_dataset, 0.0), spec.fit_rows(None, None)):
        assert model.predict(np.array([2.5, 9.0])) == 2.5
        assert model.predict_rows(tiny_dataset.features).tolist() == [1.0, 0.0, 1.0]


def test_predict_matches_linear_response(small_dataset):
    z = 1.3
    fitted = RidgeModel(0.2).fit(small_dataset, z)
    x = small_dataset.test_point
    a, b = x @ fitted.beta_base, x @ fitted.beta_candidate
    assert fitted.predict(x) == pytest.approx(a + b * z, abs=1e-10)
    assert fitted.predict_rows(small_dataset.augmented_design()) == pytest.approx(
        fitted.row_predictions, abs=1e-12)


def test_predict_dimension_mismatch(small_dataset):
    for fitted in (RidgeModel(0.2).fit(small_dataset, 0.0),
                   LadRidgeModel(0.2).fit_rows(small_dataset.features, small_dataset.targets),
                   PretrainedLinearModel(np.zeros(small_dataset.p))):
        for x in (np.ones(small_dataset.p + 1), np.ones(small_dataset.p - 1)):
            with pytest.raises(InvalidInputError):
                fitted.predict(x)


def test_predict_before_fit_raises(small_dataset):
    for spec in (RidgeModel(0.1), LadRidgeModel(0.1)):
        with pytest.raises(NotFittedError):
            spec.predict(np.ones(small_dataset.p))
        with pytest.raises(NotFittedError):
            spec.predict_rows(small_dataset.features)
