import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabcp
from stabcp import (
    InvalidInputError,
    NotFittedError,
    PredictionSet,
    PretrainedLinearModel,
    RidgeModel,
    ScoreFunction,
    TabularDataset,
    conformity_scores,
    grid_cp,
    oracle_cp,
    pi_exact,
    rank,
)

ABS = ScoreFunction.absolute_residual()


# ---------------------------------------------------------------- rank

def test_rank_largest_element():
    assert rank([1.0, 2.0, 3.0], 3) == 3


def test_rank_all_ties_counts_everything():
    assert rank([2.0, 2.0, 2.0], 1) == 3


def test_rank_smallest_element():
    assert rank([4.0, 3.0, 2.0, 1.0], 4) == 1


def test_rank_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        rank([1.0, float("nan")], 1)


def test_rank_rejects_bad_index():
    with pytest.raises(InvalidInputError):
        rank([1.0, 2.0], 3)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12),
    bump=st.floats(0.0, 1e3),
)
def test_rank_monotone_in_own_value(values, bump):
    arr = np.asarray(values)
    before = rank(arr, len(arr))
    arr2 = arr.copy()
    arr2[-1] += bump
    assert rank(arr2, len(arr)) >= before


# ------------------------------------------------------- score functions

def test_absolute_score_is_absolute_residual():
    assert ABS.gamma == 1.0
    assert ABS.evaluate(3.0, 1.0) == 2.0
    assert np.allclose(ABS.evaluate(np.array([1.0, -2.0]), 0.0), [1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(-1e3, 1e3),
    m1=st.floats(-1e3, 1e3),
    m2=st.floats(-1e3, 1e3),
)
def test_absolute_score_lipschitz_in_prediction(q, m1, m2):
    lhs = abs(ABS.evaluate(q, m1) - ABS.evaluate(q, m2))
    assert lhs <= ABS.gamma * abs(m1 - m2) + 1e-12


def test_custom_score_requires_callable_and_gamma():
    with pytest.raises(InvalidInputError):
        ScoreFunction.custom(None, 1.0)
    with pytest.raises(InvalidInputError):
        ScoreFunction.custom(lambda q, m: abs(q - m), -1.0)


@settings(max_examples=150, deadline=None)
@given(
    q=st.floats(-100.0, 100.0),
    m1=st.floats(-100.0, 100.0),
    m2=st.floats(-100.0, 100.0),
)
def test_custom_score_honors_declared_lipschitz_constant(q, m1, m2):
    doubled = ScoreFunction.custom(lambda a, b: 2.0 * np.abs(a - b), gamma=2.0)
    lhs = abs(doubled.evaluate(q, m1) - doubled.evaluate(q, m2))
    assert lhs <= doubled.gamma * abs(m1 - m2) + 1e-9


# ------------------------------------------------------------- dataset

def test_dataset_rejects_single_row():
    with pytest.raises(InvalidInputError):
        TabularDataset(np.ones((1, 1)), np.array([1.0]), np.array([1.0]))


def test_dataset_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        TabularDataset(np.array([[1.0], [np.inf]]), np.array([1.0, 2.0]), np.array([1.0]))


def test_dataset_rejects_shape_mismatch():
    with pytest.raises(InvalidInputError):
        TabularDataset(np.ones((3, 2)), np.ones(2), np.ones(2))
    with pytest.raises(InvalidInputError):
        TabularDataset(np.ones((3, 2)), np.ones(3), np.ones(1))


def test_dataset_augmentation(tiny_dataset):
    X = tiny_dataset.augmented_design()
    assert X.shape == (4, 2)
    assert np.allclose(X[-1], tiny_dataset.test_point)
    y = tiny_dataset.augmented_targets(7.0)
    assert y[-1] == 7.0 and len(y) == 4


def test_dataset_is_a_read_only_snapshot_without_copies():
    X, y, x_new = np.ones((3, 2)), np.arange(3.0), np.ones(2)
    ds = TabularDataset(X, y, x_new)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.targets[0] = 1.0
    with pytest.raises(ValueError):
        ds.test_point[0] = 1.0
    for stored, given in ((ds.features, X), (ds.targets, y), (ds.test_point, x_new)):
        assert np.shares_memory(stored, given)
        assert given.flags.writeable
    X[0, 0] = 2.0  # the caller's own array stays writable


# --------------------------------------------------- conformity scores

def test_scores_constant_model_direct_substitution():
    ds = TabularDataset(np.ones((2, 1)), np.array([1.0, -2.0]), np.ones(1))
    fitted = PretrainedLinearModel(np.zeros(1)).fit(ds, 3.0)
    scores = conformity_scores(ds, 3.0, fitted, ABS)
    assert np.allclose(scores, [1.0, 2.0, 3.0])


def test_scores_duplicated_row_gives_equal_entries(small_dataset):
    ds = TabularDataset(small_dataset.features, small_dataset.targets,
                        small_dataset.features[0])
    fitted = RidgeModel(0.3).fit(ds, ds.targets[0])
    scores = conformity_scores(ds, ds.targets[0], fitted, ABS)
    assert scores[-1] == pytest.approx(scores[0], abs=1e-12)


def test_scores_match_independent_ridge_refit():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 2))
    y = rng.standard_normal(5)
    x_new = rng.standard_normal(2)
    ds = TabularDataset(X, y, x_new)
    lam, z = 0.7, 0.4
    fitted = RidgeModel(lam).fit(ds, z)
    scores = conformity_scores(ds, z, fitted, ABS)

    # oracle: solve the same objective as a stacked least-squares problem
    Xa = np.vstack([X, x_new])
    ya = np.append(y, z)
    m, p = Xa.shape
    stacked = np.vstack([Xa, math.sqrt(m * lam) * np.eye(p)])
    target = np.concatenate([ya, np.zeros(p)])
    beta, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    oracle = np.abs(ya - Xa @ beta)
    assert np.allclose(scores, oracle, atol=1e-9)


def test_scores_require_fitted_model(tiny_dataset):
    with pytest.raises(NotFittedError):
        conformity_scores(tiny_dataset, 0.0, RidgeModel(0.1), ABS)
    # a fit on the observed rows alone has no augmented-row predictions
    observed_only = RidgeModel(0.1).fit_rows(tiny_dataset.features, tiny_dataset.targets)
    with pytest.raises(NotFittedError):
        conformity_scores(tiny_dataset, 0.0, observed_only, ABS)


# ------------------------------------------------------------ pi_exact

def zero_model_pi(targets, candidate):
    """pi_exact under the zero model, whose scores are |targets| then |candidate|."""
    targets = np.asarray(targets, dtype=float)
    ds = TabularDataset(np.ones((targets.size, 1)), targets, np.ones(1))
    return pi_exact(ds, candidate, PretrainedLinearModel(np.zeros(1)), ABS)


def test_pi_from_scores_rank_one():
    # scores (4, 3, 2, 1): the query's score is the smallest, rank 1 of 4, so
    # no observed score is below it and the conformity is 1 - 0/4
    assert zero_model_pi([4.0, 3.0, 2.0], 1.0) == 1.0
    # rank 2 of 4: one observed score is below the query's
    assert zero_model_pi([4.0, 3.0, 2.0], 2.5) == 0.75


def test_pi_from_scores_all_ties_is_the_highest_conformity():
    # every observed score ties the query's, so none is strictly below it:
    # 1 - 0/(n+1), as the threshold set {S_q <= U_(k)} keeps the query
    assert zero_model_pi([1.0, -1.0], 1.0) == 1.0


def test_pi_exact_multiple_of_inverse_sample_size(small_dataset):
    spec = RidgeModel(0.5)
    m = small_dataset.n + 1
    for z in (-1.0, 0.0, 2.5):
        value = pi_exact(small_dataset, z, spec, ABS) * m
        assert abs(value - round(value)) < 1e-9


def test_pi_exact_permutation_invariant(small_dataset):
    spec = RidgeModel(0.5)
    order = np.random.default_rng(3).permutation(small_dataset.n)
    shuffled = small_dataset.permuted(order)
    for z in (-2.0, 0.3, 1.7):
        assert pi_exact(small_dataset, z, spec, ABS) == pytest.approx(
            pi_exact(shuffled, z, spec, ABS))


def test_permuted_refuses_an_order_that_only_truncates_to_a_permutation(small_dataset):
    order = [0.5, 1.2, *range(2, small_dataset.n)]
    with pytest.raises(InvalidInputError, match="permutation"):
        small_dataset.permuted(order)
    # integral floats are the same order
    assert np.array_equal(small_dataset.permuted(np.arange(small_dataset.n)[::-1] * 1.0).features,
                          small_dataset.features[::-1])


@pytest.mark.parametrize("n", [19, 20])
def test_pi_exact_coverage_monte_carlo(n):
    # The exact set {pi_exact > alpha} covers with probability
    # ceil((1-alpha)(n+1))/(n+1): 1 - alpha at n = 19, where (1-alpha)(n+1)
    # is an integer, and 19/21 at n = 20, where a floor index would give
    # 18/21 < 1 - alpha.  Check the Monte-Carlo frequency against a 3-sigma band.
    rng = np.random.default_rng(2024)
    p, alpha, draws = 2, 0.1, 1000
    spec = RidgeModel(0.5)
    hits = 0
    for _ in range(draws):
        X = rng.standard_normal((n + 1, p))
        w = rng.standard_normal(p)
        y = X @ w + rng.standard_normal(n + 1)
        ds = TabularDataset(X[:-1], y[:-1], X[-1])
        hits += pi_exact(ds, float(y[-1]), spec, ABS) > alpha
    freq = hits / draws
    assert freq >= (1 - alpha) - 3 * math.sqrt(alpha * (1 - alpha) / draws)


def test_rank_subuniformity_monte_carlo():
    # Exchangeable i.i.d. sequences: the last rank is uniform, so the
    # frequency of Rank <= (n+1)(1-alpha) meets 1-alpha when that product
    # is an integer (n+1 = 20, alpha = 0.1 -> threshold 18).
    rng = np.random.default_rng(7)
    draws, m, alpha = 20000, 20, 0.1
    U = rng.standard_normal((draws, m))
    ranks = (U <= U[:, -1:]).sum(axis=1)
    freq = np.mean(ranks <= (1 - alpha) * m)
    assert freq >= (1 - alpha) - 3 * math.sqrt(alpha * (1 - alpha) / draws)


# ------------------------------------------------------ candidate ranges

# every entry point that takes a candidate range, called on (dataset, range);
# every set method takes the dataset's own target range instead
RANGE_ENTRY_POINTS = {
    "StabilityBounds": lambda ds, r: stabcp.StabilityBounds(
        np.ones(ds.n + 1), "user-supplied", candidate_range=r),
}


@pytest.mark.parametrize("bad_range", [(2.0, 1.0), (0.0, math.inf), (math.nan, 1.0), "junk"],
                         ids=["reversed", "infinite", "nan", "not-a-pair"])
@pytest.mark.parametrize("entry", sorted(RANGE_ENTRY_POINTS))
def test_every_candidate_range_must_be_a_finite_ordered_pair(small_dataset, entry, bad_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"finite \(lo, hi\) pair"):
            RANGE_ENTRY_POINTS[entry](small_dataset, bad_range)


# ------------------------------------------------------ prediction sets

def test_prediction_set_normalization():
    ps = PredictionSet.from_intervals([(1.0, 2.0), (-1.0, 0.5)], "m", 0.1)
    assert ps.shape == "union-of-intervals"
    assert ps.intervals == [(-1.0, 0.5), (1.0, 2.0)]
    assert ps.length() == pytest.approx(2.5)
    assert ps.contains(1.5) and not ps.contains(0.75)


def test_prediction_set_rejects_overlap():
    with pytest.raises(InvalidInputError):
        PredictionSet.from_intervals([(0.0, 1.0), (0.5, 2.0)], "m", 0.1)


def test_prediction_set_empty_and_whole_range():
    empty = PredictionSet.empty_set("m", 0.1)
    assert empty.shape == "empty" and empty.length() == 0.0
    whole = PredictionSet.whole_range("m", 0.1, (-2.0, 3.0))
    assert whole.shape == "whole-range"
    assert whole.length() == pytest.approx(5.0)
    assert whole.contains(0.0)


# ----------------------------------------------------- grid conformal set

def test_grid_full_acceptance_single_interval():
    # Fixed zero model, all candidates closer to the prediction than any
    # observed response: every grid point is kept.
    ds = TabularDataset(np.ones((4, 1)), np.array([2.0, -2.0, 3.0, -3.0]), np.ones(1))
    spec = PretrainedLinearModel(np.zeros(1))
    grid = np.linspace(-1.0, 1.0, 11)
    ps = grid_cp(ds, spec, ABS, alpha=0.2, grid=grid).set
    assert ps.shape == "interval"
    assert ps.intervals == [(-1.0, 1.0)]


def test_grid_high_alpha_keeps_only_the_score_tie():
    # the observed score 0 is below the query's at every candidate but 0,
    # where it ties: only there does the conformity 1 - 0/3 exceed alpha,
    # and oracle_cp at the truth 0.0 gives the same point
    ds = TabularDataset(np.ones((2, 1)), np.array([0.0, -1.0]), np.ones(1))
    spec = PretrainedLinearModel(np.zeros(1))
    ps = grid_cp(ds, spec, ABS, alpha=0.7, grid=np.linspace(-2, 2, 21)).set
    assert ps.intervals == [(0.0, 0.0)]
    assert ps.intervals == oracle_cp(ds, 0.0, spec, ABS, alpha=0.7).set.intervals


def test_grid_rejects_empty_and_unsorted():
    ds = TabularDataset(np.ones((2, 1)), np.array([1.0, -1.0]), np.ones(1))
    spec = PretrainedLinearModel(np.zeros(1))
    with pytest.raises(InvalidInputError):
        grid_cp(ds, spec, ABS, 0.1, [])
    with pytest.raises(InvalidInputError):
        grid_cp(ds, spec, ABS, 0.1, [1.0, 0.0])


def test_grid_matches_root_finding_endpoints(small_dataset):
    # rootcp brackets past the target range: pad the grid by the range width
    # on each side (same spacing) so that both see the whole exact set
    spec = RidgeModel(0.5)
    lo, hi = small_dataset.target_range()
    grid = np.linspace(2 * lo - hi, 2 * hi - lo, 600)
    ps = grid_cp(small_dataset, spec, ABS, 0.1, grid).set
    report = stabcp.root_cp(small_dataset, spec, ABS, 0.1)
    assert ps.shape == "interval" and report.set.shape == "interval"
    assert not ps.truncated and not report.set.truncated
    spacing = grid[1] - grid[0]
    tol = max(1e-4, spacing) + 1e-9
    assert abs(ps.intervals[0][0] - report.set.intervals[0][0]) <= tol
    assert abs(ps.intervals[0][1] - report.set.intervals[0][1]) <= tol
