import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

import stabcp
from stabcp import (
    GeneratorSpec,
    InvalidInputError,
    LadRidgeModel,
    PretrainedLinearModel,
    RidgeModel,
    ScoreFunction,
    StabilityBounds,
    TabularDataset,
    anchor_bounds,
    conformity_scores,
    gap_profile,
    gen_linear_gaussian,
    grid_cp,
    oracle_cp,
    pi_exact,
    root_cp,
    split_cp,
    split_pi,
    stab_cp_interval,
    tau_user_supplied,
)
from stabcp.conformal import _EPS_R, _MAX_DOUBLINGS, _ROOT_PROBES, _score_threshold
from stabcp.core import _conformity, _level_index
from stabcp.harness import RunConfig, run_method

ABS = ScoreFunction.absolute_residual()
# the absolute residual as a custom score: same sets, extracted by bisection
CUSTOM_ABS = ScoreFunction.custom(lambda q, m: np.abs(q - m), 1.0)


def make_dataset(n=50, p=5, seed=0, noise=1.0):
    return gen_linear_gaussian(GeneratorSpec("linear-gaussian", n, p, noise, seed))


def padded_grid(dataset, num):
    """``num`` candidates spanning the target range widened by its width on
    each side, which holds the whole exact set on the test data here."""
    lo, hi = dataset.target_range()
    return np.linspace(2 * lo - hi, 2 * hi - lo, num)


def zero_model_dataset(targets, test_value=0.3):
    targets = np.asarray(targets, dtype=float)
    n = targets.size
    return TabularDataset(np.ones((n, 1)), targets, np.ones(1), test_target=test_value)


# ------------------------------------------------------------- pi_bounds

def zero_model_bounds(ds, tau):
    """Envelopes around the zero model's fit, whose observed scores are ``|y_i|``."""
    bounds, _ = anchor_bounds(ds, 0.0, PretrainedLinearModel(np.zeros(1)), ABS, tau)
    return bounds


def test_pi_bounds_matches_hand_evaluation():
    # n=2, tau=(0.1, 0.1, 0.1), anchor scores (1.0, 2.0), query score 2.0:
    # envelopes L=(0.9, 1.9), U=(1.1, 2.1), L_3=1.9, U_3=2.1.
    # lower count: 1{0.9<=2.1} + 1{1.9<=2.1} = 2 -> lo = 1 - 2/3 = 1/3
    # upper count: 1{1.1<=1.9} + 1{2.1<=1.9} = 1 -> up = 1 - 1/3 = 2/3
    ds = zero_model_dataset([1.0, -2.0])
    pb = zero_model_bounds(ds, tau_user_supplied([0.1, 0.1, 0.1])).pi_bounds_at(2.0)
    assert pb.lo == pytest.approx(1 / 3)
    assert pb.up == pytest.approx(2 / 3)
    assert pb.gap == pytest.approx(1 / 3)
    assert (pb.n_lo, pb.n_up) == (2, 1)
    # a bound per observed row plus the query row, no fewer
    with pytest.raises(InvalidInputError, match="tau has 2 entries, expected 3"):
        zero_model_bounds(ds, tau_user_supplied([0.1, 0.1]))


def test_pi_bounds_zero_tau_collapses_to_anchor_conformity():
    ds = zero_model_dataset([1.0, -2.0, 0.7, 2.4])
    bounds = zero_model_bounds(ds, tau_user_supplied(np.zeros(ds.n + 1)))
    # the oracle's envelope (tau=None) is the observed scores, one array
    oracle = zero_model_bounds(ds, None)
    assert oracle._lower is oracle._upper and oracle.tau_test == 0.0
    for z in (-1.3, 0.2, 3.0):
        pb = bounds.pi_bounds_at(z)
        exact = pi_exact(ds, z, PretrainedLinearModel(np.zeros(1)), ABS)
        assert pb.lo == pytest.approx(exact)
        assert pb.up == pytest.approx(exact)
        assert oracle.pi_bounds_at(z) == pb


def test_pi_bounds_saturate_with_huge_tau():
    ds = zero_model_dataset([1.0, -2.0, 0.7])
    pb = zero_model_bounds(ds, tau_user_supplied(np.full(ds.n + 1, 1e12))).pi_bounds_at(0.5)
    # every observed score may lie below the query's, none must: the lowest
    # and the highest conformity
    assert (pb.n_lo, pb.n_up) == (ds.n, 0)
    assert pb.lo == 1 / (ds.n + 1)
    assert pb.up == 1.0


def test_pi_bounds_selection_matches_observed_row_sum():
    # The full-sample indicator selection and the observed-rows-only form
    # agree whenever the query-point bound is positive.
    ds = make_dataset(30, 4, seed=5)
    spec = RidgeModel(0.5)
    tau = spec.stability_bound(ds)
    assert tau.tau_test > 0
    bounds, fitted = anchor_bounds(ds, 0.0, spec, ABS, tau)
    scores = conformity_scores(ds, 0.0, fitted, ABS)[:-1]
    upper = np.sort(scores + tau.tau[:-1])
    v = (1 - 0.1) * (ds.n + 1)
    for z in np.linspace(*ds.target_range(), 40):
        pb = bounds.pi_bounds_at(z)
        test_low = ABS.evaluate(z, fitted.row_predictions[-1]) - tau.tau_test
        observed_sum = int(np.count_nonzero(upper <= test_low))
        assert pb.n_up == observed_sum  # query-row indicator contributes 0
        assert (pb.up >= 0.1 - 1e-12) == (observed_sum <= v + 1e-9)


# ---------------------------------------------------------- closed form

def test_stab_interval_formula_substitution():
    # Prediction 0, 9 observed scores with 9th order statistic 1.0,
    # tau zero on observed rows and 0.5 on the query point, alpha = 0.1:
    # half-width = 1.0 + 0.5.
    targets = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0]
    ds = zero_model_dataset(targets)
    spec = PretrainedLinearModel(np.zeros(1))
    tau = tau_user_supplied([0.0] * 9 + [0.5])
    report = stab_cp_interval(ds, 0.0, spec, ABS, tau, alpha=0.1)
    assert report.set.intervals == [(-1.5, 1.5)]
    assert report.fit_count == 1


def test_stab_interval_quantile_overflow_whole_range():
    ds = zero_model_dataset([1.0, -1.0])
    spec = PretrainedLinearModel(np.zeros(1))
    tau = tau_user_supplied([0.0, 0.0, 0.5])
    report = stab_cp_interval(ds, 0.0, spec, ABS, tau, alpha=0.05)
    assert report.set.shape == "whole-range"
    assert report.set.candidate_range == ds.target_range()


def test_stab_interval_zero_query_bound_equals_oracle():
    # a zero query-point bound is allowed: anchored at the truth with a
    # frozen model and all bounds zero, the single-fit set is the oracle set
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2))
    coef = np.array([1.0, -0.5])
    y = X @ coef + rng.standard_normal(30)
    ds = TabularDataset(X[:-1], y[:-1], X[-1], test_target=float(y[-1]))
    frozen = PretrainedLinearModel(coef)
    zero = tau_user_supplied(np.zeros(ds.n + 1))
    for alpha in (0.1, 0.25):
        stab = stab_cp_interval(ds, ds.test_target, frozen, ABS, zero, alpha)
        oracle = oracle_cp(ds, ds.test_target, frozen, ABS, alpha)
        assert stab.set.intervals == oracle.set.intervals


def test_stab_interval_contains_grid_oracle_at_scale():
    ds = make_dataset(n=300, p=5, seed=13)
    spec = RidgeModel(0.5)
    anchor = spec.anchor(ds)
    tau = spec.stability_bound(ds)
    report = stab_cp_interval(ds, anchor, spec, ABS, tau, 0.1)
    grid = stabcp.default_candidate_grid(ds, 200)
    oracle = grid_cp(ds, spec, ABS, 0.1, grid).set
    (glo, ghi), = oracle.intervals
    (slo, shi), = report.set.intervals
    assert slo <= glo and ghi <= shi
    assert report.set.length() <= 1.15 * oracle.length()


def test_anchor_outside_bound_range_is_not_coverage_safe():
    # the query row extrapolates far beyond the observed rows, so ridge's raw
    # anchor lies above the target range that ridge's bound holds over
    ds = TabularDataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.1, 2.9]),
                        np.array([10.0]))
    spec = RidgeModel(0.01)
    # the raw anchor a_q / (1 - b_q): the observed-rows fit at (n+1)/n the penalty
    anchor = RidgeModel(0.01 * (ds.n + 1) / ds.n).fit_rows(ds.features, ds.targets).predict(
        ds.test_point)
    tau = spec.stability_bound(ds)
    lo, hi = tau.candidate_range
    assert anchor > hi
    stab = stab_cp_interval(ds, anchor, spec, ABS, tau, 0.1)
    bisect = stab_cp_interval(ds, anchor, spec, CUSTOM_ABS, tau, 0.1)
    assert stab.details["tau_coverage_safe"] is False
    assert bisect.details["tau_coverage_safe"] is False
    # the flag leaves the set alone: an unflagged copy of the bound gives the same set
    unranged = tau_user_supplied(tau.tau)
    same = stab_cp_interval(ds, anchor, spec, ABS, unranged, 0.1)
    assert same.details["tau_coverage_safe"] is True
    assert stab.set.intervals == same.set.intervals
    inside = stab_cp_interval(ds, 0.5 * (lo + hi), spec, ABS, tau, 0.1)
    assert inside.details["tau_coverage_safe"] is True
    # the model's anchor is that raw anchor clipped into the range, so its set
    # is coverage-safe and holds the exact set (at alpha 0.5, where neither is
    # the whole range)
    assert spec.anchor(ds) == hi
    clipped = stab_cp_interval(ds, spec.anchor(ds), spec, ABS, tau, 0.5)
    assert clipped.details["tau_coverage_safe"] is True
    assert clipped.set.shape == "interval"
    exact = grid_cp(ds, spec, ABS, 0.5, np.linspace(lo, hi, 801)).set
    assert exact.intervals
    for end in np.ravel(exact.intervals):
        assert clipped.set.contains(end)


def test_user_bound_range_sets_only_the_flag():
    # a bound that holds on a range other than the target range: every set
    # searches and records the target range, and only the flag reads the
    # bound's range
    ds = make_dataset(n=30, p=3, seed=4)
    spec = RidgeModel(0.5)
    lo, hi = ds.target_range()
    held = (lo - 5.0, lo + 0.25 * (hi - lo))
    tau = tau_user_supplied(np.full(ds.n + 1, 0.1), candidate_range=held)
    for anchor, safe in ((held[0], True), (hi, False)):
        for score in (ABS, CUSTOM_ABS):
            report = stab_cp_interval(ds, anchor, spec, score, tau, 0.1)
            assert report.set.shape == "interval"
            assert report.set.candidate_range == (lo, hi)
            assert report.details["tau_coverage_safe"] is safe
    # a whole-range set is the target range, not the bound's
    small = make_dataset(n=5, p=2, seed=4)
    tau = tau_user_supplied(np.zeros(small.n + 1), candidate_range=(-100.0, 100.0))
    whole = stab_cp_interval(small, 0.0, spec, ABS, tau, 0.1).set
    assert whole.shape == "whole-range"
    assert whole.intervals == [small.target_range()] and whole.candidate_range == small.target_range()


def test_lad_bound_holds_for_an_anchor_far_outside_the_target_range():
    # the query term's loss difference is 2||x_q||/m-Lipschitz for any two
    # candidates, so the LAD bound has no range and a far anchor stays safe
    ds = make_dataset(n=40, p=5, seed=0)
    spec = LadRidgeModel(0.2, solver_tol=1e-11)
    lo, hi = ds.target_range()
    tau = spec.stability_bound(ds)
    assert tau.candidate_range is None
    far = stab_cp_interval(ds, hi + 3 * (hi - lo), spec, ABS, tau, 0.1)
    assert far.details["tau_coverage_safe"] is True
    assert far.set.candidate_range == (lo, hi)
    (flo, fhi), = far.set.intervals
    (rlo, rhi), = root_cp(ds, spec, ABS, 0.1).set.intervals
    assert flo <= rlo - _EPS_R and rhi + _EPS_R <= fhi


def test_uncertified_envelope_fit_is_not_coverage_safe():
    # five ADMM iterations leave a duality gap far above the 1e-12 tolerance:
    # the bound assumes the exact minimizer, so the set is flagged, not changed
    ds = make_dataset(n=40, p=4, seed=3)
    spec = LadRidgeModel(0.5, solver_tol=1e-12, max_iter=5)
    z_range = ds.target_range()
    tau = spec.stability_bound(ds)
    anchor = 0.5 * (z_range[0] + z_range[1])
    for report in (stab_cp_interval(ds, anchor, spec, ABS, tau, 0.1),
                   stab_cp_interval(ds, anchor, spec, CUSTOM_ABS, tau, 0.1)):
        assert report.details["tau_coverage_safe"] is False
        assert report.details["converged"] is False
        assert report.details["duality_gap"] > 1e-12
        assert report.details["iterations"] == 5
    certified = stab_cp_interval(ds, anchor, LadRidgeModel(0.5), ABS, tau, 0.1)
    assert certified.details["converged"] is True
    assert certified.details["tau_coverage_safe"] is True
    closed_form = stab_cp_interval(ds, anchor, RidgeModel(0.5), ABS, tau, 0.1)
    assert closed_form.details["converged"] is None
    assert closed_form.details["tau_coverage_safe"] is True


def test_stab_set_is_the_closure_of_upper_envelope_above_alpha():
    # inside the single-fit set the upper envelope exceeds alpha, and 1e-6
    # outside it does not: at an integer (n = 19) and a non-integer (n = 20)
    # (1 - alpha)(n + 1), with a positive and with a zero query-point bound
    for n in (19, 20):
        ds = make_dataset(n=n, p=3, seed=n)
        spec = RidgeModel(0.5)
        anchor = spec.anchor(ds)
        for tau in (spec.stability_bound(ds),
                    tau_user_supplied(np.zeros(n + 1))):
            bounds, _ = anchor_bounds(ds, anchor, spec, ABS, tau)
            for alpha in (0.1, 0.2):
                (lo, hi), = stab_cp_interval(ds, anchor, spec, ABS, tau, alpha).set.intervals
                for z in [lo + 1e-6, *np.linspace(lo, hi, 40)[1:-1], hi - 1e-6]:
                    assert bounds.pi_bounds_at(z).up > alpha
                for z in (lo - 1e-6, hi + 1e-6):
                    assert bounds.pi_bounds_at(z).up <= alpha


# ------------------------------------------------------------- bisection

def test_bisection_name_is_the_single_fit_set():
    # one single-fit set function; the earlier name stays as a module alias
    assert stabcp.conformal.stab_cp_bisection is stab_cp_interval
    assert not hasattr(stabcp, "stab_cp_bisection")


def test_bisection_agrees_with_closed_form():
    ds = make_dataset(n=50, p=5, seed=21)
    spec = RidgeModel(0.5)
    anchor = spec.anchor(ds)
    tau = spec.stability_bound(ds)
    interval = stab_cp_interval(ds, anchor, spec, ABS, tau, 0.1)
    (ilo, ihi), = interval.set.intervals
    assert interval.fit_count == 1
    # the bisection extraction of the same score lands just outside
    report = stab_cp_interval(ds, anchor, spec, CUSTOM_ABS, tau, 0.1)
    (blo, bhi), = report.set.intervals
    assert ilo - _EPS_R <= blo <= ilo
    assert ihi <= bhi <= ihi + _EPS_R
    assert report.fit_count == 1


def test_bisection_constant_above_alpha_whole_range(small_dataset):
    # huge bounds: the set is a (finite) interval swallowing the whole range
    spec = RidgeModel(0.5)
    lo, hi = small_dataset.target_range()
    tau = tau_user_supplied(np.full(small_dataset.n + 1, 1e9))
    for score in (ABS, CUSTOM_ABS):
        report = stab_cp_interval(small_dataset, 0.0, spec, score, tau, 0.1)
        assert report.set.shape == "interval"
        (blo, bhi), = report.set.intervals
        assert blo < lo - 1e8 and bhi > hi + 1e8
        assert not report.set.truncated
    # alpha < 1/(n+1): the order-statistic index exceeds n, whole range
    alpha = 0.5 / (small_dataset.n + 1)
    for score in (ABS, CUSTOM_ABS):
        report = stab_cp_interval(small_dataset, 0.0, spec, score, tau, alpha)
        assert report.set.shape == "whole-range"
        assert report.set.truncated
        assert report.set.candidate_range == (lo, hi)
    # a custom score that never exceeds the threshold is unbounded: whole
    # range, found from the lower side's outward steps alone, eight per call
    calls = []

    def flat_fn(q, m):
        calls.append(np.size(q))
        return np.minimum(np.abs(q - m), 1.0)

    flat = ScoreFunction.custom(flat_fn, 1.0)
    report = stab_cp_interval(small_dataset, 0.0, spec, flat, tau, 0.1)
    assert report.set.shape == "whole-range" and report.set.truncated
    # the observed scores, the prediction itself, then the outward steps
    assert calls == [small_dataset.n + 1, 1] + [8] * (_MAX_DOUBLINGS // 8)


def test_bisection_empty_when_nothing_selected():
    # all tau zero and alpha so high that T is the smallest observed score,
    # 0.5; the score |q - m| + |m| puts even the query prediction itself
    # (m = 10, score 10) above T, so no candidate is selected
    ds = TabularDataset(np.zeros((3, 1)), np.array([1.0, -1.0, 0.5]), np.ones(1))
    spec = PretrainedLinearModel(np.array([10.0]))
    offset = ScoreFunction.custom(lambda q, m: np.abs(q - m) + np.abs(m), 2.0)
    tau = tau_user_supplied(np.zeros(4), candidate_range=(0.9, 1.0))
    report = stab_cp_interval(ds, 0.0, spec, offset, tau, alpha=0.9)
    assert report.set.shape == "empty"


def test_bisection_general_score_matches_dense_scan():
    # Asymmetric convex score with interval level sets.
    def linex(q, m):
        d = np.asarray(q, dtype=float) - np.asarray(m, dtype=float)
        return np.exp(np.clip(d, None, 50.0)) - d - 1.0

    score = ScoreFunction.custom(linex, gamma=5.0)
    ds = make_dataset(n=25, p=3, seed=4)
    spec = RidgeModel(0.8)
    anchor = 0.0
    alpha = 0.1
    lo, hi = ds.target_range()
    span = hi - lo
    z_min, z_max = lo - span, hi + span
    tau = tau_user_supplied(np.full(ds.n + 1, 0.05), candidate_range=(z_min, z_max))
    report = stab_cp_interval(ds, anchor, spec, score, tau, alpha)
    bounds, _ = anchor_bounds(ds, anchor, spec, score, tau)
    threshold = math.floor((1 - alpha) * (ds.n + 1) + 1e-9)
    zs = np.linspace(z_min, z_max, 100_000)
    _, n_up = bounds.counts_at(zs)
    selected = n_up <= threshold
    assert selected.any()
    scan_lo = zs[np.argmax(selected)]
    scan_hi = zs[len(zs) - 1 - np.argmax(selected[::-1])]
    (blo, bhi), = report.set.intervals
    spacing = zs[1] - zs[0]
    assert abs(blo - scan_lo) <= _EPS_R + spacing
    assert abs(bhi - scan_hi) <= _EPS_R + spacing


def outlier_dataset(values):
    """n=300, p=20 draw with its first targets set to outliers, plus its clean range."""
    base = make_dataset(n=300, p=20, seed=0)
    targets = base.targets.copy()
    targets[:len(values)] = values
    ds = TabularDataset(base.features, targets, base.test_point, base.test_target)
    return ds, base.target_range()


def clean_range_bound(ds, spec, clean):
    """Ridge's exact affine bound over the clean range instead of the target range."""
    b = spec.fit(ds, 0.0).row_b
    return tau_user_supplied(np.abs(b) * (clean[1] - clean[0]), candidate_range=clean)


def test_bisection_finds_set_between_two_outliers():
    # the set is ~37 wide inside a 2000-wide range; a coarse probe of the
    # range used to miss it and return an empty set
    ds, clean = outlier_dataset([1000.0, -1000.0])
    spec = RidgeModel(0.5)
    anchor = spec.anchor(ds)
    tau = clean_range_bound(ds, spec, clean)
    interval = stab_cp_interval(ds, anchor, spec, ABS, tau, 0.1)
    bisect = stab_cp_interval(ds, anchor, spec, CUSTOM_ABS, tau, 0.1)
    (ilo, ihi), = interval.set.intervals
    (blo, bhi), = bisect.set.intervals
    assert ilo - _EPS_R <= blo <= ilo and ihi <= bhi <= ihi + _EPS_R
    assert interval.length < 50
    assert bisect.covered and interval.covered


def test_bisection_never_clamps_to_the_candidate_range():
    # one outlier: the set reaches below the smallest observed target, and
    # is returned whole, not clamped and not flagged as truncated; it records
    # the target range, not the bound's
    ds, clean = outlier_dataset([1000.0])
    spec = RidgeModel(0.5)
    anchor = spec.anchor(ds)
    tau = clean_range_bound(ds, spec, clean)
    for score, slack in ((ABS, 0.0), (CUSTOM_ABS, _EPS_R)):
        report = stab_cp_interval(ds, anchor, spec, score, tau, 0.1)
        (lo, hi), = report.set.intervals
        assert lo == pytest.approx(-19.4058, abs=1e-4 + slack)
        assert hi == pytest.approx(10.1588, abs=1e-4 + slack)
        assert lo < ds.target_range()[0]
        assert not report.set.truncated
        assert report.set.candidate_range == ds.target_range() != clean


@pytest.mark.parametrize("n", [9, 99])
def test_bisection_uses_closed_form_index_at_integer_level(n):
    # (1 - alpha)(n + 1) is an integer: both extractions take the ceil index
    alpha = 0.1
    ds = make_dataset(n=n, p=3, seed=0)
    spec = RidgeModel(0.5)
    anchor = spec.anchor(ds)
    tau = spec.stability_bound(ds)
    interval = stab_cp_interval(ds, anchor, spec, ABS, tau, alpha)
    (ilo, ihi), = interval.set.intervals
    custom = stab_cp_interval(ds, anchor, spec, CUSTOM_ABS, tau, alpha)
    (clo, chi), = custom.set.intervals
    assert ilo - _EPS_R <= clo <= ilo and ihi <= chi <= ihi + _EPS_R
    exact = grid_cp(ds, spec, ABS, alpha, stabcp.default_candidate_grid(ds, 200)).set
    assert exact.intervals
    for glo, ghi in exact.intervals:
        assert interval.set.contains(glo) and interval.set.contains(ghi)


def test_split_and_oracle_custom_score_match_builtin():
    # one index rule for both paths; custom endpoints within _EPS_R, outside
    ds = make_dataset(n=50, p=5, seed=0)
    spec = RidgeModel(0.5)
    pairs = [(split_cp(ds, 25, spec, score, 0.1),
              oracle_cp(ds, ds.test_target, spec, score, 0.1)) for score in (ABS, CUSTOM_ABS)]
    for builtin, custom in zip(*pairs):
        (lo, hi), = builtin.set.intervals
        (clo, chi), = custom.set.intervals
        assert lo - _EPS_R <= clo <= lo
        assert hi <= chi <= hi + _EPS_R


@pytest.mark.parametrize("bad, message", [(math.nan, "non-finite"), (math.inf, "non-finite"),
                                          (-math.inf, "non-finite"), (-1.0, "negative")])
def test_scores_that_are_not_finite_and_nonnegative_are_rejected(small_dataset, bad, message):
    # only the query's score is bad: the candidate is the one target above 50
    score = ScoreFunction.custom(lambda q, m: np.where(q > 50.0, bad, np.abs(q - m)), 1.0)
    fitted = RidgeModel(0.5).fit(small_dataset, 100.0)
    with pytest.raises(InvalidInputError, match=f"score function produced {message} values"):
        conformity_scores(small_dataset, 100.0, fitted, score)
    with pytest.raises(InvalidInputError, match=f"score function produced {message} values"):
        pi_exact(small_dataset, 100.0, RidgeModel(0.5), score)
    # and a calibration row's score: the last observed target is the one above 50
    ds = replace(small_dataset, targets=np.append(small_dataset.targets[:-1], 100.0))
    with pytest.raises(InvalidInputError, match=f"score function produced {message} values"):
        split_cp(ds, 5, RidgeModel(0.5), score, 0.1)
    with pytest.raises(InvalidInputError, match=f"score function produced {message} values"):
        split_pi(ds, 5, RidgeModel(0.5), score)


@pytest.mark.parametrize("seed", range(5))
def test_custom_score_sets_take_few_score_calls(seed):
    # per endpoint one call for the outward steps and three or four that
    # shrink the bracket 65-fold each, plus the reference scores and the
    # check at the prediction; scoring one candidate per call took 38
    calls = []

    def huber(q, m):
        calls.append(np.size(q))
        r = np.abs(np.asarray(q, dtype=float) - np.asarray(m, dtype=float))
        return np.where(r <= 1.0, 0.5 * r * r, r - 0.5)

    score = ScoreFunction.custom(huber, 1.0)
    ds = make_dataset(n=300, p=20, seed=seed)
    spec = RidgeModel(0.5)
    tau = spec.stability_bound(ds)
    anchor = spec.anchor(ds)
    for run in (lambda: stab_cp_interval(ds, anchor, spec, score, tau, 0.1),
                lambda: oracle_cp(ds, ds.test_target, spec, score, 0.1),
                lambda: split_cp(ds, 150, spec, score, 0.1)):
        calls.clear()
        assert run().set.shape == "interval"
        assert len(calls) <= 12


def test_outward_steps_never_score_far_past_the_first_batch():
    # exp overflows past 709, and the target range is under 5 wide: scoring
    # all _MAX_DOUBLINGS outward steps at once would reach width * 2**63 and
    # warn; a batch of eight steps stops at width * 2**7
    def linex(q, m):
        d = np.asarray(q, dtype=float) - np.asarray(m, dtype=float)
        return np.exp(d) - d - 1.0

    score = ScoreFunction.custom(linex, gamma=5.0)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((41, 2))
    y = 0.5 * X[:, 0] + 0.2 * rng.standard_normal(41)
    ds = TabularDataset(X[:-1], y[:-1], X[-1], test_target=float(y[-1]))
    lo, hi = ds.target_range()
    assert hi - lo < 5
    spec = RidgeModel(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        oracle = oracle_cp(ds, ds.test_target, spec, score, 0.1)
        split = split_cp(ds, 20, spec, score, 0.1)
    assert oracle.set.shape == split.set.shape == "interval"
    # each end just outside the split set, the interval's inside within _EPS_R
    pi = split_pi(ds, 20, spec, score)
    (slo, shi), = split.set.intervals
    assert pi(slo) <= 0.1 and pi(shi) <= 0.1
    assert pi(slo + _EPS_R) > 0.1 and pi(shi - _EPS_R) > 0.1


def test_thresholds_select_the_order_statistic_the_sort_gave():
    # bit for bit, on ties, subnormals and scores 1e600 apart; the caller's
    # scores are left as they were
    rng = np.random.default_rng(3)
    cases = [np.full(7, 2.5), np.array([0.0]), np.array([1.0, 1.0, 0.0, 1.0]),
             np.round(rng.exponential(size=301), 1), np.repeat([3.0, 1.0, 2.0], 50),
             np.array([5e-324, 0.0, 1e300, 1e-300, 1e300, 5e-324]),
             np.sort(rng.exponential(size=1000))[::-1].copy()]
    for scores in cases:
        given = scores.copy()
        for alpha in (1e-3, 0.05, 0.1, 0.5, 0.9, 1 - 1e-12):
            for tau_test in (0.0, 0.37, 1e-300):
                k = _level_index(scores.size, alpha)
                expected = math.inf if k > scores.size else float(np.sort(scores)[k - 1]) + tau_test
                got = _score_threshold(scores, tau_test, alpha)
                assert struct.pack("<d", got) == struct.pack("<d", expected)
        assert np.array_equal(scores, given)


def test_envelope_counts_are_unchanged_by_sorting_on_first_use():
    rng = np.random.default_rng(7)
    n = 40
    observed = np.round(rng.exponential(size=n), 1)
    tau = tau_user_supplied(np.append(np.round(rng.uniform(0, 0.5, n), 1), 0.2))
    # the observed rows predict 0 and the query row 0.3: observed scores
    # |y_i| = y_i and query score |z - 0.3|
    ds = TabularDataset(np.zeros((n, 1)), observed, np.array([0.3]))
    bounds, _ = anchor_bounds(ds, 0.0, PretrainedLinearModel(np.ones(1)), ABS, tau)
    assert "lower_sorted" not in vars(bounds) and "upper_sorted" not in vars(bounds)
    lower, upper = np.sort(observed - tau.tau[:-1]), np.sort(observed + tau.tau[:-1])
    zs = np.append(np.linspace(-4.0, 4.0, 161), 0.3 + np.concatenate([observed, -observed]))
    n_lo, n_up = bounds.counts_at(zs)
    query = np.abs(zs - 0.3)
    assert np.array_equal(n_lo, np.searchsorted(lower, query + 0.2, side="left"))
    assert np.array_equal(n_up, np.searchsorted(upper, query - 0.2, side="left"))
    for z, lo_count, up_count in zip(zs, n_lo, n_up):
        pb = bounds.pi_bounds_at(z)
        assert (pb.n_lo, pb.n_up) == (lo_count, up_count)
        assert (pb.lo, pb.up) == (_conformity(lo_count, n), _conformity(up_count, n))


# ----------------------------------------------------------------- batch
# A valid multi-anchor set is the intersection of the single-fit sets.

def intersect(reports):
    """Intersection of single-interval stabcp sets, as a (lo, hi) pair."""
    assert all(r.set.shape == "interval" for r in reports)
    return (max(r.set.intervals[0][0] for r in reports),
            min(r.set.intervals[0][1] for r in reports))


def test_batch_single_anchor_is_plain_bounds(small_dataset):
    spec = RidgeModel(0.5)
    tau = spec.stability_bound(small_dataset)
    report = stab_cp_interval(small_dataset, 0.0, spec, ABS, tau, 0.1)
    assert intersect([report]) == report.set.intervals[0]


def test_batch_duplicate_anchor_idempotent(small_dataset):
    spec = RidgeModel(0.5)
    tau = spec.stability_bound(small_dataset)
    one = stab_cp_interval(small_dataset, 0.4, spec, ABS, tau, 0.1)
    two = stab_cp_interval(small_dataset, 0.4, spec, ABS, tau, 0.1)
    assert intersect([one, two]) == intersect([one])


def test_batch_never_widens_the_gap():
    ds = make_dataset(n=40, p=8, seed=9)
    spec = RidgeModel(0.5)
    lo, hi = ds.target_range()
    tau = spec.stability_bound(ds)
    reports = [stab_cp_interval(ds, z_hat, spec, ABS, tau, 0.1)
               for z_hat in (lo + 0.25 * (hi - lo), 0.0, lo + 0.75 * (hi - lo))]
    both_lo, both_hi = intersect(reports)
    for report in reports:
        assert both_hi - both_lo <= report.length + 1e-12
    grid = grid_cp(ds, spec, ABS, 0.1, np.linspace(lo, hi, 200)).set
    assert grid.intervals
    for glo, ghi in grid.intervals:
        assert both_lo <= glo and ghi <= both_hi


# ------------------------------------------------------------------ grid

def test_grid_sets_reaching_a_grid_end_are_truncated():
    # a grid inside the exact set keeps both of its ends: the set goes on
    # beyond them, which gridcp flags; a grid holding the whole exact set
    # gives an unflagged one
    ds = make_dataset(n=30, p=4, seed=2)
    spec = RidgeModel(0.5)
    wide = padded_grid(ds, 300)
    (elo, ehi), = grid_cp(ds, spec, ABS, 0.1, wide).set.intervals
    centre = 0.5 * (elo + ehi)
    narrow = np.linspace(centre - 0.1, centre + 0.1, 11)
    for grid, truncated in ((narrow, True), (wide, False)):
        report = grid_cp(ds, spec, ABS, 0.1, grid)
        assert report.set.shape == "interval"
        assert report.set.truncated is truncated
    assert grid_cp(ds, spec, ABS, 0.1, narrow).set.intervals == [(narrow[0], narrow[-1])]


# ----------------------------------------------------------------- split

def test_split_matches_direct_indicator_evaluation():
    # trained prediction 0, calibration scores 1..9: the half-width is the
    # ceil((1 - alpha) * 10)-th score, 9 at alpha=0.1 and 0.15, 8 at 0.25
    m = 5
    train_targets = np.zeros(m)
    cal_targets = np.arange(1.0, 10.0)
    targets = np.concatenate([train_targets, cal_targets])
    n = targets.size
    ds = TabularDataset(np.ones((n, 1)), targets, np.ones(1), test_target=0.0)
    spec = PretrainedLinearModel(np.zeros(1))
    pi = split_pi(ds, m, spec, ABS)
    zs = np.linspace(-12, 12, 4801)
    for alpha, half in ((0.1, 9.0), (0.15, 9.0), (0.25, 8.0)):
        report = split_cp(ds, m, spec, ABS, alpha=alpha)
        assert report.set.intervals == [(-half, half)]
        assert report.fit_count == 1
        # direct indicator oracle: closure of {z: pi_split(z) > alpha}
        kept = np.array([pi(z) > alpha for z in zs])
        assert zs[kept].min() == pytest.approx(-half, abs=zs[1] - zs[0])
        assert zs[kept].max() == pytest.approx(half, abs=zs[1] - zs[0])


def test_split_all_ties_give_constant_halfwidth():
    m = 4
    targets = np.concatenate([np.zeros(m), np.full(6, 2.0)])
    ds = TabularDataset(np.ones((targets.size, 1)), targets, np.ones(1))
    spec = PretrainedLinearModel(np.zeros(1))
    for alpha in (0.2, 0.35, 0.5):
        report = split_cp(ds, m, spec, ABS, alpha=alpha)
        if report.set.shape == "interval":
            assert report.set.intervals == [(-2.0, 2.0)]


def test_split_coverage_monte_carlo():
    rng = np.random.default_rng(77)
    reps, n, p, alpha = 100, 60, 3, 0.1
    hits = 0
    for rep in range(reps):
        seed = int(rng.integers(2**31))
        ds = make_dataset(n=n, p=p, seed=seed)
        report = split_cp(ds, n // 2, RidgeModel(0.5), ABS, alpha)
        hits += report.covered
    assert hits / reps >= (1 - alpha) - 3 * math.sqrt(alpha * (1 - alpha) / reps)


def test_split_general_score_matches_dense_scan():
    # split set for a non-absolute score with interval level sets, against a
    # brute-force scan of the split conformity function
    def linex(q, m):
        d = np.asarray(q, dtype=float) - np.asarray(m, dtype=float)
        return np.exp(np.clip(d, None, 50.0)) - d - 1.0

    score = ScoreFunction.custom(linex, gamma=5.0)
    ds = make_dataset(n=40, p=3, seed=19)
    spec = RidgeModel(0.5)
    m = 20
    alpha = 0.2
    report = split_cp(ds, m, spec, score, alpha)
    assert report.set.shape in ("interval", "whole-range")
    pi = split_pi(ds, m, spec, score)
    # the set reaches below the target range: scan it padded by its width
    lo, hi = ds.target_range()
    zs = np.linspace(2 * lo - hi, 2 * hi - lo, 150_000)
    kept = pi(zs) > alpha
    assert not (kept[0] or kept[-1])
    assert kept.any()
    spacing = zs[1] - zs[0]
    (blo, bhi), = report.set.intervals
    assert abs(blo - zs[np.argmax(kept)]) <= _EPS_R + spacing
    assert abs(bhi - zs[len(zs) - 1 - np.argmax(kept[::-1])]) <= _EPS_R + spacing


def test_split_rejects_bad_index(small_dataset):
    with pytest.raises(InvalidInputError):
        split_cp(small_dataset, 0, RidgeModel(0.5), ABS, 0.1)
    with pytest.raises(InvalidInputError):
        split_cp(small_dataset, small_dataset.n, RidgeModel(0.5), ABS, 0.1)


# ---------------------------------------------------------------- oracle

def test_oracle_equals_zero_tau_limit_form(small_dataset):
    spec = RidgeModel(0.5)
    report = oracle_cp(small_dataset, small_dataset.test_target, spec, ABS, 0.1)
    zero = tau_user_supplied(np.zeros(small_dataset.n + 1))
    expected = stab_cp_interval(small_dataset, small_dataset.test_target, spec, ABS,
                                zero, 0.1)
    assert report.set.intervals == expected.set.intervals
    assert report.fit_count == 1


def test_oracle_constant_model_centered_at_constant():
    ds = zero_model_dataset([1.0, -1.0, 0.5, 2.0, -0.7, 0.2, 1.4, -1.9, 0.9])
    spec = PretrainedLinearModel(np.zeros(1))
    report = oracle_cp(ds, 0.3, spec, ABS, alpha=0.2)
    (lo, hi), = report.set.intervals
    assert lo == pytest.approx(-hi)


def test_oracle_contained_in_stab_interval_with_any_tau(small_dataset):
    spec = RidgeModel(0.5)
    y_true = small_dataset.test_target
    oracle = oracle_cp(small_dataset, y_true, spec, ABS, 0.1)
    for scale in (0.1, 1.0, 3.0):
        tau_vec = np.full(small_dataset.n + 1, 0.2 * scale)
        report = stab_cp_interval(small_dataset, y_true, spec, ABS,
                                  tau_user_supplied(tau_vec), 0.1)
        (olo, ohi), = oracle.set.intervals
        assert report.set.contains(olo) and report.set.contains(ohi)


# ------------------------------------------------------------------ root

def test_root_matches_grid_oracle(small_dataset):
    # rootcp brackets past the target range, so the grid is padded to see as far
    spec = RidgeModel(0.5)
    grid = padded_grid(small_dataset, 750)
    oracle = grid_cp(small_dataset, spec, ABS, 0.1, grid).set
    assert not oracle.truncated
    report = root_cp(small_dataset, spec, ABS, 0.1)
    (glo, ghi), = oracle.intervals
    (rlo, rhi), = report.set.intervals
    tol = max(1e-4, float(grid[1] - grid[0])) + 1e-9
    assert abs(rlo - glo) <= tol and abs(rhi - ghi) <= tol
    # the set reaches below the smallest target and is returned whole
    assert rlo < small_dataset.target_range()[0] and not report.set.truncated


def test_root_whole_range_when_the_exact_set_is_unbounded():
    # a high-leverage query row with almost no penalty: the query residual
    # grows ten times slower in z than every observed one, so no observed
    # score stays below the query's far out and every candidate is kept
    rng = np.random.default_rng(0)
    ds = TabularDataset(np.ones((10, 1)), rng.standard_normal(10), np.array([100.0]))
    spec = RidgeModel(1e-6)
    report = root_cp(ds, spec, ABS, 0.1)
    assert report.set.shape == "whole-range" and report.set.truncated
    assert report.set.candidate_range == ds.target_range()
    # every probe is kept and the lower side never closes: the upper side is
    # not bracketed once the set is known to be the whole range
    assert report.fit_count == _ROOT_PROBES + _MAX_DOUBLINGS
    assert pi_exact(ds, 1e6, spec, ABS) == pi_exact(ds, -1e6, spec, ABS) == 1.0


def test_root_empty_for_unreachable_alpha():
    # at alpha above n/(n+1) the index is 1, and an observed score of 0 is
    # below the query's at every candidate but 0, which no probe hits, so no
    # probe is kept
    ds = zero_model_dataset([0.0, 1.0, -2.0, 0.5])
    n = ds.n
    report = root_cp(ds, PretrainedLinearModel(np.zeros(1)), ABS, alpha=(n + 0.5) / (n + 1))
    assert report.set.shape == "empty"
    assert report.fit_count == 20


def test_root_misses_an_exact_set_narrower_than_the_probe_spacing():
    # the exact set is the point 2, between two of the 20 probes of the
    # target range [1, 3]: rootcp returns empty, the oracle finds the point
    targets = np.array([1.0] + [2.0] * 98 + [3.0])
    ds = TabularDataset(np.ones((100, 1)), targets, np.ones(1), test_target=2.0)
    spec = PretrainedLinearModel([2.0])
    report = root_cp(ds, spec, ABS, 0.1)
    assert report.set.shape == "empty" and report.fit_count == _ROOT_PROBES
    assert report.set.candidate_range == (1.0, 3.0)
    assert oracle_cp(ds, 2.0, spec, ABS, 0.1).set.intervals == [(2.0, 2.0)]
    assert pi_exact(ds, 2.0, spec, ABS) == 1.0


def test_alpha_next_to_one_keeps_the_most_conforming_candidates():
    # (1 - alpha)(m + 1) is within the level rule's tolerance of 0, yet
    # count = 0 still meets count < (1 - alpha)(m + 1): the index is 1, not 0,
    # which read the largest score (the widest set) for stabcp, oracle and
    # split and kept no candidate for rootcp and gridcp
    alpha = 1 - 1e-12
    for m in (1, 50, 10**6):
        assert stabcp.core._level_index(m, alpha) == 1
    ds = make_dataset()
    config = RunConfig(alpha=alpha)
    spec = config.model_spec()
    stab, oracle, split, root, grid = (run_method(method, ds, config).set for method in (
        "stabcp", "oraclecp", "splitcp", "rootcp", "gridcp"))
    (olo, ohi), = oracle.intervals
    assert ohi - olo < 0.2
    assert pi_exact(ds, 0.5 * (olo + ohi), spec, ABS) == 1.0
    fine = grid_cp(ds, spec, ABS, alpha, np.linspace(olo, ohi, 401)).set
    assert fine.intervals and grid.intervals and split.shape == "interval"
    for end in np.ravel(fine.intervals + grid.intervals + root.intervals):
        assert stab.contains(end)
    assert stab.length() < 0.2 * (ds.target_range()[1] - ds.target_range()[0])


def test_root_counts_every_refit(small_dataset):
    report = root_cp(small_dataset, RidgeModel(0.5), ABS, 0.1)
    lo, hi = small_dataset.target_range()
    assert report.fit_count >= 2 * math.log2((hi - lo) / 1e-4)
    # every conformity probe is one refit: probes plus both bisections
    assert report.fit_count > 20


class FitBudget:
    """Model spec that counts every refit and fails loudly past a limit.

    The refit baselines refit through ``fit_rows`` alone, passing an earlier
    refit as ``start``, which is forwarded; ``fit``, which may reuse
    per-dataset work, raises, so a baseline that reaches it fails.
    """

    def __init__(self, spec, limit):
        self.spec, self.limit, self.fits = spec, limit, 0

    def fit_rows(self, X, y, start=None):
        self.fits += 1
        if self.fits > self.limit:
            raise RuntimeError(f"more than {self.limit} refits")
        return self.spec.fit_rows(X, y, start=start)

    def fit(self, dataset, candidate):
        raise AssertionError("a refit baseline reached the memoized fit")


def test_refit_baselines_never_use_the_memoized_fit(small_dataset):
    spec = RidgeModel(0.5)
    double = FitBudget(spec, 10_000)
    grid = stabcp.default_candidate_grid(small_dataset, 30)
    assert root_cp(small_dataset, double, ABS, 0.1).set == root_cp(small_dataset, spec, ABS, 0.1).set
    assert (grid_cp(small_dataset, double, ABS, 0.1, grid).set
            == grid_cp(small_dataset, spec, ABS, 0.1, grid).set)
    for z in grid[::5]:
        assert pi_exact(small_dataset, z, double, ABS) == pi_exact(small_dataset, z, spec, ABS)


class ColdRefits:
    """Model spec whose refits drop ``start``, so every refit starts cold."""

    def __init__(self, spec):
        self.spec = spec

    def fit_rows(self, X, y, start=None):
        return self.spec.fit_rows(X, y)


def test_root_warm_starts_give_the_cold_set_in_fewer_iterations():
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 40, 4, 1.0, seed=3))
    spec, eps_r = LadRidgeModel(0.2), 1e-4
    warm = root_cp(ds, spec, ABS, 0.1)
    cold = root_cp(ds, ColdRefits(spec), ABS, 0.1)
    assert warm.set.shape == cold.set.shape == "interval"
    assert (warm.fit_count, warm.set.truncated) == (cold.fit_count, cold.set.truncated)
    assert np.allclose(warm.set.intervals, cold.set.intervals, rtol=0.0, atol=eps_r)
    assert warm.details["converged"] is True and cold.details["converged"] is True
    assert warm.details["duality_gap"] <= spec.solver_tol
    assert warm.details["iterations"] < cold.details["iterations"]


class StartSpy:
    """Model spec that records, per refit, its candidate and the candidate of
    the refit it was passed as ``start`` (None for a cold refit)."""

    def __init__(self, spec):
        self.spec, self.made, self.calls = spec, [], []

    def fit_rows(self, X, y, start=None):
        origin = None if start is None else next(z for fit, z in self.made if fit is start)
        refit = self.spec.fit_rows(X, y, start=start)
        self.made.append((refit, float(y[-1])))
        self.calls.append((float(y[-1]), origin))
        return refit

    def fit(self, dataset, candidate):
        return self.spec.fit(dataset, candidate)

    def starts_are_nearest(self) -> bool:
        """Each refit started from the refit at the nearest earlier candidate."""
        return all(
            origin is None if k == 0
            else abs(origin - z) == min(abs(e - z) for e, _ in self.calls[:k])
            for k, (z, origin) in enumerate(self.calls))


def test_each_refit_starts_from_the_nearest_earlier_refit(small_dataset):
    spec = RidgeModel(0.5)
    grid = stabcp.default_candidate_grid(small_dataset, 30)
    tau = spec.stability_bound(small_dataset)
    runs = {
        "root": lambda model: root_cp(small_dataset, model, ABS, 0.1),
        "grid": lambda model: grid_cp(small_dataset, model, ABS, 0.1, grid),
        "pi": lambda model: pi_exact(small_dataset, float(grid[7]), model, ABS),
        "profile": lambda model: gap_profile(small_dataset, spec.anchor(small_dataset), model,
                                             ABS, tau, grid),
    }
    for name, run in runs.items():
        spy = StartSpy(spec)
        run(spy)
        assert spy.starts_are_nearest(), name
        assert spy.calls[0][1] is None and all(o is not None for _, o in spy.calls[1:])
        if name == "root":
            # after the ascending probes, the lower bracket starts back at the
            # first kept probe, not at the last refit
            previous = [z for z, _ in spy.calls[:-1]]
            assert [origin for _, origin in spy.calls[1:]] != previous


def test_lad_root_refits_follow_their_targets_at_bench_size():
    # warm refits give the cold refits' set and refit count in under 25
    # iterations per refit (a chain that starts each refit from the one
    # before, holding the old targets' residuals, takes 30 to 60)
    spec = LadRidgeModel(0.2)
    for seed in range(5):
        ds = make_dataset(n=300, p=20, seed=seed)
        warm = root_cp(ds, spec, ABS, 0.1)
        cold = root_cp(ds, ColdRefits(spec), ABS, 0.1)
        assert warm.set.shape == cold.set.shape == "interval"
        assert warm.fit_count == cold.fit_count
        assert np.allclose(warm.set.intervals, cold.set.intervals, rtol=0.0, atol=_EPS_R)
        assert warm.details["converged"] is True
        assert warm.details["duality_gap"] <= spec.solver_tol
        assert warm.details["iterations"] < 25 * warm.fit_count


class FreshDesign:
    """Model spec that hands every refit a fresh writable copy of the design,
    so no refit can borrow the design work of its start."""

    def __init__(self, spec):
        self.spec = spec

    def fit_rows(self, X, y, start=None):
        return self.spec.fit_rows(X.copy(), y, start=start)

    def fit(self, dataset, candidate):
        return self.spec.fit(dataset, candidate)


def test_lad_refit_chain_takes_one_eigendecomposition(eigh_calls):
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 60, 5, 1.0, seed=2))
    spec = LadRidgeModel(0.2)
    grid = stabcp.default_candidate_grid(ds, 30)
    anchor = spec.anchor(ds)
    tau = spec.stability_bound(ds)

    def certificate(report):
        return [report.set, report.fit_count] + [
            report.details[k] for k in ("iterations", "duality_gap", "converged")]

    runs = {}
    for name, model in (("shared", spec), ("fresh", FreshDesign(spec))):
        # each pass on its own snapshot of ds: the memo of a dataset keeps
        # gap_profile's anchor fit and its eigendecomposition
        snapshot = replace(ds)
        del eigh_calls[:]
        root = root_cp(snapshot, model, ABS, 0.1)
        root_eighs = len(eigh_calls)
        grid_report = grid_cp(snapshot, model, ABS, 0.1, grid)
        grid_eighs = len(eigh_calls) - root_eighs
        # gap_profile also fits once at the anchor, outside its refit chain
        before = len(eigh_calls)
        rows = gap_profile(snapshot, anchor, model, ABS, tau, grid)
        column_eighs = len(eigh_calls) - before - 1
        runs[name] = (certificate(root), certificate(grid_report), rows)
        if name == "shared":
            assert (root_eighs, grid_eighs, column_eighs) == (1, 1, 1)
        else:
            assert (root_eighs, grid_eighs, column_eighs) == (root.fit_count, 30, 30)
    assert runs["shared"][0][1] > 20
    assert runs["shared"] == runs["fresh"]


def test_refit_reports_carry_the_summed_certificate(small_dataset):
    grid = stabcp.default_candidate_grid(small_dataset, 12)
    for report in (root_cp(small_dataset, RidgeModel(0.5), ABS, 0.1),
                   grid_cp(small_dataset, RidgeModel(0.5), ABS, 0.1, grid)):
        assert [report.details[k] for k in ("iterations", "duality_gap", "converged")] == \
            [None, None, None]
        assert report.details["tau_coverage_safe"] is None
    # ten iterations per refit cannot reach 1e-12: every refit is counted, none
    # converged, and the set is flagged
    starved = LadRidgeModel(0.2, solver_tol=1e-12, max_iter=10)
    for report in (root_cp(small_dataset, starved, ABS, 0.1),
                   grid_cp(small_dataset, starved, ABS, 0.1, grid)):
        assert report.details["iterations"] == 10 * report.fit_count
        assert report.details["duality_gap"] > 1e-12
        assert report.details["converged"] is False
        assert report.details["tau_coverage_safe"] is False


def test_root_returns_when_eps_r_is_below_the_float_spacing():
    # targets near 1e12 are 1.2e-4 apart as floats, so no bracket there can
    # shrink to eps_r = 1e-4: the bisection must stop at adjacent floats
    rng = np.random.default_rng(0)
    n = 40
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    ds = TabularDataset(X, 1e12 + X[:, 1] + rng.standard_normal(n), np.array([1.0, 0.3]))
    z_range, eps_r = ds.target_range(), 1e-4
    assert 1 < z_range[1] - z_range[0] < 20
    spec = FitBudget(RidgeModel(0.0), 1000)
    report = root_cp(ds, spec, ABS, 0.1)
    assert report.fit_count == spec.fits
    (rlo, rhi), = report.set.intervals
    assert math.isfinite(rlo) and math.isfinite(rhi)
    grid = grid_cp(ds, RidgeModel(0.0), ABS, 0.1, np.linspace(*z_range, 401)).set
    (glo, ghi), = grid.intervals
    assert rlo <= glo + eps_r and ghi - eps_r <= rhi


def test_root_on_constant_targets_matches_a_fine_grid():
    # a zero-width target range: the probes collapse to one candidate, refit
    # once, and the outward steps start at _EPS_R as sublevel_set's do
    rng = np.random.default_rng(0)
    X = rng.standard_normal((31, 3))
    ds = TabularDataset(X[:-1], np.full(30, 1.5), X[-1], test_target=1.5)
    report = run_method("rootcp", ds, RunConfig(lambda_reg=0.5))
    assert report.fit_count == 60
    grid = np.linspace(-4.0, 4.0, 4001)
    exact = grid_cp(ds, RidgeModel(0.5), ABS, 0.1, grid).set
    assert report.set.shape == exact.shape == "interval" and not exact.truncated
    assert report.set.candidate_range == (1.5, 1.5)
    tol = float(grid[1] - grid[0]) + _EPS_R
    assert np.allclose(report.set.intervals, exact.intervals, rtol=0.0, atol=tol)


# ------------------------------------------------------------------ ties

def test_exact_score_ties_keep_the_truth_in_every_count():
    # every target and prediction is 2.0: at the truth every observed score
    # ties the query's, none is strictly below it, and each pointwise count
    # keeps the truth as the threshold set of oracle_cp does
    ds = TabularDataset(np.ones((20, 1)), np.full(20, 2.0), np.ones(1), test_target=2.0)
    spec = PretrainedLinearModel([2.0])
    assert pi_exact(ds, 2.0, spec, ABS) == 1.0
    oracle = oracle_cp(ds, 2.0, spec, ABS, 0.1).set
    assert oracle.intervals == [(2.0, 2.0)]
    grid = np.linspace(1.0, 3.0, 21)
    assert grid_cp(ds, spec, ABS, 0.1, grid).set.intervals == oracle.intervals
    zero_tau = tau_user_supplied(np.zeros(ds.n + 1))
    assert gap_profile(ds, 2.0, spec, ABS, zero_tau, [2.0]) == [(2.0, 1.0, 1.0, 1.0)]
    assert split_pi(ds, 10, spec, ABS)(2.0) == 1.0


# ----------------------------------------------------------- gap profile

def test_gap_profile_sandwich_everywhere(small_dataset):
    spec = RidgeModel(0.5)
    anchor = spec.anchor(small_dataset)
    tau = spec.stability_bound(small_dataset)
    grid = stabcp.default_candidate_grid(small_dataset, 60)
    rows = gap_profile(small_dataset, anchor, spec, ABS, tau, grid)
    assert len(rows) == 60
    for z, lo, up, exact in rows:
        assert lo - 1e-12 <= exact <= up + 1e-12


def test_gap_profile_zero_tau_zero_gap():
    ds = zero_model_dataset([1.0, -2.0, 0.7, 1.9])
    spec = PretrainedLinearModel(np.zeros(1))
    tau = tau_user_supplied(np.zeros(ds.n + 1))
    rows = gap_profile(ds, 0.0, spec, ABS, tau, np.linspace(-3, 3, 41))
    for z, lo, up, exact in rows:
        assert up - lo == pytest.approx(0.0, abs=1e-12)
        assert lo == pytest.approx(exact)


def test_gap_shrinks_with_sample_size():
    gaps = {}
    for n in (30, 300):
        ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", n, 100, 1.0, 5))
        spec = LadRidgeModel(0.5)
        tau = spec.stability_bound(ds)
        bounds, _ = anchor_bounds(ds, 0.0, spec, ABS, tau)
        zs = np.linspace(*ds.target_range(), 100)
        values = [bounds.pi_bounds_at(z) for z in zs]
        gaps[n] = float(np.mean([pb.gap for pb in values]))
    assert gaps[300] < gaps[30]


def test_stab_interval_equivariant_under_target_scaling():
    # everything in the pipeline is linear in the responses, so scaling the
    # targets by any factor scales the interval exactly; this also guards the
    # count-based boundary tolerances, which must stay scale-free
    base = make_dataset(n=60, p=4, seed=23)
    spec = RidgeModel(0.5)
    anchor = spec.anchor(base)
    tau = spec.stability_bound(base)
    (lo0, hi0), = stab_cp_interval(base, anchor, spec, ABS, tau, 0.1).set.intervals
    for scale in (1e-6, 1e6):
        ds = TabularDataset(base.features, scale * base.targets, base.test_point,
                            scale * base.test_target)
        anchor_s = spec.anchor(ds)
        tau_s = spec.stability_bound(ds)
        (lo, hi), = stab_cp_interval(ds, anchor_s, spec, ABS, tau_s, 0.1).set.intervals
        assert lo == pytest.approx(scale * lo0, rel=1e-9)
        assert hi == pytest.approx(scale * hi0, rel=1e-9)


def test_containment_chain_on_shared_grid():
    # lower-envelope set inside the exact grid set inside the single-fit set
    ds = make_dataset(n=60, p=5, seed=17)
    spec = RidgeModel(0.5)
    alpha = 0.1
    anchor = spec.anchor(ds)
    tau = spec.stability_bound(ds)
    bounds, _ = anchor_bounds(ds, anchor, spec, ABS, tau)
    grid = stabcp.default_candidate_grid(ds, 120)
    threshold = math.floor((1 - alpha) * (ds.n + 1) + 1e-9)
    oracle = grid_cp(ds, spec, ABS, alpha, grid).set
    stab = stab_cp_interval(ds, anchor, spec, ABS, tau, alpha)
    for z in grid:
        pb = bounds.pi_bounds_at(z)
        in_lower = pb.n_lo <= threshold
        in_exact = oracle.contains(z)
        if in_lower:
            assert in_exact
        if in_exact:
            assert stab.set.contains(z)


# ------------------------------------------------------------ monotonicity

def test_upper_set_monotone_in_alpha(small_dataset):
    spec = RidgeModel(0.5)
    anchor = spec.anchor(small_dataset)
    tau = spec.stability_bound(small_dataset)
    previous = None
    for alpha in (0.05, 0.1, 0.2, 0.4):
        current = stab_cp_interval(small_dataset, anchor, spec, ABS, tau, alpha)
        if previous is not None:
            # shrinking alpha can only grow the set (whole-range swallows all)
            for lo, hi in current.set.intervals:
                assert previous.set.contains(lo) and previous.set.contains(hi)
        previous = current


def test_upper_set_monotone_in_tau(small_dataset):
    spec = RidgeModel(0.5)
    anchor = spec.anchor(small_dataset)
    base = spec.stability_bound(small_dataset)
    bigger = tau_user_supplied(base.tau + 0.3)
    r1 = stab_cp_interval(small_dataset, anchor, spec, ABS, base, 0.1)
    r2 = stab_cp_interval(small_dataset, anchor, spec, ABS, bigger, 0.1)
    (lo1, hi1), = r1.set.intervals
    (lo2, hi2), = r2.set.intervals
    assert lo2 <= lo1 and hi1 <= hi2


# ------------------------------------------------------------ bookkeeping

def test_fit_count_invariants(small_dataset):
    spec = RidgeModel(0.5)
    anchor = spec.anchor(small_dataset)
    tau = spec.stability_bound(small_dataset)
    assert stab_cp_interval(small_dataset, anchor, spec, ABS, tau, 0.1).fit_count == 1
    assert split_cp(small_dataset, 5, spec, ABS, 0.1).fit_count == 1
    assert oracle_cp(small_dataset, small_dataset.test_target, spec, ABS, 0.1).fit_count == 1
    grid = stabcp.default_candidate_grid(small_dataset, 37)
    assert grid_cp(small_dataset, spec, ABS, 0.1, grid).fit_count == 37


def test_reports_track_coverage_and_length(small_dataset):
    spec = RidgeModel(0.5)
    report = oracle_cp(small_dataset, small_dataset.test_target, spec, ABS, 0.1)
    assert report.covered is True  # the oracle set contains its own anchor
    assert report.length == pytest.approx(report.set.length())
    assert report.wall_time >= 0.0
