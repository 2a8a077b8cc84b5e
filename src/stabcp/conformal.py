"""Single-fit conformal sets: the conformity sandwich and its competitors.

One model fit at an anchor candidate, together with per-point stability
bounds, traps the exact conformity function between two computable envelopes.
The upper envelope's superlevel set is a prediction region that contains the
exact conformal set, costs a single fit, and keeps the coverage guarantee.

That envelope depends on the candidate only through the query score
``S(z, mu)``, so the single-fit set is ``{z : S(z, mu) <= T}`` for one order
statistic T.  The split and oracle baselines have the same form, with the
calibration scores or the scores at the true response in place of the
inflated ones.  All three sets (``stab_cp_interval``, ``oracle_cp``,
``split_cp``) therefore go through one threshold rule (``_score_threshold``)
and one extraction routine (``sublevel_set``): a closed form for the absolute
residual, outward bracketing plus bisection to ``_EPS_R`` for custom scores.

The module also holds the refit layer: the exact-set baselines ``pi_exact``,
``root_cp``, ``grid_cp`` (the one grid-evaluated exact set) and
``gap_profile``'s exact column, which refit the model at every candidate
through one chain of warm-started refits (``_Refits``) and are what every
single-fit set is checked against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    PredictionSet,
    ScoreFunction,
    TabularDataset,
    _as_finite_array,
    _certificate,
    _check_range,
    _checked_scores,
    _conformity,
    _integral,
    _joint_certificate,
    _level_index,
    _read_only,
    _real,
    check_alpha,
    conformity_scores,
)
from .errors import InvalidInputError
from .stability import StabilityBounds


@dataclass
class PiBounds:
    """Sandwich values at one candidate: ``1/(n+1) <= lo <= pi_exact <= up <= 1``.

    ``n_lo`` (``n_up``) counts the observed rows whose score may (must) be
    strictly below the query's, and ``lo = 1 - n_lo/(n+1)``; kept for exact
    comparisons.
    """

    lo: float
    up: float
    n_lo: int
    n_up: int

    @property
    def gap(self) -> float:
        return self.up - self.lo


@dataclass
class MethodReport:
    """Outcome of one prediction method on one dataset."""

    set: PredictionSet
    covered: bool | None
    length: float
    fit_count: int
    wall_time: float
    details: dict = field(default_factory=dict)


@dataclass
class ConformityBounds:
    """Score envelopes around one anchor fit.

    The envelopes of the observed rows do not depend on the probed candidate
    and are kept sorted; only the query-point envelope depends on it, and it
    is materialized on demand from the anchor prediction.
    """

    anchor: float
    lower_sorted: np.ndarray
    upper_sorted: np.ndarray
    mu_test: float
    tau_test: float
    score: ScoreFunction
    n: int

    @classmethod
    def from_scores(cls, anchor: float, observed, mu_test: float,
                    tau: StabilityBounds, score: ScoreFunction) -> "ConformityBounds":
        """Envelopes ``observed -/+ tau`` of the observed-row scores of one anchor fit."""
        observed = _as_finite_array(np.ravel(np.asarray(observed, dtype=float)), "observed", 1)
        tau_arr = tau.tau
        n = observed.size
        if tau_arr.size != n + 1:
            raise InvalidInputError(f"tau has {tau_arr.size} entries, expected {n + 1}")
        return cls(
            anchor=float(anchor),
            lower_sorted=np.sort(observed - tau_arr[:-1]),
            upper_sorted=np.sort(observed + tau_arr[:-1]),
            mu_test=float(mu_test),
            tau_test=float(tau_arr[-1]),
            score=score,
            n=n,
        )

    def counts_at(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Observed-row counts (n_lo, n_up) of ``PiBounds``, vectorized in z."""
        s = self.score.evaluate(np.asarray(z, dtype=float), self.mu_test)
        return (np.searchsorted(self.lower_sorted, s + self.tau_test, side="left"),
                np.searchsorted(self.upper_sorted, s - self.tau_test, side="left"))

    def pi_bounds_at(self, z: float) -> PiBounds:
        n_lo, n_up = (int(count) for count in self.counts_at(float(z)))
        return PiBounds(_conformity(n_lo, self.n), _conformity(n_up, self.n), n_lo, n_up)


def anchor_bounds(dataset: TabularDataset, anchor: float, model_spec,
                  score: ScoreFunction, tau: StabilityBounds) -> tuple[ConformityBounds, object]:
    """Fit once at the anchor and build the score envelopes (one fit total)."""
    fitted = model_spec.fit(dataset, anchor)
    scores = conformity_scores(dataset, anchor, fitted, score)
    bounds = ConformityBounds.from_scores(anchor, scores[:-1], fitted.row_predictions[-1],
                                          tau, score)
    return bounds, fitted


_EPS_R = 1e-4       # bisection tolerance of every set endpoint
_MAX_DOUBLINGS = 64  # outward steps before a custom-score set counts as unbounded
_ROOT_PROBES = 20    # grid points root_cp probes before bisecting its endpoints


def _score_threshold(sorted_scores: np.ndarray, tau_test: float, alpha: float) -> float:
    """Largest query score a single-fit set admits: ``T = U_(k) + tau_test``.

    ``U`` are the m scores the query is ranked against, in ascending order:

    - stabcp: the observed scores at the anchor, inflated by their bounds;
    - oracle: the observed scores of the fit at the true response, tau_test = 0;
    - split: the calibration scores, tau_test = 0.

    ``k = _level_index(m, alpha)``; ``+inf`` (the whole range) when ``k > m``.
    """
    k = _level_index(sorted_scores.size, alpha)
    if k > sorted_scores.size:
        return math.inf
    return float(sorted_scores[k - 1]) + tau_test


def _bisect(is_inside, inside: float, outside: float) -> tuple[float, float]:
    """Shrink the bracket ``(inside, outside)`` of a set boundary to ``_EPS_R``.

    ``is_inside`` holds at ``inside`` and fails at ``outside``; every step
    keeps the half whose ends still disagree.  The loop also stops at
    adjacent floats, so a bracket far from zero, whose float spacing exceeds
    ``_EPS_R``, cannot stall it.
    """
    while abs(outside - inside) > _EPS_R:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            break
        if is_inside(mid):
            inside = mid
        else:
            outside = mid
    return inside, outside


def _outer_boundary(is_inside, start: float, side: int,
                    candidate_range) -> tuple[float, float] | None:
    """The bracket ``(inside, outside)`` of a set boundary beyond ``start``.

    ``is_inside`` holds at ``start``.  Steps outward from it on ``side`` (-1
    or +1), first by the width of ``candidate_range`` (at least ``_EPS_R``),
    doubling the step until ``is_inside`` fails, then shrinks the last
    bracket with ``_bisect``.  None when ``is_inside`` still holds after
    ``_MAX_DOUBLINGS`` doublings.
    """
    step = side * max(float(candidate_range[1]) - float(candidate_range[0]), _EPS_R)
    inside, outside = start, start + step
    for _ in range(_MAX_DOUBLINGS):
        if not is_inside(outside):
            return _bisect(is_inside, inside, outside)
        step *= 2.0
        inside, outside = outside, start + step
    return None


def sublevel_set(score: ScoreFunction, mu: float, threshold: float, alpha: float,
                 candidate_range, method: str) -> PredictionSet:
    """The candidates whose query score stays within the threshold: ``{z : S(z, mu) <= T}``.

    - ``T = +inf`` gives the whole candidate range, flagged as truncated, and
      ``S(mu, mu) > T`` the empty set.
    - The absolute residual gives ``[mu - T, mu + T]`` exactly.
    - A custom score must honor the contract of ``ScoreFunction.custom``
      (minimized at ``q = m``, nondecreasing in ``|q - m|`` on each side), so
      the set is one interval around ``mu``.  Each endpoint is bracketed by
      stepping outward from ``mu`` (``_outer_boundary``) until the score
      exceeds T; bisection then shrinks the bracket to ``_EPS_R`` and its
      outer end is returned, so the set always contains the exact sublevel
      set.  A score still at most T after ``_MAX_DOUBLINGS`` doublings gives
      the whole range, flagged as truncated.

    The set is never clamped to ``candidate_range``, which is only recorded as
    metadata: clamping could drop a true response outside the observed range.
    """
    mu, threshold = float(mu), float(threshold)
    if threshold == math.inf:
        return PredictionSet.whole_range(method, alpha, candidate_range)
    if not score.evaluate(mu, mu) <= threshold:
        return PredictionSet.empty_set(method, alpha, candidate_range)
    if score.kind == "absolute-residual":
        ends = (mu - threshold, mu + threshold)
    else:
        brackets = [_outer_boundary(lambda z: score.evaluate(z, mu) <= threshold,
                                    mu, side, candidate_range) for side in (-1, 1)]
        if None in brackets:
            return PredictionSet.whole_range(method, alpha, candidate_range)
        ends = (brackets[0][1], brackets[1][1])
    return PredictionSet.from_intervals([ends], method, alpha,
                                        candidate_range=candidate_range)


def _check_grid(grid) -> np.ndarray:
    """A candidate grid as a finite, nonempty, ascending 1-d array."""
    grid = _as_finite_array(np.ravel(np.asarray(grid, dtype=float)), "grid", 1)
    if grid.size == 0:
        raise InvalidInputError("grid must be nonempty")
    if np.any(np.diff(grid) < 0):
        raise InvalidInputError("grid must be sorted ascending")
    return grid


def _kept_set(grid: np.ndarray, kept, method: str, alpha: float) -> PredictionSet:
    """The runs of consecutive kept grid points as closed intervals, flagged as
    truncated when a run reaches a grid end (the set may go on beyond it)."""
    kept = np.asarray(kept, dtype=bool)
    edges = np.diff(np.concatenate([[0], kept.astype(np.int8), [0]]))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1) - 1
    return PredictionSet.from_intervals(
        [(grid[a], grid[b]) for a, b in zip(starts, stops)], method, alpha,
        truncated=bool(kept[0] or kept[-1]),
        candidate_range=(float(grid[0]), float(grid[-1])),
    )


def _report(prediction_set: PredictionSet, dataset: TabularDataset, fit_count: int,
            started: float, **details) -> MethodReport:
    covered = None
    if dataset.test_target is not None:
        covered = prediction_set.contains(dataset.test_target)
    return MethodReport(
        set=prediction_set,
        covered=covered,
        length=prediction_set.length(),
        fit_count=fit_count,
        wall_time=time.perf_counter() - started,
        details=dict(details),
    )


def stab_cp_interval(dataset: TabularDataset, anchor: float, model_spec,
                     score: ScoreFunction, tau: StabilityBounds, alpha: float) -> MethodReport:
    """Single-fit stable conformal set, any score, any ``tau_test >= 0``.

    Fits once at the anchor, inflates the observed scores by their stability
    bounds, and returns ``{z : S(z, mu) <= T}`` with ``T`` from
    ``_score_threshold``, the closure of ``{pi_up > alpha}``.  For the
    absolute residual this is the interval centered at the anchor prediction
    with half-width ``Q + tau_test``, Q the ceil((1-alpha)(n+1))-th order
    statistic of the inflated scores; when that index exceeds n the whole
    candidate range is returned.  Custom scores, which must be minimized at
    ``q = m`` (see ``ScoreFunction.custom``), are extracted by
    ``sublevel_set`` to within ``_EPS_R``.  The candidate range is
    ``tau.candidate_range``, else the observed target range; it is recorded
    and sets the first bracketing step, and the set is never clamped to it.

    Each model builds its own bound (``stability_bound``).  It bounds the
    score deviation between a candidate and the anchor, assuming both lie in
    ``tau.candidate_range`` and the anchor fit is exact; ridge's bound holds
    over that range, LAD-ridge's carries no range and holds on the whole
    line.  So an anchor outside the range (never ``default_anchor``), or an
    envelope fit whose solver stopped before its certificate reached the
    tolerance (``converged=False``), reports ``tau_coverage_safe=False``;
    the set is unchanged.  Closed-form fits carry no ``converged`` flag and
    are exact.
    """
    started = time.perf_counter()
    alpha = check_alpha(alpha)
    candidate_range = tau.candidate_range or dataset.target_range()
    bounds, fitted = anchor_bounds(dataset, anchor, model_spec, score, tau)
    threshold = _score_threshold(bounds.upper_sorted, bounds.tau_test, alpha)
    prediction_set = sublevel_set(score, bounds.mu_test, threshold, alpha,
                                  candidate_range, "stabcp")
    anchor_in_range = (tau.candidate_range is None
                       or tau.candidate_range[0] <= anchor <= tau.candidate_range[1])
    certified = getattr(fitted, "converged", True)
    return _report(prediction_set, dataset, 1, started,
                   anchor=float(anchor), tau_provenance=tau.provenance,
                   tau_coverage_safe=anchor_in_range and certified,
                   **_certificate(fitted))


stab_cp_bisection = stab_cp_interval  # the earlier name, still called by perfbench


def _split_fit(dataset: TabularDataset, split_index: int, model_spec,
               score: ScoreFunction) -> tuple[float, np.ndarray, object]:
    """Fit on rows ``1..m``; return the query prediction, the sorted calibration
    scores and the fit."""
    m = _integral(split_index, "split_index", 1, dataset.n)
    trained = model_spec.fit_rows(dataset.features[:m], dataset.targets[:m])
    cal_predictions = trained.predict_rows(dataset.features[m:])
    cal_scores = np.sort(np.asarray(
        score.evaluate(dataset.targets[m:], cal_predictions), dtype=float))
    return float(trained.predict(dataset.test_point)), cal_scores, trained


def split_cp(dataset: TabularDataset, split_index: int, model_spec,
             score: ScoreFunction, alpha: float) -> MethodReport:
    """Split conformal set: fit on the first rows, calibrate on the rest.

    The model is fitted on rows ``1..m`` only; the remaining ``n - m`` rows
    provide calibration scores.  The set is ``{z : S(z, mu) <= T}`` around the
    trained prediction, T the ceil((1-alpha)(n-m+1))-th calibration order
    statistic: the closure of ``{split_pi > alpha}``, the whole range when
    that index exceeds ``n - m``.  Custom scores are extracted by
    ``sublevel_set`` to within ``_EPS_R``.
    """
    started = time.perf_counter()
    alpha = check_alpha(alpha)
    mu_test, cal_scores, trained = _split_fit(dataset, split_index, model_spec, score)
    threshold = _score_threshold(cal_scores, 0.0, alpha)
    prediction_set = sublevel_set(score, mu_test, threshold, alpha,
                                  dataset.target_range(), "splitcp")
    return _report(prediction_set, dataset, 1, started,
                   split_index=dataset.n - cal_scores.size,  # as _split_fit took it
                   calibration_size=cal_scores.size,
                   **_certificate(trained))


def split_pi(dataset: TabularDataset, split_index: int, model_spec,
             score: ScoreFunction):
    """Split conformity ``z -> 1 - count/(n_cal+1)`` (one fit, reusable), count
    the calibration scores strictly below the query's."""
    mu_test, cal_scores, _ = _split_fit(dataset, split_index, model_spec, score)

    def pi(z):
        test_score = score.evaluate(np.asarray(z, dtype=float), mu_test)
        return _conformity(np.searchsorted(cal_scores, test_score, side="left"),
                           cal_scores.size)

    return pi


def oracle_cp(dataset: TabularDataset, true_target: float, model_spec,
              score: ScoreFunction, alpha: float) -> MethodReport:
    """Reference set computed as if the held-out response were known.

    One fit at the true response; the set keeps the candidates whose score
    against that fit is at most the ceil((1-alpha)(n+1))-th observed score.
    This is the zero-stability limit of the single-fit construction anchored
    at the truth: ``stab_cp_interval`` with all bounds zero, anchored at the
    true response, returns the same set.
    """
    started = time.perf_counter()
    alpha = check_alpha(alpha)
    true_target = _real(true_target, "true_target")
    fitted = model_spec.fit(dataset, true_target)
    scores = conformity_scores(dataset, true_target, fitted, score)
    threshold = _score_threshold(np.sort(scores[:-1]), 0.0, alpha)
    prediction_set = sublevel_set(score, fitted.row_predictions[-1], threshold, alpha,
                                  dataset.target_range(), "oraclecp")
    return _report(prediction_set, dataset, 1, started, anchor=true_target,
                   **_certificate(fitted))


class _Refits:
    """The refits of one exact-set call, each warm-started from the one before.

    The one refit path of the exact sets (``pi_exact``, ``root_cp``,
    ``grid_cp``, ``gap_profile``).  Every refit is ``fit_rows`` on the
    augmented rows, built once here and read-only: it never goes through
    ``fit``, which may reuse per-dataset work, so the refits stay an
    independent check of the single-fit sets.  Each refit is passed to the
    next as ``start``, which sets where an iterative solver begins and, since
    the design is the same read-only array, lends the work that depends on the
    design alone (LAD-ridge takes one eigendecomposition per call); every
    refit still meets the solver's tolerance.  Nothing outlives the call.
    ``certificate`` totals the refits' solver certificates
    (``_joint_certificate``).
    """

    def __init__(self, dataset: TabularDataset, model_spec, score: ScoreFunction):
        self.dataset, self.model_spec, self.score = dataset, model_spec, score
        self.X = _read_only(dataset.augmented_design())
        self.last = None
        self.count = 0
        self.certificate = _certificate(None)

    def count_at(self, candidate: float) -> int:
        """How many observed scores are strictly below the query's under a
        refit at ``candidate``; kept when below ``_level_index``."""
        y = self.dataset.augmented_targets(candidate)
        self.last = self.model_spec.fit_rows(self.X, y, start=self.last)
        self.count += 1
        self.certificate = _joint_certificate(self.certificate, _certificate(self.last))
        scores = _checked_scores(self.score, y, self.last.predict_rows(self.X))
        return int(np.count_nonzero(scores[:-1] < scores[-1]))

    def inside(self, candidate: float, alpha: float) -> bool:
        return self.count_at(candidate) < _level_index(self.dataset.n, alpha)

    def details(self) -> dict:
        """The certificate, plus ``tau_coverage_safe=False`` when some refit
        stopped before its solver tolerance: the set is then not the exact
        one.  None otherwise, since the exact set rests on no stability bound."""
        unsafe = self.certificate["converged"] is False
        return {**self.certificate, "tau_coverage_safe": False if unsafe else None}


def pi_exact(dataset: TabularDataset, candidate: float, model_spec, score: ScoreFunction) -> float:
    """Exact conformity ``1 - count/(n+1)`` of ``candidate`` (``_level_index``),
    count the observed scores strictly below the query's under a refit at it.

    A multiple of ``1/(n+1)`` from ``1/(n+1)`` to 1 (e.g. every score tied).
    """
    return _conformity(_Refits(dataset, model_spec, score).count_at(candidate), dataset.n)


def root_cp(dataset: TabularDataset, model_spec, score: ScoreFunction, alpha: float,
            z_range=None) -> MethodReport:
    """Endpoints of the exact conformal set by bisection, one refit per probe.

    Assumes the exact set is one interval.  When ``_level_index`` exceeds n
    it returns the whole range with no refit.  Otherwise it probes the
    distinct values among ``_ROOT_PROBES`` evenly spaced candidates of the
    range (one on a zero-width range; empty when none is kept) and brackets
    each endpoint between the outermost kept probe and its unkept neighbour
    or, past a kept end probe, outward by ``sublevel_set``'s steps
    (``_outer_boundary``; never clamped).  The lower endpoint is bracketed
    first; when either side is unbounded the whole range is returned at once.
    Each bracket is bisected to ``_EPS_R`` and its midpoint returned.
    ``fit_count`` counts every refit.  Each refit is warm-started from the one
    before it, whose candidates lie ever closer together; the details carry
    the refits' summed ``iterations``, largest ``duality_gap`` and joint
    ``converged`` (None for closed-form fits), and ``tau_coverage_safe=False``
    when some refit did not converge (``_Refits.details``).

    An exact set narrower than the probe spacing that falls between two
    probes is returned empty: with every target 2.0 under
    ``PretrainedLinearModel([2.0])`` and ``z_range=(1, 3)``, the point 2.
    """
    started = time.perf_counter()
    alpha = check_alpha(alpha)
    if z_range is None:
        z_range = dataset.target_range()
    z_min, z_max = _check_range(z_range, "z_range")
    refits = _Refits(dataset, model_spec, score)
    if _level_index(dataset.n, alpha) > dataset.n:
        return _report(PredictionSet.whole_range("rootcp", alpha, (z_min, z_max)), dataset, 0,
                       started, **refits.details())
    probes = np.linspace(z_min, z_max, _ROOT_PROBES)
    probes = probes[np.concatenate(([True], np.diff(probes) > 0))]  # np.unique imports numpy.ma
    kept = np.flatnonzero([refits.inside(z, alpha) for z in probes])
    if kept.size == 0:
        prediction_set = PredictionSet.empty_set("rootcp", alpha, (z_min, z_max))
        return _report(prediction_set, dataset, refits.count, started, **refits.details())

    def inside(z: float) -> bool:
        return refits.inside(z, alpha)

    def bracket(probe: int, side: int):
        if 0 <= probe + side < probes.size:
            return _bisect(inside, probes[probe], probes[probe + side])
        return _outer_boundary(inside, float(probes[probe]), side, (z_min, z_max))

    # an unbounded side makes the set the whole range: the other is not bracketed
    lower = bracket(kept[0], -1)
    upper = None if lower is None else bracket(kept[-1], 1)
    if upper is None:
        prediction_set = PredictionSet.whole_range("rootcp", alpha, (z_min, z_max))
    else:
        ends = tuple(0.5 * (a + b) for a, b in (lower, upper))
        prediction_set = PredictionSet.from_intervals([ends], "rootcp", alpha,
                                                      candidate_range=(z_min, z_max))
    return _report(prediction_set, dataset, refits.count, started,
                   z0=float(probes[kept[0]]), **refits.details())


def grid_cp(dataset: TabularDataset, model_spec, score: ScoreFunction, alpha: float,
            grid) -> MethodReport:
    """Exact conformal set evaluated on a candidate grid, one refit per point.

    Keeps the grid points whose conformity exceeds ``alpha`` (``_kept_set``).
    This is the verification oracle for the single-fit constructions; it
    costs ``len(grid)`` refits, each warm-started from the one at the
    previous grid point, and reports their certificate as ``root_cp`` does.
    """
    started = time.perf_counter()
    alpha = check_alpha(alpha)
    grid = _check_grid(grid)
    refits = _Refits(dataset, model_spec, score)
    prediction_set = _kept_set(grid, [refits.inside(z, alpha) for z in grid], "gridcp", alpha)
    return _report(prediction_set, dataset, refits.count, started, **refits.details())


def gap_profile(dataset: TabularDataset, anchor: float, model_spec,
                score: ScoreFunction, tau: StabilityBounds, grid) -> list:
    """Diagnostic sweep: ``(z, pi_lo, pi_up, pi_exact)`` per grid point.

    The envelope values reuse the single anchor fit; the exact conformity
    refits at every grid point (each refit warm-started from the previous
    one), so this is for plots and verification only.
    """
    grid = _check_grid(grid)
    bounds, _ = anchor_bounds(dataset, anchor, model_spec, score, tau)
    refits = _Refits(dataset, model_spec, score)
    rows = []
    for z in grid:
        pb = bounds.pi_bounds_at(z)
        rows.append((float(z), pb.lo, pb.up, _conformity(refits.count_at(z), dataset.n)))
    return rows


def default_anchor(dataset: TabularDataset, model_spec) -> float:
    """The single-fit anchor: ``model_spec.anchor``'s raw anchor clipped into
    ``dataset.target_range()``, where every model-derived bound holds.  A
    non-finite raw anchor becomes the range's midpoint: the set is sound for
    any anchor inside the bound's range."""
    raw = model_spec.anchor(dataset)
    lo, hi = dataset.target_range()
    if not math.isfinite(raw):
        return 0.5 * (lo + hi)
    return min(max(raw, lo), hi)
