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
``split_cp``) therefore go through one threshold rule (``_score_threshold``,
which selects its order statistic and sorts nothing) and one extraction
routine (``sublevel_set``): a closed form for the absolute residual, and for
custom scores one endpoint search (``_outer_boundary``) that brackets each
endpoint outward and shrinks the bracket to ``_EPS_R``, scoring arrays of
candidates per call, so a typical custom-score set calls the score ten times.

The module also holds the refit layer: the exact-set baselines ``pi_exact``,
``root_cp``, ``grid_cp`` (the one grid-evaluated exact set) and
``gap_profile``'s exact column, which refit the model at every candidate
through one chain of warm-started refits (``_Refits``, each refit started
from the one at the nearest candidate) and are what every single-fit set is
checked against.  ``root_cp`` finds its endpoints with
the same search, one refit per candidate.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    PredictionSet,
    ScoreFunction,
    TabularDataset,
    _as_finite_array,
    _certificate,
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

    The envelopes of the observed rows do not depend on the probed candidate;
    they are kept in row order, and sorted on first use by ``counts_at``
    (``lower_sorted``, ``upper_sorted``), since a single-fit set reads only
    one order statistic of the upper one.  Only the query-point envelope
    depends on the candidate, and it is materialized on demand from the
    anchor prediction.
    """

    anchor: float
    _lower: np.ndarray
    _upper: np.ndarray
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
            _lower=observed - tau_arr[:-1],
            _upper=observed + tau_arr[:-1],
            mu_test=float(mu_test),
            tau_test=float(tau_arr[-1]),
            score=score,
            n=n,
        )

    @cached_property
    def lower_sorted(self) -> np.ndarray:
        return np.sort(self._lower)

    @cached_property
    def upper_sorted(self) -> np.ndarray:
        return np.sort(self._upper)

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


_EPS_R = 1e-4       # width at which every set endpoint's bracket stops shrinking
_MAX_DOUBLINGS = 64  # outward steps before a custom-score set counts as unbounded
_ROOT_PROBES = 20    # grid points root_cp probes before bracketing its endpoints
_PER_CALL = 64       # candidates sublevel_set scores per call of a custom score
_BRACKET_BATCH = 8   # most outward steps scored in one call
_DOUBLINGS = 2.0 ** np.arange(_MAX_DOUBLINGS)


def _score_threshold(scores: np.ndarray, tau_test: float, alpha: float) -> float:
    """Largest query score a single-fit set admits: ``T = U_(k) + tau_test``.

    ``U`` are the m scores the query is ranked against, in any order:

    - stabcp: the observed scores at the anchor, inflated by their bounds;
    - oracle: the observed scores of the fit at the true response, tau_test = 0;
    - split: the calibration scores, tau_test = 0.

    ``k = _level_index(m, alpha)``; ``U_(k)`` is selected, not sorted for
    (``np.partition``), and ``T`` is ``+inf`` (the whole range) when ``k > m``.
    """
    k = _level_index(scores.size, alpha)
    if k > scores.size:
        return math.inf
    return float(np.partition(scores, k - 1)[k - 1]) + tau_test


def _outer_boundary(is_inside, inside: float, per_call: int, *, step: float = 0.0,
                    outside: float | None = None) -> tuple[float, float] | None:
    """The bracket ``(inside, outside)`` of a set boundary, shrunk to ``_EPS_R``.

    ``is_inside`` maps an array of candidates to their membership flags, and
    holds at ``inside``.  Without an ``outside`` end the boundary is first
    bracketed by stepping outward from ``inside`` by ``step``, doubling it:
    the candidates ``inside + step * 2**j``, ``j < _MAX_DOUBLINGS``, are
    scored up to ``min(per_call, _BRACKET_BATCH)`` per call until one fails,
    and the bracket is that one and the step before it; None when none fails.
    Each further call scores ``per_call`` evenly spaced candidates strictly
    inside the bracket and keeps the sub-bracket at the first one outside
    (one candidate per call is bisection).  The loop stops once the bracket
    is at most ``_EPS_R`` wide, or when no candidate falls strictly inside
    it: adjacent floats far from zero, whose spacing exceeds ``_EPS_R``.

    At one candidate per call ``is_inside`` is given a one-element list of a
    Python float instead of an array.  The formulas are the same, so the ends
    are the ones an array gives, without numpy's cost per call.
    """
    scalar = per_call == 1
    weight = np.arange(1, per_call + 1) / (per_call + 1)
    batch = min(per_call, _BRACKET_BATCH)
    start, doublings = inside, 0
    while True:
        if outside is None:
            if doublings == _MAX_DOUBLINGS:
                return None
            candidates = ([start + step * 2.0 ** doublings] if scalar
                          else start + step * _DOUBLINGS[doublings:doublings + batch])
            doublings += len(candidates)
        else:
            if abs(outside - inside) <= _EPS_R:
                return inside, outside
            # ordered from inside to outside and within the bracket, so only
            # the first or last can sit on an end (adjacent floats)
            candidates = ([inside + (outside - inside) * 0.5] if scalar
                          else inside + (outside - inside) * weight)
            if candidates[0] == inside or candidates[-1] == outside:
                if scalar:
                    return inside, outside
                candidates = candidates[(candidates != inside) & (candidates != outside)]
                if candidates.size == 0:
                    return inside, outside
        flags = is_inside(candidates)
        first_out = 0 if scalar else int(flags.argmin())
        if flags[first_out]:
            inside = float(candidates[-1])
        else:
            outside = float(candidates[first_out])
            if first_out:
                inside = float(candidates[first_out - 1])


def sublevel_set(score: ScoreFunction, mu: float, threshold: float, alpha: float,
                 candidate_range, method: str) -> PredictionSet:
    """The candidates whose query score stays within the threshold: ``{z : S(z, mu) <= T}``.

    - ``T = +inf`` gives the whole candidate range, flagged as truncated, and
      ``S(mu, mu) > T`` the empty set.
    - The absolute residual gives ``[mu - T, mu + T]`` exactly.
    - A custom score must honor the contract of ``ScoreFunction.custom``
      (minimized at ``q = m``, nondecreasing in ``|q - m|`` on each side), so
      the set is one interval around ``mu``.  Each endpoint is found by
      ``_outer_boundary``, which scores whole arrays of candidates per call:
      it brackets the endpoint by stepping outward from ``mu``, the first
      step the width of ``candidate_range`` (at least ``_EPS_R``), doubled
      up to ``_BRACKET_BATCH`` steps per call, then shrinks the bracket
      ``_PER_CALL + 1``-fold per call to ``_EPS_R`` and returns its outer
      end, so the set always contains the exact sublevel set.  A score still
      at most T after ``_MAX_DOUBLINGS`` doublings gives the whole range,
      flagged as truncated.

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
        def is_inside(candidates: np.ndarray) -> np.ndarray:
            return score.evaluate(candidates, mu) <= threshold

        width = max(float(candidate_range[1]) - float(candidate_range[0]), _EPS_R)
        # an unbounded side makes the set the whole range: the other is not bracketed
        lower = _outer_boundary(is_inside, mu, _PER_CALL, step=-width)
        upper = None if lower is None else _outer_boundary(is_inside, mu, _PER_CALL, step=width)
        if upper is None:
            return PredictionSet.whole_range(method, alpha, candidate_range)
        ends = (lower[1], upper[1])
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
    ``sublevel_set`` to within ``_EPS_R``.  The candidate range is the
    observed target range, as in every set method; it is recorded and sets
    the first bracketing step, and the set is never clamped to it.

    Each model builds its own bound (``stability_bound``).  It bounds the
    score deviation between a candidate and the anchor, assuming both lie in
    ``tau.candidate_range`` and the anchor fit is exact; ridge's bound holds
    over the target range, LAD-ridge's carries no range and holds on the
    whole line.  So an anchor outside the bound's range (never a model's own
    ``anchor``), or an envelope fit whose solver stopped before its
    certificate reached the tolerance (``converged=False``), reports
    ``tau_coverage_safe=False``; the set is unchanged.  Closed-form fits
    carry no ``converged`` flag and are exact.
    """
    started = time.perf_counter()
    alpha = check_alpha(alpha)
    bounds, fitted = anchor_bounds(dataset, anchor, model_spec, score, tau)
    threshold = _score_threshold(bounds._upper, bounds.tau_test, alpha)
    prediction_set = sublevel_set(score, bounds.mu_test, threshold, alpha,
                                  dataset.target_range(), "stabcp")
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
    """Fit on rows ``1..m``; return the query prediction, the calibration
    scores in row order and the fit."""
    m = _integral(split_index, "split_index", 1, dataset.n)
    trained = model_spec.fit_rows(dataset.features[:m], dataset.targets[:m])
    cal_predictions = trained.predict_rows(dataset.features[m:])
    cal_scores = np.asarray(score.evaluate(dataset.targets[m:], cal_predictions), dtype=float)
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
    cal_scores = np.sort(cal_scores)

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
    threshold = _score_threshold(scores[:-1], 0.0, alpha)
    prediction_set = sublevel_set(score, fitted.row_predictions[-1], threshold, alpha,
                                  dataset.target_range(), "oraclecp")
    return _report(prediction_set, dataset, 1, started, anchor=true_target,
                   **_certificate(fitted))


class _Refits:
    """The refits of one exact-set call, each warm-started from the refit at
    the nearest candidate refitted so far.

    The one refit path of the exact sets (``pi_exact``, ``root_cp``,
    ``grid_cp``, ``gap_profile``).  Every refit is ``fit_rows`` on the
    augmented rows, built once here and read-only: it never goes through
    ``fit``, which may reuse per-dataset work, so the refits stay an
    independent check of the single-fit sets.  The refits are kept sorted by
    candidate, and each new one is passed the refit at the nearest candidate
    (found by ``bisect``; the lower one on a tie) as ``start``, which sets
    where an iterative solver begins and, since the design is the same
    read-only array, lends the work that depends on the design alone
    (LAD-ridge takes one eigendecomposition per call); every refit still
    meets the solver's tolerance.  The refits die with the call.
    ``certificate`` totals the refits' solver certificates
    (``_joint_certificate``).
    """

    def __init__(self, dataset: TabularDataset, model_spec, score: ScoreFunction):
        self.dataset, self.model_spec, self.score = dataset, model_spec, score
        self.X = _read_only(dataset.augmented_design())
        self.candidates, self.refits = [], []  # sorted by candidate
        self.count = 0
        self.certificate = _certificate(None)

    def count_at(self, candidate: float) -> int:
        """How many observed scores are strictly below the query's under a
        refit at ``candidate``; kept when below ``_level_index``."""
        y = self.dataset.augmented_targets(candidate)
        candidate = float(y[-1])
        # the nearest refitted candidate is a neighbour of the insertion point
        i = bisect.bisect(self.candidates, candidate)
        near = min((j for j in (i - 1, i) if 0 <= j < len(self.candidates)),
                   key=lambda j: abs(self.candidates[j] - candidate), default=None)
        refit = self.model_spec.fit_rows(self.X, y,
                                         start=None if near is None else self.refits[near])
        self.candidates.insert(i, candidate)
        self.refits.insert(i, refit)
        self.count += 1
        self.certificate = _joint_certificate(self.certificate, _certificate(refit))
        scores = _checked_scores(self.score, y, refit.predict_rows(self.X))
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


def root_cp(dataset: TabularDataset, model_spec, score: ScoreFunction,
            alpha: float) -> MethodReport:
    """Endpoints of the exact conformal set by bisection, one refit per candidate.

    Assumes the exact set is one interval.  When ``_level_index`` exceeds n
    it returns the whole target range with no refit.  Otherwise it probes the
    distinct values among ``_ROOT_PROBES`` evenly spaced candidates of the
    target range (one on a zero-width range; empty when none is kept) and
    brackets each endpoint between the outermost kept probe and its unkept
    neighbour or, past a kept end probe, outward by ``sublevel_set``'s
    doubling steps (never clamped).  The lower endpoint is bracketed first;
    when either side is unbounded the whole range is returned at once.  Both
    go through ``sublevel_set``'s search, ``_outer_boundary``, with one
    candidate per call, so each step is one refit: the outward steps are
    taken one at a time and each bracket is bisected to ``_EPS_R`` (or to
    adjacent floats), and its midpoint is returned.
    ``fit_count`` counts every refit.  Each refit is warm-started from the one
    at the nearest candidate refitted so far: a probe from the probe before
    it, an outward step from the step before it, a bisection step from the
    nearer end of its bracket, and these lie ever closer together.  The
    details carry the refits' summed ``iterations``, largest ``duality_gap``
    and joint ``converged`` (None for closed-form fits), and
    ``tau_coverage_safe=False`` when some refit did not converge
    (``_Refits.details``).

    An exact set narrower than the probe spacing that falls between two
    probes is returned empty: on 100 rows of ones with targets 1.0, then
    98 times 2.0, then 3.0, ``PretrainedLinearModel([2.0])`` at alpha = 0.1
    keeps the point 2 alone, which no probe of ``[1, 3]`` hits.
    """
    started = time.perf_counter()
    alpha = check_alpha(alpha)
    z_min, z_max = dataset.target_range()
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

    def inside(candidates: list[float]) -> list[bool]:
        return [refits.inside(z, alpha) for z in candidates]

    def bracket(probe: int, side: int):
        unkept = float(probes[probe + side]) if 0 <= probe + side < probes.size else None
        return _outer_boundary(inside, float(probes[probe]), 1, outside=unkept,
                               step=side * max(z_max - z_min, _EPS_R))

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
    previous grid point (on an ascending grid the nearest one refitted so
    far), and reports their certificate as ``root_cp`` does.
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
    refits at every grid point (each refit warm-started from the one at the
    previous grid point, the nearest refitted so far), so this is for plots
    and verification only.
    """
    grid = _check_grid(grid)
    bounds, _ = anchor_bounds(dataset, anchor, model_spec, score, tau)
    refits = _Refits(dataset, model_spec, score)
    rows = []
    for z in grid:
        pb = bounds.pi_bounds_at(z)
        rows.append((float(z), pb.lo, pb.up, _conformity(refits.count_at(z), dataset.n)))
    return rows
