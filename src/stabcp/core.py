"""Datasets, scores, rank statistics and prediction sets: the bottom layer.

The conformity of a candidate target value is ``1 - count/(n+1)``, count the
observed nonconformity scores strictly below the query's (as the threshold
sets ``{S_q <= U_(k)}`` count, so both agree at exact score ties), and every
set keeps the candidates whose conformity exceeds alpha (``_level_index``).
This module holds that rule, the dataset and score types, the set container
and a fit's solver certificate; it never fits a model.  The refit baselines
that every faster construction is checked against live in
:mod:`stabcp.conformal`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NotFittedError

_TOL = 1e-9

# ``numbers.Real`` with its two common concrete types first: an isinstance
# check against the ABC alone costs about 0.5 us, which the fit of a small
# memoized set does not dwarf
_REAL_TYPES = (float, int, numbers.Real)

PREDICTION_SHAPES = ("interval", "union-of-intervals", "whole-range", "empty")

_MISSING = object()  # a key absent from a dataset's memo


def _level_index(m: int, alpha: float) -> int:
    """The one level rule, ``k = ceil((1 - alpha)(m + 1))`` (Lei et al., JASA 2018).

    With ``count`` of m reference scores strictly below the query's score,
    its conformity is ``pi = 1 - count/(m + 1)`` (``_conformity``); every set
    is the closure of ``{pi > alpha} = {count < k} = {S_q <= U_(k)}`` (``U``
    the sorted reference scores), which covers with probability >= 1 - alpha.
    ``k > m``: every candidate, the whole line.  ``k`` is at least 1, since
    ``count = 0`` meets ``count < (1 - alpha)(m + 1)`` for every alpha < 1;
    the tolerance alone would take alpha within ``_TOL/(m + 1)`` of 1 to 0.
    """
    return max(1, math.ceil((1.0 - alpha) * (m + 1) - _TOL))


def _conformity(count, m: int):
    """``1 - count/(m + 1)``, count the reference scores strictly below the
    query's, rounded once so that ``> alpha`` matches ``count < k``."""
    return (m + 1 - count) / (m + 1)


def _as_finite_array(values, name: str, ndim: int) -> np.ndarray:
    """``values`` as an ``ndim``-dimensional float array of finite entries;
    strings are refused, numeric ones too, as ``_real`` refuses them."""
    arr = np.asarray(values)
    if arr.dtype.kind in "SU":
        raise InvalidInputError(f"{name} must hold numbers, not strings")
    arr = arr.astype(float, copy=False)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _real(value, name: str, lo: float = -math.inf, hi: float = math.inf,
          *, open_lo: bool = False) -> float:
    """``value`` as a float: the one rule for a real argument.

    It must be a finite ``numbers.Real`` in ``[lo, hi)`` (``(lo, hi)`` with
    ``open_lo``); anything else, a numeric string included, is refused with
    an ``InvalidInputError`` naming the argument.
    """
    try:
        number = float(value) if isinstance(value, _REAL_TYPES) else math.nan
    except OverflowError:  # an int too large for a float
        number = math.nan
    if math.isfinite(number) and (lo < number if open_lo else lo <= number) and number < hi:
        return number
    raise InvalidInputError(f"{name} must be a finite real in "
                            f"{'(' if open_lo else '['}{lo:g}, {hi:g}), got {value!r}")


def _integral(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` as an int: the one rule for an integral argument.

    It must be a ``numbers.Real`` equal to its ``int`` (3.0 is taken as 3,
    2.5 is refused, never truncated) in ``[lo, hi)``; anything else is
    refused with an ``InvalidInputError`` naming the argument.  The int is
    taken exactly, so a seed near 2**63 keeps every digit.
    """
    try:
        as_int = int(value) if isinstance(value, _REAL_TYPES) else None
    except (ValueError, OverflowError):  # nan, inf
        as_int = None
    if as_int is not None and as_int == value and lo <= as_int < hi:
        return as_int
    raise InvalidInputError(f"{name} must be an integer in [{lo:g}, {hi:g}), got {value!r}")


def _check_range(candidate_range, name: str) -> tuple[float, float]:
    """A candidate range as a finite ``(lo, hi)`` pair with ``lo <= hi``."""
    try:
        lo, hi = candidate_range
        lo = _real(lo, "lo")
        return lo, _real(hi, "hi", lo)
    except (TypeError, ValueError) as exc:  # not a pair, or an entry _real refuses
        raise InvalidInputError(f"{name} must be a finite (lo, hi) pair, "
                                f"got {candidate_range!r}") from exc


def _value_range(values: np.ndarray) -> tuple[float, float]:
    """Smallest and largest entry, as floats."""
    return float(values.min()), float(values.max())


def check_alpha(alpha: float) -> float:
    return _real(alpha, "alpha", 0, 1, open_lo=True)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; the caller's array keeps its own flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class TabularDataset:
    """Observed regression pairs plus the feature vector of the query point.

    A dataset is a snapshot: it stores read-only views of its arrays (not
    copies), and models may keep work that depends only on the dataset in a
    private per-dataset memo that lives as long as the dataset.  Beside the
    target range, that memo may hold:

    - for ``RidgeModel``, one augmented solve per penalty (O(n + p));
    - for ``LadRidgeModel``, one diagonalized augmented design (three
      (n+1)-by-p arrays) and each fit per settings and candidate (O(n)).

    Writing through a dataset's arrays raises; writing into the arrays it was
    built from afterwards is not supported, since that memo would then be
    stale.

    Parameters
    ----------
    features : ndarray of shape (n, p)
        One observed sample per row.
    targets : ndarray of shape (n,)
        Observed responses, aligned with ``features``.
    test_point : ndarray of shape (p,)
        Features of the point whose response is to be predicted.
    test_target : float, optional
        Held-out true response, available in benchmark mode only.
    meta : dict
        Free-form provenance (generator settings, column names, ...).
    """

    features: np.ndarray
    targets: np.ndarray
    test_point: np.ndarray
    test_target: float | None = None
    meta: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        X = _as_finite_array(self.features, "features", 2)
        y = _as_finite_array(self.targets, "targets", 1)
        x_new = _as_finite_array(self.test_point, "test_point", 1)
        if X.shape[0] != y.shape[0]:
            raise InvalidInputError(
                f"features has {X.shape[0]} rows but targets has {y.shape[0]} entries"
            )
        if X.shape[0] < 2:
            raise InvalidInputError("need at least two observed rows")
        if X.shape[1] < 1:
            raise InvalidInputError("need at least one feature column")
        if x_new.shape[0] != X.shape[1]:
            raise InvalidInputError(
                f"test_point has {x_new.shape[0]} entries, expected {X.shape[1]}"
            )
        if self.test_target is not None:
            object.__setattr__(self, "test_target", _real(self.test_target, "test_target"))
        object.__setattr__(self, "features", _read_only(X))
        object.__setattr__(self, "targets", _read_only(y))
        object.__setattr__(self, "test_point", _read_only(x_new))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def augmented_design(self) -> np.ndarray:
        """Design matrix of shape (n+1, p): observed rows then the query row."""
        return np.vstack([self.features, self.test_point[None, :]])

    def augmented_targets(self, candidate: float) -> np.ndarray:
        """The response vector with ``candidate`` appended for the query row."""
        return np.append(self.targets, _real(candidate, "candidate"))

    def target_range(self) -> tuple[float, float]:
        """Smallest and largest observed response, the default candidate range
        (computed once per dataset)."""
        return self._memoized("target_range", _value_range, self.targets)

    def _memoized(self, key, compute, *args):
        """The memo's entry at ``key``, made by ``compute(*args)`` on first use."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute(*args)
        return value


@dataclass(frozen=True)
class ScoreFunction:
    """Nonconformity score ``S(q, m)`` with a declared regularity constant.

    ``gamma`` bounds the variation in the second (prediction) argument:
    ``|S(q, m1) - S(q, m2)| <= gamma * |m1 - m2|`` for all ``q``, so the
    single-fit envelope of :mod:`stabcp.conformal`, its one reader, scales
    the models' prediction bounds by it.  ``kind`` is ``"absolute-residual"``
    or ``"custom"``, and a custom score carries a callable ``fn``; all three
    are checked at construction.
    The absolute residual's own constant is 1, so its gamma must be at least
    1: a smaller one would shrink every stability bound below the truth.
    """

    kind: str
    gamma: float
    fn: object = None

    def __post_init__(self):
        if self.kind not in ("absolute-residual", "custom"):
            raise InvalidInputError(f"unknown score kind {self.kind!r}")
        least = 1 if self.kind == "absolute-residual" else 0
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma", least))
        if self.kind == "custom" and not callable(self.fn):
            raise InvalidInputError("custom score needs a callable fn(q, m)")

    @classmethod
    def absolute_residual(cls) -> "ScoreFunction":
        """The default score ``S(q, m) = |q - m|`` (gamma = 1)."""
        return cls(kind="absolute-residual", gamma=1.0)

    @classmethod
    def custom(cls, fn, gamma: float) -> "ScoreFunction":
        """A user score ``fn(q, m)``, vectorized like numpy, with constant ``gamma``.

        Contract: for every prediction m, ``fn(., m)`` is minimized at
        ``q = m`` and nondecreasing in ``|q - m|`` on each side of m (it may
        be asymmetric, e.g. Huber or linex of ``q - m``).  Every single-fit set
        is then one interval around the prediction, which the set extraction
        of :mod:`stabcp.conformal` relies on.
        """
        return cls(kind="custom", gamma=gamma, fn=fn)

    def evaluate(self, q, m):
        """Elementwise score; broadcasts like numpy."""
        q = np.asarray(q, dtype=float)
        m = np.asarray(m, dtype=float)
        if self.kind == "absolute-residual":
            out = np.abs(q - m)
        else:
            out = np.asarray(self.fn(q, m), dtype=float)
        if out.ndim == 0:
            return float(out)
        return out


def rank(values, index: int) -> int:
    """Tie-inclusive rank of the ``index``-th entry (1-based).

    Counts how many entries are <= the chosen one.  The entry counts itself,
    so the result lies in ``1..len(values)`` and ties push the rank up.
    """
    arr = _as_finite_array(np.ravel(values), "values", 1)
    m = arr.size
    if m == 0:
        raise InvalidInputError("values must be nonempty")
    index = _integral(index, "index", 1, m + 1)
    return int(np.count_nonzero(arr <= arr[index - 1]))


def conformity_scores(dataset: TabularDataset, candidate: float, model, score: ScoreFunction) -> np.ndarray:
    """Scores of all n+1 points under a model fitted on the augmented data.

    Entry ``i < n`` is ``S(y_i, mu(x_i))``; the last entry scores the
    candidate against the model's prediction at the query point.
    """
    if getattr(model, "row_predictions", None) is None:
        raise NotFittedError("model must be fitted on the augmented data first")
    preds = np.asarray(model.row_predictions, dtype=float)
    if preds.shape != (dataset.n + 1,):
        raise InvalidInputError(
            f"model caches {preds.shape} row predictions, expected ({dataset.n + 1},)"
        )
    return _checked_scores(score, dataset.augmented_targets(candidate), preds)


def _checked_scores(score: ScoreFunction, q: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """Scores ``S(q_i, preds_i)``, rejected unless finite and nonnegative.

    Their minimum and maximum check both (a NaN fails either comparison); the
    message is worked out only for scores that fail.
    """
    scores = np.asarray(score.evaluate(q, preds), dtype=float)
    if not (scores.min() >= 0 and scores.max() < math.inf):
        if not np.all(np.isfinite(scores)):
            raise InvalidInputError("score function produced non-finite values")
        raise InvalidInputError("score function produced negative values")
    return scores


def _certificate(fitted) -> dict:
    """A fit's ``iterations``, ``duality_gap`` and ``converged`` (None if closed-form)."""
    return {key: getattr(fitted, key, None) for key in ("iterations", "duality_gap", "converged")}


def _joint_certificate(first: dict, second: dict) -> dict:
    """Two certificates as one: iterations summed, the larger gap, converged if both did."""
    if None in (first["iterations"], second["iterations"]):
        return second if first["iterations"] is None else first
    return {"iterations": first["iterations"] + second["iterations"],
            "duality_gap": max(first["duality_gap"], second["duality_gap"]),
            "converged": first["converged"] and second["converged"]}


@dataclass
class PredictionSet:
    """A prediction region for the query point's response.

    ``intervals`` is an ascending list of disjoint closed ``(lo, hi)`` pairs in
    target units.  ``whole-range`` sets carry the active candidate range, and
    ``truncated`` flags a set that may reach beyond what it stores: a
    whole-range set, or a gridcp set with a kept run at a grid end.  The
    single-fit and root-finding sets are never clamped, so their intervals
    may leave the candidate range.
    """

    shape: str
    intervals: list
    method: str
    alpha: float
    truncated: bool = False
    candidate_range: tuple | None = None

    def __post_init__(self):
        if self.shape not in PREDICTION_SHAPES:
            raise InvalidInputError(f"unknown prediction-set shape {self.shape!r}")

    @classmethod
    def empty_set(cls, method: str, alpha: float, candidate_range=None) -> "PredictionSet":
        return cls("empty", [], method, alpha, candidate_range=candidate_range)

    @classmethod
    def whole_range(cls, method: str, alpha: float, candidate_range) -> "PredictionSet":
        lo, hi = _check_range(candidate_range, "candidate_range")
        return cls("whole-range", [(lo, hi)], method, alpha,
                   truncated=True, candidate_range=(lo, hi))

    @classmethod
    def from_intervals(cls, intervals, method: str, alpha: float,
                       truncated: bool = False, candidate_range=None) -> "PredictionSet":
        cleaned = sorted(_check_range(pair, "interval") for pair in intervals)
        for (a, b), (c, _) in zip(cleaned, cleaned[1:]):
            if c <= b:
                raise InvalidInputError("intervals must be disjoint")
        if not cleaned:
            return cls.empty_set(method, alpha, candidate_range)
        shape = "interval" if len(cleaned) == 1 else "union-of-intervals"
        return cls(shape, cleaned, method, alpha, truncated=truncated,
                   candidate_range=candidate_range)

    def length(self) -> float:
        """Total Lebesgue length of the region."""
        return float(sum(hi - lo for lo, hi in self.intervals))

    def contains(self, value: float) -> bool:
        value = _real(value, "value")
        # a whole-range set is everything; its stored interval is only the
        # clamped display of the active candidate range
        return self.shape == "whole-range" or any(lo <= value <= hi for lo, hi in self.intervals)


def default_candidate_grid(dataset: TabularDataset, num: int = 200) -> np.ndarray:
    """Equally spaced candidates spanning the observed response range."""
    lo, hi = dataset.target_range()
    return np.linspace(lo, hi, _integral(num, "num", 1))
