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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NotFittedError

_TOL = 1e-9

PREDICTION_SHAPES = ("interval", "union-of-intervals", "whole-range", "empty")


def _level_index(m: int, alpha: float) -> int:
    """The one level rule, ``k = ceil((1 - alpha)(m + 1))`` (Lei et al., JASA 2018).

    With ``count`` of m reference scores strictly below the query's score,
    its conformity is ``pi = 1 - count/(m + 1)`` (``_conformity``); every set
    is the closure of ``{pi > alpha} = {count < k} = {S_q <= U_(k)}`` (``U``
    the sorted reference scores), which covers with probability >= 1 - alpha.
    ``k > m``: every candidate, the whole line.
    """
    return math.ceil((1.0 - alpha) * (m + 1) - _TOL)


def _conformity(count, m: int):
    """``1 - count/(m + 1)``, count the reference scores strictly below the
    query's, rounded once so that ``> alpha`` matches ``count < k``."""
    return (m + 1 - count) / (m + 1)


def _as_finite_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _check_range(candidate_range, name: str) -> tuple[float, float]:
    """A candidate range as a finite ``(lo, hi)`` pair with ``lo <= hi``."""
    lo, hi = float(candidate_range[0]), float(candidate_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InvalidInputError(f"{name} must be a finite (lo, hi) pair")
    return lo, hi


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; the caller's array keeps its own flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class TabularDataset:
    """Observed regression pairs plus the feature vector of the query point.

    A dataset is a snapshot: it stores read-only views of its arrays (not
    copies), and models may keep work that depends only on the dataset, such
    as a Gram matrix, in a private per-dataset memo that lives as long as the
    dataset.  Writing through a dataset's arrays raises; writing into the
    arrays it was built from afterwards is not supported, since that memo
    would then be stale.

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
            t = float(self.test_target)
            if not math.isfinite(t):
                raise InvalidInputError("test_target must be finite")
            object.__setattr__(self, "test_target", t)
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
        candidate = float(candidate)
        if not math.isfinite(candidate):
            raise InvalidInputError("candidate must be finite")
        return np.append(self.targets, candidate)

    def target_range(self) -> tuple[float, float]:
        """Smallest and largest observed response, the default candidate range."""
        return float(self.targets.min()), float(self.targets.max())

    def permuted(self, order) -> "TabularDataset":
        """Dataset with the observed rows reordered; the query point is untouched."""
        order = np.asarray(order, dtype=int)
        if sorted(order.tolist()) != list(range(self.n)):
            raise InvalidInputError("order must be a permutation of the observed rows")
        return TabularDataset(
            self.features[order],
            self.targets[order],
            self.test_point,
            self.test_target,
            dict(self.meta),
        )


@dataclass(frozen=True)
class ScoreFunction:
    """Nonconformity score ``S(q, m)`` with a declared regularity constant.

    ``gamma`` bounds the variation in the second (prediction) argument:
    ``|S(q, m1) - S(q, m2)| <= gamma * |m1 - m2|`` for all ``q``.
    """

    kind: str
    gamma: float
    fn: object = None

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
        gamma = float(gamma)
        if not (math.isfinite(gamma) and gamma >= 0):
            raise InvalidInputError("gamma must be a finite nonnegative real")
        if not callable(fn):
            raise InvalidInputError("custom score needs a callable fn(q, m)")
        return cls(kind="custom", gamma=gamma, fn=fn)

    def evaluate(self, q, m):
        """Elementwise score; broadcasts like numpy."""
        q = np.asarray(q, dtype=float)
        m = np.asarray(m, dtype=float)
        if self.kind == "absolute-residual":
            out = np.abs(q - m)
        elif self.kind == "custom":
            out = np.asarray(self.fn(q, m), dtype=float)
        else:
            raise InvalidInputError(f"unknown score kind {self.kind!r}")
        if out.ndim == 0:
            return float(out)
        return out


def rank(values, index: int) -> int:
    """Tie-inclusive rank of the ``index``-th entry (1-based).

    Counts how many entries are <= the chosen one.  The entry counts itself,
    so the result lies in ``1..len(values)`` and ties push the rank up.
    """
    arr = _as_finite_array(np.ravel(np.asarray(values, dtype=float)), "values", 1)
    m = arr.size
    if m == 0:
        raise InvalidInputError("values must be nonempty")
    if not 1 <= int(index) <= m:
        raise InvalidInputError(f"index must lie in 1..{m}, got {index}")
    return int(np.count_nonzero(arr <= arr[int(index) - 1]))


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
    """Scores ``S(q_i, preds_i)``, rejected unless finite and nonnegative."""
    scores = np.asarray(score.evaluate(q, preds), dtype=float)
    if not np.all(np.isfinite(scores)):
        raise InvalidInputError("score function produced non-finite values")
    if np.any(scores < 0):
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
        lo, hi = float(candidate_range[0]), float(candidate_range[1])
        return cls("whole-range", [(lo, hi)], method, alpha,
                   truncated=True, candidate_range=(lo, hi))

    @classmethod
    def from_intervals(cls, intervals, method: str, alpha: float,
                       truncated: bool = False, candidate_range=None) -> "PredictionSet":
        cleaned = []
        for lo, hi in intervals:
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise InvalidInputError(f"bad interval ({lo}, {hi})")
            cleaned.append((lo, hi))
        cleaned.sort()
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
        # a whole-range set is everything; its stored interval is only the
        # clamped display of the active candidate range
        if self.shape == "whole-range":
            return True
        value = float(value)
        return any(lo <= value <= hi for lo, hi in self.intervals)


def default_candidate_grid(dataset: TabularDataset, num: int = 200) -> np.ndarray:
    """Equally spaced candidates spanning the observed response range."""
    lo, hi = dataset.target_range()
    return np.linspace(lo, hi, int(num))
