"""Per-point bounds on how much a score can move when the candidate changes.

Each constructor returns a :class:`StabilityBounds` holding one bound per
augmented row (the last entry belongs to the query point) together with its
provenance.  The constructors take the regularity constants of a loss and a
penalty as plain numbers; each model in :mod:`stabcp.models` picks its own
bound in ``stability_bound`` (ridge: the exact affine bound, LAD-ridge: the
Lipschitz-loss bound).  The smooth-loss recipe serves models of a smooth loss
that is not affine in the candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TabularDataset, _as_finite_array, _check_range, _real
from .errors import InvalidInputError

PROVENANCES = (
    "regularized-lipschitz",
    "regularized-smooth",
    "linear-exact",
    "user-supplied",
)


def _augmented_vector(values, name: str) -> np.ndarray:
    """One finite nonnegative entry per augmented row, the query row's last."""
    arr = _as_finite_array(np.ravel(np.asarray(values, dtype=float)), name, 1)
    if arr.size < 2:
        raise InvalidInputError(f"{name} must cover the observed rows plus the query row")
    if np.any(arr < 0):
        raise InvalidInputError(f"{name} entries must be nonnegative")
    return arr


@dataclass(frozen=True)
class StabilityBounds:
    """Vector of per-point score-variation bounds.

    ``tau[i]`` bounds ``|S(q, mu_z(x_i)) - S(q, mu_z0(x_i))|`` over the
    candidate range; ``tau[-1]`` is the query point's bound.  Every entry may
    be zero.
    """

    tau: np.ndarray
    provenance: str
    candidate_range: tuple | None = None

    def __post_init__(self):
        tau = _augmented_vector(self.tau, "tau")
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "tau", tau)
        if self.candidate_range is not None:
            object.__setattr__(self, "candidate_range",
                               _check_range(self.candidate_range, "candidate_range"))

    @property
    def tau_test(self) -> float:
        return float(self.tau[-1])


def augmented_row_norms(dataset: TabularDataset) -> np.ndarray:
    """Euclidean norms of all n+1 feature rows, query row last."""
    return np.append(np.linalg.norm(dataset.features, axis=1),
                     np.linalg.norm(dataset.test_point[None, :], axis=1))


def tau_regularized_lipschitz(gamma: float, rho: float, lambda_sc: float,
                              row_norms, candidate_range=None) -> StabilityBounds:
    """Per-row bound ``2*gamma*rho*||x_i||/lambda_sc`` (Lipschitz loss)."""
    gamma, rho = _real(gamma, "gamma", 0), _real(rho, "rho", 0)
    lambda_sc = _real(lambda_sc, "lambda_sc", 0, open_lo=True)
    norms = _augmented_vector(row_norms, "row_norms")
    tau = 2.0 * gamma * rho * norms / lambda_sc
    return StabilityBounds(tau, "regularized-lipschitz", candidate_range=candidate_range)


def tau_regularized_smooth(gamma: float, nu: float, loss_bound_C: float,
                           lambda_sc: float, row_norms, candidate_range=None) -> StabilityBounds:
    """Per-row bound ``2*gamma*||x_i||*sqrt(2*nu*C)/(lambda_sc - nu)``.

    Needs a ``nu``-smooth loss with ``nu < lambda_sc`` and the optimal loss
    bounded by ``C`` over the candidate range.
    """
    gamma, nu = _real(gamma, "gamma", 0), _real(nu, "nu", 0)
    loss_bound_C = _real(loss_bound_C, "loss_bound_C", 0)
    lambda_sc = _real(lambda_sc, "lambda_sc", 0, open_lo=True)
    if nu >= lambda_sc:
        raise InvalidInputError(
            f"smooth-loss bound needs nu < lambda_sc, got nu={nu} >= lambda_sc={lambda_sc}"
        )
    norms = _augmented_vector(row_norms, "row_norms")
    tau = 2.0 * gamma * norms * math.sqrt(2.0 * nu * loss_bound_C) / (lambda_sc - nu)
    return StabilityBounds(tau, "regularized-smooth", candidate_range=candidate_range)


def scaled_squared_loss(y, predictions) -> float:
    """``||y - u||^2 / m`` for ``m = len(y)``."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(predictions, dtype=float)
    return float(np.mean((y - u) ** 2))


def bound_loss_C(dataset: TabularDataset, z_range=None) -> float:
    """Bound on the optimal scaled squared loss: its value at the zero prediction.

    The optimal fit can only improve on predicting zero, so
    ``sup_z scaled_squared_loss(y(z), 0)`` over the candidate range bounds
    the optimal loss.  That loss is convex in the candidate, so the supremum
    sits at an endpoint of the range.
    """
    if z_range is None:
        z_range = dataset.target_range()
    lo, hi = _check_range(z_range, "z_range")
    zeros = np.zeros(dataset.n + 1)
    return max(scaled_squared_loss(dataset.augmented_targets(z), zeros) for z in (lo, hi))


def tau_linear_exact(ridge_model, dataset: TabularDataset, z_range=None,
                     gamma: float = 1.0) -> StabilityBounds:
    """Exact worst-case deviation for a predictor affine in the candidate.

    For ``mu_z(x_i) = a_i + b_i * z`` the deviation over a range of width W is
    exactly ``|b_i| * W``; the score moves by at most ``gamma`` times that.
    """
    gamma = _real(gamma, "gamma", 0)
    row_b = getattr(ridge_model, "row_b", None)
    if row_b is None:
        raise InvalidInputError("model lacks the affine-in-candidate decomposition; "
                                "fit a RidgeModel on the augmented data first")
    if z_range is None:
        z_range = dataset.target_range()
    lo, hi = _check_range(z_range, "z_range")
    tau = gamma * np.abs(np.asarray(row_b, dtype=float)) * (hi - lo)
    return StabilityBounds(tau, "linear-exact", candidate_range=(lo, hi))


def tau_user_supplied(values, candidate_range=None) -> StabilityBounds:
    """Wrap externally computed bounds.  The library cannot check them: the
    caller vouches that they hold, and sets built on them count as coverage-safe."""
    return StabilityBounds(np.asarray(values, dtype=float), "user-supplied",
                           candidate_range=candidate_range)

