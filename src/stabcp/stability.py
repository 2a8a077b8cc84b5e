"""Per-point bounds on how far a prediction can move when the candidate changes.

A :class:`StabilityBounds` holds one bound per augmented row (the last entry
belongs to the query point), in target units, with its provenance.  Each
model in :mod:`stabcp.models` builds its own in ``stability_bound``: ridge's
is the exact affine bound over the observed target range, LAD-ridge's the
Lipschitz-loss bound, which holds on the whole line, and a pretrained
model's is zero.  ``stabcp.conformal.anchor_bounds`` alone scales a bound by
a score's ``gamma``.  A library caller with a bound of its own wraps it with
:func:`tau_user_supplied`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_finite_array, _check_range, _read_only
from .errors import InvalidInputError

PROVENANCES = ("regularized-lipschitz", "linear-exact", "user-supplied")


@dataclass(frozen=True)
class StabilityBounds:
    """Vector of per-point prediction-variation bounds, in target units.

    ``tau[i]`` bounds ``|mu_z(x_i) - mu_z0(x_i)|`` for every candidate z and
    anchor z0 in ``candidate_range``, or on the whole line when the range is
    None; ``tau[-1]`` is the query point's bound.  Every entry may be zero.
    ``candidate_range`` says only where the bound holds: every set searches
    and records the observed target range, and a set anchored outside
    ``candidate_range`` is flagged.

    A bound is a snapshot, as a dataset is: ``tau`` is a read-only view (not
    a copy), so writing through it raises; writing into the array it was
    built from afterwards is not supported.
    """

    tau: np.ndarray
    provenance: str
    candidate_range: tuple | None = None

    def __post_init__(self):
        # one finite nonnegative entry per augmented row, the query row's last
        tau = _as_finite_array(np.ravel(np.asarray(self.tau, dtype=float)), "tau", 1)
        if tau.size < 2:
            raise InvalidInputError("tau must cover the observed rows plus the query row")
        if np.any(tau < 0):
            raise InvalidInputError("tau entries must be nonnegative")
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "tau", _read_only(tau))
        if self.candidate_range is not None:
            object.__setattr__(self, "candidate_range",
                               _check_range(self.candidate_range, "candidate_range"))

    @property
    def tau_test(self) -> float:
        return float(self.tau[-1])


def tau_user_supplied(values, candidate_range=None) -> StabilityBounds:
    """Wrap externally computed bounds on how far each prediction moves, in
    target units.  The library cannot check them: the caller vouches that
    they hold, and sets built on them count as coverage-safe."""
    return StabilityBounds(np.asarray(values, dtype=float), "user-supplied",
                           candidate_range=candidate_range)
