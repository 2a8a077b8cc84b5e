"""Per-point bounds on how far a prediction can move when the candidate changes.

A :class:`StabilityBounds` holds one bound per augmented row (the last entry
belongs to the query point), in target units, with its provenance.  Each
model in :mod:`stabcp.models` builds its own in ``stability_bound``, and no
other code builds one: ridge's is the exact affine bound over the observed
target range, LAD-ridge's the Lipschitz-loss bound, which holds on the whole
line, and a pretrained model's is zero.  The single-fit envelope of
:mod:`stabcp.conformal` alone scales a bound by a score's ``gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_finite_array, _read_only
from .errors import InvalidInputError

PROVENANCES = ("regularized-lipschitz", "linear-exact")


@dataclass(frozen=True)
class StabilityBounds:
    """Vector of per-point prediction-variation bounds, in target units.

    ``tau[i]`` bounds ``|mu_z(x_i) - mu_z0(x_i)|`` for every candidate z and
    anchor z0 in the range the building model states (its docstring says
    which); ``tau[-1]`` is the query point's bound.  Every entry may be zero.

    A bound is a snapshot, as a dataset is: ``tau`` is a read-only view (not
    a copy), so writing through it raises; writing into the array it was
    built from afterwards is not supported.
    """

    tau: np.ndarray
    provenance: str

    def __post_init__(self):
        # one finite nonnegative entry per augmented row, the query row's last
        tau = _as_finite_array(np.ravel(self.tau), "tau", 1)
        if tau.size < 2:
            raise InvalidInputError("tau must cover the observed rows plus the query row")
        if np.any(tau < 0):
            raise InvalidInputError("tau entries must be nonnegative")
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "tau", _read_only(tau))

    @property
    def tau_test(self) -> float:
        return float(self.tau[-1])
