"""A model whose anchor or stability bound a test pins."""

import numpy as np

from stabcp import StabilityBounds


class Pinned:
    """``model`` with its ``anchor`` and ``stability_bound`` pinned.

    The set functions read both from the model, so a test that needs a set
    at a given anchor or on a given bound builds it on this wrapper: it fits
    as ``model`` does.  ``anchor`` is a float and ``tau`` a
    ``StabilityBounds`` or one value per augmented row; either left None is
    the model's own.
    """

    def __init__(self, model, anchor=None, tau=None):
        self.model, self._anchor = model, anchor
        if tau is not None and not isinstance(tau, StabilityBounds):
            tau = StabilityBounds(np.asarray(tau, dtype=float), "linear-exact")
        self._tau = tau

    def __getattr__(self, name):  # fit, fit_rows and the rest are the model's
        return getattr(self.model, name)

    def anchor(self, dataset):
        return self.model.anchor(dataset) if self._anchor is None else self._anchor

    def stability_bound(self, dataset):
        return self.model.stability_bound(dataset) if self._tau is None else self._tau
