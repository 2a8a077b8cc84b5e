"""Symmetric regression fitters and the stability bounds they support.

Every model follows one protocol:

- ``fit(dataset, candidate)`` fits on the n+1 augmented rows and returns a
  model whose ``row_predictions`` hold the predictions at those rows, query
  row last; it may reuse work that depends only on the dataset, which is a
  snapshot (ridge keeps one Gram matrix and one augmented solve per dataset
  and penalty, so every further ``fit`` on it costs O(n));
- ``fit_rows(X, y, start=None)`` fits on the given rows only, from scratch,
  or from an earlier ``fit_rows`` result on the same rows passed as
  ``start``; never from the dataset memo.  It returns a model whose
  ``coefficients`` serve ``predict``/``predict_rows``; the refit baselines
  use it, so they stay an independent check of ``fit``, and pass each
  refit to the next as ``start`` (only the iterative model uses it);
- ``fit_observed(dataset)`` is ``fit_rows`` on the n observed rows, and may
  reuse the dataset's work as ``fit`` does; it only chooses the single-fit
  anchor, so an iterative model may stop it at a looser anchor tolerance;
- ``stability_bound(dataset, score, z_range)`` returns the per-row
  :class:`~stabcp.stability.StabilityBounds` the model's loss and penalty
  give over the candidate range.

All fitters treat the rows exchangeably: the objective is a sum over rows, so
permuting the observed pairs leaves the fit unchanged (up to solver tolerance
for the iterative one).  Losses carry the explicit ``1/m`` scaling, with
``m`` the number of rows entering the fit; the stability bounds assume that
convention.

No intercept is added implicitly: append a constant feature column if one is
wanted.  This keeps the row norms entering the stability bounds honest.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (TabularDataset, _as_finite_array, _certificate, _joint_certificate,
                   _read_only)
from .errors import InvalidInputError, NotFittedError, NumericalError
from .stability import (
    StabilityBounds,
    augmented_row_norms,
    bound_loss_C,
    tau_regularized_lipschitz,
    tau_regularized_smooth,
)


# Relative duality gap at which ``LadRidgeModel.fit_observed`` stops.  The
# anchor is a free choice (a single-fit set is sound for any anchor inside the
# bound's range), so its fit need not be exact.  The objective is
# 2*lambda-strongly convex, so a gap g keeps the coefficients within
# sqrt(g/lambda) of the minimizer and the anchor within
# ||x_query|| * sqrt(g/lambda) of the exact one.  Scaling by mean|y|, the
# objective at beta = 0, makes the rule scale-free.
_ANCHOR_GAP = 1e-2


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray, m: int,
                            lambda_reg: float) -> np.ndarray:
    """Solve ``(gram + m * lambda_reg * I) beta = rhs`` for a fit on ``m`` rows."""
    system = gram + m * lambda_reg * np.eye(gram.shape[0])
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal equations are singular: {exc}") from exc


def ridge_coefficients(X, y, lambda_reg: float) -> np.ndarray:
    """Solve ``(X^T X + m * lambda_reg * I) beta = X^T y`` for ``m = len(y)``.

    This is the minimizer of ``||y - X beta||^2 / m + lambda_reg * ||beta||^2``.
    With ``lambda_reg = 0`` the Gram matrix must be invertible.
    """
    X = _as_finite_array(X, "X", 2)
    y = _as_finite_array(y, "y", 1)
    if X.shape[0] != y.shape[0]:
        raise InvalidInputError("X and y row counts differ")
    lambda_reg = float(lambda_reg)
    if lambda_reg < 0:
        raise InvalidInputError("lambda_reg must be nonnegative")
    return _solve_normal_equations(X.T @ X, X.T @ y, X.shape[0], lambda_reg)


def _observed_gram(dataset: TabularDataset) -> tuple[np.ndarray, np.ndarray]:
    """``(X^T X, X^T y)`` of the observed rows, formed once per dataset."""
    memo = dataset._memo
    if "gram" not in memo:
        X = dataset.features
        memo["gram"] = (X.T @ X, X.T @ dataset.targets)
    return memo["gram"]


class LinearModel:
    """Prediction ``x @ coefficients`` shared by the linear models.

    Subclasses set ``coefficients``; None means the model is not fitted yet.
    """

    def fit_observed(self, dataset: TabularDataset) -> "LinearModel":
        """Fit on the n observed rows (the query row left out)."""
        return self.fit_rows(dataset.features, dataset.targets)

    def predict(self, x) -> float:
        if self.coefficients is None:
            raise NotFittedError(f"{type(self).__name__}.predict called before fit")
        x = _as_finite_array(x, "x", 1)
        if x.shape[0] != self.coefficients.shape[0]:
            raise InvalidInputError(
                f"x has {x.shape[0]} entries, expected {self.coefficients.shape[0]}"
            )
        return float(x @ self.coefficients)

    def predict_rows(self, X) -> np.ndarray:
        if self.coefficients is None:
            raise NotFittedError(f"{type(self).__name__}.predict_rows called before fit")
        return np.asarray(X, dtype=float) @ self.coefficients


class RidgeModel(LinearModel):
    """Ridge regression with a closed-form solve and a linear response in z.

    Objective on ``m`` rows: ``||y - X beta||^2 / m + lambda_reg * ||beta||^2``.
    When fitted on the augmented data, the prediction at any point is affine
    in the candidate value: ``mu_z(x) = a(x) + b(x) * z`` (Nouretdinov,
    Melluish & Vovk, *Ridge regression confidence machine*, 2001).  The two
    components come from one two-column solve of the augmented normal
    equations, with the observed responses (and 0 in the query slot) and with
    the query-slot indicator; the fit keeps them as ``beta_base`` and
    ``beta_candidate``, and ``row_b`` holds ``b`` at every augmented row.

    The observed rows' Gram matrix is formed once per dataset and the
    augmented solve made once per dataset and penalty, both kept in the
    dataset's memo; ``fit`` at any candidate then costs O(n).  ``fit_rows``
    never reads the memo.
    """

    def __init__(self, lambda_reg: float = 1.0):
        lambda_reg = float(lambda_reg)
        if lambda_reg < 0 or not math.isfinite(lambda_reg):
            raise InvalidInputError("lambda_reg must be a finite nonnegative real")
        self.lambda_reg = lambda_reg
        self.coefficients = None

    def fit_rows(self, X, y, start=None) -> "RidgeModel":
        """Plain fit on the given rows, no augmentation; closed form, so
        ``start`` is ignored."""
        model = RidgeModel(self.lambda_reg)
        model.coefficients = ridge_coefficients(X, y, self.lambda_reg)
        return model

    def _affine(self, dataset: TabularDataset) -> tuple[np.ndarray, ...]:
        """``(beta_base, beta_candidate, a, b)`` on the augmented rows, solved once.

        The arrays are read-only: every fit on the dataset shares them.
        """
        key = ("ridge-affine", self.lambda_reg)
        memo = dataset._memo
        if key not in memo:
            gram, xty = _observed_gram(dataset)
            x = dataset.test_point
            solved = _solve_normal_equations(gram + np.outer(x, x), np.column_stack([xty, x]),
                                             dataset.n + 1, self.lambda_reg)
            rows = np.vstack([dataset.features @ solved, x @ solved])
            memo[key] = tuple(_read_only(v) for v in (*solved.T, *rows.T))
        return memo[key]

    def fit(self, dataset: TabularDataset, candidate: float) -> "RidgeModel":
        """Fit on the augmented data as ``a + b * candidate`` from the dataset's solve."""
        candidate = float(candidate)
        beta_base, beta_candidate, a, b = self._affine(dataset)
        model = RidgeModel(self.lambda_reg)
        model.beta_base = beta_base
        model.beta_candidate = beta_candidate
        model.coefficients = beta_base + candidate * beta_candidate
        model.row_predictions = a + b * candidate
        model.row_b = b
        return model

    def fit_observed(self, dataset: TabularDataset) -> "RidgeModel":
        """Fit on the observed rows from the dataset's Gram matrix.

        Solved on each call and never by ``fit``: with ``lambda_reg = 0`` this
        system may be singular while the augmented one of ``fit`` is not.
        """
        gram, xty = _observed_gram(dataset)
        model = RidgeModel(self.lambda_reg)
        model.coefficients = _solve_normal_equations(gram, xty, dataset.n, self.lambda_reg)
        return model

    def stability_bound(self, dataset: TabularDataset, score, z_range) -> StabilityBounds:
        """The smooth-loss bound: the scaled squared loss is ``2/m``-smooth, the
        penalty ``2*lambda_reg``-strongly convex, and ``bound_loss_C`` bounds
        the optimal loss over ``z_range``."""
        return tau_regularized_smooth(score.gamma, 2.0 / (dataset.n + 1),
                                      bound_loss_C(dataset, z_range=z_range),
                                      2.0 * self.lambda_reg, augmented_row_norms(dataset),
                                      candidate_range=z_range)


class LadRidgeModel(LinearModel):
    """Least absolute deviation with a ridge penalty, solved to a certificate.

    Objective on ``m`` rows: ``||y - X beta||_1 / m + lambda_reg * ||beta||^2``.
    The solver is deterministic full-batch operator splitting (ADMM on the
    residual split, with a residual-balanced penalty rho and one cached
    beta-step operator per penalty value, rebuilt when rho changes, so no
    iteration solves a linear system).  Clipping the scaled dual variable
    into the feasible box gives a duality gap at every check, so the returned
    iterate carries an explicit suboptimality certificate; the incumbent is
    the best primal point seen, whose recorded objectives decrease
    monotonically by construction.
    Hitting ``max_iter`` without reaching ``solver_tol`` is reported through
    ``converged``/``duality_gap``, not raised.

    ``fit_rows(X, y, start=fit)`` warm-starts from an earlier ``fit_rows``
    result on as many rows (the refit baselines pass each refit to the next,
    which differs only in the query target): ADMM begins from that fit's final
    residual split ``v``, scaled dual ``u`` and penalty rho, and its
    ``coefficients`` are the first incumbent.  The stopping rule, certificate
    and penalty-change cap are those of a cold fit, so a warm fit meets the
    same ``solver_tol``.
    """

    def __init__(self, lambda_reg: float, solver_tol: float = 1e-8, max_iter: int = 50_000):
        lambda_reg = float(lambda_reg)
        if not (math.isfinite(lambda_reg) and lambda_reg > 0):
            raise InvalidInputError("lambda_reg must be positive (strong convexity)")
        solver_tol = float(solver_tol)
        if not (math.isfinite(solver_tol) and solver_tol > 0):
            raise InvalidInputError("solver_tol must be positive")
        if int(max_iter) < 1:
            raise InvalidInputError("max_iter must be a positive integer")
        self.lambda_reg = lambda_reg
        self.solver_tol = solver_tol
        self.max_iter = int(max_iter)
        self.coefficients = None

    def _objective(self, X, y, beta) -> float:
        m = y.shape[0]
        return float(np.abs(y - X @ beta).sum() / m + self.lambda_reg * beta @ beta)

    def _dual_objective(self, X, y, theta) -> float:
        v = X.T @ theta
        return float(-theta @ y - (v @ v) / (4.0 * self.lambda_reg))

    def fit_rows(self, X, y, start=None) -> "LadRidgeModel":
        X = _as_finite_array(X, "X", 2)
        y = _as_finite_array(y, "y", 1)
        if X.shape[0] != y.shape[0]:
            raise InvalidInputError("X and y row counts differ")
        m, p = X.shape
        model = LadRidgeModel(self.lambda_reg, self.solver_tol, self.max_iter)

        if start is None:
            # the penalty starts at the scale of the soft threshold
            best_beta = np.zeros(p)
            v, u = np.zeros(m), np.zeros(m)
            rho = 1.0 / (m * max(float(np.std(y)), 1e-12))
        else:
            state = getattr(start, "_admm_state", None)
            if state is None:
                raise InvalidInputError("start must be an earlier LadRidgeModel.fit_rows result")
            v, u, rho = state
            if v.shape != (m,) or start.coefficients.shape != (p,):
                raise InvalidInputError(
                    f"start was fitted on {v.shape[0]} rows and {start.coefficients.shape[0]} "
                    f"columns, expected {m} and {p}")
            best_beta = start.coefficients.copy()
        best_obj = self._objective(X, y, best_beta)
        accepted = [best_obj]
        best_gap = math.inf
        iterations = 0

        gram = X.T @ X
        # The beta step is a ridge solve with penalty 2*lambda/rho: one cached
        # beta-step operator per penalty value, rebuilt when rho changes.  The
        # penalty is residual-balanced.

        def beta_step(rho: float) -> np.ndarray:
            """``(X^T X + (2 lambda / rho) I)^-1 X^T``, a p x m matrix."""
            return _solve_normal_equations(gram, X.T, m, 2.0 * self.lambda_reg / (rho * m))

        step = beta_step(rho)
        relax = 1.7
        check_every = 10
        penalty_changes = 0

        for k in range(1, self.max_iter + 1):
            q = y - v
            beta = step @ (q - u)
            fitted_rows = X @ beta
            v_old = v
            residual = (y - u) - (relax * fitted_rows + (1.0 - relax) * q)
            # soft threshold at 1/(m rho) and the scaled dual update, fused:
            # v = residual - clip(residual) and u + relaxed + v - y = -clip(residual)
            threshold = 1.0 / (m * rho)
            u = -np.clip(residual, -threshold, threshold)
            v = residual + u
            iterations = k
            if k % check_every == 0 or k == self.max_iter:
                obj = self._objective(X, y, beta)
                if obj < best_obj:
                    best_obj = obj
                    best_beta = beta.copy()
                    accepted.append(obj)
                theta = np.clip(rho * u, -1.0 / m, 1.0 / m)
                gap = max(best_obj - self._dual_objective(X, y, theta), 0.0)
                best_gap = min(best_gap, gap)
                if best_gap <= self.solver_tol:
                    break
                primal_res = float(np.linalg.norm(fitted_rows + v - y))
                dual_res = rho * float(np.linalg.norm(X.T @ (v - v_old)))
                if penalty_changes < 40:
                    if primal_res > 10.0 * dual_res:
                        rho *= 2.0
                        u /= 2.0
                        step = beta_step(rho)
                        penalty_changes += 1
                    elif dual_res > 10.0 * primal_res:
                        rho /= 2.0
                        u *= 2.0
                        step = beta_step(rho)
                        penalty_changes += 1

        model.coefficients = best_beta
        model.objective = best_obj
        model.duality_gap = best_gap
        model.converged = best_gap <= self.solver_tol
        model.iterations = iterations
        model.accepted_objectives = accepted
        model._admm_state = (v, u, rho)  # where a warm start from this fit begins
        return model

    def fit_observed(self, dataset: TabularDataset) -> "LadRidgeModel":
        """Fit on the observed rows to the anchor tolerance
        ``max(solver_tol, _ANCHOR_GAP * mean|y|)``, against which its
        ``converged`` is judged."""
        anchor_tol = max(self.solver_tol, _ANCHOR_GAP * float(np.mean(np.abs(dataset.targets))))
        spec = LadRidgeModel(self.lambda_reg, anchor_tol, self.max_iter)
        return spec.fit_rows(dataset.features, dataset.targets)

    def fit(self, dataset: TabularDataset, candidate: float) -> "LadRidgeModel":
        X = dataset.augmented_design()
        y = dataset.augmented_targets(candidate)
        model = self.fit_rows(X, y)
        model.row_predictions = X @ model.coefficients
        return model

    def stability_bound(self, dataset: TabularDataset, score, z_range) -> StabilityBounds:
        """The Lipschitz-loss bound for candidate changes.

        Only the query row's term of the scaled L1 loss moves with the
        candidate, and that term is ``||x_query|| / m``-Lipschitz in the
        coefficients; the penalty is ``2*lambda_reg``-strongly convex.  (The
        naive whole-loss constant ``1/sqrt(m)`` is NOT sound here: the query
        row's leverage can exceed it, and measured deviations do cross that
        smaller bound.)
        """
        rho = float(np.linalg.norm(dataset.test_point)) / (dataset.n + 1)
        return tau_regularized_lipschitz(score.gamma, rho, 2.0 * self.lambda_reg,
                                         augmented_row_norms(dataset),
                                         candidate_range=z_range)


class PretrainedLinearModel(LinearModel):
    """Fixed linear coefficients; fitting only caches predictions.

    The predictions do not depend on the candidate value, so the zero vector
    is a genuinely sound stability bound for this model.  Useful as the
    zero-stability reference in tests and diagnostics.
    """

    def __init__(self, coefficients):
        self.coefficients = _as_finite_array(coefficients, "coefficients", 1)

    def fit_rows(self, X, y, start=None) -> "PretrainedLinearModel":
        return self

    def fit(self, dataset: TabularDataset, candidate: float) -> "PretrainedLinearModel":
        model = PretrainedLinearModel(self.coefficients)
        model.row_predictions = dataset.augmented_design() @ self.coefficients
        return model


class InterpolatedModel:
    """Piecewise-linear interpolation of a per-candidate model family.

    Base models are fitted once per knot (the range endpoints plus the
    interior anchors).  Inside the knot range the prediction at a candidate is
    the convex combination of the two bracketing knot models; outside it is
    the affine extension of the nearest segment.  The segment weight formula
    is used unclamped, which yields exactly that extension.  ``certificate``
    joins the knot fits' solver certificates (``_joint_certificate``): its
    ``converged`` is False when some knot fit stopped before reaching the
    tolerance, and all its entries are None for closed-form knot fits.
    """

    def __init__(self, knots, knot_models):
        knots = _as_finite_array(knots, "knots", 1)
        if knots.size < 3:
            raise InvalidInputError("need at least three knots (two endpoints, one anchor)")
        if np.any(np.diff(knots) <= 0):
            raise InvalidInputError("knots must be strictly increasing")
        if len(knot_models) != knots.size:
            raise InvalidInputError("one fitted model per knot required")
        self.knots = knots
        self.knot_row_predictions = np.vstack(
            [np.asarray(m.row_predictions, dtype=float) for m in knot_models]
        )
        self.fit_count = knots.size
        self.certificate = functools.reduce(_joint_certificate, map(_certificate, knot_models))

    def _segment(self, z: float) -> tuple[int, float]:
        """Segment index and left-knot weight; weights leave [0,1] outside the range."""
        z = float(z)
        t = int(np.searchsorted(self.knots, z, side="right")) - 1
        t = min(max(t, 0), self.knots.size - 2)
        left, right = self.knots[t], self.knots[t + 1]
        w = (right - z) / (right - left)
        return t, w

    def row_predictions_at(self, z: float) -> np.ndarray:
        """Interpolated predictions for the n+1 augmented rows at candidate z."""
        t, w = self._segment(z)
        return w * self.knot_row_predictions[t] + (1.0 - w) * self.knot_row_predictions[t + 1]


def build_interpolated_model(dataset: TabularDataset, anchors, z_min: float, z_max: float,
                             base_model_spec) -> InterpolatedModel:
    """Fit the base model at every anchor and both endpoints (d + 2 fits)."""
    anchors = _as_finite_array(np.ravel(np.asarray(anchors, dtype=float)), "anchors", 1)
    if anchors.size < 1:
        raise InvalidInputError("need at least one anchor")
    if np.any(np.diff(anchors) <= 0):
        raise InvalidInputError("anchors must be strictly increasing")
    z_min, z_max = float(z_min), float(z_max)
    if not (z_min < anchors[0] and anchors[-1] < z_max):
        raise InvalidInputError("anchors must lie strictly inside (z_min, z_max)")
    knots = np.concatenate([[z_min], anchors, [z_max]])
    models = [base_model_spec.fit(dataset, z) for z in knots]
    return InterpolatedModel(knots, models)

