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
  refit to the next as ``start`` (only the iterative model uses it: the
  start sets where its solver begins and, when it was fitted on the very
  same read-only ``X``, lends the work that depends on ``X`` alone);
- ``anchor(dataset)`` returns the single-fit anchor, a finite float inside
  every range on which the model's own bound holds; no model spends a fit on
  it.  Ridge's is the self-consistent query prediction ``a_q / (1 - b_q)`` of
  its augmented solve, clipped into the target range; LAD-ridge's is the
  median of the observed responses, since its bound holds on the whole line
  and any anchor gives a sound set;
- ``stability_bound(dataset, score)`` builds the model's one per-row
  :class:`~stabcp.stability.StabilityBounds`; no other code builds it.
  Ridge's is the exact affine bound over ``dataset.target_range()``, the one
  candidate range of every set; LAD-ridge's is the Lipschitz-loss bound,
  which carries no range and holds on the whole line.
  ``PretrainedLinearModel`` has none: a caller passes its zero bound
  (``tau_user_supplied``) explicitly.

All fitters treat the rows exchangeably: the objective is a sum over rows, so
permuting the observed pairs leaves the fit unchanged (up to solver tolerance
for the iterative one).  Losses carry the explicit ``1/m`` scaling, with
``m`` the number of rows entering the fit; the stability bounds assume that
convention.

No intercept is added implicitly: append a constant feature column if one is
wanted.  This keeps the row norms entering the stability bounds honest.
"""

from __future__ import annotations

import math

import numpy as np

from .core import TabularDataset, _as_finite_array, _integral, _read_only, _real
from .errors import InvalidInputError, NotFittedError, NumericalError
from .stability import StabilityBounds


# Smallest ``1 - b_q`` from which ``RidgeModel.anchor`` takes its quotient.
# Exactly, b_q lies in [0, 1]; where it is 1 the computed 1 - b_q is rounding
# noise of either sign, so sqrt(eps), half the float64 digits, separates noise
# from a value (it is not tuned to any draw).
_FREE_QUERY_TOL = math.sqrt(np.finfo(float).eps)


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
    if X.shape[0] == 0:
        raise InvalidInputError("cannot fit on zero rows")
    lambda_reg = _real(lambda_reg, "lambda_reg", 0)
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
        self.lambda_reg = _real(lambda_reg, "lambda_reg", 0)
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
            rows = np.empty((dataset.n + 1, 2))
            np.matmul(dataset.features, solved, out=rows[:-1])
            np.matmul(x, solved, out=rows[-1])
            memo[key] = tuple(_read_only(v) for v in (*solved.T, *rows.T))
        return memo[key]

    def fit(self, dataset: TabularDataset, candidate: float) -> "RidgeModel":
        """Fit on the augmented data as ``a + b * candidate`` from the dataset's solve."""
        candidate = _real(candidate, "candidate")
        beta_base, beta_candidate, a, b = self._affine(dataset)
        model = RidgeModel(self.lambda_reg)
        model.beta_base = beta_base
        model.beta_candidate = beta_candidate
        model.coefficients = beta_base + candidate * beta_candidate
        model.row_predictions = a + b * candidate
        model.row_b = b
        return model

    def anchor(self, dataset: TabularDataset) -> float:
        """The query prediction ``a_q / (1 - b_q)`` that the augmented fit
        reproduces at its own candidate, clipped into the target range where
        the bound holds; from the dataset's one augmented solve, no solve of
        its own.

        At that candidate the augmented normal equations reduce to the
        observed rows' ones, so this is the observed-rows ridge prediction at
        penalty ``(n+1) * lambda_reg / n``.  Where the observed rows leave the
        query direction unpenalized (``b_q = 1``) the quotient is 0/0, and a
        computed ``1 - b_q`` there is rounding noise of either sign, so at or
        below ``_FREE_QUERY_TOL`` the anchor is the range's midpoint.
        """
        _, _, a, b = self._affine(dataset)
        lo, hi = dataset.target_range()
        free = 1.0 - float(b[-1])
        if free <= _FREE_QUERY_TOL:
            return 0.5 * (lo + hi)
        return min(max(float(a[-1]) / free, lo), hi)

    def stability_bound(self, dataset: TabularDataset, score) -> StabilityBounds:
        """The exact affine bound ``gamma * |b_i| * W`` over the target range,
        of width ``W``: the predictions are affine in the candidate, so this
        is the worst case, and ``b`` comes from the dataset's one augmented
        solve."""
        lo, hi = dataset.target_range()
        b = self._affine(dataset)[-1]
        return StabilityBounds(score.gamma * np.abs(b) * (hi - lo), "linear-exact",
                               candidate_range=(lo, hi))


class LadRidgeModel(LinearModel):
    """Least absolute deviation with a ridge penalty, solved to a certificate.

    Objective on ``m`` rows: ``||y - X beta||_1 / m + lambda_reg * ||beta||^2``.
    The solver is deterministic full-batch operator splitting (ADMM on the
    residual split, with a residual-balanced penalty rho).  One
    eigendecomposition of ``X^T X`` per fit diagonalizes the beta step for
    every rho, so a penalty change rescales a length-p vector and no
    iteration solves a linear system.  Clipping the scaled dual variable
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

    A fit on a read-only ``X`` keeps its design work: the finite check of
    ``X``, the eigendecomposition, ``Z = X Q`` and ``Z^T``.  A later
    ``fit_rows`` whose ``start`` was fitted on that very array object, still
    read-only, reuses it instead of recomputing it, so a refit chain on one
    read-only design takes one eigendecomposition; the iterates are the ones
    a recomputation gives.  Any other design, even an equal array, is
    decomposed anew, and a fit on a writable ``X`` keeps nothing, since its
    rows could change before the next fit.
    """

    def __init__(self, lambda_reg: float, solver_tol: float = 1e-8, max_iter: int = 50_000):
        # lambda_reg > 0: the objective must be strongly convex
        self.lambda_reg = _real(lambda_reg, "lambda_reg", 0, open_lo=True)
        self.solver_tol = _real(solver_tol, "solver_tol", 0, open_lo=True)
        self.max_iter = _integral(max_iter, "max_iter", 1)
        self.coefficients = None

    def _objective(self, X, y, beta) -> float:
        m = y.shape[0]
        return float(np.abs(y - X @ beta).sum() / m + self.lambda_reg * beta @ beta)

    def _dual_objective(self, X, y, theta) -> float:
        v = X.T @ theta
        return float(-theta @ y - (v @ v) / (4.0 * self.lambda_reg))

    @staticmethod
    def _diagonalized(X) -> tuple:
        """``(X, eigvals, Q, Z, Z^T)`` with ``X^T X = Q diag(eigvals) Q^T``
        (eigenvalues clamped at 0), ``Z = X Q`` and ``Z^T`` contiguous: the
        work of a fit that depends on the design alone."""
        X = _as_finite_array(X, "X", 2)
        if X.shape[0] == 0:
            raise InvalidInputError("cannot fit on zero rows")
        try:
            eigvals, Q = np.linalg.eigh(X.T @ X)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Gram matrix eigendecomposition failed: {exc}") from exc
        Z = X @ Q
        return X, np.maximum(eigvals, 0.0), Q, Z, np.ascontiguousarray(Z.T)

    def fit_rows(self, X, y, start=None) -> "LadRidgeModel":
        # a start fitted on this very read-only array lends its design work
        design = getattr(start, "_design", None)
        if design is None or design[0] is not X or X.flags.writeable:
            design = self._diagonalized(X)
        X, eigvals, Q, Z, Zt = design
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

        # The beta step is a ridge solve with penalty 2*lambda/rho, which one
        # eigendecomposition X^T X = Q diag(eigvals) Q^T diagonalizes for every
        # rho: in the rotated coordinates w = Q^T beta it reads
        # w = Z^T d / (eigvals + 2*lambda/rho) with Z = X Q, and the fitted
        # rows are Z w.  A penalty change rescales one length-p vector, so no
        # iteration solves a linear system.  The penalty is residual-balanced.
        denominator = eigvals + 2.0 * self.lambda_reg / rho
        threshold = 1.0 / (m * rho)
        relax = 1.7
        check_every = 10
        penalty_changes = 0

        # The iterate is kept as the pre-threshold residual r and its part c
        # clipped into [-1/(m rho), 1/(m rho)]: ADMM's residual split is
        # v = r - c and its scaled dual u = -c.  In these terms the beta step
        # acts on d = y - v - u = y - r + 2c, the relaxed residual is
        # r + relax * (y + c - r - fitted), and the soft threshold and dual
        # update fuse into one clip.  Both live in buffers updated in place.
        c = -u
        r = v + c
        e, d, fitted = np.empty(m), np.empty(m), np.empty(m)
        w = np.empty(p)

        for k in range(1, self.max_iter + 1):
            check = k % check_every == 0 or k == self.max_iter
            if check:
                v_old = r - c
            np.add(y, c, out=e)
            e -= r
            np.add(e, c, out=d)
            np.dot(Zt, d, out=w)
            w /= denominator
            np.dot(Z, w, out=fitted)
            e -= fitted
            e *= relax
            r += e
            np.minimum(r, threshold, out=c)
            np.maximum(c, -threshold, out=c)
            iterations = k
            if check:
                beta = Q @ w
                obj = self._objective(X, y, beta)
                if obj < best_obj:
                    best_obj = obj
                    best_beta = beta
                    accepted.append(obj)
                theta = np.clip(-rho * c, -1.0 / m, 1.0 / m)
                gap = max(best_obj - self._dual_objective(X, y, theta), 0.0)
                best_gap = min(best_gap, gap)
                if best_gap <= self.solver_tol:
                    break
                v = r - c
                primal_res = float(np.linalg.norm(fitted + v - y))
                dual_res = rho * float(np.linalg.norm(X.T @ (v - v_old)))
                if penalty_changes < 40:
                    # rescaling u keeps v: c -> c/2 with r -> r - c/2, or
                    # c -> 2c with r -> r + c
                    if primal_res > 10.0 * dual_res:
                        rho *= 2.0
                        c *= 0.5
                        r -= c
                    elif dual_res > 10.0 * primal_res:
                        rho /= 2.0
                        r += c
                        c *= 2.0
                    else:
                        continue
                    penalty_changes += 1
                    denominator = eigvals + 2.0 * self.lambda_reg / rho
                    threshold = 1.0 / (m * rho)

        model.coefficients = best_beta
        model.objective = best_obj
        model.duality_gap = best_gap
        model.converged = best_gap <= self.solver_tol
        model.iterations = iterations
        model.accepted_objectives = accepted
        model._admm_state = (r - c, -c, rho)  # where a warm start from this fit begins
        # only a read-only design can be lent: a writable one may change
        model._design = None if X.flags.writeable else design
        return model

    def anchor(self, dataset: TabularDataset) -> float:
        """The median of the observed responses; no fit.

        The Lipschitz-loss bound has no range, so every anchor gives a sound
        set, and a fit spent on a better guess only costs time.  The median
        is the L1 location of the responses, the LAD fit of a constant.
        """
        return float(np.median(dataset.targets))

    def fit(self, dataset: TabularDataset, candidate: float) -> "LadRidgeModel":
        X = dataset.augmented_design()
        y = dataset.augmented_targets(candidate)
        model = self.fit_rows(X, y)
        model.row_predictions = X @ model.coefficients
        return model

    def stability_bound(self, dataset: TabularDataset, score) -> StabilityBounds:
        """The Lipschitz-loss bound for candidate changes, on the whole line.

        Only the query row's term of the scaled L1 loss moves with the
        candidate, and that term is ``||x_query|| / m``-Lipschitz in the
        coefficients at every candidate; the penalty is
        ``2*lambda_reg``-strongly convex.  So the bound holds for any two
        candidates: it has no range.  (The naive whole-loss constant
        ``1/sqrt(m)`` is NOT sound here: the query row's leverage can exceed
        it, and measured deviations do cross that smaller bound.)  Row i's
        bound is ``2 * gamma * rho * ||x_i|| / (2 * lambda_reg)`` with
        ``rho = ||x_query|| / (n + 1)``.
        """
        rho = float(np.linalg.norm(dataset.test_point)) / (dataset.n + 1)
        norms = np.append(np.linalg.norm(dataset.features, axis=1),
                          np.linalg.norm(dataset.test_point[None, :], axis=1))
        tau = 2.0 * score.gamma * rho * norms / (2.0 * self.lambda_reg)
        return StabilityBounds(tau, "regularized-lipschitz")


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

    def anchor(self, dataset: TabularDataset) -> float:
        """Its own query prediction; nothing is fitted."""
        return self.predict(dataset.test_point)

    def fit(self, dataset: TabularDataset, candidate: float) -> "PretrainedLinearModel":
        model = PretrainedLinearModel(self.coefficients)
        model.row_predictions = dataset.augmented_design() @ self.coefficients
        return model
