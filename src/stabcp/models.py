"""Symmetric regression fitters and the stability bounds they support.

Every model follows one protocol:

- ``fit(dataset, candidate)`` fits on the n+1 augmented rows and returns a
  model whose ``row_predictions`` hold the predictions at those rows, query
  row last; it may reuse work that depends only on the dataset, which is a
  snapshot (ridge keeps one augmented solve per dataset and penalty, so
  every further ``fit`` on it costs O(n); LAD-ridge keeps one diagonalized
  augmented design per dataset, the tuple ``fit_rows`` lends, and each fit
  per settings and candidate, so a second ``fit`` at a candidate runs no
  solver and one at a new candidate only the solver);
- ``fit_rows(X, y, start=None)`` fits on the given rows only, from scratch,
  or from an earlier ``fit_rows`` result on the same rows passed as
  ``start``; never from the dataset memo.  It returns a model whose
  ``coefficients`` serve ``predict``/``predict_rows``; the refit baselines
  use it, so they stay an independent check of ``fit``, and pass each refit
  the refit at the nearest candidate refitted so far as ``start`` (only the
  iterative model uses it: the start sets where its solver begins, shifted
  to the new targets, and, when it was fitted on the very same read-only
  ``X``, lends the work that depends on ``X`` alone);
- ``anchor(dataset)`` returns the single-fit anchor, a finite float inside
  every range on which the model's own bound holds; no model spends a fit on
  it.  Ridge's is the self-consistent query prediction ``a_q / (1 - b_q)`` of
  its augmented solve, clipped into the target range; LAD-ridge's is the
  median of the observed responses, since its bound holds on the whole line
  and any anchor gives a sound set;
- ``stability_bound(dataset)`` builds the model's one per-row
  :class:`~stabcp.stability.StabilityBounds` on how far its predictions move,
  in target units; no other code builds it, and it reads no score.  Ridge's
  is the exact affine bound over ``dataset.target_range()``, the one
  candidate range of every set; LAD-ridge's is the Lipschitz-loss bound,
  which carries no range and holds on the whole line; a pretrained model's
  is zero on the whole line, since its predictions never move.

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


def _solve_normal_equations(system: np.ndarray, rhs: np.ndarray, m: int,
                            lambda_reg: float) -> np.ndarray:
    """Solve ``(system + m * lambda_reg * I) beta = rhs`` for a fit on ``m`` rows.

    The penalty is added to ``system``'s diagonal in place, so the caller
    passes a fresh matrix.
    """
    system.flat[::system.shape[0] + 1] += m * lambda_reg
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal equations are singular: {exc}") from exc


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

    The augmented solve is made once per dataset and penalty and kept in the
    dataset's memo, which holds nothing else of ridge's; ``fit`` at any
    candidate then costs O(n).  ``fit_rows`` never reads the memo.
    """

    def __init__(self, lambda_reg: float = 1.0):
        self.lambda_reg = _real(lambda_reg, "lambda_reg", 0)
        self.coefficients = None

    def fit_rows(self, X, y, start=None) -> "RidgeModel":
        """Plain fit on the given rows, no augmentation: the minimizer
        ``beta`` of the objective on ``m = len(y)`` rows, from
        ``(X^T X + m * lambda_reg * I) beta = X^T y``; closed form, so
        ``start`` is ignored.  With ``lambda_reg = 0`` the Gram matrix must
        be invertible."""
        X = _as_finite_array(X, "X", 2)
        y = _as_finite_array(y, "y", 1)
        if X.shape[0] != y.shape[0]:
            raise InvalidInputError("X and y row counts differ")
        if X.shape[0] == 0:
            raise InvalidInputError("cannot fit on zero rows")
        model = RidgeModel(self.lambda_reg)
        model.coefficients = _solve_normal_equations(X.T @ X, X.T @ y, X.shape[0],
                                                     self.lambda_reg)
        return model

    def _affine(self, dataset: TabularDataset) -> tuple[np.ndarray, ...]:
        """``(beta_base, beta_candidate, a, b)`` on the augmented rows, solved once.

        The arrays are read-only: every fit on the dataset shares them.
        """
        return dataset._memoized(("ridge-affine", self.lambda_reg), self._solve_affine, dataset)

    def _solve_affine(self, dataset: TabularDataset) -> tuple[np.ndarray, ...]:
        X, x = dataset.features, dataset.test_point
        system = np.multiply.outer(x, x)
        system += X.T @ X
        rhs = np.empty((x.shape[0], 2))
        rhs[:, 0], rhs[:, 1] = X.T @ dataset.targets, x
        solved = _solve_normal_equations(system, rhs, dataset.n + 1, self.lambda_reg)
        rows = np.empty((dataset.n + 1, 2))
        np.matmul(X, solved, out=rows[:-1])
        np.matmul(x, solved, out=rows[-1])
        return tuple(_read_only(v) for v in (*solved.T, *rows.T))

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

    def stability_bound(self, dataset: TabularDataset) -> StabilityBounds:
        """The exact affine bound ``|b_i| * W`` over the target range, of
        width ``W``: the predictions are affine in the candidate, so this is
        the worst case, and ``b`` comes from the dataset's one augmented
        solve."""
        lo, hi = dataset.target_range()
        tau = np.abs(self._affine(dataset)[-1])
        tau *= hi - lo
        return StabilityBounds(tau, "linear-exact", candidate_range=(lo, hi))


class LadRidgeModel(LinearModel):
    """Least absolute deviation with a ridge penalty, solved to a certificate.

    Objective on ``m`` rows: ``||y - X beta||_1 / m + lambda_reg * ||beta||^2``.
    The solver is deterministic full-batch operator splitting (ADMM on the
    residual split, with a residual-balanced penalty rho).  One
    eigendecomposition of ``X^T X`` diagonalizes the beta step for every
    rho, so a penalty change rescales a length-p vector and no iteration
    solves a linear system.  An iteration is eleven in-place numpy
    calls on preallocated buffers, with its scalar operands as 0-d arrays;
    the gap check comes after every tenth and after the last, and the
    iterations between checks run with no test.  Clipping the scaled dual
    variable into the feasible box gives a duality gap at every check, so the
    returned iterate carries an explicit suboptimality certificate; the
    incumbent is the best primal point seen.
    Hitting ``max_iter`` without reaching ``solver_tol`` is reported through
    ``converged``/``duality_gap``, not raised.

    ``fit(dataset, candidate)`` keeps in the dataset's memo the augmented
    design diagonalized once, the read-only ``(X, eigvals, Q, Z, Z^T)`` that
    a read-only ``fit_rows`` lends its refits (three (n+1)-by-p arrays, X, Z
    and Z^T: 144 KB at n = 300, p = 20), and each fit it returns, per
    ``(lambda_reg, solver_tol, max_iter, candidate)`` (O(n) each).  Every
    set at one anchor, whatever its level or score, so shares one ADMM run,
    and a fit at a new candidate on the dataset runs only the solver.  It is
    the same cold fit, iterate for iterate, as ``fit_rows`` on the augmented
    rows, and its ``coefficients`` and ``row_predictions`` are read-only,
    since every later ``fit`` at that candidate returns the same model.

    ``fit_rows(X, y, start=fit)`` warm-starts from an earlier ``fit`` or
    ``fit_rows`` result on as many rows (the refit baselines pass each refit
    the refit at the nearest candidate, which differs only in the query
    target).  The warm state follows the targets: a fit keeps its final
    split's fitted part ``y - v``, not ``v``, with its scaled dual ``u`` and
    penalty rho, so ADMM begins with ``v`` the residuals of the *new* targets
    against that fitted part, and the start's ``coefficients`` are the first
    incumbent.  Where the query residual keeps its sign the solution does not
    move (the KKT conditions of the L1 loss), and the warm fit's iterates are
    the start's own, so its first check certifies it.  The state is computed
    afresh and aliases no array of the caller.  The stopping rule,
    certificate and penalty-change cap are those of a cold fit, so a warm fit
    meets the same ``solver_tol``.

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

    @staticmethod
    def _diagonalized(X) -> tuple:
        """``(X, eigvals, Q, Z, Z^T)`` with ``X^T X = Q diag(eigvals) Q^T``,
        eigenvalues clamped at 0, ``Z = X Q`` and ``Z^T`` contiguous: the
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
        model = self._admm(design, y, start)
        # only a read-only design can be lent: a writable one may change
        model._design = None if design[0].flags.writeable else design
        return model

    def _admm(self, design: tuple, y, start) -> "LadRidgeModel":
        """The fit on ``design``'s rows (``_diagonalized``) and targets ``y``,
        cold or from ``start``: the one solver of ``fit`` and ``fit_rows``."""
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
            f, u, rho = state
            if f.shape != (m,) or start.coefficients.shape != (p,):
                raise InvalidInputError(
                    f"start was fitted on {f.shape[0]} rows and {start.coefficients.shape[0]} "
                    f"columns, expected {m} and {p}")
            # the split's fitted part carries over; its residual part is the
            # new targets' residuals
            v = y - f
            best_beta = start.coefficients.copy()
        lam, tol, max_iter = self.lambda_reg, self.solver_tol, self.max_iter
        Xt = X.T

        def objective(beta) -> float:
            # the primal objective; ndarray.dot skips the dispatch of np.dot and @
            return float(np.abs(y - X.dot(beta)).sum() / m + (lam * beta).dot(beta))

        best_obj = objective(best_beta)
        best_gap = math.inf
        iterations = 0

        # The beta step is a ridge solve with penalty 2*lambda/rho, which one
        # eigendecomposition X^T X = Q diag(eigvals) Q^T diagonalizes for every
        # rho: in the rotated coordinates w = Q^T beta it reads
        # w = Z^T d / (eigvals + 2*lambda/rho) with Z = X Q, and the fitted
        # rows are Z w.  A penalty change rescales one length-p vector, so no
        # iteration solves a linear system.  The penalty is residual-balanced.
        # The scalar operands are 0-d arrays, refreshed when rho changes:
        # numpy takes them without the conversion a Python float costs on
        # every call.
        denominator = eigvals + 2.0 * lam / rho
        threshold = np.array(1.0 / (m * rho))
        neg_threshold = -threshold
        relax = np.array(1.7)
        dual_box = np.array(1.0 / m)
        neg_dual_box = -dual_box
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
        e, d, fitted, theta = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
        w = np.empty(p)

        # ``steps`` iterations with no test between them; the ufuncs are
        # bound once, as defaults, not looked up on numpy at every call
        def advance(steps: int, add=np.add, minimum=np.minimum, maximum=np.maximum) -> None:
            nonlocal e, r, w
            for _ in range(steps):
                add(y, c, out=e)
                e -= r
                add(e, c, out=d)
                Zt.dot(d, out=w)
                w /= denominator
                Z.dot(w, out=fitted)
                e -= fitted
                e *= relax
                r += e
                minimum(r, threshold, out=c)
                maximum(c, neg_threshold, out=c)

        # a gap check ends every block of check_every iterations and the
        # last, shorter block at max_iter; v_old is the split before the
        # block's last step
        while iterations < max_iter:
            block = min(check_every, max_iter - iterations)
            advance(block - 1)
            v_old = r - c
            advance(1)
            iterations += block
            beta = Q.dot(w)
            obj = objective(beta)
            if obj < best_obj:
                best_obj = obj
                best_beta = beta
            # the scaled dual -rho c clipped into the dual box [-1/m, 1/m]
            np.multiply(c, -rho, out=theta)
            np.minimum(theta, dual_box, out=theta)
            np.maximum(theta, neg_dual_box, out=theta)
            xt_theta = Xt.dot(theta)
            dual_obj = -theta.dot(y) - xt_theta.dot(xt_theta) / (4.0 * lam)
            best_gap = min(best_gap, max(best_obj - float(dual_obj), 0.0))
            if best_gap <= tol:
                break
            if penalty_changes < 40:
                v = r - c
                primal = fitted + v - y
                dual = Xt.dot(v - v_old)
                # np.linalg.norm of a 1-d float vector, by its own formula
                primal_res = math.sqrt(primal.dot(primal))
                dual_res = rho * math.sqrt(dual.dot(dual))
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
                denominator = eigvals + 2.0 * lam / rho
                threshold = np.array(1.0 / (m * rho))
                neg_threshold = -threshold

        model.coefficients = best_beta
        model.objective = best_obj
        model.duality_gap = best_gap
        model.converged = best_gap <= tol
        model.iterations = iterations
        # where a warm start from this fit begins: the split's fitted part
        # y - v, so a start on other targets shifts v by their difference
        model._admm_state = (y - (r - c), -c, rho)
        return model

    def anchor(self, dataset: TabularDataset) -> float:
        """The median of the observed responses; no fit.

        The Lipschitz-loss bound has no range, so every anchor gives a sound
        set, and a fit spent on a better guess only costs time.  The median
        is the L1 location of the responses, the LAD fit of a constant.
        """
        # by partition: np.median imports numpy.ma on its first call
        half = dataset.n // 2
        lower, upper = np.partition(dataset.targets, (half - 1, half))[half - 1:half + 1]
        return float(upper if dataset.n % 2 else (lower + upper) / 2)

    def fit(self, dataset: TabularDataset, candidate: float) -> "LadRidgeModel":
        """The cold fit on the augmented rows, made once per dataset, settings
        and candidate from the dataset's one eigendecomposition."""
        candidate = _real(candidate, "candidate")
        key = ("lad-fit", self.lambda_reg, self.solver_tol, self.max_iter, candidate)
        return dataset._memoized(key, self._fit_augmented, dataset, candidate)

    def _fit_augmented(self, dataset: TabularDataset, candidate: float) -> "LadRidgeModel":
        """``fit``'s memo entry: the cold fit, its arrays read-only, on the
        dataset's one diagonalized augmented design."""
        design = dataset._memoized("lad-design", lambda: tuple(
            _read_only(v) for v in self._diagonalized(dataset.augmented_design())))
        model = self._admm(design, dataset.augmented_targets(candidate), None)
        model.coefficients = _read_only(model.coefficients)
        model.row_predictions = _read_only(design[0] @ model.coefficients)
        fitted, dual, rho = model._admm_state
        model._admm_state = (_read_only(fitted), _read_only(dual), rho)
        return model

    def stability_bound(self, dataset: TabularDataset) -> StabilityBounds:
        """The Lipschitz-loss bound for candidate changes, on the whole line.

        Only the query row's term of the scaled L1 loss moves with the
        candidate, and that term is ``||x_query|| / m``-Lipschitz in the
        coefficients at every candidate; the penalty is
        ``2*lambda_reg``-strongly convex.  So the bound holds for any two
        candidates: it has no range.  (The naive whole-loss constant
        ``1/sqrt(m)`` is NOT sound here: the query row's leverage can exceed
        it, and measured deviations do cross that smaller bound.)  Row i's
        bound is ``2 * rho * ||x_i|| / (2 * lambda_reg)`` with
        ``rho = ||x_query|| / (n + 1)``.
        """
        rho = float(np.linalg.norm(dataset.test_point)) / (dataset.n + 1)
        norms = np.append(np.linalg.norm(dataset.features, axis=1),
                          np.linalg.norm(dataset.test_point[None, :], axis=1))
        tau = 2.0 * rho * norms / (2.0 * self.lambda_reg)
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

    def stability_bound(self, dataset: TabularDataset) -> StabilityBounds:
        """The exact zero bound, on the whole line: no prediction moves."""
        return StabilityBounds(np.zeros(dataset.n + 1), "linear-exact")

    def fit(self, dataset: TabularDataset, candidate: float) -> "PretrainedLinearModel":
        model = PretrainedLinearModel(self.coefficients)
        model.row_predictions = dataset.augmented_design() @ self.coefficients
        return model
