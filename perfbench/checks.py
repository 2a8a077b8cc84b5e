"""Output checks, run after the timed phase.

Every set must have finite, ordered, disjoint endpoints.  Each single-fit set
(stabcp, bisect) must contain the exact full-conformal set inside the
candidate range:

- for ridge the exact set is computed here, independently of the program,
  from the affine-in-candidate decomposition ``mu_z(x_j) = a_j + b_j z`` of
  the ridge fit on the augmented rows;
- for LAD-ridge the reference is the same draw's rootcp interval, to within
  its bisection tolerance ``eps_r``.

The coverage of the sets backed by a coverage-safe stability bound must reach
``1 - alpha - 3 SE`` over the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_REL_TOL = 1e-9


@dataclass
class SetRecord:
    """What the client kept of one attempted prediction set."""

    request: int
    method: str
    seconds: float
    intervals: list | None = None
    shape: str | None = None
    truncated: bool = False
    covered: bool | None = None
    length: float | None = None
    coverage_safe: bool = False
    error: str | None = None
    reference: float = math.nan   # seconds of the reference computation around the set

    @classmethod
    def from_report(cls, request: int, method: str, seconds: float, report) -> "SetRecord":
        return cls(request, method, seconds, list(report.set.intervals), report.set.shape,
                   bool(report.set.truncated), report.covered, report.length,
                   report.details.get("tau_coverage_safe") is True)


def ridge_affine(features, targets, query, lambda_reg, gram=None, xty=None):
    """``(a, b)`` over the n+1 augmented rows (query last) of the ridge fit.

    Solves ``(X'X + m lambda I) beta = X'y`` on the augmented rows with the
    query response left as the unknown ``z``; ``gram``/``xty`` of the
    observed rows may be passed in when several queries share them.
    """
    if gram is None:
        gram = features.T @ features
        xty = features.T @ targets
    m = features.shape[0] + 1
    system = gram + np.outer(query, query) + m * lambda_reg * np.eye(query.size)
    beta = np.linalg.solve(system, np.column_stack([xty, query]))
    a = np.append(features @ beta[:, 0], query @ beta[:, 0])
    b = np.append(features @ beta[:, 1], query @ beta[:, 1])
    return a, b


def exact_set(targets, a, b, alpha: float, z_range) -> list[tuple[float, float]]:
    """Exact full-conformal set inside ``z_range`` for an affine-in-z predictor.

    Holds for every score that is an increasing function of the absolute
    residual (the absolute residual itself, Huber), because such scores rank
    the rows as their absolute residuals do.  The candidate z is in the set
    when ``1 + #{i : |r_i(z)| <= |r_q(z)|} <= floor((1 - alpha)(n + 1))``.
    Each indicator changes only where ``r_i^2 - r_q^2``, the product of two
    affine functions of z, changes sign, so one sweep over those roots gives
    the count on every open piece of the range.
    """
    targets = np.asarray(targets, dtype=float)
    n = targets.size
    z_lo, z_hi = float(z_range[0]), float(z_range[1])
    u, v = targets - a[:n], -b[:n]          # r_i(z) = u_i + v_i z
    c, d = -a[n], 1.0 - b[n]                # r_q(z) = c + d z
    threshold = math.floor((1.0 - alpha) * (n + 1) + 1e-9)

    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.column_stack([-(u - c) / (v - d), -(u + c) / (v + d)])
    roots[~((roots > z_lo) & (roots < z_hi))] = np.nan
    roots.sort(axis=1)                       # NaNs last
    events = roots[~np.isnan(roots)]
    start = 0.5 * (z_lo + (events.min() if events.size else z_hi))
    inside = np.abs(u + v * start) <= abs(c + d * start)
    first = np.where(inside, -1, 1)          # a row's first crossing leaves or enters
    flips = np.concatenate([first[~np.isnan(roots[:, 0])], -first[~np.isnan(roots[:, 1])]])
    where = np.concatenate([roots[:, 0][~np.isnan(roots[:, 0])],
                            roots[:, 1][~np.isnan(roots[:, 1])]])
    order = np.argsort(where, kind="stable")
    edges = np.concatenate([[z_lo], where[order], [z_hi]])
    counts = np.concatenate([[np.count_nonzero(inside)],
                             np.count_nonzero(inside) + np.cumsum(flips[order])])
    keep = (counts + 1 <= threshold) & (edges[1:] > edges[:-1])
    intervals: list[tuple[float, float]] = []
    for lo, hi in zip(edges[:-1][keep], edges[1:][keep]):
        if intervals and lo <= intervals[-1][1]:
            intervals[-1] = (intervals[-1][0], float(hi))
        else:
            intervals.append((float(lo), float(hi)))
    return intervals


def endpoint_problem(record: SetRecord) -> str | None:
    """Why the set's endpoints are malformed, or None."""
    previous = -math.inf
    for lo, hi in record.intervals:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return f"non-finite endpoint ({lo}, {hi})"
        if lo > hi:
            return f"reversed interval ({lo}, {hi})"
        if lo <= previous:
            return "intervals not ascending and disjoint"
        previous = hi
    return None


def containment_problem(record: SetRecord, reference, tolerance: float) -> str | None:
    """Why the set fails to contain every reference interval, or None."""
    if record.shape == "whole-range":
        return None
    for lo, hi in reference:
        if not any(s_lo - tolerance <= lo and hi <= s_hi + tolerance
                   for s_lo, s_hi in record.intervals):
            return f"{record.method} set {record.intervals} misses exact piece ({lo}, {hi})"
    return None


class Checker:
    """Checks every record of a run against the workload's reference."""

    def __init__(self, workload, inputs, alpha: float, eps_r: float):
        self.workload = workload
        self.inputs = inputs
        self.alpha = alpha
        self.eps_r = eps_r
        self.gram = self.xty = None
        if workload.shared_training:
            self.gram = inputs.train_features.T @ inputs.train_features
            self.xty = inputs.train_features.T @ inputs.train_targets

    def reference(self, request: int, records: list[SetRecord]):
        """Exact set inside the range, and the tolerance a single-fit set gets."""
        dataset = self.inputs.dataset(request)
        z_range = dataset.target_range()
        width = z_range[1] - z_range[0]
        tolerance = _REL_TOL * (width + max(abs(z_range[0]), abs(z_range[1])))
        if self.workload.model == "ridge":
            a, b = ridge_affine(dataset.features, dataset.targets, dataset.test_point,
                                self.workload.lambda_reg, self.gram, self.xty)
            return exact_set(dataset.targets, a, b, self.alpha, z_range), tolerance
        root = next((r for r in records if r.method == "rootcp" and r.error is None), None)
        if root is None:
            return None, tolerance
        return [(lo, hi) for lo, hi in root.intervals], tolerance + self.eps_r

    def check(self, records: list[SetRecord]) -> list[str]:
        """Mark failed records in place; return one message per failure."""
        messages = []
        by_request: dict[int, list[SetRecord]] = {}
        for record in records:
            by_request.setdefault(record.request, []).append(record)
        for request, group in by_request.items():
            reference = None
            for record in group:
                if record.error is None:
                    problem = endpoint_problem(record)
                    if problem is None and record.method in ("stabcp", "bisect"):
                        if reference is None:
                            reference = self.reference(request, group)
                        exact, tolerance = reference
                        if record.method == "bisect":
                            tolerance += self.eps_r
                        if exact is not None:
                            problem = containment_problem(record, exact, tolerance)
                    if problem is not None:
                        record.error = problem
                if record.error is not None:
                    messages.append(f"request {request} {record.method}: {record.error}")
        return messages


def coverage(records: list[SetRecord], method: str) -> tuple[float, int]:
    """Share of the method's sets that covered the truth; failed sets miss."""
    mine = [r for r in records if r.method == method]
    hits = sum(1 for r in mine if r.error is None and r.covered)
    return hits / max(len(mine), 1), len(mine)


def coverage_gate(records: list[SetRecord], alpha: float) -> list[str]:
    """Coverage-safe methods whose run coverage is below ``1 - alpha - 3 SE``."""
    safe = sorted({r.method for r in records if r.coverage_safe})
    problems = []
    for method in safe:
        rate, count = coverage(records, method)
        floor = 1.0 - alpha - 3.0 * math.sqrt(alpha * (1.0 - alpha) / count)
        if rate < floor:
            problems.append(f"{method} coverage {rate:.4f} over {count} sets "
                            f"is below 1 - alpha - 3 SE = {floor:.4f}")
    return problems
