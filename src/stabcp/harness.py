"""Benchmark protocol: repeated draws, per-method coverage/length/time.

Each repetition gets an independent dataset (a fresh synthetic draw, or a
fresh permutation of a fixed table with a new held-out row), runs every
requested method, and records whether the held-out response was covered, the
region length, the wall time, and the fit counter.  Aggregation normalizes
mean times by the oracle method's mean, which is therefore always run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .conformal import (
    _EPS_R,
    grid_cp,
    oracle_cp,
    root_cp,
    split_cp,
    stab_cp_interval,
)
from .core import (ScoreFunction, TabularDataset, _integral, _real, check_alpha,
                   default_candidate_grid)
from .data import GeneratorSpec, dataset_from_rows, generate
from .errors import DataError, InvalidInputError, NotFittedError, NumericalError
from .models import LadRidgeModel, RidgeModel

METHOD_NAMES = ("stabcp", "splitcp", "oraclecp", "rootcp", "gridcp")
MODEL_NAMES = ("ridge", "ladridge")
TAU_SOURCES = ("auto", "linear-exact")


# the solver certificate columns (None for closed-form fits) come after the
# original ones, so readers that index the first columns keep working
ROW_FIELDS = ("rep", "method", "covered", "length", "fit_count", "wall_time", "lo", "hi",
              "truncated", "tau_provenance", "tau_coverage_safe", "error",
              "iterations", "duality_gap", "converged")


@dataclass(frozen=True)
class RunConfig:
    """Method settings shared across benchmark repetitions; the CLI's defaults.

    The anchor is no setting, nor is the bound: every single-fit set reads
    both from its model (``anchor``, ``stability_bound``), and every set
    searches and records the observed target range.
    """

    model: str = "ridge"
    lambda_reg: float = 0.5
    solver_tol: float = 1e-8
    max_iter: int = 50_000
    alpha: float = 0.1
    tau_source: str = "auto"  # not a setting: read by no bound, kept for perfbench
    grid_size: int = 200
    split_fraction: float = 0.5
    eps_r = _EPS_R  # not a field: the library's one bisection tolerance, read by perfbench

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise InvalidInputError(f"unknown model {self.model!r}")
        # every numeric field is checked whatever the model, and kept as checked
        for name, value in (
                ("lambda_reg", _real(self.lambda_reg, "lambda_reg", 0)),
                ("solver_tol", _real(self.solver_tol, "solver_tol", 0, open_lo=True)),
                ("max_iter", _integral(self.max_iter, "max_iter", 1)),
                ("alpha", check_alpha(self.alpha)),
                ("grid_size", _integral(self.grid_size, "grid_size", 1)),
                ("split_fraction", _real(self.split_fraction, "split_fraction", 0, 1,
                                         open_lo=True))):
            object.__setattr__(self, name, value)
        self.model_spec()  # the model's own checks: LAD-ridge needs lambda_reg > 0
        if self.tau_source not in TAU_SOURCES:
            raise InvalidInputError(f"unknown tau source {self.tau_source!r}")
        if self.tau_source == "linear-exact" and self.model != "ridge":
            raise InvalidInputError("linear-exact bounds need the ridge model")

    def model_spec(self):
        if self.model == "ridge":
            return RidgeModel(self.lambda_reg)
        return LadRidgeModel(self.lambda_reg, self.solver_tol, self.max_iter)

    def split_index(self, n: int) -> int:
        """Rows of ``n`` that fit the split model; at least one on each side."""
        return max(1, min(n - 1, int(round(n * self.split_fraction))))


def build_tau(config: RunConfig, dataset: TabularDataset, score: ScoreFunction):
    """The configured model's own stability bound, as ``(tau, 0)``.

    perfbench only, which passes it to ``stab_cp_bisection``; deleted with
    the benchmark change that stops calling it (ROADMAP item 6).  ``score``
    is unread and the second value a placeholder.
    """
    return config.model_spec().stability_bound(dataset), 0


def resolve_anchor(config: RunConfig, dataset: TabularDataset) -> tuple[float, None]:
    """The configured model's own ``anchor``, as ``(anchor, None)``.

    perfbench only, as ``build_tau`` is; the second value is a placeholder.
    """
    return config.model_spec().anchor(dataset), None


def run_method(method: str, dataset: TabularDataset, config: RunConfig,
               score: ScoreFunction | None = None):
    """Run one method on one dataset, timing everything it needs end to end."""
    if method not in METHOD_NAMES:
        raise InvalidInputError(f"unknown method {method!r}")
    score = score or ScoreFunction.absolute_residual()
    spec = config.model_spec()
    started = time.perf_counter()

    if method == "stabcp":
        report = stab_cp_interval(dataset, spec, score, config.alpha)
    elif method == "splitcp":
        report = split_cp(dataset, config.split_index(dataset.n), spec, score, config.alpha)
    elif method == "oraclecp":
        if dataset.test_target is None:
            raise InvalidInputError("oracle method needs the true target")
        report = oracle_cp(dataset, dataset.test_target, spec, score, config.alpha)
    elif method == "rootcp":
        report = root_cp(dataset, spec, score, config.alpha)
    else:  # gridcp
        grid = default_candidate_grid(dataset, config.grid_size)
        report = grid_cp(dataset, spec, score, config.alpha, grid)

    report.wall_time = time.perf_counter() - started
    report.details.setdefault("tau_provenance", None)
    return report


def synthetic_source(spec: GeneratorSpec):
    """Repetition source drawing a fresh dataset per seed, same law."""
    def draw(rep_seed: int) -> TabularDataset:
        return generate(replace(spec, seed=rep_seed))
    return draw


def permutation_source(dataset: TabularDataset):
    """Repetition source permuting a fixed table, fresh held-out row each time."""
    if dataset.test_target is None:
        raise InvalidInputError("permutation benchmarking needs the query row's true target")
    X = dataset.augmented_design()
    y = dataset.augmented_targets(dataset.test_target)

    def draw(rep_seed: int) -> TabularDataset:
        order = np.random.default_rng(_integral(rep_seed, "rep_seed", 0)).permutation(X.shape[0])
        Xp, yp = X[order], y[order]
        return dataset_from_rows(Xp, yp, Xp.shape[0] - 1, meta={"mode": "permutation"})
    return draw


def _one_repetition(rep: int, rep_seed: int, source, methods, config: RunConfig):
    dataset = source(rep_seed)
    rows = []
    for method in methods:
        row = dict.fromkeys(ROW_FIELDS)
        row.update(rep=rep, method=method)
        try:
            # A fresh dataset (same arrays, empty memo) per method, so no method
            # is timed on work another one left in the memo.
            report = run_method(method, replace(dataset), config)
        except (InvalidInputError, NumericalError, NotFittedError, DataError) as exc:
            row["error"] = str(exc)  # the library's own failures; a bug propagates
        else:
            intervals = report.set.intervals
            row.update(
                covered=report.covered, length=report.length,
                fit_count=report.fit_count, wall_time=report.wall_time,
                lo=intervals[0][0] if intervals else None,
                hi=intervals[-1][1] if intervals else None,
                truncated=report.set.truncated,
                tau_provenance=report.details.get("tau_provenance"),
                tau_coverage_safe=report.details.get("tau_coverage_safe"),
                **{key: report.details.get(key)
                   for key in ("iterations", "duality_gap", "converged")},
            )
        rows.append(row)
    return rows


def _coverage(rows):
    covered = [bool(row["covered"]) for row in rows if row["covered"] is not None]
    return float(np.mean(covered)) if covered else None


def run_benchmark(source, methods, repetitions: int, seed: int, config: RunConfig):
    """Full protocol: returns (report dict, per-repetition rows).

    The oracle method is always included so times can be normalized by its
    mean.  ``coverage`` averages only the repetitions whose bound is
    coverage-safe; ``coverage_unvalidated`` averages the flagged ones and is
    present only when some repetition is flagged.
    """
    repetitions = _integral(repetitions, "repetitions", 1)
    seed = _integral(seed, "seed", 0)
    methods = list(dict.fromkeys(methods))
    if not methods:
        raise InvalidInputError("need at least one method")
    for method in methods:
        if method not in METHOD_NAMES:
            raise InvalidInputError(f"unknown method {method!r}")
    if "oraclecp" not in methods:
        methods.append("oraclecp")

    rep_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=repetitions)
    rows = [row for rep in range(repetitions)
            for row in _one_repetition(rep, rep_seeds[rep], source, methods, config)]

    per_method = {}
    for method in methods:
        ok = [row for row in rows if row["method"] == method and row["error"] is None]
        failures = sum(1 for row in rows if row["method"] == method and row["error"] is not None)
        if not ok:
            per_method[method] = {"failures": failures, "repetitions": 0}
            continue
        lengths = np.array([row["length"] for row in ok], dtype=float)
        times = np.array([row["wall_time"] for row in ok], dtype=float)
        fits = np.array([row["fit_count"] for row in ok], dtype=int)
        flagged = [row for row in ok if row["tau_coverage_safe"] is False]
        entry = {
            "repetitions": len(ok),
            "failures": failures,
            "length_mean": float(lengths.mean()),
            "length_q25": float(np.percentile(lengths, 25)),
            "length_q50": float(np.percentile(lengths, 50)),
            "length_q75": float(np.percentile(lengths, 75)),
            "time_mean_s": float(times.mean()),
            "fit_count_total": int(fits.sum()),
            "fit_count_mean": float(fits.mean()),
            "tau_unsafe": bool(flagged),
            "coverage": _coverage([row for row in ok if row["tau_coverage_safe"] is not False]),
        }
        if flagged:
            entry["coverage_unvalidated"] = _coverage(flagged)
        per_method[method] = entry

    oracle_mean = per_method.get("oraclecp", {}).get("time_mean_s")
    for entry in per_method.values():
        if oracle_mean and entry.get("time_mean_s") is not None:
            entry["time_normalized"] = entry["time_mean_s"] / oracle_mean
        else:
            entry["time_normalized"] = None

    report = {
        "schema": "stabcp/benchmark/1",
        "repetitions": repetitions,
        "seed": seed,
        "alpha": config.alpha,
        "model": config.model,
        "lambda_reg": config.lambda_reg,
        "tau_source": config.tau_source,
        "methods": per_method,
    }
    return report, rows
