"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v --capture=tee-sys`` to see the
per-criterion lines while the suite executes.  Every tolerance is pinned here,
not configurable.
"""

import math
import time

import numpy as np
import pytest

import stabcp
from stabcp import (
    GeneratorSpec,
    LadRidgeModel,
    PretrainedLinearModel,
    RidgeModel,
    ScoreFunction,
    TabularDataset,
    anchor_bounds,
    conformity_scores,
    default_candidate_grid,
    gen_linear_gaussian,
    grid_cp,
    oracle_cp,
    pi_exact,
    rank,
    root_cp,
    split_cp,
    stab_cp_interval,
)
from stabcp.harness import RunConfig, run_benchmark, run_method, synthetic_source

ABS = ScoreFunction.absolute_residual()


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status} — {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_coverage_at_scale():
    # linear-gaussian n=300 p=20 noise 1, ridge + exact affine bounds,
    # alpha = 0.1, 200 repetitions; bar = 0.9 - 3*sqrt(0.09/200).
    started = time.perf_counter()
    reps, alpha = 200, 0.1
    bar = (1 - alpha) - 3 * math.sqrt(alpha * (1 - alpha) / reps)
    config = RunConfig(model="ridge", lambda_reg=0.5, alpha=alpha, split_fraction=0.5)
    source = synthetic_source(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 0))
    report, _ = run_benchmark(source, ["stabcp", "splitcp"], reps, seed=2024,
                              config=config)
    elapsed = time.perf_counter() - started
    cov_stab = report["methods"]["stabcp"]["coverage"]
    cov_split = report["methods"]["splitcp"]["coverage"]
    ok = cov_stab >= bar and cov_split >= bar and elapsed < 120.0
    _line(1, ok, f"stabCP coverage {cov_stab:.3f}, splitCP {cov_split:.3f} "
                 f"(bar {bar:.3f}), {elapsed:.1f} s (< 120 s)")


def test_criterion_02_sandwich_exact_rank_arithmetic():
    # pi_lo <= pi_exact <= pi_up at every grid point, compared through the
    # integer indicator counts (no float tolerance).
    started = time.perf_counter()
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 100, 10, 1.0, 7))
    spec = RidgeModel(0.5)
    anchor = spec.anchor(ds)
    tau = spec.stability_bound(ds)
    bounds, _ = anchor_bounds(ds, anchor, spec, ABS, tau)
    grid = default_candidate_grid(ds, 200)
    worst = 0
    for z in grid:
        pb = bounds.pi_bounds_at(z)
        scores = conformity_scores(ds, z, spec.fit(ds, z), ABS)
        exact_rank = rank(scores, ds.n + 1)
        # pi_lo <= pi_exact  <=>  exact_rank <= n_lo; pi_exact <= pi_up <=> n_up <= rank
        if not (pb.n_up <= exact_rank <= pb.n_lo):
            worst += 1
    elapsed = time.perf_counter() - started
    ok = worst == 0 and elapsed < 30.0
    _line(2, ok, f"200 grid points, {worst} sandwich violations "
                 f"(integer ranks), {elapsed:.1f} s (< 30 s)")


def test_criterion_03_grid_set_contained_in_single_fit_set():
    instances, violations = 50, 0
    for seed in range(instances):
        ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 50, 5, 1.0, seed))
        spec = RidgeModel(0.5)
        anchor = spec.anchor(ds)
        tau = spec.stability_bound(ds)
        stab = stab_cp_interval(ds, anchor, spec, ABS, tau, 0.1)
        grid = default_candidate_grid(ds, 100)
        oracle = grid_cp(ds, spec, ABS, 0.1, grid).set
        for z in grid:
            if oracle.contains(z) and not stab.set.contains(z):
                violations += 1
    ok = violations == 0
    _line(3, ok, f"{instances} instances, {violations} containment violations")


def test_criterion_04_interval_and_bisection_agree():
    # the bisection extraction runs on the absolute residual given as a custom
    # score; the built-in one takes the closed form
    custom_abs = ScoreFunction.custom(lambda q, m: np.abs(q - m), 1.0)
    instances, eps_r = 50, 1e-4
    worst = 0.0
    outer = True
    for seed in range(100, 100 + instances):
        ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 50, 5, 1.0, seed))
        spec = RidgeModel(0.5)
        anchor = spec.anchor(ds)
        tau = spec.stability_bound(ds)
        interval = stab_cp_interval(ds, anchor, spec, ABS, tau, 0.1)
        (ilo, ihi), = interval.set.intervals
        bisect = stab_cp_interval(ds, anchor, spec, custom_abs, tau, 0.1)
        (blo, bhi), = bisect.set.intervals
        worst = max(worst, abs(blo - ilo), abs(bhi - ihi))
        outer &= blo <= ilo and ihi <= bhi
    ok = worst <= eps_r and outer
    _line(4, ok, f"{instances} instances, max endpoint difference "
                 f"{worst:.2e} (<= {eps_r:.0e}), bisection never inside {outer}")


def test_criterion_05_zero_stability_collapse():
    rng = np.random.default_rng(55)
    X = rng.standard_normal((40, 3))
    coef = rng.standard_normal(3)
    y = X @ coef + rng.standard_normal(40)
    ds = TabularDataset(X[:-1], y[:-1], X[-1], test_target=float(y[-1]))
    frozen = PretrainedLinearModel(coef)
    zero_tau = frozen.stability_bound(ds)  # its own bound: exactly zero

    # envelope collapse: with tau = 0 and tie-free scores both envelopes
    # equal the conformity computed from the anchor fit
    bounds, fitted = anchor_bounds(ds, 0.0, frozen, ABS, zero_tau)
    collapse_ok = True
    for z in np.linspace(*ds.target_range(), 50):
        pb = bounds.pi_bounds_at(z)
        exact = pi_exact(ds, z, frozen, ABS)
        collapse_ok &= pb.lo == exact == pb.up

    # definitional equality: the oracle set is the zero-stability limit of
    # the single-fit construction anchored at the true target
    oracle = oracle_cp(ds, ds.test_target, frozen, ABS, 0.1)
    limit_form = stab_cp_interval(ds, ds.test_target, frozen, ABS, zero_tau, 0.1)
    oracle_ok = oracle.set.intervals == limit_form.set.intervals
    ok = collapse_ok and oracle_ok
    _line(5, ok, f"envelope collapse {collapse_ok}, oracle == zero-tau stab set "
                 f"{oracle_ok} (exact equality)")


def test_criterion_06_gap_shrinks_with_sample_size():
    seeds = range(10)
    mean_gaps = {30: [], 300: []}
    for n in (30, 300):
        for seed in seeds:
            ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", n, 100, 1.0, seed))
            spec = LadRidgeModel(0.5)
            tau = spec.stability_bound(ds)
            bounds, _ = anchor_bounds(ds, 0.0, spec, ABS, tau)
            grid = default_candidate_grid(ds, 200)
            gaps = [bounds.pi_bounds_at(z).gap for z in grid]
            mean_gaps[n].append(float(np.mean(gaps)))
    small_n = float(np.mean(mean_gaps[30]))
    large_n = float(np.mean(mean_gaps[300]))
    ok = large_n < small_n
    _line(6, ok, f"mean envelope gap: n=30 -> {small_n:.3f}, "
                 f"n=300 -> {large_n:.3f} (strictly smaller)")


def test_criterion_07_stability_bounds_sound_everywhere():
    violations = []

    def check(name, ds, spec, tau, grid_points=200):
        lo, hi = ds.target_range()
        anchor = 0.5 * (lo + hi)
        anchored = spec.fit(ds, anchor).row_predictions
        worst = 0.0
        for z in np.linspace(lo, hi, grid_points):
            preds = spec.fit(ds, z).row_predictions
            dev = np.abs(preds - anchored)
            excess = float(np.max(dev - tau.tau))
            worst = max(worst, excess)
        if worst > 1e-8:
            violations.append((name, worst))
        return worst

    # Lipschitz-loss bound with the L1 model
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 40, 30, 1.0, 11))
    spec = LadRidgeModel(0.5, solver_tol=1e-10)
    tau = spec.stability_bound(ds)
    check("regularized-lipschitz/ladridge", ds, spec, tau)

    # exact affine bound, ridge's own
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 50, 5, 1.0, 13))
    spec = RidgeModel(0.5)
    tau = spec.stability_bound(ds)
    check("linear-exact/ridge", ds, spec, tau)

    ok = not violations
    _line(7, ok, f"2 provenance/model pairs, violations: {violations or 'none'}")


def test_criterion_08_rank_subuniformity_monte_carlo():
    # i.i.d. standard normal sequences of length 21, 10^4 draws.  The rank is
    # an integer, so the guarantee threshold is the smallest integer k with
    # k/(n+1) >= 1 - alpha, i.e. k = ceil((n+1)(1 - alpha)) = 19.
    draws, m, alpha = 10_000, 21, 0.1
    rng = np.random.default_rng(808)
    U = rng.standard_normal((draws, m))
    ranks = (U <= U[:, -1:]).sum(axis=1)
    threshold = math.ceil(m * (1 - alpha) - 1e-9)
    freq = float(np.mean(ranks <= threshold))
    bar = (1 - alpha) - 3 * math.sqrt(alpha * (1 - alpha) / draws)
    ok = freq >= bar
    _line(8, ok, f"rank <= {threshold} frequency {freq:.4f} (bar {bar:.4f})")


def test_criterion_10_fit_counters_and_timing():
    eps_r, grid_size = 1e-4, 200
    config = RunConfig(model="ladridge", lambda_reg=0.5, alpha=0.1, grid_size=grid_size)
    counters_ok = contains_ok = True
    stab_times, grid_times = [], []
    root_detail = ""
    # a fresh process's first LAD sets pay one-off import and cache costs:
    # spend them on a draw that is not timed
    warm = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 0))
    run_method("stabcp", warm, config)
    run_method("gridcp", warm, config)
    for seed in (1, 2, 3):
        ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, seed))
        stab = run_method("stabcp", ds, config)
        splitr = run_method("splitcp", ds, config)
        gridr = run_method("gridcp", ds, config)
        rootr = run_method("rootcp", ds, config)
        lo, hi = ds.target_range()
        root_floor = 2 * math.log2((hi - lo) / eps_r)
        counters_ok &= stab.fit_count == 1
        counters_ok &= splitr.fit_count == 1
        counters_ok &= gridr.fit_count == grid_size
        counters_ok &= rootr.fit_count >= root_floor
        root_detail = f"root fits {rootr.fit_count} >= {root_floor:.1f}"
        # anchored at the observed median with no fit of its own, the one-fit
        # set still holds rootcp's
        stab_set, root_set = stab.set.intervals, rootr.set.intervals
        contains_ok &= (len(stab_set) == 1 and stab_set[0][0] <= root_set[0][0] + eps_r
                        and root_set[-1][1] - eps_r <= stab_set[0][1])
        stab_times.append(stab.wall_time)
        grid_times.append(gridr.wall_time)
    ratio = float(np.mean(stab_times) / np.mean(grid_times))
    timing_ok = ratio < 0.1
    ok = counters_ok and timing_ok and contains_ok
    _line(10, ok, f"counters exact (stab=1, split=1, grid={grid_size}, "
                  f"{root_detail}); stab/grid time ratio {ratio:.4f} (< 0.1); "
                  f"stabcp set holds rootcp's within eps_r: {contains_ok}")


def test_criterion_11_every_method_covers_at_a_non_integer_level():
    # n=20, alpha=0.1: (1 - alpha)(n + 1) = 18.9 is not an integer, so the
    # ceil index keeps 19 of the 21 ranks (coverage 0.905) where a floor index
    # would keep 18 (0.857, below the bar).  linear-exact bounds, 1000 draws;
    # the bar is 1 - alpha - 3 SE over the draws each coverage counts.
    reps, alpha = 1000, 0.1
    methods = ["stabcp", "oraclecp", "splitcp", "rootcp"]
    config = RunConfig(alpha=alpha)
    source = synthetic_source(GeneratorSpec("linear-gaussian", 20, 3, 1.0, 0))
    report, rows = run_benchmark(source, methods, reps, seed=0, config=config)
    ok, parts = True, []
    for method in methods:
        counted = [row for row in rows if row["method"] == method and row["error"] is None
                   and row["tau_coverage_safe"] is not False]
        bar = (1 - alpha) - 3 * math.sqrt(alpha * (1 - alpha) / len(counted))
        coverage = report["methods"][method]["coverage"]
        ok &= len(counted) >= 0.9 * reps and coverage >= bar
        parts.append(f"{method} {coverage:.3f} (bar {bar:.3f}, {len(counted)} draws)")
    _line(11, ok, "coverage " + ", ".join(parts))
