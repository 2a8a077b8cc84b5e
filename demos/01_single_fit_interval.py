"""One model fit, one distribution-free interval.

Generates a synthetic regression task, then compares the single-fit stable
interval against the classical baselines: data splitting, the oracle that
peeks at the answer, root-finding on the exact conformity function, and the
brute-force grid sweep.
"""

import numpy as np

from stabcp import (
    GeneratorSpec,
    RidgeModel,
    ScoreFunction,
    default_candidate_grid,
    gen_linear_gaussian,
    grid_cp,
    oracle_cp,
    root_cp,
    split_cp,
    stab_cp_interval,
)

score = ScoreFunction.absolute_residual()
alpha = 0.1

dataset = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 200, 8, 1.0, seed=5))
print(f"dataset: n={dataset.n}, p={dataset.p}, held-out truth y* = {dataset.test_target:+.3f}")
print(f"coverage target: {1 - alpha:.0%}\n")

model = RidgeModel(lambda_reg=0.5)

# The anchor is just a guess for the unknown response; any value inside the
# range where the bound holds is valid.  Each model picks its own.
anchor = model.anchor(dataset)
print(f"anchor (self-consistent query prediction a_q / (1 - b_q)): {anchor:+.3f}")

# Exact per-row stability bounds: ridge predictions are affine in the
# candidate, so the worst-case score movement over the observed target range
# is known in closed form.  Each model builds its own bound.
tau = model.stability_bound(dataset, score)
print(f"stability bounds: max tau_i = {tau.tau.max():.4f}, "
      f"query-point tau = {tau.tau_test:.4f}\n")

reports = {
    "stabcp  (1 fit)": stab_cp_interval(dataset, anchor, model, score, tau, alpha),
    "splitcp (1 fit)": split_cp(dataset, dataset.n // 2, model, score, alpha),
    "oraclecp (peeks)": oracle_cp(dataset, dataset.test_target, model, score, alpha),
    "rootcp  (refits)": root_cp(dataset, model, score, alpha),
}
grid = default_candidate_grid(dataset, 300)
exact = grid_cp(dataset, model, score, alpha, grid).set

print(f"{'method':<18} {'interval':<24} {'length':>7} {'fits':>5} {'covers y*':>10}")
for name, report in reports.items():
    (lo, hi), = report.set.intervals
    print(f"{name:<18} [{lo:+.3f}, {hi:+.3f}]      {report.length:7.3f} "
          f"{report.fit_count:5d} {str(report.covered):>10}")
(lo, hi), = exact.intervals
print(f"{'grid oracle':<18} [{lo:+.3f}, {hi:+.3f}]      {exact.length():7.3f} "
      f"{len(grid):5d} {str(exact.contains(dataset.test_target)):>10}")

print("\nThe single-fit interval contains the exact conformal set by"
      "\nconstruction, at one fit instead of hundreds.")
