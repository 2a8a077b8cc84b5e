"""The conformity function and its single-fit envelopes.

Sweeps a candidate grid, computing the exact conformity (refit per point),
the two envelopes computable from one anchor fit, and the split-conformal
curve, then prints a coarse character plot plus the alpha crossings.
"""

import numpy as np

from stabcp import (
    GeneratorSpec,
    RidgeModel,
    ScoreFunction,
    default_candidate_grid,
    gap_profile,
    gen_linear_gaussian,
    split_pi,
)

score = ScoreFunction.absolute_residual()
alpha = 0.1

dataset = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 80, 6, 1.0, seed=11))
model = RidgeModel(0.5)
anchor = model.anchor(dataset)
tau = model.stability_bound(dataset, score)

grid = default_candidate_grid(dataset, 61)
rows = gap_profile(dataset, anchor, model, score, tau, grid)
pi_split = split_pi(dataset, dataset.n // 2, model, score)

print(f"n={dataset.n}, anchor={anchor:+.3f}, alpha={alpha}")
print("z        lo    exact up    | profile (#(exact), envelope in [ ])")
width = 40
for z, lo, up, exact in rows[::3]:
    lo_col = int(lo * (width - 1))
    up_col = int(up * (width - 1))
    ex_col = int(exact * (width - 1))
    chars = [" "] * width
    chars[lo_col] = "["
    chars[up_col] = "]"
    chars[ex_col] = "#"
    marker = "".join(chars)
    print(f"{z:+7.2f}  {lo:.2f}  {exact:.2f}  {up:.2f} |{marker}|")

gaps = [up - lo for _, lo, up, _ in rows]
print(f"\nmean envelope gap: {np.mean(gaps):.3f} "
      f"(shrinks as the sample grows; try n=300)")

crossings = [z for (z, _, up, _), (z2, _, up2, _) in zip(rows, rows[1:])
             if (up > alpha) != (up2 > alpha)]
print(f"upper-envelope alpha crossings near: {[round(z, 3) for z in crossings]}")
print(f"split curve at the anchor: {float(pi_split(anchor)):.3f}")
print("\nEvery grid point satisfies lo <= exact <= up: "
      f"{all(lo - 1e-12 <= e <= up + 1e-12 for _, lo, up, e in rows)}")
