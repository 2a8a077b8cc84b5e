"""Where the stability bounds come from, and how tight each one is.

Builds each model's own bound through its ``stability_bound`` (ridge: the
exact affine bound over the observed target range; the L1 model: the
Lipschitz-loss bound, which holds on the whole line) and checks both against
the measured worst-case prediction deviations, like with like: a bound says
how far each prediction moves, in target units, and reads no score.  Each is
a sound guarantee, and they differ only in how much slack they leave.  A set
then scales the bound by its score's constant ``gamma`` (1 for the absolute
residual) in one place, ``anchor_bounds``.
"""

import numpy as np

from stabcp import (
    GeneratorSpec,
    LadRidgeModel,
    RidgeModel,
    gen_linear_gaussian,
)

dataset = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 60, 5, 1.0, seed=23))
lam = 0.5
z_range = dataset.target_range()

ridge = RidgeModel(lam)
lad = LadRidgeModel(lam, solver_tol=1e-10)


def measured_deviation(spec):
    """Worst per-row prediction movement across the candidate range."""
    zs = np.linspace(z_range[0], z_range[1], 120)
    preds = np.vstack([spec.fit(dataset, z).row_predictions for z in zs])
    return preds.max(axis=0) - preds.min(axis=0)


print(f"dataset: n={dataset.n}, p={dataset.p}, candidate range "
      f"[{z_range[0]:+.2f}, {z_range[1]:+.2f}]\n")

# ridge: its own exact affine bound over the target range
exact = ridge.stability_bound(dataset)
ridge_dev = measured_deviation(ridge)

# L1 model: its own Lipschitz-loss bound, with the replace-one constant
lipschitz = lad.stability_bound(dataset)
lad_dev = measured_deviation(lad)

print(f"{'bound':<22} {'max tau':>9} {'max measured':>13} {'slack':>7}")
for name, bounds, dev in [
    ("linear-exact (ridge)", exact, ridge_dev),
    ("lipschitz loss (L1)", lipschitz, lad_dev),
]:
    ratio = float(np.max(dev / np.maximum(bounds.tau, 1e-300)))
    print(f"{name:<22} {bounds.tau.max():9.4f} {dev.max():13.4f} {1 / ratio:7.2f}x")

print("\nEach bound dominates its model's measured deviation; the exact affine")
print("bound is tight at the range endpoints.")
