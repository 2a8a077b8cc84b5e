"""The coverage / length / timing protocol on synthetic data.

Each repetition draws a fresh dataset, hides the last response, runs every
method, and records whether the hidden value was covered, the region length,
the wall time, and the fit counter.  Times are normalized by the oracle
method's mean, which is always run.
"""

from stabcp import GeneratorSpec
from stabcp.harness import RunConfig, run_benchmark, synthetic_source

config = RunConfig(
    model="ridge",
    lambda_reg=0.5,
    alpha=0.1,
    split_fraction=0.5,
    grid_size=150,
)
source = synthetic_source(GeneratorSpec("linear-gaussian", 200, 10, 1.0, seed=0))

report, rows = run_benchmark(
    source,
    methods=["stabcp", "splitcp", "rootcp", "gridcp"],
    repetitions=50,
    seed=7,
    config=config,
)

print(f"repetitions: {report['repetitions']}, alpha: {report['alpha']}, "
      f"model: {report['model']}\n")
header = f"{'method':<10} {'coverage':>9} {'len mean':>9} {'len q50':>8} {'time/oracle':>12} {'fits/rep':>9}"
print(header)
print("-" * len(header))
for name in ("stabcp", "splitcp", "oraclecp", "rootcp", "gridcp"):
    entry = report["methods"][name]
    print(f"{name:<10} {entry['coverage']:>9.3f} {entry['length_mean']:>9.3f} "
          f"{entry['length_q50']:>8.3f} {entry['time_normalized']:>12.2f} "
          f"{entry['fit_count_mean']:>9.1f}")

print("\nReading the table: the single-fit method keeps the target coverage")
print("with intervals close to the refit-based ones at a fraction of the fits.")
