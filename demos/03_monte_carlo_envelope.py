"""Monte Carlo RMSE envelope of the linear fixture.

Repeats the experiment with derived seeds and prints the per-instant mean and
min/max envelope of the estimation RMSE, the text analogue of a shaded-band
error plot.  The ensemble is fully reproducible from the base seed.

Run:  python demos/03_monte_carlo_envelope.py
"""

from partkf import ExperimentConfig, monte_carlo
from partkf.harness import write_monte_carlo_csv

RUNS = 100

config = ExperimentConfig(model={"name": "linear-4state"}, steps=50, seed=1,
                          monitors=False)
result = monte_carlo(config, runs=RUNS)

print(f"{RUNS} runs, 50 steps each")
print("\n  k    mean rmse    envelope [min, max]")
for k in (0, 1, 2, 5, 10, 20, 30, 40, 50):
    print(f"{k:>3}    {result.mean[k]:<9.4f}    "
          f"[{result.lo[k]:.4f}, {result.hi[k]:.4f}]")

ratio = result.mean[30:].mean() / result.mean[0]
print(f"\nsteady-state mean is {100 * ratio:.1f}% of the initial error")

paths = write_monte_carlo_csv(result, "out", stem="demo_montecarlo")
print(f"ensemble written to {paths[0]} and {paths[1]}")
