"""Numerical stability monitors on a recorded estimation run.

Every checkable ingredient of the error-dynamics stability argument is
evaluated on recorded runs of the reactor network:

- the closed-loop error recursion identity (exact up to roundoff),
- empirical bounds of all blocks, gains and covariances,
- the weak-coupling matrix inequality per instant,
- the per-subsystem covariance contraction with its derived rate,
- the Lyapunov value of the stacked error.

The same monitors flag the constructed violating instance in which the
cross-coupling is scaled by 100.

Run:  python demos/05_stability_monitors.py
"""

import numpy as np

from partkf import (
    error_step,
    get_benchmark,
    remainder_bounds,
    run_dekf,
    simulate,
    stability_report,
)
from partkf.benchmarks import REACTOR_COUPLING

bench = get_benchmark("reactor-chain")
traj = simulate(bench.model, bench.x0, 120, bench.noise(seed=7))
record = run_dekf(bench.model, bench.design, traj)

residual = max(error_step(bench.model, record, k).residual
               for k in range(1, 121))
print(f"error recursion identity, worst scaled residual: {residual:.2e}")

fits = remainder_bounds(bench.model, record)
print(f"quadratic remainder fits: dynamics {fits['eps_dyn']:.2e}, "
      f"output {fits['eps_out']:.2e}")

report = stability_report(record)
b = report.bounds
print("\nempirical bounds over the run:")
print(f"  diagonal blocks   |A_ii| in [{b.a_lo:.3f}, {b.a_hi:.3f}]")
print(f"  covariance eigs   [{b.p_lo:.4f}, {b.p_hi:.1f}]")
print(f"  gain norms        [{b.gain_lo:.4f}, {b.gain_hi:.3f}]")
print(f"contraction rate alpha = {report.alpha:.2e}, "
      f"holds at every instant: {report.contraction_all_hold}")
print(f"weak-coupling condition holds at every instant: "
      f"{report.coupling_all_hold} "
      f"(min margin {np.nanmin(report.coupling_margin[1:]):.2e})")

print("\nnegative control: same network with coupling scaled by 100")
hot = get_benchmark("reactor-chain", coupling=100.0 * REACTOR_COUPLING)
traj_hot = simulate(hot.model, hot.x0, 60, hot.noise(seed=7))
rec_hot = run_dekf(hot.model, hot.design, traj_hot)
rep_hot = stability_report(rec_hot)
violated = np.where(~rep_hot.coupling_ok[1:])[0] + 1
print(f"violations detected at {violated.size} of 60 instants "
      f"(first at k={violated[0]}, min margin "
      f"{np.nanmin(rep_hot.coupling_margin[1:]):.2e})")
