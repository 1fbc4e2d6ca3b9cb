"""The scalable ``linear-chain`` fixture, built from the public model API.

``n`` subsystems of ``d`` states and ``m`` outputs.  Subsystem ``i`` has a
seeded own block, a random orthogonal matrix scaled to spectral radius 0.9,
and seeded coupling blocks to ``i-1`` and ``i+1`` of spectral norm
``coupling``; it measures its first ``m`` states.  ``R`` is block diagonal.
Because the own blocks are normal, the plant's spectral norm is at most
``0.9 + 2 coupling`` whatever the seed, so any coupling below 0.05 gives a
stable plant.  The fixture is registered with
:func:`partkf.register_benchmark` at run time, so ``run_experiment`` and
``monte_carlo`` resolve it by name like a built-in benchmark.
"""

from __future__ import annotations

import numpy as np

from partkf import (
    Benchmark,
    EstimatorDesign,
    LinearSubsystem,
    assemble_global,
    make_partition,
    register_benchmark,
)

NAME = "linear-chain"
OWN_RADIUS = 0.9
NOISE_STD = 0.1
NOISE_BOUND_SIGMAS = 6.0
#: Prior covariance scale and the offset of the estimator's initial guess.
P0_SCALE = 1.0
GUESS_OFFSET = 0.5


def build_chain(n: int = 64, d: int = 2, m: int = 1, coupling: float = 0.04,
                seed: int = 0) -> Benchmark:
    """Build the chain; raises ``ValueError`` if the assembled plant is not
    stable (spectral radius at least 1)."""
    if not (n >= 2 and d >= 1 and 1 <= m <= d):
        raise ValueError("linear-chain needs n >= 2, d >= 1 and 1 <= m <= d")
    rng = np.random.default_rng(seed)
    q = NOISE_STD ** 2
    C = np.eye(d)[:m]
    subs = []
    for i in range(n):
        A = OWN_RADIUS * np.linalg.qr(rng.standard_normal((d, d)))[0]
        blocks = {}
        for l in (i - 1, i + 1):
            if 0 <= l < n:
                blk = rng.standard_normal((d, d))
                blocks[l] = blk * (coupling / np.linalg.norm(blk, 2))
        subs.append(LinearSubsystem(index=i, A=A, coupling=blocks, C=C,
                                    Q=q * np.eye(d), R=q * np.eye(m)))
    model = assemble_global(subs, make_partition([d] * n, [m] * n))
    radius = float(max(abs(np.linalg.eigvals(model.A))))
    if radius >= 1.0:
        raise ValueError(f"linear-chain plant has spectral radius {radius:.4f} >= 1")
    x0 = rng.standard_normal(n * d)
    design = EstimatorDesign.from_model(model, P0=[P0_SCALE * np.eye(d)] * n,
                                        x0_guess=x0 + GUESS_OFFSET)
    w_std = NOISE_STD * np.ones(n * d)
    v_std = NOISE_STD * np.ones(n * m)
    return Benchmark(name=NAME, model=model, x0=x0, design=design,
                     w_std=w_std, v_std=v_std,
                     w_bound=NOISE_BOUND_SIGMAS * w_std,
                     v_bound=NOISE_BOUND_SIGMAS * v_std)


def register() -> None:
    register_benchmark(NAME, build_chain)
