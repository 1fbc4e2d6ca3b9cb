"""Seeded random partitioned linear plants for the identity sweep.

``random_plant(seed)`` builds a complete :class:`partkf.benchmarks.Benchmark`
from ``seed`` alone.  The seed also fixes the plant's structure, so that the
seeds ``0..23`` cover every topology at every size with and without a dense
estimator ``R``:

- topology ``TOPOLOGIES[seed % 3]``: a ring (each subsystem hears its two
  ring neighbours), a star (subsystem 0 and every other one hear each other)
  or a random graph (each directed edge with probability 0.4);
- ``n = 2 + (seed // 3) % 4`` subsystems;
- a dense estimator ``R``, which correlates the outputs of different
  subsystems, when ``(seed // 12) % 2 == 1``, else the model's
  block-diagonal ``R``;
- state dimensions ``d_i`` in 1..3 and output dimensions ``m_i`` in 0..3.
  When ``seed % 2 == 0`` one subsystem has no outputs, unless the plant has
  two subsystems and a dense ``R``, which needs outputs on both.

The dynamics are scaled to a spectral radius in [0.8, 1.05], so some plants
are mildly unstable, and every weight is a random symmetric positive
definite matrix.
"""

import numpy as np

from partkf.benchmarks import Benchmark
from partkf.dkf import EstimatorDesign
from partkf.model import LinearSubsystem, assemble_global, make_partition

TOPOLOGIES = ("ring", "star", "random")
SWEEP_SEEDS = range(24)
NOISE_STD = 0.1


def _spd(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random symmetric positive definite ``d x d`` matrix, exactly symmetric."""
    m = rng.normal(size=(d, d))
    s = m @ m.T / max(d, 1) + 0.5 * np.eye(d)
    return 0.5 * (s + s.T)


def _neighbors(topology: str, n: int, rng: np.random.Generator) -> list[set[int]]:
    """Per subsystem, the subsystems whose states drive it."""
    if topology == "ring":
        return [{(i - 1) % n, (i + 1) % n} - {i} for i in range(n)]
    if topology == "chain":
        return [{i - 1, i + 1} & set(range(n)) for i in range(n)]
    if topology == "star":
        return [set(range(1, n))] + [{0} for _ in range(1, n)]
    return [{l for l in range(n) if l != i and rng.random() < 0.4} for i in range(n)]


def random_plant(seed: int, topology: str | None = None, n: int | None = None) -> Benchmark:
    """The random plant, design, initial state and noise of ``seed``; a
    ``topology`` (also ``"chain"``: each subsystem hears the one before and
    the one after it, as in ``bench/chain.py``) and ``n`` given override the
    seed's."""
    rng = np.random.default_rng(seed)
    topology = topology or TOPOLOGIES[seed % 3]
    n = n or 2 + (seed // 3) % 4
    dense_R = (seed // 12) % 2 == 1
    dims = rng.integers(1, 4, size=n)
    outs = rng.integers(0, 4, size=n)
    if seed % 2 == 0:
        outs[rng.integers(n)] = 0
    while np.count_nonzero(outs) < (2 if dense_R else 1):
        outs[rng.choice(np.flatnonzero(outs == 0))] = 1
    part = make_partition(dims, outs)

    A = rng.normal(size=(part.nx, part.nx))
    mask = np.zeros_like(A, dtype=bool)
    for i, nbrs in enumerate(_neighbors(topology, n, rng)):
        for l in nbrs | {i}:
            mask[part.state_slice(i), part.state_slice(l)] = True
    A = np.where(mask, A, 0.0)
    A *= rng.uniform(0.8, 1.05) / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-3)

    subs = []
    for i in range(n):
        si = part.state_slice(i)
        coupling = {l: A[si, part.state_slice(l)] for l in range(n)
                    if l != i and mask[si, part.state_slice(l)].any()}
        subs.append(LinearSubsystem(i, A[si, si], coupling,
                                    rng.normal(size=(outs[i], dims[i])),
                                    _spd(rng, dims[i]), _spd(rng, outs[i])))
    model = assemble_global(subs, part)
    design = EstimatorDesign(Q=tuple(s.Q for s in subs),
                             R=_spd(rng, part.ny) if dense_R else model.R,
                             P0=tuple(_spd(rng, d) for d in dims),
                             x0_guess=rng.normal(size=part.nx))
    w_std = NOISE_STD * np.ones(part.nx)
    v_std = NOISE_STD * np.ones(part.ny)
    return Benchmark(name=f"random-{topology}-{seed}", model=model,
                     x0=rng.normal(size=part.nx), design=design,
                     w_std=w_std, v_std=v_std, w_bound=6.0 * w_std, v_bound=6.0 * v_std)
