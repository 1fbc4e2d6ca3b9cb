"""Ground-truth simulation of the global model under bounded Gaussian noise.

Noise streams are split per subsystem and per role (process vs measurement)
from a single master seed, so trajectories are reproducible bit for bit and
subsystem noises are independent by construction.  The splitting rule is:
``SeedSequence(seed).spawn(2 n)`` with children ``0..n-1`` driving the process
noise of subsystems ``0..n-1`` and children ``n..2n-1`` driving measurement
noise in the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import GlobalModel, LinearizationError, _integer
from .records import _array, _encode, _load_json, _write_csv

__all__ = ["NoiseSpec", "Trajectory", "SimulationError", "sample_noise", "simulate"]

#: Redraw cap for bounded sampling; hitting it signals a misconfigured bound.
MAX_REDRAWS = 100


class SimulationError(RuntimeError):
    """Simulation left the configured validity box or a bound could not be
    satisfied.  Carries the step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean Gaussian noise description with optional truncation.

    ``w_std`` and ``v_std`` are per-coordinate standard deviations for the
    process and measurement noise.  ``w_bound`` / ``v_bound``, when present,
    truncate each coordinate to ``[-b, b]`` by rejection sampling; bounds must
    be at least one standard deviation.  A NaN deviation or bound raises
    ``ValueError`` naming the field.  ``seed`` is a 64-bit master seed, an
    integer (a bool or a string is not one).
    """

    w_std: np.ndarray
    v_std: np.ndarray
    seed: int
    w_bound: np.ndarray | None = None
    v_bound: np.ndarray | None = None

    def __post_init__(self):
        for name in ("w_std", "v_std", "w_bound", "v_bound"):
            value = getattr(self, name)
            if value is not None and np.isnan(np.asarray(value, dtype=float)).any():
                raise ValueError(f"{name} has a NaN entry")
        w = np.atleast_1d(np.asarray(self.w_std, dtype=float))
        v = np.atleast_1d(np.asarray(self.v_std, dtype=float))
        if np.any(w < 0) or np.any(v < 0):
            raise ValueError("standard deviations must be non-negative")
        object.__setattr__(self, "w_std", w)
        object.__setattr__(self, "v_std", v)
        for name, bound, std in (("w_bound", self.w_bound, w), ("v_bound", self.v_bound, v)):
            if bound is None:
                continue
            b = np.atleast_1d(np.asarray(bound, dtype=float))
            if b.shape != std.shape:
                raise ValueError(f"{name} must match the std shape")
            if np.any(b < std):
                raise ValueError(f"{name} must be at least one standard deviation")
            object.__setattr__(self, name, b)
        seed = _integer("seed", self.seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "seed", seed)

    def streams(self, n_subsystems: int) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
        """Independent per-subsystem generators: (process list, measurement list)."""
        children = np.random.SeedSequence(self.seed).spawn(2 * n_subsystems)
        w_gens = [np.random.default_rng(s) for s in children[:n_subsystems]]
        v_gens = [np.random.default_rng(s) for s in children[n_subsystems:]]
        return w_gens, v_gens


def sample_noise(std: np.ndarray, bound: np.ndarray | None,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw one noise vector: independent Gaussian per coordinate, redrawn
    until inside the bound when one is present.  More than ``MAX_REDRAWS``
    redraws for a coordinate raises :class:`SimulationError`."""
    std = np.asarray(std, dtype=float)
    out = rng.normal(0.0, 1.0, size=std.shape) * std
    if bound is not None:
        bound = np.asarray(bound, dtype=float)
        bad = np.abs(out) > bound
        redraws = 0
        while np.any(bad):
            redraws += 1
            if redraws > MAX_REDRAWS:
                raise SimulationError("bound rejected 100 consecutive draws; "
                                      "check the noise configuration")
            out[bad] = rng.normal(0.0, 1.0, size=int(bad.sum())) * std[bad]
            bad = np.abs(out) > bound
    return out


#: The array fields of a :class:`Trajectory`, in the order its JSON lists them.
_ARRAYS = ("xs", "ys", "ws", "vs")


@dataclass(frozen=True)
class Trajectory:
    """Simulated truth: states ``x_0..x_K``, measurements ``y_0..y_K`` and the
    realized noises, together with the seed that produced them.  The identity
    ``x[k+1] = f(x[k]) + w[k]`` and ``y[k] = h(x[k]) + v[k]`` holds exactly for
    the stored arrays.  ``xs`` must be 2-D, as it fixes :attr:`steps`, with
    rows when ``ys`` has some; the shapes of the other arrays are checked
    where a filter reads them."""

    xs: np.ndarray      # (K+1, nx)
    ys: np.ndarray      # (K+1, ny)
    ws: np.ndarray      # (K, nx)
    vs: np.ndarray      # (K+1, ny)
    seed: int

    def __post_init__(self):
        if np.ndim(self.xs) != 2:
            raise ValueError(f"xs must hold one state vector per instant, "
                             f"got shape {np.shape(self.xs)}")
        if not len(self.xs) and np.ndim(self.ys) and len(self.ys):
            raise ValueError(f"xs has shape {np.shape(self.xs)}, no instant for the "
                             f"{len(self.ys)} instants of ys")

    @property
    def steps(self) -> int:
        return self.xs.shape[0] - 1

    def to_csv(self, path: str | Path) -> Path:
        """One row per step: k, state coordinates, measurement coordinates."""
        nx = self.xs.shape[1]
        ny = self.ys.shape[1]
        header = ["k"] + [f"x_{j + 1}" for j in range(nx)] + [f"y_{j + 1}" for j in range(ny)]
        return _write_csv(path, header, ([k, *self.xs[k], *self.ys[k]]
                                         for k in range(self.xs.shape[0])))

    def to_json(self, path: str | Path | None = None) -> dict:
        """JSON-serializable record embedding the seed; written when ``path``
        is given."""
        payload = {"seed": self.seed}
        for name in _ARRAYS:
            payload[name] = _encode(getattr(self, name))
        if path is not None:
            Path(path).write_text(json.dumps(payload))
        return payload

    @classmethod
    def from_json(cls, payload: dict | str | Path) -> "Trajectory":
        payload = _load_json(payload)
        return cls(**{name: _array(payload[name]) for name in _ARRAYS},
                   seed=int(payload["seed"]))


def _broadcast(arr, dim: int, name: str) -> np.ndarray | None:
    """A scalar broadcast to length ``dim``, or a length-``dim`` vector; None
    stays None."""
    if arr is None:
        return None
    arr = np.atleast_1d(np.asarray(arr, dtype=float))
    if arr.size == 1:
        arr = np.full(dim, arr.item())
    if arr.shape != (dim,):
        raise ValueError(f"{name} must be a scalar or have length {dim}")
    return arr


def simulate(model: GlobalModel, x0: np.ndarray, steps: int, noise: NoiseSpec) -> Trajectory:
    """Propagate the global model for ``steps`` steps from ``x0``.

    Measurement ``y_k`` is produced for ``k = 0..steps`` and process noise is
    applied on every transition.  For nonlinear models with a declared
    validity box the state is checked each step; leaving the box raises
    :class:`SimulationError` with the step index, as does a failing
    subsystem map (naming the subsystem).
    """
    steps = _integer("steps", steps)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.nx,):
        raise ValueError(f"x0 must have shape ({model.nx},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")

    p = model.partition
    w_std = _broadcast(noise.w_std, model.nx, "w_std")
    v_std = _broadcast(noise.v_std, model.ny, "v_std")
    w_bound = _broadcast(noise.w_bound, model.nx, "w_bound")
    v_bound = _broadcast(noise.v_bound, model.ny, "v_bound")
    w_gens, v_gens = noise.streams(p.n)
    box = model.state_box()

    def draw(std, bound, gens, split_slices, k):
        parts = []
        for i, sl in enumerate(split_slices):
            b = None if bound is None else bound[sl]
            try:
                parts.append(sample_noise(std[sl], b, gens[i]))
            except SimulationError as exc:
                raise SimulationError(str(exc), step=k) from exc
        return np.concatenate(parts) if parts else np.zeros(0)

    state_slices = [p.state_slice(i) for i in range(p.n)]
    out_slices = [p.out_slice(i) for i in range(p.n)]

    xs = np.empty((steps + 1, model.nx))
    ys = np.empty((steps + 1, model.ny))
    ws = np.empty((steps, model.nx))
    vs = np.empty((steps + 1, model.ny))

    xs[0] = x0
    for k in range(steps + 1):
        if box is not None:
            lo, hi = box
            if np.any(xs[k] < lo) or np.any(xs[k] > hi):
                raise SimulationError(f"state left the validity box at step {k}", step=k)
        if not np.all(np.isfinite(xs[k])):
            raise SimulationError(f"state became non-finite at step {k}", step=k)
        vs[k] = draw(v_std, v_bound, v_gens, out_slices, k)
        try:
            ys[k] = model.h(xs[k]) + vs[k]
            if k < steps:
                ws[k] = draw(w_std, w_bound, w_gens, state_slices, k)
                xs[k + 1] = model.f(xs[k]) + ws[k]
        except LinearizationError as exc:
            raise SimulationError(f"step {k}, {exc}", step=k) from exc
    return Trajectory(xs=xs, ys=ys, ws=ws, vs=vs, seed=noise.seed)
