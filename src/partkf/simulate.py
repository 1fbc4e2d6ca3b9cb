"""Ground-truth simulation of the global model under bounded Gaussian noise.

Noise streams are split per subsystem and per role (process vs measurement)
from a single master seed, so trajectories are reproducible bit for bit and
subsystem noises are independent by construction.  The splitting rule is:
``SeedSequence(seed).spawn(2 n)`` with children ``0..n-1`` driving the process
noise of subsystems ``0..n-1`` and children ``n..2n-1`` driving measurement
noise in the same order.

:func:`simulate` and the stacked runs of a Monte Carlo ensemble of either
model kind (``_simulate_runs``) draw noise by one rule (``_noise``) and
propagate by one loop (``_propagate``), so each run of an ensemble is bit
for bit its :func:`simulate` run, redraws included.  This module is the only one that
draws noise.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import _MAX_LENGTH, GlobalModel, LinearizationError, _integer, _numbers, _seed
from .records import _encode, _load_json, _write_csv

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
    be at least one standard deviation; an infinite bound does not truncate.
    A NaN deviation or bound, or an infinite deviation, raises ``ValueError``
    naming the field.  ``seed`` is a 64-bit master seed, an integer (a bool or
    a string is not one).
    """

    w_std: np.ndarray
    v_std: np.ndarray
    seed: int
    w_bound: np.ndarray | None = None
    v_bound: np.ndarray | None = None

    def __post_init__(self):
        # The deviations come first, so each bound is checked against its
        # converted deviation.
        for name in ("w_std", "v_std", "w_bound", "v_bound"):
            value, std = getattr(self, name), f"{name[0]}_std"
            if value is None and name != std:
                continue
            value = np.atleast_1d(_numbers(name, value))
            if np.isnan(value).any():
                raise ValueError(f"{name} has a NaN entry")
            if name == std and np.isinf(value).any():
                raise ValueError(f"{name} has an infinite entry")
            if name == std and np.any(value < 0):
                raise ValueError(f"{name} must be non-negative")
            if name != std and value.shape != getattr(self, std).shape:
                raise ValueError(f"{name} must match the {std} shape")
            if name != std and np.any(value < getattr(self, std)):
                raise ValueError(f"{name} must be at least one standard deviation ({std})")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", _seed(self.seed))

    def streams(self, n_subsystems: int) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
        """Independent per-subsystem generators: (process list, measurement list)."""
        return _streams(self.seed, n_subsystems)


def _streams(seed: int, n: int) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
    """The generators of the module's splitting rule for master ``seed`` and
    ``n`` subsystems: (process list, measurement list)."""
    gens = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2 * n)]
    return gens[:n], gens[n:]


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
        return cls(**{name: _numbers(f"trajectory {name}", payload[name]) for name in _ARRAYS},
                   seed=_seed(payload["seed"]))


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


def _start(model: GlobalModel, x0: np.ndarray, steps: int, noise: NoiseSpec) -> tuple:
    """The checked horizon and initial state, and the noise deviations and
    bounds broadcast to the state and output dimensions."""
    steps = _integer("steps", steps)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if steps >= _MAX_LENGTH:
        raise ValueError(f"steps must be less than {_MAX_LENGTH}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.nx,):
        raise ValueError(f"x0 must have shape ({model.nx},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return (steps, x0, _broadcast(noise.w_std, model.nx, "w_std"),
            _broadcast(noise.v_std, model.ny, "v_std"),
            _broadcast(noise.w_bound, model.nx, "w_bound"),
            _broadcast(noise.v_bound, model.ny, "v_bound"))


def simulate(model: GlobalModel, x0: np.ndarray, steps: int, noise: NoiseSpec) -> Trajectory:
    """Propagate the global model for ``steps`` steps from ``x0``.

    Measurement ``y_k`` is produced for ``k = 0..steps`` and process noise is
    applied on every transition, drawn by the rule of the stacked ensemble
    runs, redraws included.  For nonlinear models with a declared validity
    box the state is checked each step; leaving the box raises
    :class:`SimulationError` with the step index, as does a failing
    subsystem map (naming the subsystem).
    """
    steps, x0, *spec = _start(model, x0, steps, noise)
    ws, vs = _noise(noise, model, steps, *spec)
    xs, ys = _propagate(model, x0, ws, vs)
    return Trajectory(xs=xs, ys=ys, ws=ws, vs=vs, seed=noise.seed)


def _noise(noise: NoiseSpec, model: GlobalModel, steps: int, w_std, v_std,
           w_bound, v_bound, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The process noises ``(K, nx)`` and measurement noises ``(K+1, ny)`` of
    ``noise``, or of its streams at ``seed`` when given (a run of an
    ensemble), row ``k`` the draws of :func:`sample_noise` at instant ``k``.
    Each generator's rows are one block, ``normal(0, 1) * std``.  A redraw
    moves every later draw of its generator, so a generator with a draw out
    of bound is drawn again from a fresh generator of its stream, row by row
    through :func:`sample_noise`, whose errors then carry the row as step."""
    p, seed = model.partition, noise.seed if seed is None else seed
    out = []
    for role, (gens, dims, offsets, rows, std, bound) in enumerate(zip(
            _streams(seed, p.n), (p.dims, p.out_dims), (p.offsets, p.out_offsets),
            (steps, steps + 1), (w_std, v_std), (w_bound, v_bound))):
        z = np.concatenate([g.normal(0.0, 1.0, size=(rows, d)) for g, d in zip(gens, dims)],
                           axis=1) * std
        if bound is not None and np.any(np.abs(z) > bound):
            for i, rng in enumerate(_streams(seed, p.n)[role]):
                sl = slice(offsets[i], offsets[i + 1])
                if not np.any(np.abs(z[:, sl]) > bound[sl]):
                    continue
                for k in range(rows):
                    try:
                        z[k, sl] = sample_noise(std[sl], bound[sl], rng)
                    except SimulationError as exc:
                        raise SimulationError(str(exc), step=k) from exc
        out.append(z)
    return tuple(out)


def _propagate(model: GlobalModel, x0: np.ndarray, ws: np.ndarray,
               vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The states and measurements that the noises ``ws`` and ``vs`` drive
    from ``x0``, of one run (``ws`` of shape ``(K, nx)``) or of a stack of
    runs (``(K, runs, nx)``) of either model kind: a nonlinear plant calls
    its maps once per run and subsystem, each run's calls those of its own
    run.  A state out of the box or non-finite, and a failing map, in any
    run raise :class:`SimulationError`."""
    box = model.state_box()
    xs = np.empty((len(vs), *ws.shape[1:]))
    ys = np.empty(vs.shape)
    xs[0] = x0
    for k in range(len(vs)):
        if box is not None and (np.any(xs[k] < box[0]) or np.any(xs[k] > box[1])):
            raise SimulationError(f"state left the validity box at step {k}", step=k)
        if not np.all(np.isfinite(xs[k])):
            raise SimulationError(f"state became non-finite at step {k}", step=k)
        try:
            ys[k] = model.h(xs[k]) + vs[k]
            if k < len(ws):
                xs[k + 1] = model.f(xs[k]) + ws[k]
        except LinearizationError as exc:
            raise SimulationError(f"step {k}, {exc}", step=k) from exc
    return xs, ys


def _simulate_runs(model: GlobalModel, x0: np.ndarray, steps: int, noise: NoiseSpec,
                   seeds) -> tuple[np.ndarray, np.ndarray] | None:
    """The truth of the plant, linear or nonlinear, for the runs of
    ``noise`` at ``seeds``, all runs in one pass: their states ``(K+1, runs,
    nx)`` and measurements ``(K+1, runs, ny)``, each run bit for bit
    :func:`simulate`'s at its seed, redraws included.  ``None`` when a run
    leaves the validity box, a map of a run fails, the pass warns, or a
    state or a measurement of a run turns non-finite: :func:`simulate` and
    the filter's check of the measurements say which run, step and error.
    Checks and errors of the arguments are :func:`simulate`'s."""
    steps, x0, *spec = _start(model, x0, steps, noise)
    draws = [_noise(noise, model, steps, *spec, seed=_seed(s)) for s in seeds]
    ws, vs = (np.stack(role, axis=1) for role in zip(*draws))
    # A warning or a floating-point error of any run (an overflow, say, also
    # one inside a map whose result stays finite) gives way to the per-run
    # path, which then warns or raises as a standalone run does.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            xs, ys = _propagate(model, x0, ws, vs)
        except (SimulationError, ArithmeticError, Warning):
            return None
    return (xs, ys) if np.isfinite(ys).all() else None
