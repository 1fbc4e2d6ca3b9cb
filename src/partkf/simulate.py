"""Ground-truth simulation of the global model under bounded Gaussian noise.

Noise streams are split per subsystem and per role (process vs measurement)
from a single master seed, so trajectories are reproducible bit for bit and
subsystem noises are independent by construction.  The splitting rule is:
``SeedSequence(seed).spawn(2 n)`` with children ``0..n-1`` driving the process
noise of subsystems ``0..n-1`` and children ``n..2n-1`` driving measurement
noise in the same order, child ``c`` through ``default_rng``.  The rule is
computed, not called: one array pass (``_stream_words``) hashes the seeds
and spawn keys of a whole batch of runs as NumPy's ``SeedSequence`` does
(NEP 19) into the words that ``default_rng`` seeds each stream's PCG64
with, each stream's generator is built straight from its words, and a test
holds those words and generators to NumPy's own.

:func:`simulate` and the stacked runs of a Monte Carlo ensemble of either
model kind (``_simulate_runs``) draw noise by one rule (``_noise``) and
propagate by one loop (``_propagate``), so each run of an ensemble is bit
for bit its :func:`simulate` run, redraws included.  This module is the only one that
draws noise.  A :class:`Trajectory` has no file format of its own: a run's
record (``partkf.records``) carries its arrays ``xs``, ``ys``, ``ws``,
``vs`` and its seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .model import _MAX_LENGTH, GlobalModel, LinearizationError, _integer, _numbers, _seed

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


#: NumPy's ``SeedSequence`` hashing (NEP 19): the first value and the
#: multiplier of its two hash-constant sequences, and its mixing multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = (1 << 32) - 1


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """``init * mult**k`` modulo ``2**32`` for ``k < count``: the constants
    a ``SeedSequence`` hash steps through, one more per hashed word."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _M32)
    return out


def _pool(seed: int, a: list[int]) -> list[int]:
    """The 4-word entropy pool of the children of ``SeedSequence(seed)``
    before their spawn key: the seed's 32-bit words padded with zeros to
    four, each hashed (constants ``a[0..4]``), then each mixed into every
    other (``a[4..16]``)."""
    pool = []
    for k, word in enumerate((seed & _M32, seed >> 32, 0, 0)):
        v = (word ^ a[k]) * a[k + 1] & _M32
        pool.append(v ^ v >> 16)
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = (pool[src] ^ a[k]) * a[k + 1] & _M32
                r = _MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16) & _M32
                pool[dst] = r ^ r >> 16
                k += 1
    return pool


def _stream_words(seeds, m: int) -> np.ndarray:
    """Per seed of ``seeds`` and child ``c < m`` of
    ``SeedSequence(seed).spawn(m)``, the words ``generate_state(4, uint64)``
    of that child, from which ``default_rng`` seeds its PCG64: an array
    ``(len(seeds), m, 4)`` computed in one array pass, each seed's pool
    once (:func:`_pool`) and spawn key ``c`` hashed into it for all
    children at once."""
    u = np.uint64
    mask, shift = u(_M32), u(16)
    a = _hash_constants(_INIT_A, _MULT_A, 21)
    b = np.array(_hash_constants(_INIT_B, _MULT_B, 9), dtype=u)
    pools = np.array([_pool(s, a) for s in seeds], dtype=u).reshape(-1, 4, 1)
    x = np.array(a[16:], dtype=u)[:, None]
    key = (np.arange(m, dtype=u) ^ x[:4]) * x[1:] & mask
    pools = u(_MIX_L) * pools - u(_MIX_R) * (key ^ key >> shift) & mask
    pools ^= pools >> shift
    # Word w of generate_state(8, uint32) hashes pool word w % 4 with b[w]
    # and b[w + 1]; 64-bit word v is 32-bit words 2v (low) and 2v + 1.
    words = (pools[:, None] ^ b[:8].reshape(2, 4, 1)) * b[1:].reshape(2, 4, 1) & mask
    words = (words ^ words >> shift).reshape(len(pools), 4, 2, m)
    return np.ascontiguousarray((words[:, :, 0] | words[:, :, 1] << u(32)).transpose(0, 2, 1))


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 the four words of one stream
    (:func:`_stream_words`), as the child's ``generate_state`` would."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """A new generator at the start of the stream of :func:`_stream_words`
    row ``words``: ``default_rng`` of that stream's child, without hashing
    its seed again."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


def _run_seeds(seed: int, runs: int) -> np.ndarray:
    """The seeds of the ``runs`` runs of an ensemble with base seed ``seed``:
    ``SeedSequence(seed).generate_state(runs, uint64)``."""
    return np.random.SeedSequence(seed).generate_state(runs, dtype=np.uint64)


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
           w_bound, v_bound, words=None) -> tuple[np.ndarray, np.ndarray]:
    """The process noises ``(K, nx)`` and measurement noises ``(K+1, ny)`` of
    ``noise``, or of the streams of ``words`` when given (a run of an
    ensemble, :func:`_stream_words`), row ``k`` the draws of
    :func:`sample_noise` at instant ``k``.  Each stream's rows are one block,
    ``normal(0, 1) * std``, drawn on a generator of its own.  A redraw
    moves every later draw of its stream, so a stream with a draw out of
    bound is drawn again from a new generator at its start, row by row
    through :func:`sample_noise`, whose errors then carry the row as
    step."""
    p = model.partition
    words = _stream_words([noise.seed], 2 * p.n)[0] if words is None else words
    out = []
    for role, (dims, offsets, rows, std, bound) in enumerate(zip(
            (p.dims, p.out_dims), (p.offsets, p.out_offsets), (steps, steps + 1),
            (w_std, v_std), (w_bound, v_bound))):
        role_words = words[role * p.n:(role + 1) * p.n]
        z = np.concatenate([_generator(w).normal(0.0, 1.0, size=(rows, d))
                            for w, d in zip(role_words, dims)], axis=1) * std
        if bound is not None and np.any(np.abs(z) > bound):
            for i, w in enumerate(role_words):
                sl = slice(offsets[i], offsets[i + 1])
                if not np.any(np.abs(z[:, sl]) > bound[sl]):
                    continue
                rng = _generator(w)
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
    runs (``(K, runs, nx)``) of either model kind, ``h`` and ``f`` in one
    call per state (``GlobalModel.values``): a nonlinear plant calls a stacked
    subsystem's maps once per step for every run and any other map once per
    run, each run's values those of its own run.  A state out of the box or
    non-finite, and a failing map, in any run raise :class:`SimulationError`."""
    box = model.state_box()
    xs = np.empty((len(vs), *ws.shape[1:]))
    ys = np.empty(vs.shape)
    xs[0] = x0
    for k in range(len(vs)):
        if box is not None and ((xs[k] < box[0]).any() or (xs[k] > box[1]).any()):
            raise SimulationError(f"state left the validity box at step {k}", step=k)
        if not np.isfinite(xs[k]).all():
            raise SimulationError(f"state became non-finite at step {k}", step=k)
        try:
            y, *x = model.values(xs[k], ("h", "f") if k < len(ws) else ("h",))
            ys[k] = y + vs[k]
            if x:
                xs[k + 1] = x[0] + ws[k]
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
    streams = _stream_words([_seed(s) for s in seeds], 2 * model.partition.n)
    draws = [_noise(noise, model, steps, *spec, words=w) for w in streams]
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
