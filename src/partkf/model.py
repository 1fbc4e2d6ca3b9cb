"""Partitioned state-space models for networks of interconnected subsystems.

A plant is described as ``n`` subsystems.  Subsystem ``i`` owns a slice of the
global state vector and a slice of the global measurement vector.  Its dynamics
may depend on the states of a declared set of neighbor subsystems; its output
map depends on its own state only.  Nonlinear subsystems carry callables plus
optional analytic Jacobians.  Linear subsystems carry constant matrices, and
their methods ``f``, ``h``, ``jac_f``, ``jac_h`` are the same contract's affine
maps: the linear filter's prediction, and the affine view of a linear plant.

All model objects are immutable after construction and safe to share between
agents.  Stored arrays are defensive copies with the writeable flag cleared.
A model owns its derived views: its column blocks, ``_monolithic`` and, when
linear, its subsystems' affine maps as group stacks (``_affine``), and its
partition the groups of equally sized subsystems.

One walker (``_walk``) calls the subsystem maps a caller needs at a point,
or at a stack of runs' points (``jac_f`` and ``f``, ``jac_h`` and ``h``,
``h`` and ``f``).  It runs a plan of the walk that the model compiles once
per maps, agenda and Jacobian kind (``GlobalModel._plan``): per call the
subsystem, the map's callable, the labels and the destinations of its
blocks.  So a walk only splits the point, builds each subsystem's arguments
once and makes the calls and their checks.  A stacked subsystem's map
(``NonlinearSubsystem.stacked``) is called once for the whole stack, any
other map and central differences once per run.  ``_put`` checks each
result's shape and dtype as it is written, and each written array is tested
for finiteness once; on a failure the blocks written so far are checked in
call order, so the first bad result names its subsystem and map.

The module owns, since every other module imports it, the value rules that
check every input from outside the program by name (``_integer``, ``_seed``,
``_numbers`` on ``_floats``, ``_real``, ``_flag``, ``_object``, ``_require``
and ``_by_neighbor``), and the matrix-health helpers: ``_sym``,
``_symmetric``, ``_cholesky``, ``_posdef``, ``_not_posdef``,
``_not_semidefinite``, ``_spd_factor``, ``_factor_solve``, ``_spd_solve``
and ``_solve``.  The filters, the oracles and the monitors symmetrize,
Cholesky-factor, solve and test definiteness only through them.
``_spd_factor`` and ``_factor_solve`` call LAPACK ``dpotrf`` and ``dpotrs``
directly, the routines that SciPy's ``cho_factor``/``cho_solve`` call, with
their checks: the same solutions bit for bit, without SciPy's per-call
overhead, which at the filters' sizes costs more than the factorization.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "LinearizationError",
    "StatePartition",
    "LinearSubsystem",
    "NonlinearSubsystem",
    "GlobalModel",
    "LinearizationBlocks",
    "make_partition",
    "assemble_global",
    "aggregate_nonlinear",
    "linearize",
    "linear_as_nonlinear",
]

#: Relative step for central-difference Jacobians.
FD_REL_STEP = 1e-6
#: Relative tolerance for the constructor spot check of analytic Jacobians.
JACOBIAN_CHECK_RTOL = 1e-5


class LinearizationError(RuntimeError):
    """A subsystem map (``f``, ``h``, ``jac_f``, ``jac_h``) raised, or returned
    a wrong shape, non-real or non-finite values.  Carries the subsystem index."""

    def __init__(self, message: str, subsystem: int | None = None):
        super().__init__(message)
        self.subsystem = subsystem


# -- value rules ---------------------------------------------------------


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; ``ValueError`` naming ``name`` unless it is an
    integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


#: The longest array NumPy can index: a bound on dimensions and horizons.
_MAX_LENGTH = int(np.iinfo(np.intp).max)


def _seed(value) -> int:
    """``value`` as a master seed, an integer that fits in 64 bits."""
    if not 0 <= (seed := _integer("seed", value)) < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    return seed


def _floats(value) -> np.ndarray | None:
    """``value``, a real number or nested lists of them, as a float array;
    ``None`` when it is not one (a bool is not a number, nor is an integer
    beyond the float range)."""
    if isinstance(value, np.ndarray) and value.dtype.kind != "O":
        return np.asarray(value, dtype=float) if value.dtype.kind in "iuf" else None
    try:   # refuses ragged lists and an integer beyond the float range
        out = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    # The conversion also takes bools, None and numeric strings: test the
    # types of the leaves.
    leaves = [value] if out.ndim == 0 else value
    for _ in range(out.ndim - 1):
        leaves = chain.from_iterable(leaves)
    kinds = set(map(type, leaves))
    real = kinds <= {float, int} or all(
        issubclass(k, numbers.Real) and not issubclass(k, bool) for k in kinds)
    return out if real else None


def _numbers(name: str, value) -> np.ndarray:
    """``value`` as a float array (:func:`_floats`); ``ValueError`` naming
    ``name`` unless it is a real number or nested lists of them."""
    if (out := _floats(value)) is None:
        raise ValueError(f"{name} must be a number or an array of numbers, "
                         f"not {reprlib.repr(value)}")
    return out


def _real(name: str, value) -> float:
    """``value`` as a float; ``ValueError`` naming ``name`` unless it is one
    real number (:func:`_floats`) that is finite."""
    x = _floats(value)
    if x is None or x.ndim or not math.isfinite(x):
        raise ValueError(f"{name} must be a finite real number, not {value!r}")
    return float(x)


def _flag(name: str, value) -> bool:
    """``value``; ``ValueError`` naming ``name`` unless it is true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, not {value!r}")
    return value


def _object(name: str, value) -> dict:
    """``value``; ``ValueError`` naming ``name`` unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, not {reprlib.repr(value)}")
    return value


def _require(name: str, value: dict, keys: tuple[str, ...]) -> None:
    """``ValueError`` naming ``name`` and the first of ``keys`` that
    ``value`` lacks."""
    for key in keys:
        if key not in value:
            raise ValueError(f"{name} is missing the key {key!r}")


def _by_neighbor(i: int, name: str, blocks) -> dict:
    """``blocks``, the mapping ``name`` of subsystem ``i``, keyed by ``int``
    subsystem index.  A key is an integer (:func:`_integer`) or a string of
    decimal digits, as a JSON object's keys are; ``ValueError`` naming ``i``
    when ``blocks`` is not a mapping, a key is neither, or two keys name the
    same subsystem."""
    if not isinstance(blocks, Mapping):
        raise ValueError(f"subsystem {i}: {name} must map neighbor indices, "
                         f"not {reprlib.repr(blocks)}")
    out = {}
    for key, b in blocks.items():
        l = (int(key) if isinstance(key, str) and key.isascii() and key.isdigit()
             else _integer(f"subsystem {i}: {name} key", key))
        if l in out:
            raise ValueError(f"subsystem {i}: neighbor {l} is given twice")
        out[l] = b
    return out


def _called(sub, what: str, fn, *args):
    """``fn(*args)``, a map of subsystem ``sub``; :class:`LinearizationError`
    naming the subsystem, chained to the cause, when it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        raise LinearizationError(f"subsystem {sub.index}: {what} raised {exc!r}",
                                 sub.index) from exc


def _jac_f_blocks(sub, got, keys: dict) -> list:
    """The blocks ``got`` of ``sub.jac_f`` in the order of ``keys`` (own
    block first), when their keys, as ``int`` (:func:`_by_neighbor`), are
    exactly those of ``keys``: ``{index} | neighbors``."""
    if type(got) is not dict or got.keys() != keys.keys():
        got = _called(sub, "jac_f", _by_neighbor, sub.index, "jac_f", got)
        if got.keys() != keys.keys():
            raise LinearizationError(f"subsystem {sub.index}: jac_f returned blocks for "
                                     f"{sorted(got)}, expected {sorted(keys)}", sub.index)
    return [got[l] for l in keys]


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite.  A finite sum has finite terms
    and overflows to inf without a warning; a sum of Python floats is faster
    than NumPy's test up to about 64 entries (1.2 against 1.5 us at 64, 2.4
    against 1.5 us at 128 on an x86-64 host)."""
    return (a.size <= 64 and math.isfinite(sum(a.ravel().tolist()))) or bool(
        np.isfinite(a).all())


def _put(dest: np.ndarray, sub, what: str, got, finite: bool = True) -> np.ndarray:
    """``dest`` with ``got``, a result of map ``what`` of subsystem ``sub``,
    written into it when it is an array of real numbers (integer or floating
    dtype) of ``dest``'s shape, finite as written; else :class:`LinearizationError`
    naming subsystem and map.  The one check of every subsystem map result;
    with ``finite`` false the caller tests what it wrote (:func:`_walk`)."""
    i, got = sub.index, got if type(got) is np.ndarray else _called(sub, what, np.asarray, got)
    if got.shape != dest.shape:
        raise LinearizationError(f"subsystem {i}: {what} returned shape {got.shape}, "
                                 f"expected {dest.shape}", i)
    if got.dtype.kind not in "iuf":
        raise LinearizationError(f"subsystem {i}: {what} returned {got.dtype} values, "
                                 "expected real numbers", i)
    dest[...] = got
    # What was written is tested, so a cast that overflows is caught.
    if finite and not _all_finite(dest):
        raise LinearizationError(f"subsystem {i}: {what} returned a non-finite value", i)
    return dest


#: The most walk plans a model keeps (``GlobalModel._plan``).
_PLANS = 16


def _walk(model: GlobalModel, x: np.ndarray, maps: Sequence[str],
          order: Sequence[int] | None = None, analytic: bool = True) -> list:
    """The maps ``maps``, called in this order, of the subsystems (by index,
    ``f`` and ``h`` in ``order`` if given) at ``x`` (``(..., nx)``): for
    ``f`` and ``h`` the stacked values, for ``jac_f`` and ``jac_h`` group
    stacks ``(..., members, nx or ny, d)`` whose rows are the column blocks,
    from the providers, or central differences without them or when
    ``analytic`` is false.  It runs the model's plan of the walk, the same
    for a point and a stack: a step whose one call serves a stack is called
    once, any other once per run."""
    lead = np.shape(x)[:-1]
    shapes, spans, steps, neighbors = model._plan(
        tuple(maps), None if order is None else tuple(order), analytic)
    written = [np.zeros(lead + shape) for shape in shapes]
    points, log, error = model.partition.split_state(x), [], None
    own = [(x_i, {l: points[l] for l in nbrs}) for x_i, nbrs in zip(points, neighbors)
           ] if "f" in maps or "jac_f" in maps else None
    try:
        for sub, name, fn, dynamics, keys, whole, dests in steps:
            a = own[sub.index] if dynamics else (points[sub.index],)
            for r in (None,) if whole or not lead else np.ndindex(*lead):
                b = a if r is None else ((a[0][r], {l: v[r] for l, v in a[1].items()})
                                         if dynamics else (a[0][r],))
                if fn is None:
                    got = _central(sub, name, *b)
                else:
                    got = _called(sub, name, fn, *b)
                    got = (got,) if keys is None else _jac_f_blocks(sub, got, keys)
                for (j, index, what), blk in zip(dests, got):
                    at = written[j][index] if r is None else written[j][r][index]
                    log.append((_put(at, sub, what, blk, False), sub, what))
    except LinearizationError as exc:
        error = exc
    if error or not all(map(_all_finite, written)):
        # What was written is checked in call order: the first bad block raises.
        for at, sub, what in log:
            _put(at, sub, what, at)
        raise error
    return [written[s] for s in spans]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _tr(m: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix of a stack."""
    return m.swapaxes(-1, -2)


def _matvec(m: np.ndarray, x) -> np.ndarray:
    """``m @ x`` for a vector ``x``, and for a stack of vectors ``(..., n)``
    one matrix-vector product per vector, with ``m`` a matrix or a stack
    broadcast against the vectors', so that each vector of the stack gets
    the bits of its matrix ``@ vector`` (``x @ m.T`` would not)."""
    x = np.asarray(x)
    return m @ x if x.ndim == 1 else (m @ x[..., None])[..., 0]


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + _tr(m))


def _symmetric(*ms: np.ndarray) -> bool:
    """Whether every given finite matrix, or every matrix of a given stack,
    equals its transpose to the weights' tolerance: ``np.allclose``'s test
    at rtol 1e-10, atol 1e-12."""
    a = np.concatenate([m.ravel() for m in ms])
    b = np.concatenate([_tr(m).ravel() for m in ms])
    return bool((np.abs(a - b) <= 1e-12 + 1e-10 * np.abs(b)).all())


def _cholesky(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a matrix, or of each matrix of a stack;
    ``None`` when one has none."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def _posdef(m: np.ndarray) -> bool:
    """Whether a matrix, or every matrix of a stack, has a Cholesky factor."""
    return _cholesky(m) is not None


def _not_posdef(stack: np.ndarray) -> int | None:
    """Position on the member axis (the third-last) of the first member of
    a stack, or of a stack of runs, that has a matrix without a Cholesky
    factor, or ``None`` when every one has one: one batched factorization,
    and a search member by member only when it fails."""
    if _posdef(stack):
        return None
    return next(j for j in range(stack.shape[-3]) if not _posdef(stack[..., j, :, :]))


#: Tolerance of :func:`_not_semidefinite`: a matrix is positive semidefinite
#: when its smallest eigenvalue is at least ``-SEMIDEF_RTOL`` times its
#: largest eigenvalue magnitude, which admits rounding below zero.
SEMIDEF_RTOL = 1e-12


def _not_semidefinite(stack: np.ndarray) -> int | None:
    """Position of the first symmetric matrix of a stack that is not
    positive semidefinite to :data:`SEMIDEF_RTOL`, or ``None`` when every
    one is: one batched eigenvalue call."""
    eig = np.linalg.eigvalsh(stack)
    bad = eig[:, 0] < -SEMIDEF_RTOL * np.abs(eig).max(axis=-1)
    return int(np.flatnonzero(bad)[0]) if bad.any() else None


def _solve(a: np.ndarray, b: np.ndarray, error: Exception) -> np.ndarray:
    """``a^-1 b`` for a matrix or a stack through LAPACK's LU solve; raises
    ``error``, chained to the ``LinAlgError``, when a matrix is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise error from exc


def _finite(a: np.ndarray) -> None:
    if not _all_finite(a):
        raise ValueError("array must not contain infs or NaNs")


def _spd_factor(m: np.ndarray, error: Exception) -> np.ndarray:
    """The upper Cholesky factor of the symmetric part of ``m``, for
    :func:`_factor_solve`; raises ``error``, chained to a ``LinAlgError``,
    when that part is not positive definite, and ``ValueError`` when it is
    not finite, as ``cho_factor`` does."""
    s = _sym(m)
    _finite(s)
    c, info = dpotrf(s, lower=0, clean=0)
    if info > 0:
        raise error from np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                         "on entry to POTRF")
    return c


def _factor_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``m^-1 b`` from the factor ``c = _spd_factor(m, ...)``, as
    ``cho_solve`` gives it: a non-finite ``b`` raises ``ValueError`` and an
    empty system gives an empty solution shaped as ``b``.  LAPACK solves
    each column of ``b`` on its own: with OpenBLAS a solve over many columns
    gives every column the bits of a solve over that column alone, which
    ``tests/test_model.py`` checks."""
    _finite(b)
    if np.size(b) == 0:
        return np.empty_like(b, dtype=float)
    x, info = dpotrs(c, b, lower=0)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal POTRS")
    return x


def _spd_solve(m: np.ndarray, b: np.ndarray, error: Exception) -> np.ndarray:
    """``m^-1 b`` through the Cholesky factor of the symmetric part of ``m``:
    :func:`_factor_solve` of :func:`_spd_factor`."""
    return _factor_solve(_spd_factor(m, error), b)


def _check_spd(m: np.ndarray, name: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    if not _symmetric(m):
        raise ValueError(f"{name} must be symmetric")
    if not _posdef(m):
        raise ValueError(f"{name} must be positive definite")


def _weights(i: int, Q, R, state_dim: int, out_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Subsystem ``i``'s noise weights, frozen: ``Q`` and ``R`` symmetric
    positive definite, ``Q`` of the state dimension and ``R`` of the output
    dimension (``0 x 0`` for a subsystem without outputs)."""
    q, r = (_frozen(_numbers(f"subsystem {i}: {name}", m)) for name, m in (("Q", Q), ("R", R)))
    _check_spd(q, f"subsystem {i}: Q")
    _check_spd(r, f"subsystem {i}: R")
    if q.shape[0] != state_dim:
        raise ValueError(f"subsystem {i}: Q must be {state_dim}x{state_dim}")
    if r.shape[0] != out_dim:
        raise ValueError(f"subsystem {i}: R must match the output dimension {out_dim}")
    return q, r


@dataclass(frozen=True)
class StatePartition:
    """Ordered subsystem dimensions and the derived global index ranges.

    Attributes
    ----------
    dims : tuple of int
        Per-subsystem state dimensions.
    out_dims : tuple of int
        Per-subsystem measurement dimensions (zero allowed).
    offsets : tuple of int
        Cumulative state offsets, length ``n + 1``; subsystem ``i`` owns
        global state indices ``offsets[i]:offsets[i+1]``.
    out_offsets : tuple of int
        Same for the measurement vector.
    """

    dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    offsets: tuple[int, ...]
    out_offsets: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def nx(self) -> int:
        return self.offsets[-1]

    @property
    def ny(self) -> int:
        return self.out_offsets[-1]

    @cached_property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The subsystems of each state dimension, by ascending dimension:
        per group its members in index order and, one row per member, their
        state indices (``len(members) x d``), both read-only.  The filters
        and the monitors make one batched call per group."""
        dims = np.array(self.dims)
        starts = np.array(self.offsets[:-1])
        out = []
        for d in np.unique(dims):
            members = np.flatnonzero(dims == d)
            idx = starts[members, None] + np.arange(d)
            for a in (members, idx):
                a.flags.writeable = False
            out.append((members, idx))
        return tuple(out)

    @cached_property
    def slots(self) -> tuple[tuple[int, int], ...]:
        """Per subsystem, its group and its row in that group's stacks."""
        return tuple(dict(sorted((int(i), (j, r)) for j, (members, _) in enumerate(self.groups)
                                 for r, i in enumerate(members))).values())

    def stacked(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per group, the stack of its members' ``blocks[i]``."""
        return [np.stack([blocks[i] for i in members]) for members, _ in self.groups]

    def assembled(self, stacks: Sequence[np.ndarray]) -> np.ndarray:
        """The matrix ``(..., rows, nx)`` of group stacks ``(..., members,
        rows, d)``: :meth:`unstacked` concatenated, without its views."""
        out = np.empty(stacks[0].shape[:-3] + (stacks[0].shape[-2], self.nx))
        for (_, idx), stack in zip(self.groups, stacks):
            out[..., idx] = np.swapaxes(stack, -3, -2)
        return out

    def unstacked(self, stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per subsystem, its row of its group's stack of matrices: views."""
        return [stacks[j][r] for j, r in self.slots]

    def state_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    def out_slice(self, i: int) -> slice:
        return slice(self.out_offsets[i], self.out_offsets[i + 1])

    def split_state(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a global state vector into per-subsystem blocks."""
        x = np.asarray(x)
        if x.shape[-1] != self.nx:
            raise ValueError(f"state has dimension {x.shape[-1]}, expected {self.nx}")
        return [x[..., a:b] for a, b in zip(self.offsets, self.offsets[1:])]

    def stack(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-subsystem blocks back into a global vector;
        ``ValueError`` naming the subsystem unless block ``i`` holds ``d_i``
        real numbers."""
        if len(blocks) != self.n:
            raise ValueError(f"expected {self.n} blocks, got {len(blocks)}")
        blocks = [_numbers(f"the block of subsystem {i}", b) for i, b in enumerate(blocks)]
        for i, (b, d) in enumerate(zip(blocks, self.dims)):
            if b.shape != (d,):
                raise ValueError(f"the block of subsystem {i} has shape {b.shape}, "
                                 f"expected ({d},)")
        return np.concatenate(blocks)


def make_partition(dims: Sequence[int], out_dims: Sequence[int]) -> StatePartition:
    """Build a :class:`StatePartition` from per-subsystem dimensions.

    ``dims`` must be positive integers; ``out_dims`` non-negative integers of
    the same length (by :func:`_integer`).  Offsets are contiguous,
    non-overlapping and ordered by subsystem index.
    """
    given = {"dims": dims, "out_dims": out_dims}
    for name, value in given.items():
        if isinstance(value, str) or not isinstance(value, (Sequence, np.ndarray)):
            raise ValueError(f"{name} must be a list of integers, not {reprlib.repr(value)}")
        given[name] = tuple(_integer(f"{name}[{i}]", d) for i, d in enumerate(value))
    dims, out_dims = given.values()
    if not dims:
        raise ValueError("dims must list at least one subsystem")
    if len(dims) != len(out_dims):
        raise ValueError("dims and out_dims must have equal length")
    if any(d <= 0 for d in dims):
        raise ValueError(f"dims must be positive, not {dims}")
    if any(d < 0 for d in out_dims):
        raise ValueError(f"out_dims must be non-negative, not {out_dims}")
    offsets = (0, *np.cumsum(dims).tolist())
    out_offsets = (0, *np.cumsum(out_dims).tolist())
    if max(offsets[-1], out_offsets[-1]) > _MAX_LENGTH:
        raise ValueError(f"dims and out_dims must sum to at most {_MAX_LENGTH}")
    return StatePartition(dims, out_dims, tuple(offsets), tuple(out_offsets))


def _check_instants(name: str, rows: np.ndarray, partition: StatePartition, what: str,
                    error: type[Exception] = ValueError) -> None:
    """Raise ``error`` when ``rows``, one stacked vector of the subsystems'
    ``what`` (``"outputs"`` or ``"states"``) per instant, hold a non-finite
    entry, naming the first such instant and the subsystems it is in."""
    block = partition.out_slice if what == "outputs" else partition.state_slice
    bad = ~np.isfinite(rows)
    if bad.any():
        k = int(np.flatnonzero(bad.any(axis=1))[0])
        owners = [l for l in range(partition.n) if bad[k, block(l)].any()]
        raise error(f"{name} at instant {k} is not finite in the {what} "
                    f"of subsystems {owners}")


@dataclass(frozen=True)
class LinearSubsystem:
    """One linear subsystem: own dynamics block, neighbor coupling blocks,
    output block and noise weights.

    ``x_i(k+1) = A x_i(k) + sum_l coupling[l] x_l(k) + w_i(k)``,
    ``y_i(k) = C x_i(k) + v_i(k)``.

    ``A``, ``C`` and the coupling blocks must be finite and ``Q`` and ``R``
    symmetric positive definite; this is checked at construction, naming the
    matrix.  Coupling blocks are keyed by neighbor index, each index
    given once; the neighbor set is exactly the set of declared keys.
    :meth:`f`, :meth:`h`, :meth:`jac_f`, :meth:`jac_h`, ``state_box = None``
    and ``stacked = False`` meet the :class:`NonlinearSubsystem` contract
    with exact affine maps of one point.
    """

    index: int
    A: np.ndarray
    coupling: Mapping[int, np.ndarray]
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "index", _integer("subsystem index", self.index))
        a = _frozen(_numbers(f"subsystem {self.index}: A", self.A))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"subsystem {self.index}: A must be square, got {a.shape}")
        nx = a.shape[0]
        c = _frozen(_numbers(f"subsystem {self.index}: C", self.C))
        if c.ndim != 2 or c.shape[1] != nx:
            raise ValueError(
                f"subsystem {self.index}: C must have as many columns as A has rows "
                f"({nx}), got {c.shape}"
            )
        q, r = _weights(self.index, self.Q, self.R, nx, c.shape[0])
        cleaned = {}
        for l, blk in _by_neighbor(self.index, "coupling", self.coupling).items():
            if l == self.index:
                raise ValueError(f"subsystem {self.index}: self-coupling must go in A")
            b = _frozen(_numbers(f"subsystem {self.index}: coupling block to {l}", blk))
            if b.ndim != 2 or b.shape[0] != nx:
                raise ValueError(
                    f"subsystem {self.index}: coupling block to {l} must have {nx} rows"
                )
            cleaned[l] = b
        for name, m in (("A", a), ("C", c),
                        *((f"coupling block to {l}", b) for l, b in cleaned.items())):
            if not np.isfinite(m).all():
                raise ValueError(f"subsystem {self.index}: {name} must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "coupling", dict(sorted(cleaned.items())))

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def out_dim(self) -> int:
        return self.C.shape[0]

    @property
    def neighbors(self) -> tuple[int, ...]:
        return tuple(self.coupling.keys())

    @property
    def neighbor_dims(self) -> dict[int, int]:
        """Neighbor index -> that neighbor's state dimension, as declared by
        the coupling blocks."""
        return {l: blk.shape[1] for l, blk in self.coupling.items()}

    state_box = None
    stacked = False

    def f(self, x_i: np.ndarray, neighbors: Mapping[int, np.ndarray]) -> np.ndarray:
        """``A x_i + sum_l coupling[l] x_l``, the neighbors added in ascending
        index order: the linear filter's prediction from the posteriors,
        which ``GlobalModel._affine`` gives every subsystem bit for bit."""
        out = self.A @ x_i
        for l, blk in self.coupling.items():
            out = out + blk @ neighbors[l]
        return out

    def h(self, x_i: np.ndarray) -> np.ndarray:
        """``C x_i``, as ``GlobalModel._affine`` gives it."""
        return self.C @ x_i

    def jac_f(self, x_i: np.ndarray, neighbors: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
        """The read-only blocks ``{index: A, l: coupling[l]}``."""
        return {self.index: self.A, **self.coupling}

    def jac_h(self, x_i: np.ndarray) -> np.ndarray:
        return self.C


@dataclass(frozen=True)
class NonlinearSubsystem:
    """One nonlinear subsystem.

    ``f(x_i, neighbors) -> next x_i`` where ``neighbors`` maps each declared
    neighbor index to that subsystem's current state block, and
    ``h(x_i) -> y_i``; ``jac_f(x_i, neighbors)`` and ``jac_h(x_i)`` are
    optional analytic Jacobians.  On the declared state box every map returns
    finite real numbers: ``f`` of shape ``(state_dim,)``, ``h`` of ``(out_dim,)``,
    ``jac_h = d h_i / d x_i`` of ``(out_dim, state_dim)`` and ``jac_f`` exactly
    the blocks ``{l: d f_i / d x_l}`` for ``l`` in ``{index} | neighbors``,
    block ``l`` of shape ``(state_dim, dim of l)``.  A map that raises or
    breaks this raises :class:`LinearizationError` naming the subsystem, with
    the instant added by the filters (or as a ``SimulationError`` with the
    step from ``simulate``).  When analytic Jacobians and
    ``jacobian_check_samples`` are both supplied, the constructor spot-checks
    them against central finite differences at relative tolerance 1e-5.

    ``stacked=True`` promises that every map also takes a stack of points,
    ``x_i`` of shape ``(..., state_dim)`` and each neighbor's block of
    ``(..., dim of l)``, and returns its result with the stack's axes
    first, each row computed from its own points alone, with the bits of
    the map's call on that row alone.  Then a Monte Carlo ensemble calls
    each map once per instant for all its runs.  Whether rows stay apart
    cannot be told from a map's values (a map that branches on
    ``np.any(x_i > limit)`` agrees inside the box and mixes runs outside
    it), so the flag is the author's to give.  The constructor needs at
    least two ``jacobian_check_samples`` for it, calls every map on them
    stacked as one batch, in their order and in reverse, and keeps the
    flag only when each row equals the map's call on that sample alone bit
    for bit; otherwise ``stacked`` reads false and the maps are called per
    point.  The check is on exact bits, so it is run where the program
    runs: a map's arithmetic must be the same for a point and for a stack.
    One trap: ``z ** 2`` of a NumPy float64 scalar is libm ``pow``, of an
    array ``z * z``, and the two differ in the last bit at some points;
    ``np.float_power(z, 2)`` of an array gives the scalar's bits.
    """

    index: int
    state_dim: int
    out_dim: int
    neighbor_dims: Mapping[int, int]
    f: Callable[[np.ndarray, Mapping[int, np.ndarray]], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    Q: np.ndarray
    R: np.ndarray
    jac_f: Callable[[np.ndarray, Mapping[int, np.ndarray]], dict[int, np.ndarray]] | None = None
    jac_h: Callable[[np.ndarray], np.ndarray] | None = None
    state_box: tuple[np.ndarray, np.ndarray] | None = None
    jacobian_check_samples: tuple = ()
    stacked: bool = False

    def __post_init__(self):
        i = _integer("subsystem index", self.index)
        for name in ("index", "state_dim", "out_dim"):
            object.__setattr__(self, name, _integer(f"subsystem {i}: {name}", getattr(self, name)))
        if self.state_dim <= 0:
            raise ValueError(f"subsystem {i}: state_dim must be positive")
        if self.out_dim < 0:
            raise ValueError(f"subsystem {i}: out_dim must be non-negative")
        q, r = _weights(self.index, self.Q, self.R, self.state_dim, self.out_dim)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "neighbor_dims", dict(sorted(
            (l, _integer(f"subsystem {i}: neighbor_dims[{l}]", d))
            for l, d in _by_neighbor(i, "neighbor_dims", self.neighbor_dims).items())))
        if self.index in self.neighbor_dims:
            raise ValueError(f"subsystem {self.index}: neighbor_dims must not list "
                             "the subsystem itself")
        if self.state_box is not None:
            box = _numbers(f"subsystem {i}: state_box", self.state_box)
            if box.shape != (2, self.state_dim):
                raise ValueError(f"subsystem {i}: state_box must match state_dim")
            object.__setattr__(self, "state_box", (_frozen(box[0]), _frozen(box[1])))
        name = f"subsystem {i}: jacobian_check_samples"
        object.__setattr__(self, "jacobian_check_samples", tuple(
            (_frozen(_numbers(name, x_i)),
             {l: _frozen(_numbers(name, v))
              for l, v in _by_neighbor(i, "sample neighbors", nbrs).items()})
            for x_i, nbrs in self.jacobian_check_samples))
        if _flag(f"subsystem {i}: stacked", self.stacked) and len(
                self.jacobian_check_samples) < 2:
            raise ValueError(f"subsystem {i}: stacked maps need at least two "
                             "jacobian_check_samples")
        if self.jac_f is not None or self.jac_h is not None:
            self._spot_check_jacobians()
        if self.stacked:
            object.__setattr__(self, "stacked", self._stacks_agree())

    @property
    def neighbors(self) -> tuple[int, ...]:
        return tuple(self.neighbor_dims.keys())

    def _spot_check_jacobians(self) -> None:
        for x_i, nbrs in self.jacobian_check_samples:
            _results(self, "f", x_i, nbrs)
            for name in ("jac_f", "jac_h") if self.out_dim else ("jac_f",):
                if getattr(self, name) is None:
                    continue
                for l, got, want in zip((self.index, *self.neighbors),
                                        _results(self, name, x_i, nbrs),
                                        _central(self, name, x_i, nbrs)):
                    if not _agrees(got, want):
                        what = f"df/dx_{l}" if name == "jac_f" else "dh/dx"
                        raise ValueError(f"subsystem {self.index}: analytic {what} "
                                         "disagrees with finite differences")

    def _stacks_agree(self) -> bool:
        """Whether each map the filters call (``f``, ``h`` and the given
        providers, ``jac_h`` only with outputs), called once on the check
        samples stacked as one batch, in their order and in reverse, gives
        every sample the bits of its call on that sample alone.  A stacked
        call that raises or returns a wrong result does not agree."""
        samples = self.jacobian_check_samples
        maps = ["f", "h", *(["jac_f"] if self.jac_f is not None else []),
                *(["jac_h"] if self.jac_h is not None and self.out_dim else [])]
        alone = {name: [_results(self, name, x_i, nbrs) for x_i, nbrs in samples]
                 for name in maps}
        for order in (range(len(samples)), range(len(samples) - 1, -1, -1)):
            x = np.stack([samples[s][0] for s in order])
            nbrs = {l: np.stack([samples[s][1][l] for s in order]) for l in self.neighbors}
            for name, want in alone.items():
                try:
                    got = _results(self, name, x, nbrs)
                except LinearizationError:
                    return False
                if any(g[row].tobytes() != w.tobytes()
                       for row, s in enumerate(order) for g, w in zip(got, want[s])):
                    return False
        return True


def _results(sub: NonlinearSubsystem, name: str, x_i: np.ndarray,
             nbrs: Mapping[int, np.ndarray]) -> list[np.ndarray]:
    """The checked result of one call of map ``name`` of ``sub`` at
    ``x_i`` (and, for the dynamics, the neighbors' blocks ``nbrs``), with
    the leading axes of ``x_i``: as new float arrays, the blocks of
    ``jac_f`` own block first, else one array."""
    lead, d = x_i.shape[:-1], sub.state_dim
    dynamics = name in ("f", "jac_f")
    got = _called(sub, name, getattr(sub, name), *((x_i, nbrs) if dynamics else (x_i,)))
    if name == "jac_f":
        dims = {sub.index: d, **sub.neighbor_dims}
        return [_put(np.empty(lead + (d, dims[l])), sub, f"jac_f block {l}", b)
                for l, b in zip(dims, _jac_f_blocks(sub, got, dims))]
    shape = {"f": (d,), "h": (sub.out_dim,), "jac_h": (sub.out_dim, d)}[name]
    return [_put(np.empty(lead + shape), sub, name, got)]


def _agrees(got: np.ndarray, want: np.ndarray) -> bool:
    """Analytic Jacobian ``got`` within ``JACOBIAN_CHECK_RTOL`` of ``want``."""
    scale = 1.0 + np.abs(want)
    return bool(np.all(np.abs(got - want) <= JACOBIAN_CHECK_RTOL * scale))


def _central(sub: NonlinearSubsystem, name: str, x_i: np.ndarray,
             nbrs: Mapping[int, np.ndarray] | None = None) -> list[np.ndarray]:
    """The central-difference Jacobian that stands in for the provider
    ``name`` (``"jac_f"`` or ``"jac_h"``) of ``sub`` at ``x_i`` and, for the
    dynamics, the neighbors' blocks ``nbrs``: as :func:`_results` gives the
    provider's, the blocks of ``jac_f`` own block first, else one array.
    The map is called at the point, then at ``x_j + step`` and ``x_j -
    step`` per coordinate, step ``max(1e-6, 1e-6 |x_j|)``, each call
    checked by :func:`_results`."""
    value, rows = ("f", sub.state_dim) if name == "jac_f" else ("h", sub.out_dim)
    _results(sub, value, x_i, nbrs)
    blocks = []
    for l in (sub.index, *sub.neighbors) if value == "f" else (sub.index,):
        at = x_i if l == sub.index else nbrs[l]
        block = np.empty((rows, at.size))
        for j, step in enumerate(np.maximum(FD_REL_STEP, FD_REL_STEP * np.abs(at))):
            plus, minus = at.copy(), at.copy()
            plus[j] += step
            minus[j] -= step
            f_plus, f_minus = (_results(sub, value, v, nbrs)[0] if l == sub.index
                               else _results(sub, value, x_i, {**nbrs, l: v})[0]
                               for v in (plus, minus))
            block[:, j] = (f_plus - f_minus) / (2.0 * step)
        blocks.append(block)
    return blocks


@dataclass(frozen=True)
class GlobalModel:
    """Aggregated plant-wide model.

    For a linear plant, ``A`` and ``C`` hold the assembled matrices and the
    per-subsystem column blocks are built once, read-only, on first use.  For
    a nonlinear plant, ``A``/``C`` are ``None`` and :meth:`f`/:meth:`h`
    evaluate the stacked maps.
    ``Q`` and ``R`` are block diagonal in both cases.
    """

    partition: StatePartition
    subsystems: tuple
    A: np.ndarray | None
    C: np.ndarray | None
    Q: np.ndarray
    R: np.ndarray

    @property
    def linear(self) -> bool:
        return self.A is not None

    @property
    def nx(self) -> int:
        return self.partition.nx

    @property
    def ny(self) -> int:
        return self.partition.ny

    @cached_property
    def _col_blocks(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Every subsystem's column blocks of A and of C, read-only."""
        slices = [self.partition.state_slice(i) for i in range(self.partition.n)]
        return (tuple(_frozen(self.A[:, s]) for s in slices),
                tuple(_frozen(self.C[:, s]) for s in slices))

    @cached_property
    def _affine(self) -> _AffineStacks:
        """The subsystems' affine maps as group stacks (linear only)."""
        return _AffineStacks(self)

    def a_col(self, i: int) -> np.ndarray:
        """Stacked column block of A owned by subsystem ``i`` (linear only)."""
        if self.A is None:
            raise ValueError("a_col is only defined for linear models")
        return self._col_blocks[0][i]

    def c_col(self, i: int) -> np.ndarray:
        """Column block of C for subsystem ``i`` (linear only)."""
        if self.C is None:
            raise ValueError("c_col is only defined for linear models")
        return self._col_blocks[1][i]

    def _plan(self, maps: tuple, order: tuple | None, analytic: bool) -> tuple:
        """The walk of ``maps`` (:func:`_walk`), compiled once and kept (the
        last :data:`_PLANS`): the shapes, without a stack's axes, of the arrays
        it writes, the slot or slots of each map's result, its steps in call
        order and each subsystem's neighbors.  A step is ``(subsystem, map,
        callable or None for central differences, dynamics, jac_f keys, one
        call serves a stack, blocks)``, a block ``(slot, index, label)``."""
        plans = self.__dict__.setdefault("_plans", {})   # kept as cached properties are
        if (plan := plans.get(key := (maps, order, analytic))) is not None:
            return plan
        p, shapes, spans, steps = self.partition, [], [], []
        for name in maps:
            dynamics, value, at = name in ("f", "jac_f"), name in ("f", "h"), len(shapes)
            size = p.nx if dynamics else p.ny
            shapes += [(size,)] if value else [(len(m), size, idx.shape[1]) for m, idx in p.groups]
            spans.append(at if value else slice(at, len(shapes)))
            for i in order if order is not None and value else range(p.n):
                sub, rows = self.subsystems[i], (p.state_slice if dynamics else p.out_slice)(i)
                if not (value or dynamics or sub.out_dim):   # the Jacobian of no outputs
                    continue
                fn = getattr(sub, name) if value or analytic else None
                fd = "" if fn is not None else "central-difference "
                keys = dict.fromkeys((i, *sub.neighbors)) if name == "jac_f" else None
                # Indexed from the last axes: one index for a point and a stack.
                steps.append((sub, name, fn, dynamics, keys, sub.stacked and fn is not None, (
                    ((at, (..., rows), name),) if value else tuple(
                        (at + p.slots[l][0], (..., p.slots[l][1], rows, slice(None)),
                         fd + (f"jac_f block {l}" if keys else name)) for l in keys or (i,)))))
        plans[key] = plan = (tuple(shapes), tuple(spans), tuple(steps),
                             tuple(sub.neighbors for sub in self.subsystems))
        if len(plans) > _PLANS:
            plans.pop(next(iter(plans)))
        return plan

    def values(self, x: np.ndarray, maps: Sequence[str]) -> list[np.ndarray]:
        """The global maps ``maps`` (``"f"``, ``"h"``, called in this order)
        at the state, or the stack of states, ``x`` (noise-free), each state
        the bits of its own call; a nonlinear model's in one :func:`_walk`."""
        x = np.asarray(x, dtype=float)
        if self.linear:
            return [_matvec(self.A if name == "f" else self.C, x) for name in maps]
        return _walk(self, x, maps)

    def f(self, x: np.ndarray) -> np.ndarray:
        """One step of the global dynamics (noise-free), as :meth:`values`."""
        return self.values(x, ("f",))[0]

    def h(self, x: np.ndarray) -> np.ndarray:
        """Global output map (noise-free), as :meth:`values`."""
        return self.values(x, ("h",))[0]

    def state_box(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Assembled validity box, or None when no subsystem declares one."""
        boxes = [s.state_box for s in self.subsystems]
        if all(b is None for b in boxes):
            return None
        lo = np.full(self.nx, -np.inf)
        hi = np.full(self.nx, np.inf)
        for i, b in enumerate(boxes):
            if b is not None:
                sl = self.partition.state_slice(i)
                lo[sl], hi[sl] = b
        return lo, hi


class _AffineStacks:
    """A linear model's subsystem maps as read-only group stacks, built once
    per model (``GlobalModel._affine``).  Per group of the partition: the
    members' state indices and ``A_i``; per neighbor slot (a member's
    ``s``-th neighbor in ascending order) and neighbor dimension, the rows
    of the members that have one, its state indices and the coupling
    blocks; per nonzero output dimension, the state indices, output indices
    and ``C_i`` of those members.  :meth:`f` and :meth:`h` take a few stack
    products (``_matvec``) per group and give each member the bits of its
    own :meth:`LinearSubsystem.f` and :meth:`LinearSubsystem.h` call.  No
    slot is padded with zero blocks: ``-0.0 + 0.0`` is ``0.0``, so padding
    could flip the sign of a zero."""

    def __init__(self, model: GlobalModel):
        p = model.partition
        starts, out_starts = np.array(p.offsets[:-1]), np.array(p.out_offsets[:-1])
        self.ny, groups = p.ny, []
        for members, idx in p.groups:
            subs = [model.subsystems[i] for i in members]
            slots = []
            for s in range(max(len(sub.neighbors) for sub in subs)):
                have = [(r, sub.neighbors[s]) for r, sub in enumerate(subs)
                        if len(sub.neighbors) > s]
                for e in sorted({p.dims[l] for _, l in have}):
                    rows, nbrs = zip(*((r, l) for r, l in have if p.dims[l] == e))
                    slots.append((np.array(rows), starts[list(nbrs), None] + np.arange(e),
                                  np.stack([subs[r].coupling[l] for r, l in zip(rows, nbrs)])))
            outputs = []
            for m in sorted({sub.out_dim for sub in subs} - {0}):
                rows = [r for r, sub in enumerate(subs) if sub.out_dim == m]
                outputs.append((idx[rows], out_starts[members[rows], None] + np.arange(m),
                                np.stack([subs[r].C for r in rows])))
            groups.append((idx, np.stack([sub.A for sub in subs]), tuple(slots),
                           tuple(outputs)))
        for a in chain.from_iterable(chain(g[:2], *g[2], *g[3]) for g in groups):
            a.flags.writeable = False
        self.groups = tuple(groups)

    def f(self, x: np.ndarray) -> np.ndarray:
        """``[f_i(x_i, neighbors)]_i`` at the states ``x`` (``(..., nx)``)."""
        out = np.empty(x.shape)
        for idx, A, slots, _ in self.groups:
            y = _matvec(A, x[..., idx])
            for rows, nbrs, blocks in slots:
                y[..., rows, :] += _matvec(blocks, x[..., nbrs])
            out[..., idx] = y
        return out

    def h(self, x: np.ndarray) -> np.ndarray:
        """``[h_i(x_i)]_i`` at the states ``x`` (``(..., nx)``); a subsystem
        without outputs adds nothing."""
        out = np.empty(x.shape[:-1] + (self.ny,))
        for *_, outputs in self.groups:
            for idx, rows, C in outputs:
                out[..., rows] = _matvec(C, x[..., idx])
        return out


def _aggregate(subs: Sequence, partition: StatePartition) -> tuple:
    """The subsystems, linear or nonlinear, sorted by index and checked
    against the partition (indices ``0..n-1`` exactly once, state and output
    dimensions, neighbor indices and dimensions), and the block diagonal
    ``Q`` and ``R``."""
    n = partition.n
    if sorted(s.index for s in subs) != list(range(n)):
        raise ValueError("subsystem indices must cover 0..n-1 exactly once")
    subs = tuple(sorted(subs, key=lambda s: s.index))
    Q = np.zeros((partition.nx, partition.nx))
    R = np.zeros((partition.ny, partition.ny))
    for i, sub in enumerate(subs):
        if sub.state_dim != partition.dims[i]:
            raise ValueError(f"subsystem {i}: state dimension {sub.state_dim} "
                             f"does not match partition {partition.dims[i]}")
        if sub.out_dim != partition.out_dims[i]:
            raise ValueError(f"subsystem {i}: output dimension {sub.out_dim} "
                             f"does not match partition {partition.out_dims[i]}")
        for l, d in sub.neighbor_dims.items():
            if not 0 <= l < n:
                raise ValueError(f"subsystem {i}: unknown neighbor {l}")
            if d != partition.dims[l]:
                raise ValueError(f"subsystem {i}: neighbor {l} has dimension {d}, "
                                 f"expected {partition.dims[l]}")
        Q[partition.state_slice(i), partition.state_slice(i)] = sub.Q
        R[partition.out_slice(i), partition.out_slice(i)] = sub.R
    return subs, _frozen(Q), _frozen(R)


def assemble_global(subs: Sequence[LinearSubsystem], partition: StatePartition) -> GlobalModel:
    """Concatenate linear subsystems into the global model.

    Subsystem indices must cover ``0..n-1`` exactly once and every coupling
    block must match the partition dimensions.  Undeclared coupling blocks are
    exactly zero; the output matrix is block diagonal by construction.
    """
    subs, Q, R = _aggregate(subs, partition)
    A = np.zeros((partition.nx, partition.nx))
    C = np.zeros((partition.ny, partition.nx))
    for i, sub in enumerate(subs):
        si = partition.state_slice(i)
        A[si, si] = sub.A
        C[partition.out_slice(i), si] = sub.C
        for l, blk in sub.coupling.items():
            A[si, partition.state_slice(l)] = blk
    return GlobalModel(partition, subs, _frozen(A), _frozen(C), Q, R)


def aggregate_nonlinear(subs: Sequence[NonlinearSubsystem],
                        partition: StatePartition) -> GlobalModel:
    """Aggregate nonlinear subsystems into a global model with stacked maps,
    checked as :func:`assemble_global` checks linear ones.  Given linear
    subsystems, it is the affine view of their plant: the maps are their own
    affine methods."""
    subs, Q, R = _aggregate(subs, partition)
    return GlobalModel(partition, subs, None, None, Q, R)


@dataclass(frozen=True)
class LinearizationBlocks:
    """Jacobian blocks of the stacked maps at one evaluation point.

    ``a_blocks[(l, i)]`` is the derivative of subsystem ``l``'s dynamics with
    respect to subsystem ``i``'s state block (zero when ``i`` does not
    influence ``l``); ``a_cols[i]`` stacks those blocks over ``l``.
    ``c_cols[i]`` is the derivative of the stacked output map with respect to
    block ``i``; concatenating the ``c_cols`` reproduces the assembled ``C``.
    """

    a_blocks: Mapping[tuple[int, int], np.ndarray]
    a_cols: tuple[np.ndarray, ...]
    c_cols: tuple[np.ndarray, ...]
    A: np.ndarray
    C: np.ndarray


def linearize(subs: Sequence[NonlinearSubsystem], x_point: np.ndarray,
              mode: str = "analytic") -> LinearizationBlocks:
    """Jacobian blocks of the stacked dynamics and output maps at one point.

    ``mode`` is ``"analytic"`` (requires providers on every subsystem) or
    ``"fd"`` (central differences).  The subsystems are checked as the global
    assemblies check them.  Raises :class:`LinearizationError` with
    the offending subsystem index when a map raises or returns a wrong shape
    or a non-finite value.
    """
    subs = sorted(subs, key=lambda s: s.index)
    partition = make_partition([s.state_dim for s in subs], [s.out_dim for s in subs])
    model = aggregate_nonlinear(subs, partition)
    x = np.asarray(x_point, dtype=float)
    if x.shape != (partition.nx,):
        raise ValueError(f"x_point must have shape ({partition.nx},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x_point must be finite")
    if mode not in ("analytic", "fd"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "analytic":
        missing = [s.index for s in subs if s.jac_f is None or (s.out_dim and s.jac_h is None)]
        if missing:
            raise ValueError(f"analytic Jacobians missing for subsystems {missing}")

    stacks = _walk(model, x, ("jac_f", "jac_h"), analytic=mode == "analytic")
    a_cols, c_cols = (tuple(partition.unstacked(s)) for s in stacks)
    a_blocks = {(l, i): a_cols[i][partition.state_slice(l)]
                for l in range(partition.n) for i in range(partition.n)}
    A, C = (_frozen(partition.assembled(s)) for s in stacks)
    return LinearizationBlocks(a_blocks, a_cols, c_cols, A, C)


def _monolithic(model: GlobalModel) -> GlobalModel:
    """The whole plant as one subsystem with the model's ``Q``, ``R`` and
    state box: the single-partition view of the reduction checks and the
    centralized batch oracle.  A nonlinear view evaluates the stacked maps, and
    its Jacobians come from the shared path (analytic providers, central
    differences for a subsystem without them)."""
    part = make_partition([model.nx], [model.ny])
    if model.linear:
        return assemble_global(
            [LinearSubsystem(0, model.A, {}, model.C, model.Q, model.R)], part)
    p = model.partition
    return aggregate_nonlinear([NonlinearSubsystem(
        index=0, state_dim=model.nx, out_dim=model.ny, neighbor_dims={},
        f=lambda x, neighbors: model.f(x), h=model.h, Q=model.Q, R=model.R,
        jac_f=lambda x, neighbors: {0: p.assembled(_walk(model, x, ("jac_f",))[0])},
        jac_h=lambda x: p.assembled(_walk(model, x, ("jac_h",))[0]),
        state_box=model.state_box())], part)


def linear_as_nonlinear(sub: LinearSubsystem) -> NonlinearSubsystem:
    """A linear subsystem as a :class:`NonlinearSubsystem` whose maps and
    exact Jacobians are the linear subsystem's own affine methods."""
    return NonlinearSubsystem(
        index=sub.index, state_dim=sub.state_dim, out_dim=sub.out_dim,
        neighbor_dims=sub.neighbor_dims, f=sub.f, h=sub.h, Q=sub.Q, R=sub.R,
        jac_f=sub.jac_f, jac_h=sub.jac_h)
