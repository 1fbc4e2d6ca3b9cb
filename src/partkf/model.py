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
A model owns its derived views: its column blocks and ``_monolithic``.

The module owns the matrix-health helpers, since every other module imports
it: ``_sym``, ``_symmetric``, ``_posdef`` and ``_spd_solve``.  The filters,
the oracles and the monitors symmetrize, Cholesky-factor and test positive
definiteness only through them.  ``_spd_solve`` calls LAPACK ``dpotrf`` and
``dpotrs`` directly, the routines that SciPy's ``cho_factor``/``cho_solve``
call, with their checks: the same solutions bit for bit, without SciPy's
per-call overhead, which at the filters' sizes costs more than the
factorization.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
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
    "fd_jacobian_f",
    "fd_jacobian_h",
]

#: Relative step for central-difference Jacobians.
FD_REL_STEP = 1e-6
#: Relative tolerance for the constructor spot check of analytic Jacobians.
JACOBIAN_CHECK_RTOL = 1e-5


class LinearizationError(RuntimeError):
    """A subsystem map (``f``, ``h``, ``jac_f``, ``jac_h``) raised or returned
    a wrong shape or a non-finite value.  Carries the subsystem index."""

    def __init__(self, message: str, subsystem: int | None = None):
        super().__init__(message)
        self.subsystem = subsystem


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; ``ValueError`` naming ``name`` unless it is an
    integer (a bool is not).  The package's one rule for integer inputs."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _by_neighbor(i: int, blocks: Mapping) -> dict:
    """``blocks`` of subsystem ``i`` keyed by ``int`` subsystem index; raises
    ``ValueError`` naming ``i`` when two keys name the same subsystem."""
    out = {}
    for l, b in blocks.items():
        l = int(l)
        if l in out:
            raise ValueError(f"subsystem {i}: neighbor {l} is given twice")
        out[l] = b
    return out


def _checked(sub, what: str, fn, *args, shape):
    """``fn(*args)``, a map of subsystem ``sub``, as a float array of
    ``shape``; when ``shape`` is a dict (``jac_f``), as a dict of float
    blocks with exactly its keys (normalized by :func:`_by_neighbor`) and
    shapes.

    Raises :class:`LinearizationError` naming the subsystem, chained to the
    cause, when the map raises or returns another shape, other blocks, a
    block twice or a non-finite entry.
    """
    i = sub.index
    try:
        got = fn(*args)
        got = (_by_neighbor(i, got) if isinstance(shape, dict)
               else np.asarray(got, dtype=float))
    except Exception as exc:
        raise LinearizationError(f"subsystem {i}: {what} raised {exc!r}", i) from exc
    if isinstance(shape, dict):
        if got.keys() != shape.keys():
            raise LinearizationError(f"subsystem {i}: {what} returned blocks for "
                                     f"{sorted(got)}, expected {sorted(shape)}", i)
        return {l: _checked(sub, f"{what} block {l}", got.get, l, shape=s)
                for l, s in shape.items()}
    if got.shape != shape:
        raise LinearizationError(f"subsystem {i}: {what} returned shape {got.shape}, "
                                 f"expected {shape}", i)
    if not np.isfinite(got).all():
        raise LinearizationError(f"subsystem {i}: {what} returned a non-finite value", i)
    return got


def _own_outputs(subs: Sequence, points: Sequence[np.ndarray]) -> np.ndarray:
    """The stacked own outputs ``[h_i(x_i)]_i`` of the subsystems at their
    state blocks ``points``, each map call checked by :func:`_checked`.  As
    the output matrix is block diagonal, this is ``sum_l C_col_l x_l``."""
    return np.concatenate([_checked(sub, "h", sub.h, x, shape=(sub.out_dim,))
                           for sub, x in zip(subs, points)])


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _symmetric(*ms: np.ndarray) -> bool:
    """Whether every given finite matrix equals its transpose to the weights'
    tolerance: ``np.allclose``'s test at rtol 1e-10, atol 1e-12."""
    a = np.concatenate([m.ravel() for m in ms])
    b = np.concatenate([m.T.ravel() for m in ms])
    return bool((np.abs(a - b) <= 1e-12 + 1e-10 * np.abs(b)).all())


def _posdef(m: np.ndarray) -> bool:
    """Whether a matrix, or every matrix of a stack, has a Cholesky factor."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _finite(a) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _spd_solve(m: np.ndarray, b: np.ndarray, error: Exception) -> np.ndarray:
    """``m^-1 b`` through the Cholesky factor of the symmetric part of ``m``;
    raises ``error``, chained to a ``LinAlgError``, when that part is not
    positive definite.  As in ``cho_factor``/``cho_solve``, a non-finite
    ``m`` or ``b`` raises ``ValueError`` and an empty system gives an empty
    solution shaped as ``b``."""
    s = _sym(m)
    _finite(s)
    c, info = dpotrf(s, lower=0, clean=0)
    if info > 0:
        raise error from np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                         "on entry to POTRF")
    _finite(b)
    if np.size(b) == 0:
        return np.empty_like(b, dtype=float)
    x, info = dpotrs(c, b, lower=0)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal POTRS")
    return x


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
    q, r = _frozen(Q), _frozen(R)
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

    def state_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    def out_slice(self, i: int) -> slice:
        return slice(self.out_offsets[i], self.out_offsets[i + 1])

    def split_state(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a global state vector into per-subsystem blocks."""
        x = np.asarray(x)
        if x.shape[-1] != self.nx:
            raise ValueError(f"state has dimension {x.shape[-1]}, expected {self.nx}")
        return [x[..., self.state_slice(i)] for i in range(self.n)]

    def stack(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-subsystem blocks back into a global vector."""
        if len(blocks) != self.n:
            raise ValueError(f"expected {self.n} blocks, got {len(blocks)}")
        return np.concatenate([np.asarray(b, dtype=float) for b in blocks])


def make_partition(dims: Sequence[int], out_dims: Sequence[int]) -> StatePartition:
    """Build a :class:`StatePartition` from per-subsystem dimensions.

    ``dims`` must be positive integers; ``out_dims`` non-negative integers of
    the same length.  Offsets are contiguous, non-overlapping and ordered by
    subsystem index.
    """
    dims = tuple(int(d) for d in dims)
    out_dims = tuple(int(d) for d in out_dims)
    if not dims:
        raise ValueError("partition needs at least one subsystem")
    if len(dims) != len(out_dims):
        raise ValueError("dims and out_dims must have equal length")
    if any(d <= 0 for d in dims):
        raise ValueError("every subsystem state dimension must be positive")
    if any(d < 0 for d in out_dims):
        raise ValueError("output dimensions must be non-negative")
    offsets = (0, *np.cumsum(dims).tolist())
    out_offsets = (0, *np.cumsum(out_dims).tolist())
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

    ``Q`` and ``R`` must be symmetric positive definite; this is checked at
    construction.  Coupling blocks are keyed by neighbor index, each index
    given once; the neighbor set is exactly the set of declared keys.
    :meth:`f`, :meth:`h`, :meth:`jac_f`, :meth:`jac_h` and ``state_box = None``
    meet the :class:`NonlinearSubsystem` contract with exact affine maps.
    """

    index: int
    A: np.ndarray
    coupling: Mapping[int, np.ndarray]
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = _frozen(self.A)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"subsystem {self.index}: A must be square, got {a.shape}")
        nx = a.shape[0]
        c = _frozen(self.C)
        if c.ndim != 2 or c.shape[1] != nx:
            raise ValueError(
                f"subsystem {self.index}: C must have {nx} columns, got {c.shape}"
            )
        q, r = _weights(self.index, self.Q, self.R, nx, c.shape[0])
        cleaned = {}
        for l, blk in _by_neighbor(self.index, self.coupling).items():
            if l == self.index:
                raise ValueError(f"subsystem {self.index}: self-coupling must go in A")
            b = _frozen(blk)
            if b.ndim != 2 or b.shape[0] != nx:
                raise ValueError(
                    f"subsystem {self.index}: coupling block to {l} must have {nx} rows"
                )
            cleaned[l] = b
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

    def f(self, x_i: np.ndarray, neighbors: Mapping[int, np.ndarray]) -> np.ndarray:
        """``A x_i + sum_l coupling[l] x_l``, the neighbors added in ascending
        index order: the linear filter's prediction from the posteriors."""
        out = self.A @ x_i
        for l, blk in self.coupling.items():
            out = out + blk @ neighbors[l]
        return out

    def h(self, x_i: np.ndarray) -> np.ndarray:
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
    finite values: ``f`` of shape ``(state_dim,)``, ``h`` of ``(out_dim,)``,
    ``jac_h = d h_i / d x_i`` of ``(out_dim, state_dim)`` and ``jac_f`` exactly
    the blocks ``{l: d f_i / d x_l}`` for ``l`` in ``{index} | neighbors``,
    block ``l`` of shape ``(state_dim, dim of l)``.  A map that raises or
    breaks this raises :class:`LinearizationError` naming the subsystem, with
    the instant added by the filters (or as a ``SimulationError`` with the
    step from ``simulate``).  When analytic Jacobians and
    ``jacobian_check_samples`` are both supplied, the constructor spot-checks
    them against central finite differences at relative tolerance 1e-5.
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

    def __post_init__(self):
        if self.state_dim <= 0:
            raise ValueError(f"subsystem {self.index}: state_dim must be positive")
        if self.out_dim < 0:
            raise ValueError(f"subsystem {self.index}: out_dim must be non-negative")
        q, r = _weights(self.index, self.Q, self.R, self.state_dim, self.out_dim)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "neighbor_dims", dict(sorted(
            (l, int(d)) for l, d in _by_neighbor(self.index, self.neighbor_dims).items())))
        if self.index in self.neighbor_dims:
            raise ValueError(f"subsystem {self.index}: neighbor_dims must not list "
                             "the subsystem itself")
        if self.state_box is not None:
            lo, hi = (np.asarray(b, dtype=float) for b in self.state_box)
            if lo.shape != (self.state_dim,) or hi.shape != (self.state_dim,):
                raise ValueError(f"subsystem {self.index}: state_box must match state_dim")
            object.__setattr__(self, "state_box", (_frozen(lo), _frozen(hi)))
        if self.jac_f is not None or self.jac_h is not None:
            self._spot_check_jacobians()

    @property
    def neighbors(self) -> tuple[int, ...]:
        return tuple(self.neighbor_dims.keys())

    def _spot_check_jacobians(self) -> None:
        for x_i, nbrs in self.jacobian_check_samples:
            x_i = np.asarray(x_i, dtype=float)
            nbrs = {l: np.asarray(v, dtype=float)
                    for l, v in _by_neighbor(self.index, nbrs).items()}
            _checked(self, "f", self.f, x_i, nbrs, shape=(self.state_dim,))
            if self.jac_f is not None:
                got = _checked(self, "jac_f", self.jac_f, x_i, nbrs,
                               shape=_jac_f_shape(self))
                for l, blk in fd_jacobian_f(self, x_i, nbrs).items():
                    if not _agrees(got[l], blk):
                        raise ValueError(
                            f"subsystem {self.index}: analytic df/dx_{l} disagrees "
                            "with finite differences"
                        )
            if self.jac_h is not None and self.out_dim:
                got = _checked(self, "jac_h", self.jac_h, x_i,
                               shape=(self.out_dim, self.state_dim))
                if not _agrees(got, fd_jacobian_h(self, x_i)):
                    raise ValueError(
                        f"subsystem {self.index}: analytic dh/dx disagrees with finite differences"
                    )


def _agrees(got: np.ndarray, want: np.ndarray) -> bool:
    """Analytic Jacobian ``got`` within ``JACOBIAN_CHECK_RTOL`` of ``want``."""
    scale = 1.0 + np.abs(want)
    return bool(np.all(np.abs(got - want) <= JACOBIAN_CHECK_RTOL * scale))


def _jac_f_shape(sub: NonlinearSubsystem) -> dict[int, tuple[int, int]]:
    """The block shapes ``jac_f`` must return: own block, then neighbors."""
    return {sub.index: (sub.state_dim, sub.state_dim),
            **{l: (sub.state_dim, d) for l, d in sub.neighbor_dims.items()}}


def _fd_steps(x: np.ndarray) -> np.ndarray:
    return np.maximum(FD_REL_STEP, FD_REL_STEP * np.abs(x))


def _central_columns(fun, vals: np.ndarray, sub: NonlinearSubsystem, what: str,
                     out_size: int) -> np.ndarray:
    """Central-difference Jacobian of ``fun`` at ``vals``, column by column."""
    steps = _fd_steps(vals)
    cols = []
    for j in range(vals.size):
        plus = vals.copy()
        minus = vals.copy()
        plus[j] += steps[j]
        minus[j] -= steps[j]
        fp = _checked(sub, what, fun, plus, shape=(out_size,))
        fm = _checked(sub, what, fun, minus, shape=(out_size,))
        cols.append((fp - fm) / (2.0 * steps[j]))
    return np.column_stack(cols) if cols else np.zeros((out_size, 0))


def fd_jacobian_f(sub: NonlinearSubsystem, x_i: np.ndarray,
                  neighbors: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Central-difference Jacobian blocks of ``sub.f`` with respect to the own
    state and every neighbor block.  Step per coordinate: max(1e-6, 1e-6|x_j|).
    """
    x_i = np.asarray(x_i, dtype=float)
    neighbors = {l: np.asarray(v, dtype=float) for l, v in neighbors.items()}
    _checked(sub, "f", sub.f, x_i, neighbors, shape=(sub.state_dim,))
    out = {sub.index: _central_columns(lambda v: sub.f(v, neighbors), x_i, sub, "f",
                                       sub.state_dim)}
    for l in sub.neighbors:
        out[l] = _central_columns(lambda v, l=l: sub.f(x_i, {**neighbors, l: v}),
                                  neighbors[l], sub, "f", sub.state_dim)
    return out


def fd_jacobian_h(sub: NonlinearSubsystem, x_i: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``sub.h`` at ``x_i``."""
    x_i = np.asarray(x_i, dtype=float)
    _checked(sub, "h", sub.h, x_i, shape=(sub.out_dim,))
    return _central_columns(sub.h, x_i, sub, "h", sub.out_dim)


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

    def neighbor_states(self, i: int, x: np.ndarray) -> dict[int, np.ndarray]:
        """Extract the neighbor blocks subsystem ``i`` needs from a global state."""
        sub = self.subsystems[i]
        return {l: x[self.partition.state_slice(l)] for l in sub.neighbors}

    def f(self, x: np.ndarray) -> np.ndarray:
        """One step of the global dynamics (noise-free)."""
        x = np.asarray(x, dtype=float)
        if self.linear:
            return self.A @ x
        return np.concatenate([
            _checked(sub, "f", sub.f, x[self.partition.state_slice(i)],
                     self.neighbor_states(i, x), shape=(sub.state_dim,))
            for i, sub in enumerate(self.subsystems)])

    def h(self, x: np.ndarray) -> np.ndarray:
        """Global output map (noise-free)."""
        x = np.asarray(x, dtype=float)
        if self.linear:
            return self.C @ x
        return _own_outputs(self.subsystems, self.partition.split_state(x))

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


def _check_mode(mode: str) -> None:
    if mode not in ("analytic", "fd"):
        raise ValueError(f"unknown mode {mode!r}")


def _jac_rows_f(subs, partition, x, mode) -> dict[tuple[int, int], np.ndarray]:
    """Dynamics Jacobian row blocks ``{(l, m): d f_l / d x_m}`` at the global
    point ``x``.  ``mode="analytic"`` uses each subsystem's ``jac_f`` and falls
    back to finite differences where a subsystem has none."""
    rows: dict[tuple[int, int], np.ndarray] = {}
    for l, sub in enumerate(subs):
        xl = x[partition.state_slice(l)]
        nbrs = {m: x[partition.state_slice(m)] for m in sub.neighbors}
        if mode == "analytic" and sub.jac_f is not None:
            blocks = _checked(sub, "jac_f", sub.jac_f, xl, nbrs, shape=_jac_f_shape(sub))
        else:
            blocks = fd_jacobian_f(sub, xl, nbrs)
        rows.update(((l, m), b) for m, b in blocks.items())
    return rows


def _a_cols(rows, partition) -> list[np.ndarray]:
    """Stack the row blocks into the per-subsystem column blocks
    ``A[:, i-block]`` of the dynamics Jacobian; undeclared blocks are zero."""
    cols = [np.zeros((partition.nx, d)) for d in partition.dims]
    for (l, i), blk in rows.items():
        cols[i][partition.state_slice(l), :] = blk
    return cols


def _jac_cols_h(subs, partition, x, mode) -> list[np.ndarray]:
    """Output Jacobian column blocks ``d h / d x_i`` at ``x``; modes as in
    :func:`_jac_rows_f`."""
    ny = partition.ny
    cols = []
    for i, sub in enumerate(subs):
        xi = x[partition.state_slice(i)]
        if sub.out_dim == 0:
            block = np.zeros((0, sub.state_dim))
        elif mode == "analytic" and sub.jac_h is not None:
            block = _checked(sub, "jac_h", sub.jac_h, xi, shape=(sub.out_dim, sub.state_dim))
        else:
            block = fd_jacobian_h(sub, xi)
        col = np.zeros((ny, sub.state_dim))
        col[partition.out_slice(i), :] = block
        cols.append(col)
    return cols


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
    subs = _aggregate(subs, partition)[0]
    x = np.asarray(x_point, dtype=float)
    if x.shape != (partition.nx,):
        raise ValueError(f"x_point must have shape ({partition.nx},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x_point must be finite")
    _check_mode(mode)
    if mode == "analytic":
        missing = [s.index for s in subs if s.jac_f is None or (s.out_dim and s.jac_h is None)]
        if missing:
            raise ValueError(f"analytic Jacobians missing for subsystems {missing}")

    rows = _jac_rows_f(subs, partition, x, mode)
    a_cols = _a_cols(rows, partition)
    c_cols = _jac_cols_h(subs, partition, x, mode)
    dims = partition.dims
    a_blocks = {(l, i): rows.get((l, i), np.zeros((dims[l], dims[i])))
                for l in range(partition.n) for i in range(partition.n)}
    A = np.concatenate(a_cols, axis=1)
    C = np.concatenate(c_cols, axis=1)
    return LinearizationBlocks(a_blocks, tuple(a_cols), tuple(c_cols), _frozen(A), _frozen(C))


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
    subs, p = model.subsystems, model.partition
    return aggregate_nonlinear([NonlinearSubsystem(
        index=0, state_dim=model.nx, out_dim=model.ny, neighbor_dims={},
        f=lambda x, neighbors: model.f(x), h=model.h, Q=model.Q, R=model.R,
        jac_f=lambda x, neighbors: {
            0: np.hstack(_a_cols(_jac_rows_f(subs, p, x, "analytic"), p))},
        jac_h=lambda x: np.hstack(_jac_cols_h(subs, p, x, "analytic")),
        state_box=model.state_box())], part)


def linear_as_nonlinear(sub: LinearSubsystem) -> NonlinearSubsystem:
    """A linear subsystem as a :class:`NonlinearSubsystem` whose maps and
    exact Jacobians are the linear subsystem's own affine methods."""
    return NonlinearSubsystem(
        index=sub.index, state_dim=sub.state_dim, out_dim=sub.out_dim,
        neighbor_dims=sub.neighbor_dims, f=sub.f, h=sub.h, Q=sub.Q, R=sub.R,
        jac_f=sub.jac_f, jac_h=sub.jac_h)
