"""Partition-based distributed Kalman filter: the one two-phase engine.

Each subsystem runs a local estimator over its own state block.  At every
sampling instant the estimators predict from the posteriors, their own and
their neighbors', and update against the full stacked measurement vector.
Prediction reads only finished posteriors and the update only finished
predictions, so no execution order of the estimators enters the results.
The engine runs each phase for a group of equally sized subsystems per
call; the step functions :func:`predict` and :func:`update`, which
exchange through an immutable :class:`ExchangeSnapshot`, are one
subsystem's phases, bit for bit.

Local recursion for subsystem ``i`` with global output matrix ``C``, stacked
column block ``A_col = A[:, i-block]`` and own diagonal block ``A_ii``:

- prediction   ``xp_i = A_ii xh_i + sum_l A_il xh_l``
- gain         ``L_i' = R^-1 U (I + W U' R^-1 U)^-1 W V`` with
  ``U = [C A_col, C_col]`` (``ny x 2 d_i``), ``W = blkdiag(P, Q_i)`` and
  ``V = [A_ii'; I]``: by the Woodbury identity the textbook
  ``(C A_col P A_ii' + C_col Q_i)' M^-1`` with
  ``M = C A_col P A_col' C' + C_col Q_i C_col' + R``, without forming or
  factoring the ``ny x ny`` ``M`` and without inverting ``W``
- update       ``xh_i = xp_i + L_i (y - [C_l xp_l]_l)``: the innovation
  stacks every subsystem's own output, as the extended filter's does
- covariance   ``P+ = A_ii P A_ii' + Q_i - L_i (U W V)``

Instant 0 is the same kernel with ``U = C_col``, ``W = P0`` and ``V = I``.

The same loop runs the linear filter (:func:`run_dkf`) and the extended
filter (:func:`partkf.dekf.run_dekf`).  It is given a linearization source
that supplies, per instant, the dynamics blocks at the posteriors with the
predictions, the output blocks at the predictions with the outputs, and the
blocks of the gain.  A source factors ``R`` and stacks ``Q`` once.  Per group
of equally sized subsystems it forms, from the stacks of the members' blocks,
``U``, ``R^-1 U`` (one triangular solve pair over every member's columns)
and ``U' R^-1 U``: the linear source once, from the model's constant blocks,
the nonlinear source of :mod:`partkf.dekf` at every instant from the
Jacobian stacks it writes.
Per instant the loop predicts, forms the innovation once, settles the
gains and updates, a group per call (:func:`_updated`).  The linear source
predicts and forms the outputs from the model's group stacks
(``model._affine``); the nonlinear source walks the subsystems once per
evaluation point (``model._walk``), the dynamics in agenda order.  Settling
is one step, the same at instant 0 and at instant ``k``: for each group one
batched call of the kernel (``2 d_i``-sized solves), one batched eigenvalue
floor and one batched positive-definiteness check.  Only when a group's
call or check fails does the engine look for the failing subsystem, so
errors still name the subsystem and the instant.  The step functions
:func:`gain_and_covariance` and :func:`init_update` are the kernel on a
stack of one, so they reproduce the engine's entries bit for bit.

The gains ``L_i(k)`` and covariances ``P_i(k)`` of the linear filter depend
on the model and the design, never on the measurements.  So the linear
source, which belongs to one model and one design, keeps the gain schedule
(per instant ``k``, every ``L_i`` and ``P_i`` and the floor events) that its
first run computes, with the floor and the positive-definiteness check, and
every later run with that source reads it: a Monte Carlo ensemble computes
its gains once.  A schedule is never shared between sources, so none is
reused across designs.  The extended filter's blocks depend on the
estimates, so its source keeps no schedule and it computes its gains anew
on every run.  The linear filter's records hold views of the schedule's
arrays and of the source's column stacks, all read-only and shared by every
run.

Both sources also take stacks of runs, so the same loop filters a whole
Monte Carlo ensemble of either model kind in one pass
(:func:`_posterior_stack`), each run bit for bit its own run: the linear
source does one matrix-vector product per run and subsystem and settles its
schedule through the same :func:`_settled`; the nonlinear source's walks
write run-stacked group stacks, and :func:`_settled` runs the kernel, the
floor and the check once per group and instant over every run and member,
each matrix the bits of its own call.  There is no second gain path.

Covariances are symmetrized after every step, and every factorization goes
through the matrix-health helpers of :mod:`partkf.model`: ``_spd_factor``
and ``_factor_solve`` (LAPACK ``dpotrf``/``dpotrs`` with SciPy's checks) for
``R``, ``_solve`` for the kernel's ``2 d_i``-sized systems and
``_not_posdef`` for the batched check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import block_diag

from .analysis import rmse
from .model import (GlobalModel, LinearizationError, _check_instants, _factor_solve,
                    _frozen, _matvec, _not_posdef, _not_semidefinite, _results, _solve,
                    _spd_factor, _sym, _symmetric, _tr, _walk)
from .records import RunRecord, _check_design, _check_shapes, _run_shapes
from .simulate import Trajectory

__all__ = [
    "FilterError",
    "CovarianceCollapseError",
    "EstimatorState",
    "ExchangeSnapshot",
    "EstimatorDesign",
    "gain_and_covariance",
    "init_update",
    "init_states",
    "predict",
    "update",
    "run_dkf",
]

#: Eigenvalue floor: bump a posterior covariance by ``COV_FLOOR_BUMP * I``
#: when its smallest eigenvalue falls below ``COV_FLOOR_REL * trace(P) / dim``.
COV_FLOOR_REL = 1e-12
COV_FLOOR_BUMP = 1e-10


class FilterError(RuntimeError):
    """Numerical failure inside a filter step."""


class CovarianceCollapseError(FilterError):
    """A posterior covariance lost positive definiteness.  Signals violated
    model assumptions rather than a recoverable condition."""

    def __init__(self, message: str, subsystem: int | None = None, k: int | None = None):
        super().__init__(message)
        self.subsystem = subsystem
        self.k = k


@dataclass(frozen=True)
class EstimatorState:
    """Local estimator state at one instant: estimate, covariance and gain."""

    index: int
    xhat: np.ndarray
    cov: np.ndarray
    gain: np.ndarray
    k: int


@dataclass(frozen=True)
class ExchangeSnapshot:
    """Immutable view of everything an estimator may read during one phase of
    instant ``k``: all posteriors from ``k-1``, all predictions for ``k``
    (``None`` during the prediction phase) and the global measurement."""

    k: int
    posteriors: tuple
    predictions: tuple | None = None
    measurement: np.ndarray | None = None


@dataclass(frozen=True)
class EstimatorDesign:
    """Estimator hyperparameters: per-subsystem process weights ``Q[i]`` and
    prior covariances ``P0[i]``, the global stacked measurement weight ``R``
    and the prior mean ``x0_guess``.

    :meth:`validate` checks them against a model: shapes, finite entries,
    symmetric weights and every ``Q[i]`` positive semidefinite, its smallest
    eigenvalue at least ``-1e-12`` times its largest eigenvalue magnitude
    (``model.SEMIDEF_RTOL``).  A semidefinite ``Q[i]`` such as ``diag(1,
    0)`` is valid, as the information form of the gain allows it.  The
    filters check the rest of definiteness where they factor: ``R`` before
    any instant, and every ``P0[i]`` at instant 0, a :class:`FilterError`
    naming the subsystem.
    """

    Q: tuple[np.ndarray, ...]
    R: np.ndarray
    P0: tuple[np.ndarray, ...]
    x0_guess: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", tuple(np.asarray(q, dtype=float) for q in self.Q))
        object.__setattr__(self, "P0", tuple(np.asarray(p, dtype=float) for p in self.P0))
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "x0_guess", np.asarray(self.x0_guess, dtype=float))

    @classmethod
    def from_model(cls, model: GlobalModel, P0, x0_guess) -> "EstimatorDesign":
        """Take Q and R from the model's noise weights."""
        return cls(Q=tuple(s.Q for s in model.subsystems), R=model.R, P0=P0,
                   x0_guess=x0_guess)

    def validate(self, model: GlobalModel) -> None:
        p = model.partition
        _check_design("design", vars(self), p.dims, p.out_dims)
        Q, P0 = p.stacked(self.Q), p.stacked(self.P0)
        # One test per group stack; the failing member is looked for only
        # when one fails.
        if not all(np.isfinite(m).all() for m in (*Q, *P0, self.x0_guess)):
            for i in range(p.n):
                for name, value in ((f"Q[{i}]", self.Q[i]), (f"P0[{i}]", self.P0[i]),
                                    (f"x0_guess of subsystem {i}",
                                     self.x0_guess[p.state_slice(i)])):
                    if not np.isfinite(value).all():
                        raise ValueError(f"{name} is not finite")
        if not np.isfinite(self.R).all():
            raise ValueError("R is not finite")
        if not _symmetric(*Q, *P0, self.R):
            weights = {**{f"Q[{i}]": q for i, q in enumerate(self.Q)},
                       **{f"P0[{i}]": p0 for i, p0 in enumerate(self.P0)}, "R": self.R}
            name = next(name for name, m in weights.items() if not _symmetric(m))
            raise ValueError(f"{name} is not symmetric")
        for (members, _), q in zip(p.groups, Q):
            j = _not_semidefinite(q)
            if j is not None:
                raise ValueError(f"Q[{members[j]}] is not positive semidefinite")

    def serializable(self) -> dict:
        return {
            "Q": [q.tolist() for q in self.Q],
            "R": self.R.tolist(),
            "P0": [p.tolist() for p in self.P0],
            "x0_guess": self.x0_guess.tolist(),
        }


def _one_block(design: EstimatorDesign) -> EstimatorDesign:
    """The design of the plant seen as one subsystem: block-diagonal ``Q``
    and ``P0``, the same ``R`` and prior mean."""
    return EstimatorDesign(Q=(block_diag(*design.Q),), R=design.R,
                           P0=(block_diag(*design.P0),), x0_guess=design.x0_guess)


def _floor(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the eigenvalue floor to a covariance, or to each of a stack;
    returns the covariances and where the floor fired."""
    d = P.shape[-1]
    fired = np.linalg.eigvalsh(P)[..., 0] < COV_FLOOR_REL * P.trace(axis1=-2, axis2=-1) / d
    if fired.any():
        P = np.where(fired[..., None, None], P + COV_FLOOR_BUMP * np.eye(d), P)
    return P, fired


def _located(k: int, members: np.ndarray, call) -> tuple:
    """``call(rows)`` for a whole group, ``rows = ...``.  When that raises a
    :class:`FilterError`, each member is tried alone, ``rows`` then the
    index of its stack of one on the member axis (the third-last, so that
    a stack of runs keeps its runs), and the first that fails is named with
    the instant."""
    try:
        return call(...)
    except FilterError:
        for row, i in enumerate(members):
            try:
                call((..., slice(row, row + 1), slice(None), slice(None)))
            except FilterError as exc:
                raise FilterError(f"subsystem {i} at instant {k}: {exc}") from exc
        raise


class _Settled(NamedTuple):
    """Instant ``k``'s gains and covariances: per group of the partition the
    stacks ``L`` (``members x d x ny``) and ``P`` that the engine reads, and
    the number of floor events.  A record holds views of their rows
    (``StatePartition.unstacked``), made by :func:`_pass`."""

    L: tuple
    P: tuple
    floors: int


def _settled(source, k: int, gain) -> _Settled:
    """Instant ``k``'s gains, covariances and floor events: the source's
    schedule entry, or, group by group of the partition, ``gain(j, rows) ->
    (L, P)`` for the stacks of group ``j`` indexed by ``rows`` (see
    :func:`_located`), floored,
    checked positive definite and handed to the source's ``keep``.  Each
    step is one batched call per group; failures name the subsystem and the
    instant."""
    entry = source.schedule.get(k)
    if entry is not None:
        return entry
    p = source.model.partition
    L_k, P_k, floors = [], [], 0
    for j, (members, _) in enumerate(p.groups):
        L, P = _located(k, members, lambda rows: gain(j, rows))
        P, floored = _floor(P)
        bad = _not_posdef(P)
        if bad is not None:
            i = int(members[bad])
            raise CovarianceCollapseError(
                f"posterior covariance of subsystem {i} lost positive definiteness",
                subsystem=i, k=k)
        floors += int(floored.sum())
        L_k.append(L)
        P_k.append(P)
    return source.keep(k, _Settled(tuple(L_k), tuple(P_k), floors))


def _r_factor(R: np.ndarray) -> np.ndarray:
    """The Cholesky factor of the measurement weight, for :func:`_information`."""
    return _spd_factor(R, FilterError("measurement weight R is not positive definite"))


def _information(UT: np.ndarray, R_factor: np.ndarray) -> tuple:
    """``(U', (R^-1 U)', U' R^-1 U)`` of a stack ``U'`` (``member x m x
    ny``), or of a stack of runs (``(..., member, m, ny)``): one solve
    against the factor of ``R`` over every member's and run's columns."""
    ny = UT.shape[-1]
    RiUT = _factor_solve(R_factor, UT.reshape(-1, ny).T).T.reshape(UT.shape)
    return UT, RiUT, RiUT @ _tr(UT)


def _u_t(C: np.ndarray, a_col: np.ndarray, c_col: np.ndarray) -> np.ndarray:
    """``U' = [C A_col, C_col]'`` of a stack of subsystems, or of a stack
    of runs with one ``C`` per run."""
    return np.concatenate([_tr(C[..., None, :, :] @ a_col), _tr(c_col)], axis=-2)


def _group_blocks(source, a_stacks, C, c_stacks) -> list[tuple]:
    """Per group of the partition, from the stacks of its members' ``A_col``
    and ``C_col``: those stacks, the members' ``A_ii`` (their own rows of
    ``A_col``), the source's stack of their ``Q_i`` and the
    :func:`_information` blocks of ``U = [C A_col, C_col]``, the arguments
    of :func:`gain_and_covariance` but for ``P``, ``C`` and ``R``.  Stacks
    of runs (``(..., members, rows, d)``, with ``C`` of ``(..., ny, nx)``)
    give blocks of runs."""
    return [(a, a[..., np.arange(len(members))[:, None], idx, :], c, Q,
             _information(_u_t(C, a, c), source.R_factor))
            for (members, idx), a, c, Q in zip(source.model.partition.groups, a_stacks,
                                               c_stacks, source.Q)]


def _information_gain(UT, RiUT, G, W, WV, base) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of both filters, for a stack of subsystems of one size:
    gains ``L' = R^-1 U (I + W G)^-1 W V`` with ``G = U' R^-1 U``, and
    covariances ``sym(base - L (U W V))``, from the :func:`_information`
    blocks, ``W``, ``W V`` and ``base``.  No ``ny x ny`` matrix is formed,
    and ``W`` is not inverted."""
    S = np.eye(W.shape[-1]) + W @ G
    X = _solve(S, WV, FilterError("I + W U' R^-1 U is singular; the weights or the "
                                  "covariance are corrupted"))
    L = _tr(X) @ RiUT
    return L, _sym(base - L @ (_tr(UT) @ WV))


def _prior_gain(P0: np.ndarray, info: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Instant 0 of a stack: the kernel with ``U = C_col``, ``W = P0`` and
    ``V = I``, for positive definite priors."""
    if _not_posdef(P0) is not None:
        raise FilterError("prior covariance is not positive definite")
    return _information_gain(*info, P0, P0, P0)


def gain_and_covariance(P_prev: np.ndarray, a_col: np.ndarray, a_ii: np.ndarray,
                        C: np.ndarray, c_col: np.ndarray, Q_i: np.ndarray,
                        R: np.ndarray, info: tuple | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Gain and posterior covariance of one subsystem, or of a stack of
    subsystems of one size (every argument but ``C`` and ``R`` stacked),
    or of a stack of runs of such stacks (``(..., members, rows, cols)``,
    one ``C`` per run; ``P_prev`` and ``Q_i`` may be shared by the runs).

    Information form: with ``U = [C A_col, C_col]``, ``W = blkdiag(P_prev,
    Q_i)`` and ``V = [A_ii'; I]``, the gain is ``L' = R^-1 U (I + W U' R^-1
    U)^-1 W V`` and the covariance ``A_ii P_prev A_ii' + Q_i - L (U W V)``,
    symmetrized: the textbook ``L = Z' M^-1`` (``Z = U W V``, ``M = U W U' +
    R``) by the Woodbury identity, with ``2 d_i``-sized solves in place of
    the ``ny x ny`` one.  A semidefinite ``Q_i`` is fine.  ``info`` is the
    ``(U', (R^-1 U)', U' R^-1 U)`` of these blocks when the caller has
    formed them, as the engine has (it calls this once per group and
    instant); without it they are formed here.  So a stack of one gives the
    engine's entry bit for bit.
    """
    one = np.ndim(P_prev) == 2
    if one:
        P_prev, a_col, a_ii, c_col, Q_i = (np.asarray(m, dtype=float)[None] for m in
                                            (P_prev, a_col, a_ii, c_col, Q_i))
    if info is None:
        info = _information(_u_t(C, a_col, c_col), _r_factor(R))
    d = P_prev.shape[-1]
    W = np.zeros(P_prev.shape[:-2] + (2 * d, 2 * d))
    W[..., :d, :d], W[..., d:, d:] = P_prev, Q_i
    PA = P_prev @ _tr(a_ii)
    WV = np.empty(PA.shape[:-2] + (2 * d, d))
    WV[..., :d, :], WV[..., d:, :] = PA, Q_i
    L, P = _information_gain(*info, W, WV, a_ii @ PA + Q_i)
    return (L[0], P[0]) if one else (L, P)


def init_update(P0_i: np.ndarray, c_col: np.ndarray, R: np.ndarray,
                guess_i: np.ndarray, innovation: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial measurement update of one local estimator: the engine's
    instant 0, the kernel of :func:`gain_and_covariance` with ``U = c_col``,
    ``W = P0`` and ``V = I``, so ``L0' = R^-1 c_col (I + P0 c_col' R^-1
    c_col)^-1 P0``, ``P_post = P0 - L0 c_col P0`` and ``xh = guess + L0
    innovation``.  Returns ``(xh, P_post, L0)``."""
    info = _information(_tr(np.asarray(c_col, dtype=float)[None]), _r_factor(R))
    L, P = _prior_gain(np.asarray(P0_i, dtype=float)[None], info)
    return guess_i + L[0] @ innovation, P[0], L[0]


def predict(i: int, snapshot: ExchangeSnapshot, model: GlobalModel) -> np.ndarray:
    """Local prediction from the posterior snapshot of instant ``k-1``, for
    either filter: the subsystem's map ``f`` at its posterior and its
    neighbors', one checked call (``model._results``).  The engine computes
    every subsystem's at once (``model._affine`` for a linear model, one
    walk for a nonlinear one), each bit for bit this call's."""
    sub, post = model.subsystems[i], snapshot.posteriors
    for l in (i, *sub.neighbors):
        if post[l] is None:
            raise FilterError(f"snapshot is missing the posterior of "
                              f"{'subsystem' if l == i else 'neighbor'} {l}")
    return _results(sub, "f", np.asarray(post[i], dtype=float),
                    {l: post[l] for l in sub.neighbors})[0]


def update(i: int, x_pred_i: np.ndarray, snapshot: ExchangeSnapshot,
           L_i: np.ndarray, model: GlobalModel) -> np.ndarray:
    """Local measurement update ``xp_i + L_i (y - [h_l(xp_l)]_l)`` from the
    prediction snapshot, for either filter: the innovation stacks every
    subsystem's own output map at its prediction, each call checked.  The
    engine updates a group per call (:func:`_updated`), each subsystem bit
    for bit this call's."""
    if snapshot.predictions is None or any(p is None for p in snapshot.predictions):
        raise FilterError("snapshot is missing neighbor predictions")
    if snapshot.measurement is None:
        raise FilterError("snapshot is missing the measurement")
    predictions = model.partition.stack(snapshot.predictions)
    innovation = snapshot.measurement - _walk(model, predictions, ("h",))[0]
    return x_pred_i + L_i @ innovation


def _updated(groups, L: Sequence[np.ndarray], xp: np.ndarray, innovation: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """``out = xp + L innovation`` for predictions ``xp`` (``(..., nx)``) and
    an innovation or a stack of them (``(..., ny)``): per group one stack
    product with its gain stack (``members x d x ny``), each member and run
    bit for bit its own ``xp_i + L_i innovation``."""
    v = innovation[..., None, :]
    for (_, idx), L_g in zip(groups, L):
        out[..., idx] = xp[..., idx] + _matvec(L_g, v)
    return out


def init_states(model: GlobalModel, design: EstimatorDesign,
                y0: np.ndarray) -> list[EstimatorState]:
    """Initial measurement update for all subsystems at instant 0 (with the
    engine's eigenvalue floor)."""
    p, post = model.partition, np.empty(model.nx)
    _, entry = _fuse_prior(_LinearSource(model, design), np.asarray(y0, dtype=float), post)
    return [EstimatorState(i, x, P, L, 0) for i, (x, P, L) in
            enumerate(zip(p.split_state(post), p.unstacked(entry.P), p.unstacked(entry.L)))]


def _fuse_prior(source, y0: np.ndarray, out: np.ndarray) -> tuple:
    """Instant 0: the output group stacks at the prior guess and the
    schedule entry (gains, covariances, floor events) of fusing the guess
    with ``y_0``; writes the posteriors ``guess + L (y_0 - h(guess))`` into
    ``out``, each as :func:`init_update` forms it."""
    design = source.design
    p = source.model.partition
    _, c_stacks, y_hat = source.output(design.x0_guess)
    innovation = y0 - y_hat
    P0 = p.stacked(design.P0)

    def gain(j, rows):
        return _prior_gain(P0[j][rows], _information(_tr(c_stacks[j][rows]), source.R_factor))

    entry = _settled(source, 0, gain)
    _updated(p.groups, entry.L, design.x0_guess, innovation, out)
    return c_stacks, entry


class _LinearSource:
    """Linearization source of a linear model and one design (validated
    once, here): the model's column blocks as read-only group stacks, the
    linear prediction and outputs, both from the model's group stacks
    (``model._affine``), the factor of ``R``, the constant information
    blocks of the gain, all formed once, and the gain schedule."""

    kind = "dkf"
    #: The runs of a pass share its blocks and gains: an array of one
    #: instant holds no more per run than the states.
    instant_floats = 0

    def __init__(self, model: GlobalModel, design: EstimatorDesign):
        design.validate(model)
        self.model = model
        self.design = design
        p = model.partition
        self.R_factor = _r_factor(design.R)
        self.Q = p.stacked(design.Q)
        self.a_stacks, self.c_stacks = ([_frozen(s) for s in p.stacked(cols)]
                                        for cols in model._col_blocks)
        self._blocks = _group_blocks(self, self.a_stacks, model.C, self.c_stacks)
        #: The gain schedule: instant ``k`` -> its :class:`_Settled`.
        self.schedule: dict = {}

    # The affine maps of a validated model cannot fail, nor depend on the agenda.
    def dynamics(self, x: np.ndarray, agenda: Sequence[int]) -> tuple:
        return self.a_stacks, self.model._affine.f(x)

    def output(self, x: np.ndarray) -> tuple:
        return self.model.C, self.c_stacks, self.model._affine.h(x)

    def blocks(self, a_stacks, C, c_stacks) -> list[tuple]:
        """The constant :func:`_group_blocks` of the model's own blocks."""
        return self._blocks

    def keep(self, k: int, entry: _Settled) -> _Settled:
        """Enter the settled entry of instant ``k`` into the schedule.  Every
        later run reads its very stacks and hands views of them to its
        record, so they are made read-only."""
        for m in (*entry.L, *entry.P):
            m.setflags(write=False)
        self.schedule[k] = entry
        return entry


def _check_trajectory(model: GlobalModel, traj: Trajectory) -> np.ndarray:
    """The measurements of ``traj`` as a float array, once every array of
    the trajectory has its shape for ``K = traj.steps`` instants and every
    measurement is finite; raises ``ValueError`` naming the array, or
    :class:`FilterError` naming the first non-finite instant."""
    p, K = model.partition, traj.steps
    ys = np.asarray(traj.ys, dtype=float)
    if ys.shape != (K + 1, p.ny):
        raise ValueError(f"measurements have shape {ys.shape}, expected ({K + 1}, {p.ny})")
    if not len(ys):
        raise ValueError("measurements have no instant; the filter starts from y_0")
    _check_shapes("trajectory", vars(traj), _run_shapes(K + 1, p.nx, p.ny))
    _check_instants("measurement", ys, p, "outputs", FilterError)
    return ys


def _at_instant(k: int, call, *args):
    """``call(*args)``, with instant ``k`` added to a subsystem map failure."""
    try:
        return call(*args)
    except LinearizationError as exc:
        raise LinearizationError(f"instant {k}, {exc}", exc.subsystem) from exc


def _run_filter(source, traj: Trajectory, order: Sequence[int] | None,
                config: dict | None) -> RunRecord:
    """The two-phase loop shared by :func:`run_dkf` and ``run_dekf``, over one
    checked trajectory, and the run's record.  Aborts with the subsystem and
    the instant on covariance collapse or a failure of a subsystem map."""
    model, design = source.model, source.design
    ys = _check_trajectory(model, traj)
    p = model.partition
    agenda = list(order) if order is not None else list(range(p.n))
    if sorted(agenda) != list(range(p.n)):
        raise ValueError("order must be a permutation of the subsystems")
    xhat_pred, xhat_post, gains, covs, a_cols, c_cols, floor_events, wall = _pass(
        source, ys, agenda)
    return RunRecord(
        kind=source.kind, seed=traj.seed, dims=p.dims, out_dims=p.out_dims,
        xs=traj.xs, ys=traj.ys, ws=traj.ws, vs=traj.vs,
        xhat_pred=xhat_pred, xhat_post=xhat_post,
        gains=gains, covs=covs, a_cols=a_cols, c_cols=c_cols, rmse=rmse(xhat_post, traj.xs),
        estimator=design.serializable(), floor_events=floor_events,
        wall_clock=wall, config=config,
    )


def _posterior_stack(source, ys: np.ndarray) -> np.ndarray:
    """The posteriors ``(K+1, runs, nx)`` of either filter over a stack of
    measurement histories ``(K+1, runs, ny)``, one per run, instant first:
    one pass of the engine's loop for every run, each run's posteriors bit
    for bit those of its own run.  The linear filter's gains and
    covariances are the source's schedule, settled by the pass where it
    lacks an instant; the extended filter's are settled per instant for
    every run at once.  The measurements must be finite; they are not
    checked here.  A failing map or a filter error of any run raises.  The
    pass keeps no per-instant gain, covariance or column block of its own.
    A linear source's schedule does: it keeps every instant's ``L`` and
    ``P`` group stacks, shared by all runs, about 135 MB at chain-64 (64
    subsystems of 2 states, 64 outputs) and K=2000.  The extended filter's
    pass holds its states and measurements and one instant's arrays."""
    return _pass(source, ys, range(source.model.partition.n), keep=False)[1]


def _pass(source, ys: np.ndarray, agenda: Sequence[int], keep: bool = True) -> tuple:
    """The engine's loop over measurements ``ys``: one history ``(K+1,
    ny)``, or a stack of histories ``(K+1, runs, ny)``, whose runs every
    map, product and settling step of either source takes at once.

    Instant 0 fuses the prior guess with ``y_0`` (output blocks at the guess).
    Instant ``k`` takes from the source the dynamics blocks at the
    posteriors of ``k-1`` with every subsystem's prediction from them (the
    source's map calls in ``agenda`` order), then the output blocks at the
    stacked prediction with the outputs there, forms the innovation once
    and then updates every subsystem, a group per call (:func:`_updated`).
    Both settle their gains and covariances with :func:`_settled`, which
    raises with the subsystem and the instant.  Returns the predictions and
    posteriors (shaped as ``ys`` but for the last axis, ``nx``), the
    per-instant gains, covariances and column blocks of one history, per
    subsystem views of the group stacks (when ``keep`` is false, as for a
    stack of histories, none is kept and no view is made), the number of
    floor events and the wall time of each instant.  A kept pass takes one
    history only: ``keep`` with ``ys`` of another number of axes raises
    ``ValueError`` naming its shape, before any work.
    """
    if keep and ys.ndim != 2:
        raise ValueError(f"a pass that keeps its record takes one history (K+1, ny), "
                         f"not ys of shape {ys.shape}")
    model, design = source.model, source.design
    p = model.partition
    groups = p.groups
    K = len(ys) - 1

    xhat_pred = np.empty(ys.shape[:-1] + (p.nx,))
    xhat_post = np.empty_like(xhat_pred)
    wall = np.empty(K + 1)

    # id -> (stacks, views): the one memo of the per-subsystem views a record
    # holds; a linear source hands the same column stacks at every instant.
    made = {}

    def views(stacks) -> list:
        if id(stacks) not in made:
            made[id(stacks)] = stacks, p.unstacked(stacks)
        return list(made[id(stacks)][1])

    t0 = time.perf_counter()
    c_stacks, entry = _at_instant(0, _fuse_prior, source, ys[0], xhat_post[0])
    wall[0] = time.perf_counter() - t0
    xhat_pred[0] = design.x0_guess
    floor_events = entry.floors
    gains, covs, a_cols, c_cols = [], [], [], []
    if keep:
        gains, covs, c_cols = [views(entry.L)], [views(entry.P)], [views(c_stacks)]

    for k in range(1, K + 1):
        t0 = time.perf_counter()
        a_stacks, xhat_pred[k] = _at_instant(k, source.dynamics, xhat_post[k - 1], agenda)
        C_k, c_stacks, y_hat = _at_instant(k, source.output, xhat_pred[k])
        innovation = ys[k] - y_hat

        blocks = source.blocks(a_stacks, C_k, c_stacks)

        def gain(j, rows, P=entry.P):
            # ``gain_and_covariance`` is looked up at call time; ``P`` is of
            # instant k-1.
            a, aii, c, Q, info = blocks[j]
            return gain_and_covariance(P[j][rows], a[rows], aii[rows], C_k, c[rows], Q[rows],
                                       design.R, tuple(m[rows] for m in info))

        entry = _settled(source, k, gain)
        floor_events += entry.floors
        _updated(groups, entry.L, xhat_pred[k], innovation, xhat_post[k])
        wall[k] = time.perf_counter() - t0
        if keep:
            gains.append(views(entry.L))
            covs.append(views(entry.P))
            a_cols.append(views(a_stacks))
            c_cols.append(views(c_stacks))
    return xhat_pred, xhat_post, gains, covs, a_cols, c_cols, floor_events, wall


def run_dkf(model: GlobalModel, design: EstimatorDesign, traj: Trajectory,
            order: Sequence[int] | None = None) -> RunRecord:
    """Run the distributed filter over a simulated trajectory and record
    every per-instant quantity."""
    if not model.linear:
        raise ValueError("run_dkf needs a linear model; use run_dekf instead")
    return _run_filter(_LinearSource(model, design), traj, order, None)
