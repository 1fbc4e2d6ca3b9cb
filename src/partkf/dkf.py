"""Partition-based distributed Kalman filter: the one two-phase engine.

Each subsystem runs a local estimator over its own state block.  At every
sampling instant the estimators exchange posteriors, predict, exchange
predictions, and update against the full stacked measurement vector.  All
cross-estimator reads in the prediction phase go through an immutable
:class:`ExchangeSnapshot`, and the update phase reads only the finished
predictions, so results are independent of the order in which local
estimators execute.

Local recursion for subsystem ``i`` with global output matrix ``C``, stacked
column block ``A_col = A[:, i-block]`` and own diagonal block ``A_ii``:

- prediction   ``xp_i = A_ii xh_i + sum_l A_il xh_l``
- gain         ``L_i = (C A_col P A_ii' + C_col Q_i)' M^-1`` with
  ``M = C A_col P A_col' C' + C_col Q_i C_col' + R``
- update       ``xh_i = xp_i + L_i (y - [C_l xp_l]_l)``: the innovation
  stacks every subsystem's own output, as the extended filter's does
- covariance   ``P+ = A_ii P A_ii' + Q_i - L_i (C A_col P A_ii' + C_col Q_i)``

The same loop runs the linear filter (:func:`run_dkf`) and the extended
filter (:func:`partkf.dekf.run_dekf`).  It is given a linearization source
that supplies, per instant, the dynamics blocks at the posteriors, the local
predictions, the output blocks at the predictions and the innovation: the
constant blocks of a linear model here, the re-linearized blocks of a
nonlinear model in :mod:`partkf.dekf`.  Per instant the loop computes the
innovation once, then settles the instant in one step, the same at instant 0
and at instant ``k``: for every subsystem the gain and covariance, the
eigenvalue floor and the positive-definiteness check.

The gains ``L_i(k)`` and covariances ``P_i(k)`` of the linear filter depend
on the model and the design, never on the measurements.  So the linear
source, which belongs to one model and one design, keeps the gain schedule
(per instant ``k``, every ``L_i`` and ``P_i`` and the floor events) that its
first run computes, with the floor and the positive-definiteness check, and
every later run with that source reads it: a Monte Carlo ensemble computes
its gains once.  A schedule is never shared between sources, so none is
reused across designs.  The extended filter's blocks depend on the
estimates, so its source keeps no schedule and it computes its gains anew
on every run.  The linear filter's records hold the schedule's arrays and
the model's column blocks, all read-only and shared by every run.

Inverses are SPD solves and covariances are symmetrized after every step,
through the matrix-health helpers ``_sym``, ``_spd_solve`` of :mod:`partkf.model`.
An SPD solve is one LAPACK ``dpotrf``/``dpotrs`` pair with SciPy's checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import block_diag

from .model import (GlobalModel, LinearizationError, _check_instants, _own_outputs, _posdef,
                    _spd_solve, _sym, _symmetric)
from .records import RunRecord, _check_shapes, _run_shapes
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
    and the prior mean ``x0_guess``."""

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
        if len(self.Q) != p.n or len(self.P0) != p.n:
            raise ValueError("design must provide Q and P0 for every subsystem")
        for i in range(p.n):
            if self.Q[i].shape != (p.dims[i], p.dims[i]):
                raise ValueError(f"Q[{i}] has shape {self.Q[i].shape}, expected "
                                 f"({p.dims[i]}, {p.dims[i]})")
            if self.P0[i].shape != (p.dims[i], p.dims[i]):
                raise ValueError(f"P0[{i}] has wrong shape")
        if self.R.shape != (p.ny, p.ny):
            raise ValueError(f"R has shape {self.R.shape}, expected ({p.ny}, {p.ny})")
        if self.x0_guess.shape != (p.nx,):
            raise ValueError("x0_guess does not match the partition")
        for i in range(p.n):
            for name, value in ((f"Q[{i}]", self.Q[i]), (f"P0[{i}]", self.P0[i]),
                                (f"x0_guess of subsystem {i}",
                                 self.x0_guess[p.state_slice(i)])):
                if not np.isfinite(value).all():
                    raise ValueError(f"{name} is not finite")
        if not np.isfinite(self.R).all():
            raise ValueError("R is not finite")
        weights = {**{f"Q[{i}]": q for i, q in enumerate(self.Q)},
                   **{f"P0[{i}]": p0 for i, p0 in enumerate(self.P0)}, "R": self.R}
        if not _symmetric(*weights.values()):
            name = next(name for name, m in weights.items() if not _symmetric(m))
            raise ValueError(f"{name} is not symmetric")

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


def _floor(P: np.ndarray) -> tuple[np.ndarray, bool]:
    """Apply the eigenvalue floor; returns the covariance and whether it fired."""
    d = P.shape[0]
    if np.linalg.eigvalsh(P)[0] < COV_FLOOR_REL * np.trace(P) / d:
        return P + COV_FLOOR_BUMP * np.eye(d), True
    return P, False


def _settled(source, k: int, agenda: Sequence[int], gain) -> tuple:
    """Instant ``k``'s gains, covariances and floor events: the source's
    schedule entry, or ``gain(i) -> (L_i, P_i)`` for each subsystem of
    ``agenda``, floored, checked positive definite and handed to the
    source's ``keep``.  Failures name the subsystem and the instant."""
    entry = source.schedule.get(k)
    if entry is not None:
        return entry
    n = source.model.partition.n
    L_k, P_k, floors = [None] * n, [None] * n, 0
    for i in agenda:
        try:
            L_k[i], P = gain(i)
        except FilterError as exc:
            raise FilterError(f"subsystem {i} at instant {k}: {exc}") from exc
        P_k[i], floored = _floor(P)
        if not _posdef(P_k[i]):
            raise CovarianceCollapseError(
                f"posterior covariance of subsystem {i} lost positive definiteness",
                subsystem=i, k=k)
        floors += floored
    return source.keep(k, L_k, P_k, floors)


def gain_and_covariance(P_prev: np.ndarray, a_col: np.ndarray, a_ii: np.ndarray,
                        C: np.ndarray, c_col: np.ndarray, Q_i: np.ndarray,
                        R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One local gain/covariance computation from explicit matrix blocks.

    Shared by the linear filter (constant blocks) and the nonlinear filter
    (blocks refreshed by relinearization every instant).  The innovation
    matrix inverse is applied via an SPD solve and the returned covariance is
    symmetrized.
    """
    CA = C @ a_col
    CAP = CA @ P_prev
    Z = CAP @ a_ii.T + c_col @ Q_i
    M = CAP @ CA.T + c_col @ Q_i @ c_col.T + R
    L = _spd_solve(M, Z, FilterError("innovation covariance is not positive definite; "
                                     "inputs are corrupted or R is not SPD")).T
    P_new = _sym(a_ii @ P_prev @ a_ii.T + Q_i - L @ Z)
    return L, P_new


def init_update(P0_i: np.ndarray, c_col: np.ndarray, R: np.ndarray,
                guess_i: np.ndarray, innovation: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial measurement update of one local estimator.

    Information form: ``P_post^-1 = P0^-1 + c_col' R^-1 c_col`` and
    ``xh = guess + P_post c_col' R^-1 innovation``.  Returns
    ``(xh, P_post, effective_gain)``.
    """
    P0_inv = _spd_solve(P0_i, np.eye(P0_i.shape[0]),
                        FilterError("prior covariance is not positive definite"))
    Rinv_c = _spd_solve(R, c_col, FilterError("measurement weight R is not positive definite"))
    info = P0_inv + c_col.T @ Rinv_c
    P_post = _sym(_spd_solve(info, np.eye(info.shape[0]), FilterError(
        "posterior information matrix is not positive definite")))
    L0 = P_post @ Rinv_c.T
    xh = guess_i + L0 @ innovation
    return xh, P_post, L0


def _posteriors(snapshot: ExchangeSnapshot, i: int, neighbors) -> tuple[np.ndarray, dict]:
    """Subsystem ``i``'s posterior and its neighbors' from a phase-1 snapshot."""
    if snapshot.posteriors[i] is None:
        raise FilterError(f"snapshot is missing the posterior of subsystem {i}")
    nbrs = {}
    for l in neighbors:
        if snapshot.posteriors[l] is None:
            raise FilterError(f"snapshot is missing the posterior of neighbor {l}")
        nbrs[l] = snapshot.posteriors[l]
    return snapshot.posteriors[i], nbrs


def predict(i: int, snapshot: ExchangeSnapshot, model: GlobalModel) -> np.ndarray:
    """Local prediction from the posterior snapshot of instant ``k-1``: the
    subsystem's affine map :meth:`~partkf.model.LinearSubsystem.f` at its
    posterior and its neighbors'."""
    sub = model.subsystems[i]
    x_i, nbrs = _posteriors(snapshot, i, sub.neighbors)
    return sub.f(x_i, nbrs)


def update(i: int, x_pred_i: np.ndarray, snapshot: ExchangeSnapshot,
           L_i: np.ndarray, model: GlobalModel) -> np.ndarray:
    """Local measurement update ``xp_i + L_i (y - [h_l(xp_l)]_l)`` from the
    prediction snapshot, for either filter: the innovation stacks every
    subsystem's own output map at its prediction, each call checked."""
    if snapshot.predictions is None or any(p is None for p in snapshot.predictions):
        raise FilterError("snapshot is missing neighbor predictions")
    if snapshot.measurement is None:
        raise FilterError("snapshot is missing the measurement")
    innovation = snapshot.measurement - _own_outputs(model.subsystems, snapshot.predictions)
    return x_pred_i + L_i @ innovation


def init_states(model: GlobalModel, design: EstimatorDesign,
                y0: np.ndarray) -> list[EstimatorState]:
    """Initial measurement update for all subsystems at instant 0 (with the
    engine's eigenvalue floor)."""
    _, xh, (L_0, P_0, _) = _fuse_prior(_LinearSource(model, design),
                                       np.asarray(y0, dtype=float), range(model.partition.n))
    return [EstimatorState(i, xh[i], P_0[i], L_0[i], 0) for i in range(model.partition.n)]


def _fuse_prior(source, y0: np.ndarray, agenda: Sequence[int]) -> tuple[list, list, tuple]:
    """Instant 0: the output blocks at the prior guess, the schedule entry
    (gains, covariances, floor events) of fusing the guess with ``y_0`` and
    the posteriors ``guess_i + L_i (y_0 - h(guess))``, formed as
    :func:`init_update` forms them."""
    design = source.design
    guess = source.model.partition.split_state(design.x0_guess)
    c_cols, _ = source.output(design.x0_guess)
    innovation = source.innovation(y0, guess)

    def gain(i):
        _, P, L = init_update(design.P0[i], c_cols[i], design.R, guess[i], innovation)
        return L, P

    entry = _settled(source, 0, agenda, gain)
    return c_cols, [g + L @ innovation for g, L in zip(guess, entry[0])], entry


class _LinearSource:
    """Linearization source of a linear model and one design (validated
    once, here): the model's column blocks, the linear prediction, the
    innovation against the constant output map and the gain schedule."""

    kind = "dkf"
    predict = staticmethod(predict)

    def __init__(self, model: GlobalModel, design: EstimatorDesign):
        design.validate(model)
        self.model = model
        self.design = design
        self.a_cols, self.c_cols = model._col_blocks
        self.a_ii = [sub.A for sub in model.subsystems]
        #: The gain schedule: instant ``k`` -> per-subsystem gains and
        #: covariances, and the instant's number of floor events.
        self.schedule: dict = {}

    def dynamics(self, x: np.ndarray) -> tuple[list, list]:
        return list(self.a_cols), self.a_ii

    def output(self, x: np.ndarray) -> tuple[list, np.ndarray]:
        return list(self.c_cols), self.model.C

    def innovation(self, y: np.ndarray, points: Sequence[np.ndarray]) -> np.ndarray:
        # The stacked own outputs of ``model._own_outputs``, unchecked as in
        # ``predict``: the affine maps of a validated model cannot fail.
        return y - np.concatenate([sub.h(x) for sub, x in zip(self.model.subsystems, points)])

    def keep(self, k: int, L_k: list, P_k: list, floors: int) -> tuple:
        """Enter the settled gains and covariances of instant ``k`` and its
        number of floor events into the schedule.  Every later run hands
        these very arrays to its record, so they are made read-only."""
        for m in (*L_k, *P_k):
            m.setflags(write=False)
        entry = self.schedule[k] = (tuple(L_k), tuple(P_k), floors)
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
    """The two-phase loop shared by :func:`run_dkf` and ``run_dekf``.

    Instant 0 fuses the prior guess with ``y_0`` (output blocks at the guess).
    Instant ``k`` takes the dynamics blocks at the posteriors of ``k-1``,
    predicts every subsystem from the posterior snapshot, takes the output
    blocks at the stacked prediction, forms the innovation once and then
    updates every subsystem.  Both settle their gains and covariances with
    :func:`_settled`.  Aborts with the subsystem and the instant on
    covariance collapse or a failure of a subsystem map.
    """
    model, design = source.model, source.design
    ys = _check_trajectory(model, traj)
    p = model.partition
    n = p.n
    K = traj.steps
    agenda = list(order) if order is not None else list(range(n))
    if sorted(agenda) != list(range(n)):
        raise ValueError("order must be a permutation of the subsystems")

    xhat_pred = np.empty((K + 1, p.nx))
    xhat_post = np.empty((K + 1, p.nx))
    wall = np.empty(K + 1)

    t0 = time.perf_counter()
    c_cols_k, xh, (L_k, P_k, floor_events) = _at_instant(0, _fuse_prior, source, ys[0],
                                                         agenda)
    wall[0] = time.perf_counter() - t0
    xhat_pred[0] = design.x0_guess
    xhat_post[0] = np.concatenate(xh)
    gains, covs, a_cols, c_cols = [list(L_k)], [list(P_k)], [], [c_cols_k]

    for k in range(1, K + 1):
        t0 = time.perf_counter()
        a_cols_k, a_ii = _at_instant(k, source.dynamics, xhat_post[k - 1])
        phase1 = ExchangeSnapshot(k=k, posteriors=tuple(xh))
        xp: list = [None] * n
        for i in agenda:
            xp[i] = _at_instant(k, source.predict, i, phase1, model)
        xhat_pred[k] = np.concatenate(xp)
        c_cols_k, C_k = _at_instant(k, source.output, xhat_pred[k])
        innovation = _at_instant(k, source.innovation, ys[k], xp)

        # ``gain_and_covariance`` is looked up at call time; ``P`` is of instant k-1.
        L_k, P_k, floors = _settled(
            source, k, agenda, lambda i, P=P_k: gain_and_covariance(
                P[i], a_cols_k[i], a_ii[i], C_k, c_cols_k[i], design.Q[i], design.R))
        floor_events += floors
        xh = [None] * n
        for i in agenda:
            xh[i] = xp[i] + L_k[i] @ innovation
        wall[k] = time.perf_counter() - t0
        xhat_post[k] = np.concatenate(xh)
        gains.append(list(L_k))
        covs.append(list(P_k))
        a_cols.append(a_cols_k)
        c_cols.append(c_cols_k)

    err = traj.xs - xhat_post
    rmse = np.sqrt(np.sum(err * err, axis=1) / p.nx)
    return RunRecord(
        kind=source.kind, seed=traj.seed, dims=p.dims, out_dims=p.out_dims,
        xs=traj.xs, ys=traj.ys, ws=traj.ws, vs=traj.vs,
        xhat_pred=xhat_pred, xhat_post=xhat_post,
        gains=gains, covs=covs, a_cols=a_cols, c_cols=c_cols,
        rmse=rmse, estimator=design.serializable(), floor_events=floor_events,
        wall_clock=wall, config=config,
    )


def run_dkf(model: GlobalModel, design: EstimatorDesign, traj: Trajectory,
            order: Sequence[int] | None = None) -> RunRecord:
    """Run the distributed filter over a simulated trajectory and record
    every per-instant quantity."""
    if not model.linear:
        raise ValueError("run_dkf needs a linear model; use run_dekf instead")
    return _run_filter(_LinearSource(model, design), traj, order, None)
