"""Batch full-information estimation oracles.

These solvers exist to verify the recursive filters: instead of recursing,
they assemble the entire estimation problem over the history ``0..k`` as one
symmetric indefinite KKT system and solve it with a single dense
factorization.  Two variants are provided:

- :func:`centralized_fie`: the classical batch least-squares smoother for the
  global model.  Its terminal estimate must match a standard Kalman filter.
- :func:`local_fie` / :func:`run_dfie`: the per-subsystem batch problem, which
  sees its neighbours only through the stacked prior guess (at instant 0) and
  a stacked history of their filtered estimates at instants ``0..k-1``: the
  estimate at ``j-1`` drives the own dynamics and the others' outputs at
  ``j``.  Solved instant by instant with self-consistent histories, its
  terminal estimates must match the distributed Kalman filter recursion.

The module also houses the classical extended Kalman filter step oracle of
the single-partition reductions.  A Kalman filter is an EKF whose maps are
affine, so on a linear plant's maps (Jacobians ``A`` and ``C``) the same
oracle is the centralized Kalman filter.  All oracles keep their own
formulation.  From :mod:`partkf.model` they share only the matrix-health
helpers ``_sym`` and ``_spd_solve``, the finiteness check of a stacked
history that the filters use, and the views the model owns: its read-only
column blocks and its single-subsystem view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .model import GlobalModel, _check_instants, _integer, _monolithic, _spd_solve, _sym

__all__ = [
    "OracleError",
    "FIEProblem",
    "FIESolution",
    "DfieRun",
    "local_fie",
    "centralized_fie",
    "run_dfie",
    "local_objective",
    "classical_ekf_init",
    "classical_ekf_step",
]


class OracleError(RuntimeError):
    """The batch KKT system could not be solved (singular factorization)."""


def _weights(problem: FIEProblem) -> tuple[np.ndarray, ...]:
    """The inverse weights ``P0^-1``, ``Q^-1`` and ``R^-1`` of a problem."""
    return tuple(
        _spd_solve(m, np.eye(m.shape[0]), OracleError(f"{what} must be positive definite"))
        for m, what in ((problem.prior_cov, "prior covariance"), (problem.Q, "process weight"),
                        (problem.R, "measurement weight")))


def _objective(weights: tuple, d0: np.ndarray, ws, vs) -> float:
    """The batch objective ``0.5 (d0' P0^-1 d0 + sum w' Q^-1 w + sum v' R^-1 v)``
    at the inverse weights of :func:`_weights`."""
    P0_inv, Q_inv, R_inv = weights
    return 0.5 * float(d0 @ P0_inv @ d0 + sum(w @ Q_inv @ w for w in ws)
                       + sum(v @ R_inv @ v for v in vs))


@dataclass(frozen=True)
class FIEProblem:
    """One local batch estimation problem for subsystem ``i`` over ``0..k``.

    ``prior_mean`` is the stacked prior guess, of shape ``(nx,)``: its own
    block weighs the initial state, the others' blocks enter the measurement
    constraint at instant 0.  ``history`` holds the stacked filtered
    estimates of instants ``0..k-1``, of shape ``(k, nx)``: row ``j-1`` drives
    the dynamics constraint and, through the others' states, the measurement
    constraint at instant ``j``.  The own block of ``history`` is not read,
    but like every input it must be finite.
    """

    model: GlobalModel
    subsystem: int
    ys: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    history: np.ndarray

    def __post_init__(self):
        for name in ("ys", "prior_mean", "prior_cov", "Q", "R", "history"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def horizon(self) -> int:
        return self.ys.shape[0] - 1

    def validate(self) -> None:
        if not self.model.linear:
            raise ValueError("batch oracles are defined for linear models")
        p = self.model.partition
        if self.ys.ndim != 2:
            raise ValueError(f"ys has shape {self.ys.shape}, expected (k+1, {p.ny})")
        if self.ys.shape[:1] == (0,):
            raise ValueError("ys has no instant; the problem starts at y_0")
        k = self.horizon
        for name, value, shape in (("ys", self.ys, (k + 1, p.ny)),
                                   ("prior_mean", self.prior_mean, (p.nx,)),
                                   ("history", self.history, (k, p.nx))):
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
        _check_instants("ys", self.ys, p, "outputs")
        _check_instants("prior_mean", self.prior_mean[None], p, "states")
        _check_instants("history", self.history, p, "states")


@dataclass(frozen=True)
class FIESolution:
    """Solution of one batch problem: the smoothed trajectory, noise
    estimates, multipliers, the KKT residual and the objective value."""

    horizon: int
    states: np.ndarray        # (k+1, n_i)
    w: np.ndarray             # (k, n_i)
    v: np.ndarray             # (k+1, ny)
    lam: np.ndarray           # (k+1, ny)
    pi: np.ndarray            # (k, n_i)
    kkt_residual: float
    objective: float

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _layout(k: int, n_i: int, n_y: int):
    idx: dict = {}
    pos = 0

    def put(key, size):
        nonlocal pos
        idx[key] = slice(pos, pos + size)
        pos += size

    put(("x", 0), n_i)
    put(("lam", 0), n_y)
    put(("v", 0), n_y)
    for j in range(1, k + 1):
        put(("pi", j - 1), n_i)
        put(("w", j - 1), n_i)
        put(("x", j), n_i)
        put(("lam", j), n_y)
        put(("v", j), n_y)
    return idx, pos


def _neighbor_terms(problem: FIEProblem) -> tuple[np.ndarray, list, list]:
    """The neighbours' share of the local constraints.  With ``x`` a stacked
    vector whose own block is zeroed: ``C x`` of the prior guess (instant 0)
    and, for each history row ``x = history[j-1]``, the own rows of ``A x``
    (dynamics at ``j``) and ``C`` times the other rows of ``A x``
    (measurement at ``j``)."""
    model = problem.model
    own = model.partition.state_slice(problem.subsystem)

    def others(x):
        z = x.copy()
        z[own] = 0.0
        return z

    dyn, out = [], []
    for x in problem.history:
        drive = model.A @ others(x)
        dyn.append(drive[own].copy())
        drive[own] = 0.0
        out.append(model.C @ drive)
    return model.C @ others(problem.prior_mean), dyn, out


def _local(problem: FIEProblem) -> tuple:
    """The blocks of one local batch problem, validated first: the own
    state slice, ``A_ii``, the own output column ``c_col``, the output cross
    map ``G = C a_col - c_col A_ii`` of the own state in constraints ``j >=
    1``, and the neighbours' terms (:func:`_neighbor_terms`)."""
    problem.validate()
    model = problem.model
    i = problem.subsystem
    own = model.partition.state_slice(i)
    A_ii = model.A[own, own]
    c_col = model.c_col(i)
    G = model.C @ model.a_col(i) - c_col @ A_ii
    return (own, A_ii, c_col, G, *_neighbor_terms(problem))


def _kkt(problem: FIEProblem) -> tuple[np.ndarray, np.ndarray, dict, tuple]:
    """The symmetric KKT system of one local batch problem, its layout and
    the problem's inverse weights."""
    own, A_ii, c_col, G, out0, dyn, out = _local(problem)
    p = problem.model.partition
    k = problem.horizon
    n_i = p.dims[problem.subsystem]
    n_y = p.ny
    weights = P0_inv, Q_inv, R_inv = _weights(problem)

    idx, size = _layout(k, n_i, n_y)
    K = np.zeros((size, size))
    rhs = np.zeros(size)

    def put(row_key, col_key, block):
        K[idx[row_key], idx[col_key]] = block

    put(("x", 0), ("x", 0), P0_inv)
    put(("x", 0), ("lam", 0), c_col.T)
    put(("lam", 0), ("x", 0), c_col)
    put(("lam", 0), ("v", 0), np.eye(n_y))
    put(("v", 0), ("lam", 0), np.eye(n_y))
    put(("v", 0), ("v", 0), R_inv)
    rhs[idx[("x", 0)]] = P0_inv @ problem.prior_mean[own]
    rhs[idx[("lam", 0)]] = problem.ys[0] - out0

    for j in range(1, k + 1):
        put(("x", j - 1), ("pi", j - 1), A_ii.T)
        put(("pi", j - 1), ("x", j - 1), A_ii)
        put(("x", j - 1), ("lam", j), G.T)
        put(("lam", j), ("x", j - 1), G)
        put(("pi", j - 1), ("w", j - 1), np.eye(n_i))
        put(("w", j - 1), ("pi", j - 1), np.eye(n_i))
        put(("pi", j - 1), ("x", j), -np.eye(n_i))
        put(("x", j), ("pi", j - 1), -np.eye(n_i))
        put(("w", j - 1), ("w", j - 1), Q_inv)
        put(("x", j), ("lam", j), c_col.T)
        put(("lam", j), ("x", j), c_col)
        put(("lam", j), ("v", j), np.eye(n_y))
        put(("v", j), ("lam", j), np.eye(n_y))
        put(("v", j), ("v", j), R_inv)
        rhs[idx[("pi", j - 1)]] = -dyn[j - 1]
        rhs[idx[("lam", j)]] = problem.ys[j] - out[j - 1]
    return K, rhs, idx, weights


def local_fie(problem: FIEProblem) -> FIESolution:
    """Solve one local batch problem with a single dense factorization."""
    K, rhs, idx, weights = _kkt(problem)
    try:
        lu = lu_factor(K)
    except ValueError as exc:   # a singular K only warns; it is caught below
        raise OracleError("KKT factorization failed") from exc
    z = lu_solve(lu, rhs)
    if not np.all(np.isfinite(z)):
        raise OracleError("KKT system is singular")
    residual = float(np.linalg.norm(K @ z - rhs))
    p = problem.model.partition
    k, n_i, own = problem.horizon, p.dims[problem.subsystem], p.state_slice(problem.subsystem)

    def rows(name: str, count: int, size: int) -> np.ndarray:
        return np.array([z[idx[(name, j)]] for j in range(count)]).reshape(count, size)

    states, v, lam = rows("x", k + 1, n_i), rows("v", k + 1, p.ny), rows("lam", k + 1, p.ny)
    w, pi = rows("w", k, n_i), rows("pi", k, n_i)
    return FIESolution(horizon=k, states=states, w=w, v=v, lam=lam, pi=pi,
                       kkt_residual=residual,
                       objective=_objective(weights, states[0] - problem.prior_mean[own], w, v))


def local_objective(problem: FIEProblem, x0: np.ndarray, ws: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Objective value of a feasible candidate.

    ``x0`` and the process-noise sequence ``ws`` are free; the state
    trajectory follows from the dynamics constraints and the measurement
    noise estimates from the output constraints.  Returns the objective and
    the implied trajectory.
    """
    own, A_ii, c_col, G, out0, dyn, out = _local(problem)
    k = problem.horizon
    states = [np.asarray(x0, dtype=float)]
    for j in range(k):
        states.append(A_ii @ states[j] + dyn[j] + ws[j])
    vs = [problem.ys[0] - c_col @ states[0] - out0]
    for j in range(1, k + 1):
        vs.append(problem.ys[j] - c_col @ states[j] - G @ states[j - 1] - out[j - 1])
    value = _objective(_weights(problem), states[0] - problem.prior_mean[own],
                       np.atleast_2d(ws)[:k], vs)
    return value, np.vstack(states)


def centralized_fie(model: GlobalModel, prior_mean: np.ndarray,
                    prior_cov: np.ndarray, ys: np.ndarray,
                    Q: np.ndarray | None = None,
                    R: np.ndarray | None = None) -> FIESolution:
    """Batch least-squares smoother for the global linear model.

    The problem is the local one of the model's single-subsystem view, so
    weights default to the model's stacked ``Q``/``R``; with no neighbours
    its history is all own block, zeros that are not read.  The unique
    minimizer's terminal state must agree with a standard Kalman filter run
    over the same history (the EKF oracle on the plant's affine maps).
    """
    mono = _monolithic(model)
    ys = np.asarray(ys, dtype=float)
    problem = FIEProblem(
        model=mono, subsystem=0, ys=ys, prior_mean=prior_mean, prior_cov=prior_cov,
        Q=mono.Q if Q is None else Q, R=mono.R if R is None else R,
        history=np.zeros((max(len(np.atleast_1d(ys)) - 1, 0), mono.nx)),
    )
    return local_fie(problem)


@dataclass
class DfieRun:
    """Distributed batch estimation executed instant by instant."""

    solutions: list[list[FIESolution]]
    terminals: np.ndarray          # (K+1, nx) stacked terminal estimates
    max_kkt_residual: float


def run_dfie(model: GlobalModel, design, ys: np.ndarray, steps: int,
             history: np.ndarray | None = None) -> DfieRun:
    """Run the distributed batch estimator for instants ``0..steps``.

    The instant-``k`` problem of each subsystem reads the stacked estimates
    of instants ``0..k-1``.  When ``history`` is given (stacked filtered
    estimates of a recorded filter run) the problems read it; otherwise the
    protocol feeds its own terminal estimates forward, which is equivalent in
    exact arithmetic.
    """
    if _integer("steps", steps) < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    p = model.partition
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2:
        raise ValueError(f"ys must hold one output vector per instant, got shape {ys.shape}")
    if ys.shape[0] < steps + 1:
        raise ValueError("measurement history shorter than requested horizon")
    terminals = np.zeros((steps + 1, p.nx))
    solutions: list[list[FIESolution]] = []
    max_res = 0.0
    for k in range(steps + 1):
        hist = history[:k] if history is not None else terminals[:k]
        per_i = []
        for i in range(p.n):
            sol = local_fie(FIEProblem(
                model=model, subsystem=i, ys=ys[: k + 1], prior_mean=design.x0_guess,
                prior_cov=design.P0[i], Q=design.Q[i], R=design.R, history=hist))
            per_i.append(sol)
            terminals[k, p.state_slice(i)] = sol.terminal
            max_res = max(max_res, sol.kkt_residual / (1.0 + np.linalg.norm(ys[: k + 1])))
        solutions.append(per_i)
    return DfieRun(solutions=solutions, terminals=terminals, max_kkt_residual=max_res)


# -- the classical EKF step oracle ----------------------------------------


def classical_ekf_init(guess: np.ndarray, P0: np.ndarray, y0: np.ndarray,
                       h, jac_h, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain-form measurement update of a classical global EKF at the prior
    ``(guess, P0)``: the initial update, and the update of every step."""
    C0 = np.asarray(jac_h(guess), dtype=float)
    S = C0 @ P0 @ C0.T + R
    K = _spd_solve(S, C0 @ P0, OracleError("innovation covariance is not positive definite")).T
    x = guess + K @ (y0 - np.asarray(h(guess), dtype=float))
    P = _sym((np.eye(P0.shape[0]) - K @ C0) @ P0)
    return x, P


def classical_ekf_step(x_post: np.ndarray, P_post: np.ndarray, y_next: np.ndarray,
                       f, h, jac_f, jac_h, Q: np.ndarray, R: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """One classical EKF step on the aggregated model.

    Dynamics are linearized at the previous posterior, the output map at the
    prediction, and the innovation uses the nonlinear output map.  On affine
    maps, whose Jacobians are constant, this is the standard Kalman filter.
    """
    A_k = np.asarray(jac_f(x_post), dtype=float)
    return classical_ekf_init(np.asarray(f(x_post), dtype=float), A_k @ P_post @ A_k.T + Q,
                              y_next, h, jac_h, R)
