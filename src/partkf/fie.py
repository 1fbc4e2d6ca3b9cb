"""Batch full-information estimation oracles.

These solvers exist to verify the recursive filters: instead of recursing,
they assemble the entire estimation problem over the history ``0..k`` as one
symmetric indefinite KKT system and solve it with a single dense
factorization.  Two variants are provided:

- :func:`centralized_fie`: the classical batch least-squares smoother for the
  global model.  Its terminal estimate must match a standard Kalman filter.
- :func:`local_fie` / :func:`run_dfie`: the per-subsystem batch problem in
  which neighbor trajectories enter the dynamics constraints and neighbor
  output paths enter the measurement constraints at prescribed lags.  Solved
  instant by instant with self-consistent neighbor histories, its terminal
  estimates must match the distributed Kalman filter recursion.

The module also houses small independent step oracles (standard Kalman filter
and classical extended Kalman filter) used by the reduction test suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from .model import GlobalModel, LinearSubsystem, assemble_global, make_partition

__all__ = [
    "OracleError",
    "FIEProblem",
    "FIESolution",
    "DfieRun",
    "local_fie",
    "centralized_fie",
    "build_local_problem",
    "run_dfie",
    "local_objective",
    "centralized_kf_init",
    "centralized_kf_step",
    "classical_ekf_init",
    "classical_ekf_step",
]


class OracleError(RuntimeError):
    """The batch KKT system could not be solved (singular factorization)."""


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    try:
        c = cho_factor(_sym(np.asarray(m, dtype=float)))
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"{what} must be positive definite") from exc
    return cho_solve(c, np.eye(m.shape[0]))


@dataclass(frozen=True)
class FIEProblem:
    """One local batch estimation problem for subsystem ``i`` over ``0..k``.

    ``neighbor_dyn[l]`` holds the neighbor state estimates consumed by the
    dynamics constraints (rows ``j = 0..k-1``), ``neighbor_out[m]`` the
    filtered estimates consumed by the measurement cross terms (rows
    ``j = 0..k-1`` feeding constraints ``j+1``), and ``neighbor_priors[l]``
    the prior means used by the constraint at instant 0.  All three must be
    present for every other subsystem; a missing lag is a contract violation.
    """

    model: GlobalModel
    subsystem: int
    ys: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    neighbor_priors: Mapping[int, np.ndarray]
    neighbor_dyn: Mapping[int, np.ndarray]
    neighbor_out: Mapping[int, np.ndarray]

    @property
    def horizon(self) -> int:
        return self.ys.shape[0] - 1

    def validate(self) -> None:
        if not self.model.linear:
            raise ValueError("batch oracles are defined for linear models")
        p = self.model.partition
        i = self.subsystem
        k = self.horizon
        n_i = p.dims[i]
        if self.ys.shape != (k + 1, p.ny):
            raise ValueError("measurement history has the wrong shape")
        if self.prior_mean.shape != (n_i,):
            raise ValueError("prior mean does not match the subsystem dimension")
        others = [l for l in range(p.n) if l != i]
        for l in others:
            if l not in self.neighbor_priors:
                raise ValueError(f"missing prior for subsystem {l}")
            if k >= 1:
                for name, hist in (("dynamics", self.neighbor_dyn),
                                   ("output", self.neighbor_out)):
                    if l not in hist:
                        raise ValueError(
                            f"missing {name} history for subsystem {l} at horizon {k}")
                    if np.asarray(hist[l]).shape != (k, p.dims[l]):
                        raise ValueError(
                            f"{name} history for subsystem {l} must have shape "
                            f"({k}, {p.dims[l]})")


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


def _masked_embed(p, exclude: int, blocks: Mapping[int, np.ndarray], row=None) -> np.ndarray:
    """Global vector with the given per-subsystem blocks and zeros in the
    excluded subsystem's slice."""
    z = np.zeros(p.nx)
    for l, val in blocks.items():
        if l == exclude:
            continue
        v = np.asarray(val, dtype=float)
        z[p.state_slice(l)] = v if row is None else v[row]
    return z


def assemble_kkt(problem: FIEProblem) -> tuple[np.ndarray, np.ndarray, dict]:
    """Assemble the symmetric KKT system of one local batch problem."""
    problem.validate()
    model = problem.model
    p = model.partition
    i = problem.subsystem
    k = problem.horizon
    n_i = p.dims[i]
    n_y = p.ny

    A_ii = model.A[p.state_slice(i), p.state_slice(i)]
    a_col = model.a_col(i)
    c_col = model.c_col(i)
    C = model.C
    # Output cross map of the own state in constraints j >= 1.
    G = C @ a_col - c_col @ A_ii

    P0_inv = _spd_inverse(problem.prior_cov, "prior covariance")
    Q_inv = _spd_inverse(problem.Q, "process weight")
    R_inv = _spd_inverse(problem.R, "measurement weight")

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
    rhs[idx[("x", 0)]] = P0_inv @ problem.prior_mean
    rhs[idx[("lam", 0)]] = problem.ys[0] - C @ _masked_embed(p, i, problem.neighbor_priors)

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

        dyn = _masked_embed(p, i, problem.neighbor_dyn, row=j - 1)
        rhs[idx[("pi", j - 1)]] = -(model.A @ dyn)[p.state_slice(i)]
        out = _masked_embed(p, i, problem.neighbor_out, row=j - 1)
        cross = model.A @ out
        cross[p.state_slice(i)] = 0.0
        rhs[idx[("lam", j)]] = problem.ys[j] - C @ cross
    return K, rhs, idx


def local_fie(problem: FIEProblem) -> FIESolution:
    """Solve one local batch problem with a single dense factorization."""
    K, rhs, idx = assemble_kkt(problem)
    try:
        lu = lu_factor(K)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise OracleError("KKT factorization failed") from exc
    z = lu_solve(lu, rhs)
    if not np.all(np.isfinite(z)):
        raise OracleError("KKT system is singular")
    residual = float(np.linalg.norm(K @ z - rhs))
    k = problem.horizon
    states = np.vstack([z[idx[("x", j)]] for j in range(k + 1)])
    v = np.vstack([z[idx[("v", j)]] for j in range(k + 1)])
    lam = np.vstack([z[idx[("lam", j)]] for j in range(k + 1)])
    if k:
        w = np.vstack([z[idx[("w", j)]] for j in range(k)])
        pi = np.vstack([z[idx[("pi", j)]] for j in range(k)])
    else:
        n_i = states.shape[1]
        w = np.zeros((0, n_i))
        pi = np.zeros((0, n_i))
    P0_inv = _spd_inverse(problem.prior_cov, "prior covariance")
    Q_inv = _spd_inverse(problem.Q, "process weight")
    R_inv = _spd_inverse(problem.R, "measurement weight")
    d0 = states[0] - problem.prior_mean
    objective = 0.5 * float(
        d0 @ P0_inv @ d0
        + sum(wj @ Q_inv @ wj for wj in w)
        + sum(vj @ R_inv @ vj for vj in v)
    )
    return FIESolution(horizon=k, states=states, w=w, v=v, lam=lam, pi=pi,
                       kkt_residual=residual, objective=objective)


def local_objective(problem: FIEProblem, x0: np.ndarray, ws: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Objective value of a feasible candidate.

    ``x0`` and the process-noise sequence ``ws`` are free; the state
    trajectory follows from the dynamics constraints and the measurement
    noise estimates from the output constraints.  Returns the objective and
    the implied trajectory.
    """
    problem.validate()
    model = problem.model
    p = model.partition
    i = problem.subsystem
    k = problem.horizon
    A_ii = model.A[p.state_slice(i), p.state_slice(i)]
    c_col = model.c_col(i)
    G = model.C @ model.a_col(i) - c_col @ A_ii

    states = [np.asarray(x0, dtype=float)]
    for j in range(k):
        dyn = _masked_embed(p, i, problem.neighbor_dyn, row=j)
        nxt = A_ii @ states[j] + (model.A @ dyn)[p.state_slice(i)] + ws[j]
        states.append(nxt)
    vs = [problem.ys[0] - c_col @ states[0]
          - model.C @ _masked_embed(p, i, problem.neighbor_priors)]
    for j in range(1, k + 1):
        out = _masked_embed(p, i, problem.neighbor_out, row=j - 1)
        cross = model.A @ out
        cross[p.state_slice(i)] = 0.0
        vs.append(problem.ys[j] - c_col @ states[j] - G @ states[j - 1] - model.C @ cross)
    P0_inv = _spd_inverse(problem.prior_cov, "prior covariance")
    Q_inv = _spd_inverse(problem.Q, "process weight")
    R_inv = _spd_inverse(problem.R, "measurement weight")
    d0 = states[0] - problem.prior_mean
    value = 0.5 * float(
        d0 @ P0_inv @ d0
        + sum(w @ Q_inv @ w for w in np.atleast_2d(ws)[:k])
        + sum(v @ R_inv @ v for v in vs)
    )
    return value, np.vstack(states)


def _monolithic(model: GlobalModel) -> GlobalModel:
    """View the whole linear plant as a single subsystem."""
    part = make_partition([model.nx], [model.ny])
    sub = LinearSubsystem(index=0, A=model.A, coupling={}, C=model.C,
                          Q=model.Q, R=model.R)
    return assemble_global([sub], part)


def centralized_fie(model: GlobalModel, prior_mean: np.ndarray,
                    prior_cov: np.ndarray, ys: np.ndarray,
                    Q: np.ndarray | None = None,
                    R: np.ndarray | None = None) -> FIESolution:
    """Batch least-squares smoother for the global linear model.

    Weights default to the model's stacked ``Q``/``R``.  The unique
    minimizer's terminal state must agree with a standard Kalman filter run
    over the same history.
    """
    mono = _monolithic(model)
    problem = FIEProblem(
        model=mono, subsystem=0, ys=np.asarray(ys, dtype=float),
        prior_mean=np.asarray(prior_mean, dtype=float),
        prior_cov=np.asarray(prior_cov, dtype=float),
        Q=mono.Q if Q is None else np.asarray(Q, dtype=float),
        R=mono.R if R is None else np.asarray(R, dtype=float),
        neighbor_priors={}, neighbor_dyn={}, neighbor_out={},
    )
    return local_fie(problem)


def build_local_problem(model: GlobalModel, i: int, ys: np.ndarray,
                        prior_mean_global: np.ndarray,
                        prior_cov_i: np.ndarray, Q_i: np.ndarray,
                        R: np.ndarray, history: np.ndarray) -> FIEProblem:
    """Assemble the instant-``k`` local problem for subsystem ``i``.

    ``history`` holds stacked filtered estimates for instants ``0..k-1``
    (typically ``record.xhat_post`` from a filter run); it supplies both
    neighbor lag patterns.  ``prior_mean_global`` is the stacked prior guess.
    """
    p = model.partition
    ys = np.asarray(ys, dtype=float)
    k = ys.shape[0] - 1
    history = np.asarray(history, dtype=float)
    if k >= 1 and history.shape[0] < k:
        raise ValueError(f"history must cover instants 0..{k - 1}")
    others = [l for l in range(p.n) if l != i]
    priors = {l: prior_mean_global[p.state_slice(l)] for l in others}
    dyn = {l: history[:k, p.state_slice(l)] for l in others}
    out = {l: history[:k, p.state_slice(l)] for l in others}
    return FIEProblem(
        model=model, subsystem=i, ys=ys,
        prior_mean=prior_mean_global[p.state_slice(i)],
        prior_cov=np.asarray(prior_cov_i, dtype=float),
        Q=np.asarray(Q_i, dtype=float), R=np.asarray(R, dtype=float),
        neighbor_priors=priors, neighbor_dyn=dyn, neighbor_out=out,
    )


@dataclass
class DfieRun:
    """Distributed batch estimation executed instant by instant."""

    solutions: list[list[FIESolution]]
    terminals: np.ndarray          # (K+1, nx) stacked terminal estimates
    max_kkt_residual: float


def run_dfie(model: GlobalModel, design, ys: np.ndarray, steps: int,
             history: np.ndarray | None = None) -> DfieRun:
    """Run the distributed batch estimator for instants ``0..steps``.

    Each local problem consumes neighbor estimates at the prescribed lags.
    When ``history`` is given (stacked filtered estimates of a recorded
    filter run) the problems consume it; otherwise the protocol feeds its own
    terminal estimates forward, which is equivalent in exact arithmetic.
    """
    p = model.partition
    ys = np.asarray(ys, dtype=float)
    if ys.shape[0] < steps + 1:
        raise ValueError("measurement history shorter than requested horizon")
    terminals = np.zeros((steps + 1, p.nx))
    solutions: list[list[FIESolution]] = []
    max_res = 0.0
    for k in range(steps + 1):
        hist = history[:k] if history is not None else terminals[:k]
        per_i = []
        for i in range(p.n):
            prob = build_local_problem(
                model, i, ys[: k + 1], design.x0_guess, design.P0[i],
                design.Q[i], design.R, hist,
            )
            sol = local_fie(prob)
            per_i.append(sol)
            terminals[k, p.state_slice(i)] = sol.terminal
            max_res = max(max_res, sol.kkt_residual / (1.0 + np.linalg.norm(ys[: k + 1])))
        solutions.append(per_i)
    return DfieRun(solutions=solutions, terminals=terminals, max_kkt_residual=max_res)


# -- independent step oracles --------------------------------------------


def _solve_spd(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        return cho_solve(cho_factor(_sym(S)), B)
    except np.linalg.LinAlgError as exc:
        raise OracleError("innovation covariance is not positive definite") from exc


def centralized_kf_init(guess: np.ndarray, P0: np.ndarray, y0: np.ndarray,
                        model: GlobalModel, R: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Gain-form initial update of the standard Kalman filter."""
    C = model.C
    R = model.R if R is None else R
    S = C @ P0 @ C.T + R
    K = _solve_spd(S, C @ P0).T
    x = guess + K @ (y0 - C @ guess)
    P = _sym((np.eye(P0.shape[0]) - K @ C) @ P0)
    return x, P


def centralized_kf_step(x_post: np.ndarray, P_post: np.ndarray, y_next: np.ndarray,
                        model: GlobalModel, Q: np.ndarray | None = None,
                        R: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """One standard predict/update step for the global linear model.

    A deliberately plain textbook implementation kept independent of the
    distributed recursion; used as a secondary oracle.
    """
    A, C = model.A, model.C
    Q = model.Q if Q is None else Q
    R = model.R if R is None else R
    x_pred = A @ x_post
    P_pred = A @ P_post @ A.T + Q
    S = C @ P_pred @ C.T + R
    K = _solve_spd(S, C @ P_pred).T
    x_new = x_pred + K @ (y_next - C @ x_pred)
    P_new = _sym((np.eye(P_pred.shape[0]) - K @ C) @ P_pred)
    return x_new, P_new


def classical_ekf_init(guess: np.ndarray, P0: np.ndarray, y0: np.ndarray,
                       h, jac_h, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain-form initial update of a classical global EKF."""
    C0 = np.asarray(jac_h(guess), dtype=float)
    S = C0 @ P0 @ C0.T + R
    K = _solve_spd(S, C0 @ P0).T
    x = guess + K @ (y0 - np.asarray(h(guess), dtype=float))
    P = _sym((np.eye(P0.shape[0]) - K @ C0) @ P0)
    return x, P


def classical_ekf_step(x_post: np.ndarray, P_post: np.ndarray, y_next: np.ndarray,
                       f, h, jac_f, jac_h, Q: np.ndarray, R: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """One classical EKF step on the aggregated model.

    Dynamics are linearized at the previous posterior, the output map at the
    prediction, and the innovation uses the nonlinear output map.
    """
    A_k = np.asarray(jac_f(x_post), dtype=float)
    x_pred = np.asarray(f(x_post), dtype=float)
    P_pred = A_k @ P_post @ A_k.T + Q
    C_k = np.asarray(jac_h(x_pred), dtype=float)
    S = C_k @ P_pred @ C_k.T + R
    K = _solve_spd(S, C_k @ P_pred).T
    x_new = x_pred + K @ (y_next - np.asarray(h(x_pred), dtype=float))
    P_new = _sym((np.eye(P_pred.shape[0]) - K @ C_k) @ P_pred)
    return x_new, P_new
