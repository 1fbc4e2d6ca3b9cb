"""Post-hoc analysis of recorded runs: error dynamics, stability monitors,
Taylor-remainder estimation, RMSE and Monte Carlo statistics.

Everything here is pure computation over immutable :class:`RunRecord` data.
The closed-loop error transition at instant ``k`` is
``F_k = (I - L_k C_k) A_{k-1}`` with the stacked gain ``L_k`` and the recorded
Jacobians; its block-diagonal part ``F_d`` and off-diagonal part ``F_o``
quantify how strongly estimation errors propagate across subsystem borders.
Monitors evaluate, per instant, every numerically checkable stability
condition: matrix boundedness, the weak-coupling matrix inequality, the
per-subsystem covariance contraction with its rate, and the Lyapunov value of
the stacked error.

``_closed_loop`` is the one place that forms ``F_k`` and ``_information``
the one place that inverts posterior covariances.  :func:`stability_report`
still calls the four public monitors one by one, so each can be called,
tested and timed on its own (the benchmark's per-layer trace times each).

Norms are spectral norms; eigenvalue computations use symmetric solvers on
symmetrized inputs.  Strict matrix inequalities are checked through the
smallest eigenvalue of the difference with tolerance ``INEQ_TOL``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dkf import _sym
from .model import GlobalModel
from .records import RunRecord

__all__ = [
    "ErrorDecomposition",
    "BoundsTable",
    "StabilityReport",
    "error_step",
    "check_bounds",
    "check_weak_coupling",
    "check_contraction",
    "contraction_rate",
    "lyapunov_values",
    "remainder_bounds",
    "stability_report",
    "attach_monitors",
    "rmse",
    "monte_carlo",
    "MonteCarloResult",
    "write_monitor_csv",
    "write_summary_json",
]

#: Tolerance on the smallest eigenvalue when checking strict inequalities.
INEQ_TOL = 1e-10
#: Condition-number ceiling above which a diagonal closed-loop block is
#: treated as not invertible and the weak-coupling check as not checkable.
COND_LIMIT = 1e12


def _spec_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _information(record: RunRecord, k: int) -> list[np.ndarray]:
    """Posterior information matrices ``P_{k,i}^{-1}``, one per subsystem."""
    return [np.linalg.inv(_sym(P)) for P in record.covs[k]]


def _closed_loop(record: RunRecord, k: int):
    """``A_{k-1}``, ``C_k``, ``L_k``, ``I - L_k C_k`` and the closed-loop
    error transition ``F_k = (I - L_k C_k) A_{k-1}`` of instant ``k >= 1``."""
    A_prev = record.a_matrix(k - 1)
    C_k = record.c_matrix(k)
    L_k = record.stacked_gain(k)
    ILC = np.eye(A_prev.shape[0]) - L_k @ C_k
    return A_prev, C_k, L_k, ILC, ILC @ A_prev


# -- error dynamics -------------------------------------------------------


@dataclass(frozen=True)
class ErrorDecomposition:
    """One instant of the closed-loop error recursion
    ``e_k = F_k e_{k-1} + r_k + s_k``.

    ``r_k`` collects the linearization remainders of the dynamics and output
    maps, ``s_k`` the filtered noise terms.  ``residual`` is the norm of the
    recursion identity defect scaled by ``1 + |e_k|``; it vanishes up to
    roundoff on every recorded run and exactly for linear models, whose
    remainders are zero.
    """

    k: int
    e_post: np.ndarray
    e_pred: np.ndarray
    F: np.ndarray
    r: np.ndarray
    s: np.ndarray
    phi_dyn: np.ndarray
    phi_out: np.ndarray
    gain: np.ndarray
    residual: float


def error_step(model: GlobalModel, record: RunRecord, k: int) -> ErrorDecomposition:
    """Evaluate the error recursion at instant ``k >= 1`` of a recorded run."""
    if k < 1 or k > record.steps:
        raise ValueError("error_step needs 1 <= k <= steps")
    x_prev, x_k = record.xs[k - 1], record.xs[k]
    xh_prev = record.xhat_post[k - 1]
    xp_k = record.xhat_pred[k]
    xh_k = record.xhat_post[k]
    A_prev, C_k, L_k, ILC, F = _closed_loop(record, k)

    phi_dyn = model.f(x_prev) - model.f(xh_prev) - A_prev @ (x_prev - xh_prev)
    phi_out = model.h(x_k) - model.h(xp_k) - C_k @ (x_k - xp_k)

    r = ILC @ phi_dyn - L_k @ phi_out
    s = ILC @ record.ws[k - 1] - L_k @ record.vs[k]

    e_prev = x_prev - xh_prev
    e_post = x_k - xh_k
    e_pred = x_k - xp_k
    defect = e_post - (F @ e_prev + r + s)
    residual = float(np.linalg.norm(defect) / (1.0 + np.linalg.norm(e_post)))
    return ErrorDecomposition(k=k, e_post=e_post, e_pred=e_pred, F=F, r=r, s=s,
                              phi_dyn=phi_dyn, phi_out=phi_out, gain=L_k,
                              residual=residual)


# -- matrix bounds ---------------------------------------------------------


@dataclass(frozen=True)
class BoundsTable:
    """Empirical extrema of the recorded matrices plus the derived gain and
    closed-loop bounds used by the contraction rate.

    ``a_lo``/``a_hi`` bound the diagonal dynamics blocks (``a_hi`` also covers
    the coupling blocks), ``c_lo``/``c_hi`` the output column blocks,
    ``p_lo``/``p_hi`` the posterior covariance eigenvalues, and ``q``/``r``
    the weight eigenvalue ranges.  ``l_lo``, ``l_hi`` and ``f_hi`` follow from
    those via the closed-form gain bounds.
    """

    a_lo: float
    a_hi: float
    c_lo: float
    c_hi: float
    p_lo: float
    p_hi: float
    q_lo: float
    q_hi: float
    r_lo: float
    r_hi: float
    l_lo: float
    l_hi: float
    f_hi: float
    gain_lo: float
    gain_hi: float
    f_diag_hi: float
    bounded: bool

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def check_bounds(record: RunRecord) -> BoundsTable:
    """Empirical min/max of block norms, covariance eigenvalues and weight
    eigenvalues over a recorded run, with derived gain bounds."""
    p = record.partition
    n = p.n
    slices = [p.state_slice(i) for i in range(n)]
    a_diag, a_off, c_norms = [], [], []
    p_eigs_lo, p_eigs_hi = [], []
    gain_norms, f_diag_norms = [], []

    for k in range(record.steps + 1):
        for i in range(n):
            c_norms.append(_spec_norm(record.c_cols[k][i]))
            eigs = np.linalg.eigvalsh(_sym(record.covs[k][i]))
            p_eigs_lo.append(eigs[0])
            p_eigs_hi.append(eigs[-1])
            gain_norms.append(_spec_norm(record.gains[k][i]))
        if k == 0:
            continue
        *_, F = _closed_loop(record, k)
        for i, col in enumerate(record.a_cols[k - 1]):
            f_diag_norms.append(_spec_norm(F[slices[i], slices[i]]))
            for l, sl in enumerate(slices):
                blk = col[sl]
                if l == i:
                    a_diag.append(_spec_norm(blk))
                elif blk.any():
                    # A zero block's norm cannot raise a maximum of norms.
                    a_off.append(_spec_norm(blk))

    est = record.estimator
    q_eigs = np.concatenate([np.linalg.eigvalsh(_sym(np.asarray(q, dtype=float)))
                             for q in est["Q"]])
    r_eigs = np.linalg.eigvalsh(_sym(np.asarray(est["R"], dtype=float)))

    a_lo, a_hi = float(min(a_diag)), float(max(a_diag + a_off))
    c_lo, c_hi = float(min(c_norms)), float(max(c_norms))
    p_lo, p_hi = float(min(p_eigs_lo)), float(max(p_eigs_hi))
    q_lo, q_hi = float(q_eigs[0]), float(q_eigs[-1])
    r_lo, r_hi = float(r_eigs[0]), float(r_eigs[-1])
    l_lo = (c_lo * a_lo ** 2 * p_lo + c_lo * q_lo) / (
        (n * c_hi * a_hi) ** 2 * p_hi + c_hi ** 2 * q_hi + r_hi)
    l_hi_d = (c_lo * a_lo) ** 2 * p_lo + c_lo ** 2 * q_lo + r_lo
    l_hi = (n * c_hi * a_hi ** 2 * p_hi + c_hi * q_hi) / l_hi_d
    f_hi = np.sqrt(n) * a_hi + np.sqrt(n) * l_hi * c_hi * a_hi
    finite = all(np.isfinite(v) for v in
                 (a_lo, a_hi, c_lo, c_hi, p_lo, p_hi, q_lo, q_hi, r_lo, r_hi))
    bounded = finite and p_lo > 0 and q_lo > 0 and r_lo > 0
    return BoundsTable(
        a_lo=a_lo, a_hi=a_hi, c_lo=c_lo, c_hi=c_hi, p_lo=p_lo, p_hi=p_hi,
        q_lo=q_lo, q_hi=q_hi, r_lo=r_lo, r_hi=r_hi,
        l_lo=float(l_lo), l_hi=float(l_hi), f_hi=float(f_hi),
        gain_lo=float(min(gain_norms)), gain_hi=float(max(gain_norms)),
        f_diag_hi=float(max(f_diag_norms)),
        bounded=bool(bounded),
    )


# -- weak coupling ---------------------------------------------------------


def check_weak_coupling(record: RunRecord, k: int) -> dict:
    """Evaluate the weak-coupling matrix inequality at instant ``k``.

    The off-diagonal part of the error transition, weighted by the stacked
    posterior information matrix, must stay below half the block-diagonal
    correction term built from the gains.  Returns satisfaction, the margin
    (smallest eigenvalue of the difference) and whether the check was
    possible (diagonal blocks well conditioned).
    """
    p = record.partition
    if not 1 <= k <= record.steps:
        raise ValueError("weak-coupling check needs 1 <= k <= steps")
    *_, F = _closed_loop(record, k)
    F_d = np.zeros_like(F)
    Pi = np.zeros_like(F)
    for i, Pi_i in enumerate(_information(record, k)):
        si = p.state_slice(i)
        F_d[si, si] = F[si, si]
        Pi[si, si] = Pi_i
    F_o = F - F_d
    Pi_prev = _information(record, k - 1)
    R_inv = np.linalg.inv(_sym(np.asarray(record.estimator["R"], dtype=float)))

    T = np.zeros((p.nx, p.nx))
    worst_cond = 0.0
    for i in range(p.n):
        si = p.state_slice(i)
        F_ii = F[si, si]
        cond = float(np.linalg.cond(F_ii))
        worst_cond = max(worst_cond, cond)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            return {"k": k, "checkable": False, "satisfied": False,
                    "margin": float("nan"), "condition": cond}
        B = np.linalg.solve(F_ii, record.gains[k][i])       # F_ii^-1 L_i
        inner = _sym(R_inv + B.T @ Pi_prev[i] @ B)
        T[si, si] = _sym(Pi_prev[i] @ B @ np.linalg.solve(inner, B.T) @ Pi_prev[i])

    cross = _sym(F_o.T @ Pi @ F_o + F_o.T @ Pi @ F_d + F_d.T @ Pi @ F_o)
    margin = float(np.linalg.eigvalsh(_sym(0.5 * T - cross))[0])
    return {"k": k, "checkable": True, "satisfied": bool(margin > -INEQ_TOL),
            "margin": margin, "condition": worst_cond,
            "cross": cross, "threshold": T}


def contraction_rate(bounds: BoundsTable) -> float:
    """Contraction rate of the per-subsystem covariance recursion derived
    from the recorded bounds: ``x / (1 + x)`` with
    ``x = l_lo^2 r_lo / (p_hi f_hi^2)``.  Zero means the bound is vacuous."""
    if bounds.l_lo <= 0 or bounds.r_lo <= 0 or bounds.p_hi <= 0 or bounds.f_hi <= 0:
        return 0.0
    x = bounds.l_lo ** 2 * bounds.r_lo / (bounds.p_hi * bounds.f_hi ** 2)
    return float(x / (1.0 + x))


def check_contraction(record: RunRecord, alpha: float | None = None,
                      bounds: BoundsTable | None = None) -> dict:
    """Verify the per-subsystem covariance contraction inequality
    ``F_ii' Pi_k F_ii <= (1 - alpha) Pi_{k-1}`` at every instant.

    ``alpha`` defaults to :func:`contraction_rate` of the run's bounds table.
    Reports the per-instant result and the worst margin; a zero rate is
    flagged as vacuous.
    """
    p = record.partition
    if bounds is None:
        bounds = check_bounds(record)
    if alpha is None:
        alpha = contraction_rate(bounds)
    vacuous = not (0.0 < alpha < 1.0)
    ok = np.ones(record.steps + 1, dtype=bool)
    margins = np.full(record.steps + 1, np.nan)
    Pi_prev = _information(record, 0)
    for k in range(1, record.steps + 1):
        *_, F = _closed_loop(record, k)
        Pi_k = _information(record, k)
        worst = np.inf
        for i in range(p.n):
            si = p.state_slice(i)
            F_ii = F[si, si]
            diff = _sym((1.0 - alpha) * Pi_prev[i] - F_ii.T @ Pi_k[i] @ F_ii)
            worst = min(worst, float(np.linalg.eigvalsh(diff)[0]))
        margins[k] = worst
        ok[k] = worst > -INEQ_TOL
        Pi_prev = Pi_k
    return {"alpha": float(alpha), "vacuous": vacuous,
            "ok": ok, "margins": margins,
            "all_hold": bool(np.all(ok[1:]))}


def lyapunov_values(record: RunRecord) -> np.ndarray:
    """Quadratic Lyapunov value of the stacked error, weighted by the block
    diagonal posterior information matrix, per instant."""
    p = record.partition
    out = np.empty(record.steps + 1)
    err = record.error_post()
    for k in range(record.steps + 1):
        v = 0.0
        for i, Pi_i in enumerate(_information(record, k)):
            e_i = err[k, p.state_slice(i)]
            v += float(e_i @ Pi_i @ e_i)
        out[k] = v
    return out


# -- Taylor remainders -----------------------------------------------------


def remainder_bounds(model: GlobalModel, record: RunRecord) -> dict:
    """Least-squares estimates of the quadratic remainder coefficients.

    Fits ``|remainder| ~ eps * |error|^2`` through the origin for the
    dynamics remainder (against the posterior error) and the output remainder
    (against the prediction error).  Returns the coefficients and the
    relative fit residuals; both coefficients vanish for linear models.
    """
    dyn_x, dyn_y, out_x, out_y = [], [], [], []
    for k in range(1, record.steps + 1):
        dec = error_step(model, record, k)
        e_prev = record.xs[k - 1] - record.xhat_post[k - 1]
        dyn_x.append(float(e_prev @ e_prev))
        dyn_y.append(float(np.linalg.norm(dec.phi_dyn)))
        out_x.append(float(dec.e_pred @ dec.e_pred))
        out_y.append(float(np.linalg.norm(dec.phi_out)))

    def fit(xs, ys):
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        denom = float(xs @ xs)
        if denom == 0.0:
            return 0.0, 0.0
        eps = float(xs @ ys) / denom
        resid = float(np.linalg.norm(ys - eps * xs) / (1.0 + np.linalg.norm(ys)))
        return eps, resid

    eps_dyn, resid_dyn = fit(dyn_x, dyn_y)
    eps_out, resid_out = fit(out_x, out_y)
    return {"eps_dyn": eps_dyn, "eps_dyn_residual": resid_dyn,
            "eps_out": eps_out, "eps_out_residual": resid_out,
            "error_range_dyn": (float(min(dyn_x, default=0.0)),
                                float(max(dyn_x, default=0.0))),
            "error_range_out": (float(min(out_x, default=0.0)),
                                float(max(out_x, default=0.0)))}


# -- aggregated report -----------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Per-run stability monitor summary: bounds table, contraction rate,
    per-instant weak-coupling and contraction outcomes and Lyapunov values."""

    bounds: BoundsTable
    alpha: float
    coupling_ok: np.ndarray
    coupling_margin: np.ndarray
    coupling_checkable: np.ndarray
    contraction_ok: np.ndarray
    contraction_margin: np.ndarray
    lyapunov: np.ndarray

    @property
    def coupling_all_hold(self) -> bool:
        return bool(np.all(self.coupling_ok[1:]))

    @property
    def contraction_all_hold(self) -> bool:
        return bool(np.all(self.contraction_ok[1:]))

    def as_dict(self) -> dict:
        return {
            "bounds": self.bounds.as_dict(),
            "alpha": self.alpha,
            "coupling_ok": self.coupling_ok.astype(int).tolist(),
            "coupling_margin": self.coupling_margin.tolist(),
            "coupling_checkable": self.coupling_checkable.astype(int).tolist(),
            "contraction_ok": self.contraction_ok.astype(int).tolist(),
            "contraction_margin": self.contraction_margin.tolist(),
            "lyapunov": self.lyapunov.tolist(),
        }


def stability_report(record: RunRecord) -> StabilityReport:
    """Run every monitor over a recorded run."""
    K = record.steps
    bounds = check_bounds(record)
    alpha = contraction_rate(bounds)
    c_ok = np.ones(K + 1, dtype=bool)
    c_margin = np.full(K + 1, np.nan)
    c_check = np.zeros(K + 1, dtype=bool)
    for k in range(1, K + 1):
        res = check_weak_coupling(record, k)
        c_check[k] = res["checkable"]
        c_margin[k] = res["margin"]
        c_ok[k] = res["satisfied"] if res["checkable"] else False
    contraction = check_contraction(record, alpha=alpha, bounds=bounds)
    return StabilityReport(
        bounds=bounds, alpha=alpha,
        coupling_ok=c_ok, coupling_margin=c_margin, coupling_checkable=c_check,
        contraction_ok=np.asarray(contraction["ok"]),
        contraction_margin=np.asarray(contraction["margins"]),
        lyapunov=lyapunov_values(record),
    )


def attach_monitors(record: RunRecord) -> RunRecord:
    """Compute the stability report and store it on the record."""
    record.monitors = stability_report(record).as_dict()
    return record


# -- RMSE and Monte Carlo --------------------------------------------------


def rmse(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Root mean squared error per instant, normalized by the total state
    dimension: ``sqrt(|xhat_k - x_k|^2 / n_x)``."""
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if estimates.shape != truth.shape:
        raise ValueError("estimates and truth must have the same shape")
    err = estimates - truth
    return np.sqrt(np.sum(err * err, axis=-1) / estimates.shape[-1])


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-instant ensemble statistics of the RMSE over repeated runs."""

    seeds: np.ndarray
    rmse: np.ndarray       # (runs, K+1)
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def runs(self) -> int:
        return self.rmse.shape[0]


def monte_carlo(config, runs: int, base_seed: int | None = None) -> MonteCarloResult:
    """Repeat an experiment with derived seeds and collect RMSE statistics.

    Per-run seeds come from ``SeedSequence(base_seed).generate_state``; a
    fixed base seed therefore reproduces the ensemble exactly, regardless of
    execution order.
    """
    from .harness import run_experiment  # deferred: harness orchestrates runs

    if runs < 1:
        raise ValueError("runs must be at least 1")
    if base_seed is None:
        base_seed = config.seed
    seeds = np.random.SeedSequence(base_seed).generate_state(runs, dtype=np.uint64)
    curves = []
    for s in seeds:
        rec = run_experiment(config.replace(seed=int(s), runs=1, monitors=False),
                             write_outputs=False)
        curves.append(rec.rmse)
    arr = np.vstack(curves)
    return MonteCarloResult(seeds=seeds, rmse=arr, mean=arr.mean(axis=0),
                            lo=arr.min(axis=0), hi=arr.max(axis=0))


# -- exports ----------------------------------------------------------------


def write_monitor_csv(record: RunRecord, path: str | Path) -> Path:
    """Per-instant monitor table.  Flag columns are strictly 0/1; instants
    where a monitor is undefined (k = 0) count as 1, meaning no violation."""
    if record.monitors is None:
        raise ValueError("record has no monitor data; run attach_monitors first")
    m = record.monitors
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "coupling_ok", "coupling_checkable", "coupling_margin",
                         "contraction_ok", "contraction_margin", "lyapunov", "rmse"])
        for k in range(record.steps + 1):
            writer.writerow([
                k, int(m["coupling_ok"][k]), int(m["coupling_checkable"][k]),
                repr(float(m["coupling_margin"][k])),
                int(m["contraction_ok"][k]), repr(float(m["contraction_margin"][k])),
                repr(float(m["lyapunov"][k])), repr(float(record.rmse[k])),
            ])
    return path


def write_summary_json(record: RunRecord, path: str | Path) -> Path:
    """Run-level monitor summary."""
    if record.monitors is None:
        raise ValueError("record has no monitor data; run attach_monitors first")
    m = record.monitors
    payload = {
        "kind": record.kind,
        "seed": record.seed,
        "steps": record.steps,
        "bounds": m["bounds"],
        "alpha": m["alpha"],
        "coupling_all_hold": all(m["coupling_ok"][1:]),
        "contraction_all_hold": all(m["contraction_ok"][1:]),
        "floor_events": record.floor_events,
        "rmse_first": float(record.rmse[0]),
        "rmse_last": float(record.rmse[-1]),
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path
