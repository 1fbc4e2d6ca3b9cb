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

One private kernel, ``_Loop``, is the one place that forms ``F_k`` and the
one place that inverts posterior covariances (one batched inverse per
subsystem).  It keeps what is block diagonal whole, stacked over instants:
the covariances, their inverses and the diagonal blocks ``F_ii``.  It forms
the ``nx x nx`` closed loop, and stacks the record entries it is built from,
a bounded chunk of transitions at a time, keeping only the latest chunk, so
a report's memory does not grow with the horizon times ``nx^2``.  It refuses
a record entry that is not finite, or a covariance that is not positive
definite, with a ``ValueError`` naming the field, the subsystem and the
instant.  Every monitor works on these stacks with batched numpy linear
algebra, which runs the same LAPACK routine on each matrix as a per-instant
call would, so the results are those of a per-instant evaluation bit for
bit.  The four public monitors keep their call shape and build the kernel
when called on their own; :func:`stability_report` builds it once and hands
it to each of them, calling them by name so that each can still be timed on
its own (the benchmark's per-layer trace times each).

Norms are spectral norms; eigenvalue computations use symmetric solvers on
symmetrized inputs.  Strict matrix inequalities are checked through the
smallest eigenvalue of the difference with tolerance ``INEQ_TOL``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .model import GlobalModel, _posdef, _sym
from .records import RunRecord, _write_csv

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
#: Entries per stack that the monitor kernel handles at once.  It stacks the
#: record entries that are not block diagonal (dynamics and output columns,
#: gains) and forms the ``nx x nx`` closed loop a chunk of instants at a time
#: and keeps none of them beyond the latest chunk, so these cost memory per
#: chunk, not per horizon.  At 2**18 entries repeated reports on a
#: 128-state network hold about 8% more resident memory (heap fragmentation).
_CHUNK = 2 ** 15


def _tr(m: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return np.swapaxes(m, -1, -2)


def _norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a stack; 0 for empty matrices."""
    if stack.size == 0:
        return np.zeros(stack.shape[0])
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def _chunks(count: int, entries: int) -> list[slice]:
    """Slices of ``range(count)`` that hold at most ``_CHUNK`` entries of
    matrices with ``entries`` entries each, and one matrix at least."""
    size = max(1, _CHUNK // entries)
    return [slice(a, a + size) for a in range(0, count, size)]


class _Loop:
    """Closed loop and information matrices of a recorded run over the
    transitions ``k = first..last``, and so the instants ``first - 1..last``.

    Block-diagonal quantities are kept whole, one stack over instants per
    subsystem: ``covs`` (symmetrized) and their inverses ``info`` over the
    instants, position ``j`` being instant ``first - 1 + j``, and the
    diagonal closed-loop blocks ``F_diag`` over the transitions, position
    ``j`` being ``k = first + j``; each is built on first use.  Record
    entries are otherwise stacked a chunk at a time and not kept: by
    :meth:`stacks` one subsystem at a time, and by :meth:`closed_loop`,
    which forms ``F_k`` over a chunk of transitions and keeps the latest
    chunk, so that ``F_diag`` and the weak-coupling pass share it when the
    horizon fits one chunk.  A record entry that is not finite, or a
    covariance that is not positive definite, raises a ``ValueError`` naming
    the field, the subsystem and the instant.  With ``detail`` the
    weak-coupling results carry their ``nx x nx`` cross term and threshold.
    """

    def __init__(self, record: RunRecord, first: int = 1, last: int | None = None,
                 *, detail: bool = False):
        p = record.partition
        self.record = record
        self.detail = detail
        self._latest: tuple[range, tuple[np.ndarray, ...]] | None = None
        self.slices = [p.state_slice(i) for i in range(p.n)]
        self.nx = p.nx
        self.transitions = range(first, record.steps + 1 if last is None else last + 1)
        self.instants = range(first - 1, self.transitions.stop)

    def _stack(self, field: str, i: int, instants: range) -> np.ndarray:
        return np.array([getattr(self.record, field)[k][i] for k in instants])

    def _check(self, field: str, i: int, instants: range, stack: np.ndarray) -> None:
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            k = instants[np.argmin(finite)]
            raise ValueError(f"{field}[{k}][{i}] (subsystem {i}, instant {k}) "
                             "is not finite")

    def stacks(self, field: str, i: int, instants: range) -> Iterator[np.ndarray]:
        """Subsystem ``i``'s entries of a record field at ``instants``,
        stacked a chunk at a time."""
        entries = getattr(self.record, field)[instants[0]][i].size
        for j in _chunks(len(instants), max(1, entries)):
            stack = self._stack(field, i, instants[j])
            self._check(field, i, instants[j], stack)
            yield stack

    def _joined(self, field: str, instants: range, axis: int) -> np.ndarray:
        """Every subsystem's entries of a record field at ``instants``,
        stacked and joined along ``axis``."""
        stacks = [self._stack(field, i, instants) for i in range(len(self.slices))]
        joined = np.concatenate(stacks, axis=axis)
        if not np.isfinite(joined).all():
            for i, stack in enumerate(stacks):
                self._check(field, i, instants, stack)
        return joined

    def chunks(self) -> list[slice]:
        """Chunks of the transitions, as positions, for ``nx x nx`` stacks."""
        return _chunks(len(self.transitions), self.nx * self.nx)

    @cached_property
    def covs(self) -> list[np.ndarray]:
        stacks = []
        for i in range(len(self.slices)):
            P = self._stack("covs", i, self.instants)
            self._check("covs", i, self.instants, P)
            stacks.append(_sym(P))
        for i, P in enumerate(stacks):
            if not _posdef(P):
                k = next(k for k, P_k in zip(self.instants, P) if not _posdef(P_k))
                raise ValueError(f"covs[{k}][{i}] (subsystem {i}, instant {k}) "
                                 "is not positive definite")
        return stacks

    @cached_property
    def info(self) -> list[np.ndarray]:
        return [np.linalg.inv(P) for P in self.covs]

    @cached_property
    def R_inv(self) -> np.ndarray:
        return np.linalg.inv(_sym(np.asarray(self.record.estimator["R"], dtype=float)))

    def closed_loop(self, ks: range) -> tuple[np.ndarray, ...]:
        """``A_{k-1}``, ``C_k``, ``L_k``, ``I - L_k C_k`` and ``F_k`` stacked
        over the transitions ``ks``."""
        if self._latest is None or self._latest[0] != ks:
            A = self._joined("a_cols", range(ks.start - 1, ks.stop - 1), axis=2)
            C = self._joined("c_cols", ks, axis=2)
            L = self._joined("gains", ks, axis=1)
            ILC = np.eye(self.nx) - L @ C
            self._latest = ks, (A, C, L, ILC, ILC @ A)
        return self._latest[1]

    @cached_property
    def F_diag(self) -> list[np.ndarray]:
        """``F_ii`` over every transition, one stack per subsystem."""
        out = [np.empty((len(self.transitions), s.stop - s.start, s.stop - s.start))
               for s in self.slices]
        for j in self.chunks():
            F = self.closed_loop(self.transitions[j])[-1]
            for F_ii, s in zip(out, self.slices):
                F_ii[j] = F[:, s, s]
        return out

    @cached_property
    def coupling(self) -> list[dict]:
        """The weak-coupling result of every transition, in one pass a chunk
        at a time; see :func:`check_weak_coupling`."""
        cond = np.array([np.linalg.cond(F_ii) for F_ii in self.F_diag])
        fine = np.isfinite(cond) & (cond <= COND_LIMIT)
        checkable = fine.all(axis=0)
        # A checkable transition reports its worst condition number, one that
        # is not the first block that fails.
        condition = np.where(checkable, cond.max(axis=0),
                             cond[np.argmin(fine, axis=0), np.arange(cond.shape[1])])
        out = []
        for j in self.chunks():
            _, _, L, _, F = self.closed_loop(self.transitions[j])
            # Batched solves raise for the whole stack on one singular block,
            # so only the checkable transitions go on.
            c = np.flatnonzero(checkable[j])
            verdicts = zip(*self._inequality(j.start + c, F[c], L[c]))
            for pos in range(j.start, j.start + len(F)):
                k = self.transitions[pos]
                if not checkable[pos]:
                    out.append({"k": k, "checkable": False, "satisfied": False,
                                "margin": float("nan"),
                                "condition": float(condition[pos])})
                    continue
                margin, cross, T = next(verdicts)
                res = {"k": k, "checkable": True, "satisfied": bool(margin > -INEQ_TOL),
                       "margin": float(margin), "condition": float(condition[pos])}
                if self.detail:
                    res.update(cross=cross, threshold=T)
                out.append(res)
        return out

    def _inequality(self, j: np.ndarray, F: np.ndarray,
                    L: np.ndarray) -> tuple[np.ndarray, ...]:
        """Margin, cross term and threshold of the weak-coupling inequality
        at the transitions at positions ``j``, with their ``F_k`` and
        ``L_k``."""
        F_d = np.zeros_like(F)
        Pi = np.zeros_like(F)
        T = np.zeros_like(F)
        for i, s in enumerate(self.slices):
            F_d[:, s, s] = F[:, s, s]
            Pi[:, s, s] = self.info[i][j + 1]
        F_o = F - F_d
        for i, s in enumerate(self.slices):
            Pi_prev = self.info[i][j]
            B = np.linalg.solve(F_d[:, s, s], L[:, s])   # F_ii^-1 L_i
            inner = _sym(self.R_inv + _tr(B) @ Pi_prev @ B)
            T[:, s, s] = _sym(Pi_prev @ B @ np.linalg.solve(inner, _tr(B)) @ Pi_prev)
        cross = _sym(_tr(F_o) @ Pi @ F_o + _tr(F_o) @ Pi @ F_d + _tr(F_d) @ Pi @ F_o)
        margins = np.linalg.eigvalsh(_sym(0.5 * T - cross))[:, 0]
        return margins, cross, T


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
    loop = _Loop(record, k, k)
    A_prev, C_k, L_k, ILC, F = (m[0] for m in loop.closed_loop(loop.transitions))

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


def check_bounds(record: RunRecord, *, _loop: _Loop | None = None) -> BoundsTable:
    """Empirical min/max of block norms, covariance eigenvalues and weight
    eigenvalues over a recorded run, with derived gain bounds."""
    loop = _Loop(record) if _loop is None else _loop
    slices = loop.slices
    n = len(slices)
    starts = [s.start for s in slices]
    a_diag, a_off = [], []
    for i, s in enumerate(slices):
        for A_i in loop.stacks("a_cols", i, loop.instants[:-1]):
            a_diag.append(_norms(A_i[:, s]))
            # A block that is zero throughout a chunk cannot raise a maximum
            # of norms.
            live = np.logical_or.reduceat(A_i.any(axis=(0, 2)), starts)
            a_off += [_norms(A_i[:, slices[l]]) for l in np.flatnonzero(live) if l != i]
    c_norms, gain_norms = (
        [_norms(stack) for i in range(n) for stack in loop.stacks(field, i, loop.instants)]
        for field in ("c_cols", "gains"))
    a_diag, c_norms, gain_norms = (np.concatenate(v) for v in (a_diag, c_norms, gain_norms))
    f_diag_norms = np.concatenate([_norms(F_ii) for F_ii in loop.F_diag])
    p_eigs = [np.linalg.eigvalsh(P) for P in loop.covs]

    est = record.estimator
    q_eigs = np.concatenate([np.linalg.eigvalsh(_sym(np.asarray(q, dtype=float)))
                             for q in est["Q"]])
    r_eigs = np.linalg.eigvalsh(_sym(np.asarray(est["R"], dtype=float)))

    a_lo, a_hi = float(a_diag.min()), float(np.concatenate([a_diag, *a_off]).max())
    c_lo, c_hi = float(c_norms.min()), float(c_norms.max())
    p_lo = float(min(e[:, 0].min() for e in p_eigs))
    p_hi = float(max(e[:, -1].max() for e in p_eigs))
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
        gain_lo=float(gain_norms.min()), gain_hi=float(gain_norms.max()),
        f_diag_hi=float(f_diag_norms.max()),
        bounded=bool(bounded),
    )


# -- weak coupling ---------------------------------------------------------


def check_weak_coupling(record: RunRecord, k: int, *,
                        _loop: _Loop | None = None) -> dict:
    """Evaluate the weak-coupling matrix inequality at instant ``k``.

    The off-diagonal part of the error transition, weighted by the stacked
    posterior information matrix, must stay below half the block-diagonal
    correction term built from the gains.  Returns satisfaction, the margin
    (smallest eigenvalue of the difference) and whether the check was
    possible (diagonal blocks well conditioned); a checkable result also
    carries the weighted cross term (``cross``) and the correction term
    (``threshold``).  Given a kernel, the first call evaluates every
    transition the kernel covers in one pass, and results leave out those
    two ``nx x nx`` matrices.
    """
    if not 1 <= k <= record.steps:
        raise ValueError("weak-coupling check needs 1 <= k <= steps")
    loop = _Loop(record, k, k, detail=True) if _loop is None else _loop
    return loop.coupling[k - loop.transitions.start]


def contraction_rate(bounds: BoundsTable) -> float:
    """Contraction rate of the per-subsystem covariance recursion derived
    from the recorded bounds: ``x / (1 + x)`` with
    ``x = l_lo^2 r_lo / (p_hi f_hi^2)``.  Zero means the bound is vacuous."""
    if bounds.l_lo <= 0 or bounds.r_lo <= 0 or bounds.p_hi <= 0 or bounds.f_hi <= 0:
        return 0.0
    x = bounds.l_lo ** 2 * bounds.r_lo / (bounds.p_hi * bounds.f_hi ** 2)
    return float(x / (1.0 + x))


def check_contraction(record: RunRecord, alpha: float | None = None,
                      bounds: BoundsTable | None = None, *,
                      _loop: _Loop | None = None) -> dict:
    """Verify the per-subsystem covariance contraction inequality
    ``F_ii' Pi_k F_ii <= (1 - alpha) Pi_{k-1}`` at every instant.

    ``alpha`` defaults to :func:`contraction_rate` of ``bounds``, which
    default to the run's bounds table.  Reports the per-instant result and the
    worst margin; a zero rate is flagged as vacuous.
    """
    loop = _Loop(record) if _loop is None else _loop
    if alpha is None:
        if bounds is None:
            bounds = check_bounds(record, _loop=loop)
        alpha = contraction_rate(bounds)
    vacuous = not (0.0 < alpha < 1.0)
    worst = np.full(record.steps, np.inf)
    for F_ii, Pi in zip(loop.F_diag, loop.info):
        diff = _sym((1.0 - alpha) * Pi[:-1] - _tr(F_ii) @ Pi[1:] @ F_ii)
        worst = np.minimum(worst, np.linalg.eigvalsh(diff)[:, 0])
    margins = np.concatenate([[np.nan], worst])
    ok = np.concatenate([[True], worst > -INEQ_TOL])
    return {"alpha": float(alpha), "vacuous": vacuous,
            "ok": ok, "margins": margins,
            "all_hold": bool(np.all(ok[1:]))}


def lyapunov_values(record: RunRecord, *, _loop: _Loop | None = None) -> np.ndarray:
    """Quadratic Lyapunov value of the stacked error, weighted by the block
    diagonal posterior information matrix, per instant."""
    loop = _Loop(record) if _loop is None else _loop
    err = record.error_post()
    out = np.zeros(record.steps + 1)
    for i, s in enumerate(loop.slices):
        e = err[:, None, s]
        out = out + (e @ loop.info[i] @ _tr(e))[:, 0, 0]
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
    """Run every monitor over a recorded run, on one kernel."""
    loop = _Loop(record)
    bounds = check_bounds(record, _loop=loop)
    alpha = contraction_rate(bounds)
    coupling = [check_weak_coupling(record, k, _loop=loop)
                for k in range(1, record.steps + 1)]
    contraction = check_contraction(record, alpha=alpha, _loop=loop)
    return StabilityReport(
        bounds=bounds, alpha=alpha,
        coupling_ok=np.array([True] + [r["satisfied"] for r in coupling]),
        coupling_margin=np.array([np.nan] + [r["margin"] for r in coupling]),
        coupling_checkable=np.array([False] + [r["checkable"] for r in coupling]),
        contraction_ok=np.asarray(contraction["ok"]),
        contraction_margin=np.asarray(contraction["margins"]),
        lyapunov=lyapunov_values(record, _loop=loop),
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


def monte_carlo(config, runs: int) -> MonteCarloResult:
    """Repeat an experiment with derived seeds and collect RMSE statistics.

    The ensemble's base seed is always ``config.seed``: per-run seeds come
    from ``SeedSequence(config.seed).generate_state``, so a fixed config
    seed reproduces the ensemble exactly, regardless of execution order.
    The config is resolved once and every run goes through the same plan as
    :func:`partkf.harness.run_experiment`, so run ``j`` equals a standalone
    run at seed ``seeds[j]`` bit for bit; a linear filter computes its gain
    schedule once for the whole ensemble.
    """
    from .harness import _integer, _resolve  # deferred: harness orchestrates runs

    if _integer("runs", runs) < 1:
        raise ValueError("runs must be at least 1")
    plan = _resolve(config.replace(runs=1, monitors=False))
    seeds = np.random.SeedSequence(config.seed).generate_state(runs, dtype=np.uint64)
    arr = np.vstack([plan.run(int(s)).rmse for s in seeds])
    return MonteCarloResult(seeds=seeds, rmse=arr, mean=arr.mean(axis=0),
                            lo=arr.min(axis=0), hi=arr.max(axis=0))


# -- exports ----------------------------------------------------------------


def write_monitor_csv(record: RunRecord, path: str | Path) -> Path:
    """Per-instant monitor table.  Flag columns are strictly 0/1; instants
    where a monitor is undefined (k = 0) count as 1, meaning no violation."""
    if record.monitors is None:
        raise ValueError("record has no monitor data; run attach_monitors first")
    m = record.monitors
    header = ["k", "coupling_ok", "coupling_checkable", "coupling_margin",
              "contraction_ok", "contraction_margin", "lyapunov", "rmse"]
    rows = ([k, int(m["coupling_ok"][k]), int(m["coupling_checkable"][k]),
             m["coupling_margin"][k], int(m["contraction_ok"][k]),
             m["contraction_margin"][k], m["lyapunov"][k], record.rmse[k]]
            for k in range(record.steps + 1))
    return _write_csv(path, header, rows)


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
