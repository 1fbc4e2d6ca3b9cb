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
a bounded chunk of transitions at a time, keeping none of them, so a
report's memory does not grow with the horizon times ``nx^2``.  One pass
forms ``F_k`` once per chunk and takes from it the blocks ``F_ii``, the
weak-coupling verdicts and, from the same stacks of dynamics and output
columns and gains, the extrema of the block norms of the bounds table, so a
report reads each record entry once.  It refuses a record entry that is not
finite, or a covariance that is not positive definite, with a
``ValueError`` naming the field, the subsystem and the instant.  Every
monitor works on these stacks with batched numpy linear algebra, one call
per group of equally sized subsystems, which runs the same LAPACK routine on
each matrix as a per-instant call would, so the results are those of a
per-instant evaluation bit for bit.  The weak-coupling margins (and the
standalone check's cross term and threshold) are the exception: their
threshold blocks come from ``d_i``-sized factors through the push-through
identity (``_Loop._inequality``), not from the ``ny x ny`` solve of the
textbook formula, and agree with it to ``1e-12`` relative.  The four public
monitors keep their call shape and build the kernel when called on their
own; :func:`stability_report` builds it once and hands it to each of them,
calling them by name so that each can still be timed on its own (the
benchmark's per-layer trace times each).

Norms are spectral norms; eigenvalue computations use symmetric solvers on
symmetrized inputs.  Strict matrix inequalities are checked through the
smallest eigenvalue of the difference with tolerance ``INEQ_TOL``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import GlobalModel, _cholesky, _integer, _posdef, _sym, _tr
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
#: Entries per ``nx x nx`` stack that the monitor kernel handles at once.  It
#: joins the record entries that are not block diagonal (dynamics and output
#: columns, gains) over all subsystems and forms the closed loop a chunk of
#: instants at a time and keeps none of them, so these cost memory per chunk,
#: not per horizon.  At 2**18 entries repeated reports on a 128-state network
#: hold about 8% more resident memory (heap fragmentation).
_CHUNK = 2 ** 15


def _norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a stack, flattened; 0 for empty
    matrices.  The largest singular value, which ``np.linalg.norm(m, 2)``
    also takes."""
    if stack.size == 0:
        return np.zeros(stack.shape[:-2]).ravel()
    return np.linalg.svd(stack, compute_uv=False)[..., 0].ravel()


def _widen(extrema: dict, kind: str, norms: np.ndarray) -> None:
    """Widen ``extrema[kind]``, a smallest and a largest norm, to ``norms``."""
    if norms.size:
        lo, hi = extrema[kind]
        extrema[kind] = (min(lo, float(norms.min())), max(hi, float(norms.max())))


def _chunks(count: int, entries: int) -> list[slice]:
    """Slices of ``range(count)`` that hold at most ``_CHUNK`` entries of
    matrices with ``entries`` entries each, and one matrix at least."""
    size = max(1, _CHUNK // entries)
    return [slice(a, a + size) for a in range(0, count, size)]


def _diag(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the diagonal blocks whose state indices are
    the rows of ``idx`` (``n x d``): ``m[_diag(idx)]`` is shaped ``(n, d,
    d)``, and ``m[(slice(None), *_diag(idx))]`` of a stack ``m`` is shaped
    ``(len(m), n, d, d)``."""
    return idx[:, :, None], idx[:, None, :]


class _Covariances(NamedTuple):
    """The covariance stage of a :class:`_Loop`."""
    P: list[np.ndarray]
    chol: list[np.ndarray]
    info: list[np.ndarray]


class _Sweep(NamedTuple):
    """The transition pass of a :class:`_Loop`."""
    F_groups: list[np.ndarray]
    extrema: dict[str, tuple[float, float]]
    coupling: list[dict]


class _Loop:
    """Closed loop and information matrices of a recorded run over the
    transitions ``k = first..last``, and so the instants ``first - 1..last``.

    Subsystems of one size form a group (``groups``, the partition's
    :attr:`~partkf.model.StatePartition.groups`: their indices and, one row
    each, their state indices), and block-diagonal quantities are kept
    whole, one ``(member, position, d, d)`` stack per group, in two stages
    built on first use: ``cov``, the covariances, their Cholesky factors and
    inverses, position ``j`` being instant ``first - 1 + j``; and ``sweep``,
    the one pass over the transitions, position ``j`` being ``k = first +
    j``.  The pass forms ``F_k`` (:meth:`closed_loop`) a bounded chunk of
    transitions at a time and takes from the chunk's stacks the blocks
    ``F_ii``, the weak-coupling results and the extrema of the block norms
    the bounds table reads; ``extrema`` adds those of instant ``first - 1``'s
    output column blocks and gains, which belong to no transition.  The
    monitors make one batched call per group, not one per subsystem.
    :meth:`_read` is the one place that reads a record entry, and a kernel
    reads each entry it needs once, refusing one that is not finite (and
    ``cov`` a covariance that is not positive definite) with a
    ``ValueError`` naming the field, the subsystem and the instant.  A kernel
    of one transition (a standalone weak-coupling check) keeps that
    transition's ``nx x nx`` cross term and threshold in its result.
    """

    def __init__(self, record: RunRecord, first: int = 1, last: int | None = None):
        p = record.partition
        self.record = record
        self.slices = [p.state_slice(i) for i in range(p.n)]
        self.nx = p.nx
        self.transitions = range(first, record.steps + 1 if last is None else last + 1)
        self.instants = range(first - 1, self.transitions.stop)
        self.groups = p.groups

    def _read(self, field: str, instants: range, axis: int | None,
              members=None) -> np.ndarray:
        """The entries of a record field at ``instants`` of the subsystems
        ``members`` (default all), each member's stacked over the instants and
        the stacks joined along ``axis`` (``None``: along a new first axis),
        checked finite."""
        entries = getattr(self.record, field)
        members = range(len(self.slices)) if members is None else members
        stacks = [np.array([entries[k][i] for k in instants]) for i in members]
        joined = np.stack(stacks) if axis is None else np.concatenate(stacks, axis=axis)
        if not np.isfinite(joined).all():
            i, stack = next((i, s) for i, s in zip(members, stacks) if not np.isfinite(s).all())
            k = instants[np.argmin(np.isfinite(stack).all(axis=(1, 2)))]
            raise ValueError(f"{field}[{k}][{i}] (subsystem {i}, instant {k}) is not finite")
        return joined

    @cached_property
    def cov(self) -> _Covariances:
        """One Cholesky factorization per group, which is also the
        positive-definiteness check, and one batched inverse per subsystem."""
        stage = _Covariances([], [], [])
        for members, _ in self.groups:
            P = _sym(self._read("covs", self.instants, None, members))
            chol = _cholesky(P)
            if chol is None:
                i, P_i = next((i, P_i) for i, P_i in zip(members, P) if not _posdef(P_i))
                k = next(k for k, P_k in zip(self.instants, P_i) if not _posdef(P_k))
                raise ValueError(f"covs[{k}][{i}] (subsystem {i}, instant {k}) "
                                 "is not positive definite")
            stage.P.append(P)
            stage.chol.append(chol)
            stage.info.append(np.array([np.linalg.inv(P_i) for P_i in P]))
        return stage

    @cached_property
    def R_chol(self) -> np.ndarray:
        """Lower Cholesky factor of the estimator's ``R``."""
        R_c = _cholesky(_sym(np.asarray(self.record.estimator["R"], dtype=float)))
        if R_c is None:
            raise ValueError("estimator R is not positive definite")
        return R_c

    def closed_loop(self, ks: range) -> tuple[np.ndarray, ...]:
        """``A_{k-1}``, ``C_k``, ``L_k``, ``I - L_k C_k`` and ``F_k`` stacked
        over the transitions ``ks``."""
        A = self._read("a_cols", range(ks.start - 1, ks.stop - 1), 2)
        C = self._read("c_cols", ks, 2)
        L = self._read("gains", ks, 1)
        ILC = np.eye(self.nx) - L @ C
        return A, C, L, ILC, ILC @ A

    def _block_norms(self, extrema: dict, C: np.ndarray, L: np.ndarray,
                     A: np.ndarray | None = None) -> None:
        """:func:`_widen` ``extrema`` to the spectral norms of the blocks of
        stacks ``C`` and ``L`` (kinds ``"c"`` and ``"gain"``: the record's
        ``c_cols`` and ``gains`` entries) and of ``A``'s diagonal blocks
        (``"a_diag"``) and off-diagonal blocks (``"a_off"``)."""
        for _, idx in self.groups:
            _widen(extrema, "c", _norms(np.swapaxes(C[:, :, idx], 1, 2)))
            _widen(extrema, "gain", _norms(L[:, idx]))
            if A is not None:
                _widen(extrema, "a_diag", _norms(A[(slice(None), *_diag(idx))]))
        if A is None:
            return
        # A block that is zero throughout cannot raise a maximum of norms.
        starts = [s.start for s in self.slices]
        live = np.logical_or.reduceat(np.logical_or.reduceat(A.any(axis=0), starts, axis=0),
                                      starts, axis=1)
        np.fill_diagonal(live, False)
        for row_members, rows in self.groups:
            for col_members, cols in self.groups:
                l, i = np.nonzero(live[np.ix_(row_members, col_members)])
                _widen(extrema, "a_off", _norms(A[:, rows[l][:, :, None], cols[i][:, None, :]]))

    @cached_property
    def sweep(self) -> _Sweep:
        """The transition pass (see :func:`check_weak_coupling` for its
        results), forming ``F_k`` once per chunk of ``nx x nx`` stacks."""
        count = len(self.transitions)
        stage = _Sweep([np.empty((len(P), count) + P.shape[2:]) for P in self.cov.P],
                       dict.fromkeys(("a_diag", "a_off", "c", "gain", "f"), (np.inf, -np.inf)),
                       [])
        for j in _chunks(count, self.nx * self.nx):
            A, C, L, _, F = self.closed_loop(self.transitions[j])
            self._block_norms(stage.extrema, C, L, A)
            cond = np.empty((len(self.slices), len(F)))
            for (members, idx), F_g in zip(self.groups, stage.F_groups):
                F_g[:, j] = np.swapaxes(F[(slice(None), *_diag(idx))], 0, 1)
                # The singular values np.linalg.cond and norm(., 2) take.
                s = np.linalg.svd(F_g[:, j], compute_uv=False)
                _widen(stage.extrema, "f", s[..., 0])
                with np.errstate(divide="ignore", invalid="ignore"):
                    cond[members] = s[..., 0] / s[..., -1]
            # As in np.linalg.cond, a zero block (0 / 0) is not invertible.
            cond[np.isnan(cond)] = np.inf
            fine = np.isfinite(cond) & (cond <= COND_LIMIT)
            checkable = fine.all(axis=0)
            # A checkable transition reports its worst condition number, one
            # that is not the first block that fails.
            condition = np.where(checkable, cond.max(axis=0),
                                 cond[np.argmin(fine, axis=0), np.arange(cond.shape[1])])
            # Batched solves raise for the whole stack on one singular block,
            # so only the checkable transitions go on.
            c = np.flatnonzero(checkable)
            margins, cross, T = self._inequality(j.start + c, F[c], L[c])
            verdicts = iter(range(len(c)))
            for pos, k in enumerate(self.transitions[j]):
                if not checkable[pos]:
                    stage.coupling.append({"k": k, "checkable": False, "satisfied": False,
                                           "margin": float("nan"),
                                           "condition": float(condition[pos])})
                    continue
                v = next(verdicts)
                res = {"k": k, "checkable": True, "satisfied": bool(margins[v] > -INEQ_TOL),
                       "margin": float(margins[v]), "condition": float(condition[pos])}
                if count == 1:
                    threshold = np.zeros((self.nx, self.nx))
                    for (_, idx), T_g in zip(self.groups, T):
                        threshold[_diag(idx)] = T_g[v]
                    res.update(cross=cross[v], threshold=threshold)
                stage.coupling.append(res)
        return stage

    @cached_property
    def extrema(self) -> dict[str, tuple[float, float]]:
        """The sweep's extrema of the block norms, widened to the output
        column blocks and gains of instant ``first - 1``."""
        extrema, head = dict(self.sweep.extrema), self.instants[:1]
        self._block_norms(extrema, self._read("c_cols", head, 2), self._read("gains", head, 1))
        return extrema

    def _inequality(self, j: np.ndarray, F: np.ndarray,
                    L: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Margin, cross term and threshold blocks of the weak-coupling
        inequality at the transitions at positions ``j``, with their ``F_k``
        and ``L_k``; the threshold blocks come per group, stacked
        ``(transition, member, d, d)``.

        Subsystem ``i``'s threshold block is ``T_ii = Pi B (R^-1 + B' Pi
        B)^-1 B' Pi`` with ``Pi = P_i(k-1)^-1`` and ``B = F_ii^-1 L_i``
        (``d_i x ny``).  With ``R = R_c R_c'``, ``Pi = K K'`` for ``K = Pi
        G`` (``P_i(k-1) = G G'``) and the thin SVD ``K' B R_c = U S V'``, the
        push-through identity gives ``T_ii = K U diag(s^2 / (1 + s^2)) (K
        U)'``: ``d_i``-sized work, accurate to roundoff, with no ``R^-1`` and
        no ``ny x ny`` solve.  The cross term ``F_o' Pi F_o + F_o' Pi F_d
        + F_d' Pi F_o`` is ``F_o' (Pi F) + (F_d' Pi) F_o``, with ``Pi F`` and
        ``F_d' Pi`` formed block row by block row: one dense ``nx x nx``
        product.  Each step is one batched call per group.
        """
        F_o = F.copy()
        PF = np.empty_like(F)
        T, cross_rows = [], []
        for (_, idx), Pi, chol in zip(self.groups, self.cov.info, self.cov.chol):
            # Transition-major, (transition, member, d, d), as F and L.
            Kt = np.swapaxes(_tr(chol[:, j]) @ Pi[:, j], 0, 1)
            Pi = np.swapaxes(Pi[:, j + 1], 0, 1)
            blocks = (slice(None), *_diag(idx))
            F_ii = F[blocks]
            F_o[blocks] = 0.0
            B = np.linalg.solve(F_ii, L[:, idx])
            # W' = V S U', the faster SVD of the two; X = U' K' = (K U)'.
            _, s, X = np.linalg.svd(_tr(Kt @ B @ self.R_chol), full_matrices=False)
            X = X @ Kt
            s2 = s * s
            T.append(_sym(_tr(X) @ ((s2 / (1.0 + s2))[..., None] * X)))
            PF[:, idx] = Pi @ F[:, idx]
            cross_rows.append(_tr(F_ii) @ Pi @ F_o[:, idx])
        cross = _tr(F_o) @ PF
        for (_, idx), rows in zip(self.groups, cross_rows):
            cross[:, idx] += rows
        cross = _sym(cross)
        diff = -cross
        for (_, idx), T_g in zip(self.groups, T):
            diff[(slice(None), *_diag(idx))] += 0.5 * T_g
        return np.linalg.eigvalsh(diff)[:, 0], cross, T


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
    if _integer("k", k) < 1 or k > record.steps:
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
    n = len(loop.slices)
    extrema = loop.extrema
    p_eigs = [np.linalg.eigvalsh(P) for P in loop.cov.P]

    est = record.estimator
    q_eigs = np.concatenate([np.linalg.eigvalsh(_sym(np.asarray(q, dtype=float)))
                             for q in est["Q"]])
    r_eigs = np.linalg.eigvalsh(_sym(np.asarray(est["R"], dtype=float)))

    (a_lo, a_hi), (c_lo, c_hi) = extrema["a_diag"], extrema["c"]
    a_hi = max(a_hi, extrema["a_off"][1])
    p_lo = float(min(e[..., 0].min() for e in p_eigs))
    p_hi = float(max(e[..., -1].max() for e in p_eigs))
    q_lo, q_hi = float(q_eigs.min()), float(q_eigs.max())
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
        gain_lo=extrema["gain"][0], gain_hi=extrema["gain"][1],
        f_diag_hi=extrema["f"][1],
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
    transition the kernel covers in one pass; when it covers more than one,
    results leave out those two ``nx x nx`` matrices.
    """
    if not 1 <= _integer("k", k) <= record.steps:
        raise ValueError("weak-coupling check needs 1 <= k <= steps")
    loop = _Loop(record, k, k) if _loop is None else _loop
    return loop.sweep.coupling[k - loop.transitions.start]


def contraction_rate(bounds: BoundsTable) -> float:
    """Contraction rate of the per-subsystem covariance recursion derived
    from the recorded bounds: ``x / (1 + x)`` with
    ``x = l_lo^2 r_lo / (p_hi f_hi^2)``.  Zero means the bound is vacuous."""
    if bounds.l_lo <= 0 or bounds.r_lo <= 0 or bounds.p_hi <= 0 or bounds.f_hi <= 0:
        return 0.0
    x = bounds.l_lo ** 2 * bounds.r_lo / (bounds.p_hi * bounds.f_hi ** 2)
    return float(x / (1.0 + x))


def check_contraction(record: RunRecord, alpha: float | None = None, *,
                      _loop: _Loop | None = None) -> dict:
    """Verify the per-subsystem covariance contraction inequality
    ``F_ii' Pi_k F_ii <= (1 - alpha) Pi_{k-1}`` at every instant.

    ``alpha`` defaults to :func:`contraction_rate` of the run's bounds
    table.  Reports the per-instant result and the worst margin; a zero rate
    is flagged as vacuous.
    """
    loop = _Loop(record) if _loop is None else _loop
    if alpha is None:
        alpha = contraction_rate(check_bounds(record, _loop=loop))
    vacuous = not (0.0 < alpha < 1.0)
    worst = np.full(record.steps, np.inf)
    for F_g, Pi in zip(loop.sweep.F_groups, loop.cov.info):
        diff = _sym((1.0 - alpha) * Pi[:, :-1] - _tr(F_g) @ Pi[:, 1:] @ F_g)
        worst = np.minimum(worst, np.linalg.eigvalsh(diff)[..., 0].min(axis=0))
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
    values = np.empty((len(loop.slices), record.steps + 1))
    for (members, idx), Pi in zip(loop.groups, loop.cov.info):
        e = np.swapaxes(err[:, idx], 0, 1)[:, :, None]
        values[members] = (e @ Pi @ _tr(e))[..., 0, 0]
    out = np.zeros(record.steps + 1)
    for v in values:   # summed in subsystem order
        out = out + v
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
    The config is resolved once, reusing the benchmark that an earlier
    call built for an equal model name and params, and every run goes through
    the same plan as :func:`partkf.harness.run_experiment`, so run ``j``
    equals a standalone run at seed ``seeds[j]`` bit for bit; a linear
    filter computes its gain schedule once for the whole ensemble, and
    anew in every call.

    A linear ensemble runs as one stacked pass: all runs are simulated, and
    filtered by the engine's loop, as ``(runs, ...)`` stacks, in batches
    that bound the memory, and no per-run record is built.  Every run keeps
    its own noise streams, drawn by the one rule of a standalone run
    (redraws included), and every stacked product is one matrix-vector
    product per run, so each run stays bitwise its standalone run.  The
    per-run path takes the runs of a nonlinear plant, and the whole
    ensemble when the stacked pass fails (a non-finite state or
    measurement, or a filter error), so that the error raised is the one
    the first failing run raises.
    """
    from .harness import _resolve  # deferred: harness orchestrates runs

    if _integer("runs", runs) < 1:
        raise ValueError("runs must be at least 1")
    plan = _resolve(config.replace(runs=1, monitors=False))
    seeds = np.random.SeedSequence(config.seed).generate_state(runs, dtype=np.uint64)
    arr = plan.rmse(seeds)
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
