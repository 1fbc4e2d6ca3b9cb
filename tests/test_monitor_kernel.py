"""The batched monitor kernel against the per-instant reference path.

``analysis._Loop`` stacks the closed loop and the information matrices of a
record over instants and every monitor runs batched numpy linear algebra on
those stacks.  The reference below is the per-instant evaluation the kernel
replaced: one ``F_k``, one set of inverses and one LAPACK call per instant
and subsystem.  Batched calls run the same LAPACK routine on each matrix, so
the two paths must agree bit for bit, which the tests check through the JSON
text of the reports (``repr`` of every float, NaN included).
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import partkf.analysis as analysis
from partkf.analysis import (
    COND_LIMIT,
    INEQ_TOL,
    BoundsTable,
    StabilityReport,
    attach_monitors,
    check_contraction,
    check_weak_coupling,
    contraction_rate,
    stability_report,
)
from partkf.benchmarks import get_benchmark
from partkf.dekf import run_dekf
from partkf.dkf import EstimatorDesign, _sym, run_dkf
from partkf.harness import ExperimentConfig, run_experiment
from partkf.model import LinearSubsystem, assemble_global, make_partition
from partkf.simulate import simulate

from conftest import noise_for

# -- reference path: one instant at a time ---------------------------------


def _spec_norm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _information(rec, k):
    return [np.linalg.inv(_sym(P)) for P in rec.covs[k]]


def _closed_loop(rec, k):
    A_prev, C_k, L_k = rec.a_matrix(k - 1), rec.c_matrix(k), rec.stacked_gain(k)
    return (np.eye(A_prev.shape[0]) - L_k @ C_k) @ A_prev


def ref_bounds(rec) -> BoundsTable:
    p = rec.partition
    n = p.n
    slices = [p.state_slice(i) for i in range(n)]
    a_diag, a_off, c_norms = [], [], []
    p_eigs_lo, p_eigs_hi = [], []
    gain_norms, f_diag_norms = [], []
    for k in range(rec.steps + 1):
        for i in range(n):
            c_norms.append(_spec_norm(rec.c_cols[k][i]))
            eigs = np.linalg.eigvalsh(_sym(rec.covs[k][i]))
            p_eigs_lo.append(eigs[0])
            p_eigs_hi.append(eigs[-1])
            gain_norms.append(_spec_norm(rec.gains[k][i]))
        if k == 0:
            continue
        F = _closed_loop(rec, k)
        for i, col in enumerate(rec.a_cols[k - 1]):
            f_diag_norms.append(_spec_norm(F[slices[i], slices[i]]))
            for l, sl in enumerate(slices):
                blk = col[sl]
                if l == i:
                    a_diag.append(_spec_norm(blk))
                elif blk.any():
                    a_off.append(_spec_norm(blk))
    est = rec.estimator
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
    return BoundsTable(
        a_lo=a_lo, a_hi=a_hi, c_lo=c_lo, c_hi=c_hi, p_lo=p_lo, p_hi=p_hi,
        q_lo=q_lo, q_hi=q_hi, r_lo=r_lo, r_hi=r_hi,
        l_lo=float(l_lo), l_hi=float(l_hi), f_hi=float(f_hi),
        gain_lo=float(min(gain_norms)), gain_hi=float(max(gain_norms)),
        f_diag_hi=float(max(f_diag_norms)),
        bounded=bool(finite and p_lo > 0 and q_lo > 0 and r_lo > 0),
    )


def ref_weak_coupling(rec, k) -> dict:
    p = rec.partition
    F = _closed_loop(rec, k)
    F_d = np.zeros_like(F)
    Pi = np.zeros_like(F)
    for i, Pi_i in enumerate(_information(rec, k)):
        si = p.state_slice(i)
        F_d[si, si] = F[si, si]
        Pi[si, si] = Pi_i
    F_o = F - F_d
    Pi_prev = _information(rec, k - 1)
    R_inv = np.linalg.inv(_sym(np.asarray(rec.estimator["R"], dtype=float)))
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
        B = np.linalg.solve(F_ii, rec.gains[k][i])
        inner = _sym(R_inv + B.T @ Pi_prev[i] @ B)
        T[si, si] = _sym(Pi_prev[i] @ B @ np.linalg.solve(inner, B.T) @ Pi_prev[i])
    cross = _sym(F_o.T @ Pi @ F_o + F_o.T @ Pi @ F_d + F_d.T @ Pi @ F_o)
    margin = float(np.linalg.eigvalsh(_sym(0.5 * T - cross))[0])
    return {"k": k, "checkable": True, "satisfied": bool(margin > -INEQ_TOL),
            "margin": margin, "condition": worst_cond,
            "cross": cross, "threshold": T}


def ref_contraction(rec, alpha) -> dict:
    p = rec.partition
    ok = np.ones(rec.steps + 1, dtype=bool)
    margins = np.full(rec.steps + 1, np.nan)
    Pi_prev = _information(rec, 0)
    for k in range(1, rec.steps + 1):
        F = _closed_loop(rec, k)
        Pi_k = _information(rec, k)
        worst = np.inf
        for i in range(p.n):
            si = p.state_slice(i)
            F_ii = F[si, si]
            diff = _sym((1.0 - alpha) * Pi_prev[i] - F_ii.T @ Pi_k[i] @ F_ii)
            worst = min(worst, float(np.linalg.eigvalsh(diff)[0]))
        margins[k] = worst
        ok[k] = worst > -INEQ_TOL
        Pi_prev = Pi_k
    return {"alpha": float(alpha), "vacuous": not (0.0 < alpha < 1.0),
            "ok": ok, "margins": margins, "all_hold": bool(np.all(ok[1:]))}


def ref_lyapunov(rec) -> np.ndarray:
    p = rec.partition
    out = np.empty(rec.steps + 1)
    err = rec.error_post()
    for k in range(rec.steps + 1):
        v = 0.0
        for i, Pi_i in enumerate(_information(rec, k)):
            e_i = err[k, p.state_slice(i)]
            v += float(e_i @ Pi_i @ e_i)
        out[k] = v
    return out


def ref_report(rec) -> StabilityReport:
    K = rec.steps
    bounds = ref_bounds(rec)
    alpha = contraction_rate(bounds)
    c_ok = np.ones(K + 1, dtype=bool)
    c_margin = np.full(K + 1, np.nan)
    c_check = np.zeros(K + 1, dtype=bool)
    for k in range(1, K + 1):
        res = ref_weak_coupling(rec, k)
        c_check[k] = res["checkable"]
        c_margin[k] = res["margin"]
        c_ok[k] = res["satisfied"] if res["checkable"] else False
    contraction = ref_contraction(rec, alpha)
    return StabilityReport(
        bounds=bounds, alpha=alpha,
        coupling_ok=c_ok, coupling_margin=c_margin, coupling_checkable=c_check,
        contraction_ok=contraction["ok"], contraction_margin=contraction["margins"],
        lyapunov=ref_lyapunov(rec))


def _text(report: StabilityReport) -> str:
    return json.dumps(report.as_dict())


# -- records ----------------------------------------------------------------


def _singular_run():
    """Zero dynamics: every diagonal closed-loop block is singular."""
    part = make_partition([2], [2])
    sub = LinearSubsystem(0, np.zeros((2, 2)), {}, np.eye(2), np.eye(2), np.eye(2))
    model = assemble_global([sub], part)
    design = EstimatorDesign.from_model(model, P0=[np.eye(2)], x0_guess=np.zeros(2))
    traj = simulate(model, np.zeros(2), 5, noise_for(model, 1.0, seed=1))
    return run_dkf(model, design, traj)


def _hot_run():
    """reactor-chain at 100x its coupling: weak coupling is violated."""
    hot = get_benchmark("reactor-chain", coupling=100.0 * 0.03)
    traj = simulate(hot.model, hot.x0, 60, hot.noise(seed=7))
    return run_dekf(hot.model, hot.design, traj)


def _chain_run(n, steps):
    """A chain of ``n`` two-state subsystems, each measuring its first
    state and coupled to its neighbours."""
    part = make_partition([2] * n, [1] * n)
    subs = [LinearSubsystem(i, 0.8 * np.eye(2),
                            {l: 0.05 * np.eye(2) for l in (i - 1, i + 1) if 0 <= l < n},
                            np.eye(2)[:1], 0.01 * np.eye(2), 0.01 * np.eye(1))
            for i in range(n)]
    model = assemble_global(subs, part)
    design = EstimatorDesign.from_model(model, P0=[np.eye(2)] * n,
                                        x0_guess=np.zeros(2 * n))
    traj = simulate(model, np.ones(2 * n), steps, noise_for(model, 0.1, seed=3))
    return run_dkf(model, design, traj)


def _with_block(rec, field, k, i, block):
    """A copy of ``rec`` whose ``field[k][i]`` is ``block``; the other
    per-instant arrays are shared."""
    blocks = [list(per_k) for per_k in getattr(rec, field)]
    blocks[k][i] = block
    return dataclasses.replace(rec, **{field: blocks})


MIXED_K = 20


@pytest.fixture(scope="module")
def records(linear_run, reactor_run):
    _, _, reactor = reactor_run
    # A zero dynamics column at instant MIXED_K - 1 makes F_{MIXED_K}'s first
    # diagonal block singular; its neighbours stay checkable.
    mixed = _with_block(reactor, "a_cols", MIXED_K - 1, 0,
                        np.zeros_like(reactor.a_cols[MIXED_K - 1][0]))
    return {"linear-4state": linear_run[2], "reactor-chain": reactor,
            "coupling-100x": _hot_run(), "singular": _singular_run(), "mixed": mixed}


RECORDS = ["linear-4state", "reactor-chain", "coupling-100x", "singular", "mixed"]


class TestReferencePath:
    @pytest.mark.parametrize("name", RECORDS)
    def test_report_bitwise_equal_to_reference(self, records, name):
        rec = records[name]
        assert _text(stability_report(rec)) == _text(ref_report(rec))

    @pytest.mark.parametrize("chunk", [1, 3 * 64], ids=["one-instant", "three-instants"])
    def test_chunked_kernel_bitwise_equal_to_reference(self, records, monkeypatch, chunk):
        # The fixtures' stacks fit one chunk; a small budget splits them, with
        # the mixed record's unchecked instant inside a chunk.
        monkeypatch.setattr(analysis, "_CHUNK", chunk)
        for name in ("mixed", "coupling-100x"):
            rec = records[name]
            assert _text(stability_report(rec)) == _text(ref_report(rec)), name

    def test_records_exercise_every_verdict(self, records):
        hot = stability_report(records["coupling-100x"])
        assert np.sum(~hot.coupling_ok[1:]) > 0
        assert not stability_report(records["singular"]).coupling_checkable[1:].any()
        mixed = stability_report(records["mixed"]).coupling_checkable
        assert np.flatnonzero(~mixed[1:]).tolist() == [MIXED_K - 1]

    @pytest.mark.parametrize("name", RECORDS)
    def test_standalone_weak_coupling_matches_reference(self, records, name):
        rec = records[name]
        for k in range(1, rec.steps + 1):
            got, want = check_weak_coupling(rec, k), ref_weak_coupling(rec, k)
            assert got.keys() == want.keys(), k
            for key, value in want.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(got[key], value), (k, key)
                else:
                    assert json.dumps(got[key]) == json.dumps(value), (k, key)

    @pytest.mark.parametrize("name", ["reactor-chain", "coupling-100x"])
    def test_contraction_with_given_rate_matches_reference(self, records, name):
        rec = records[name]
        got = check_contraction(rec, alpha=0.01)
        want = ref_contraction(rec, 0.01)
        assert np.array_equal(got["ok"], want["ok"])
        assert np.array_equal(got["margins"], want["margins"], equal_nan=True)
        assert got["all_hold"] == want["all_hold"]


class TestCallCounts:
    def test_report_inverts_once_per_subsystem_plus_r(self, monkeypatch):
        rec = run_experiment(ExperimentConfig(model={"name": "reactor-chain"}, steps=50,
                                              seed=1, monitors=False),
                             write_outputs=False)
        calls = []
        exact = np.linalg.inv

        def counted(a):
            calls.append(1)
            return exact(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        stability_report(rec)
        assert len(calls) <= rec.partition.n + 1

    def test_report_forms_the_closed_loop_once_per_chunk(self, monkeypatch):
        rec = run_experiment(ExperimentConfig(model={"name": "reactor-chain"}, steps=50,
                                              seed=1, monitors=False),
                             write_outputs=False)
        nx = rec.partition.nx
        monkeypatch.setattr(analysis, "_CHUNK", 3 * nx * nx)
        calls = []
        exact = analysis._Loop.closed_loop

        def counted(self, ks):
            calls.append(ks)
            return exact(self, ks)

        monkeypatch.setattr(analysis._Loop, "closed_loop", counted)
        stability_report(rec)
        # 50 transitions, three per chunk: 17 chunks, each formed once.
        assert len(calls) == 17
        assert [k for ks in calls for k in ks] == list(range(1, 51))

    def test_contraction_with_given_rate_skips_the_bounds_pass(self, monkeypatch,
                                                               reactor_run):
        _, _, rec = reactor_run
        default = check_contraction(rec)
        calls = []
        exact = analysis.check_bounds

        def counted(*args, **kwargs):
            calls.append(1)
            return exact(*args, **kwargs)

        monkeypatch.setattr(analysis, "check_bounds", counted)
        given = check_contraction(rec, alpha=default["alpha"])
        assert calls == []
        assert given["alpha"] == default["alpha"]
        assert np.array_equal(given["ok"], default["ok"])
        assert np.array_equal(given["margins"], default["margins"], equal_nan=True)
        check_contraction(rec)
        assert len(calls) == 1


class TestCorruptRecord:
    @pytest.mark.parametrize("fill, what", [(0.0, "not positive definite"),
                                            (np.nan, "not finite")], ids=["zero", "nan"])
    def test_attach_monitors_names_subsystem_and_instant(self, reactor_run, fill, what):
        _, _, rec = reactor_run
        bad = _with_block(rec, "covs", 3, 1, np.full_like(rec.covs[3][1], fill))
        with pytest.raises(ValueError, match=rf"covs\[3\]\[1\] \(subsystem 1, instant 3\) is {what}"):
            attach_monitors(bad)

    @pytest.mark.parametrize("field", ["gains", "a_cols", "c_cols"])
    def test_non_finite_block_names_field_subsystem_and_instant(self, reactor_run, field):
        _, _, rec = reactor_run
        block = getattr(rec, field)[4][2].copy()
        block.flat[0] = np.inf
        bad = _with_block(rec, field, 4, 2, block)
        with pytest.raises(ValueError,
                           match=rf"{field}\[4\]\[2\] \(subsystem 2, instant 4\) is not finite"):
            attach_monitors(bad)

    def test_standalone_monitor_names_the_instant(self, reactor_run):
        _, _, rec = reactor_run
        bad = _with_block(rec, "covs", 7, 0, -rec.covs[7][0])
        with pytest.raises(ValueError, match=r"subsystem 0, instant 7"):
            check_weak_coupling(bad, 8)
        # Instants the standalone check does not read are not inspected.
        check_weak_coupling(bad, 2)


class TestMemory:
    def test_report_keeps_no_nx_by_nx_matrix_per_transition(self, monkeypatch):
        # The kernel keeps block-diagonal stacks (covariances, information
        # matrices, diagonal closed-loop blocks: K * sum d_i^2 entries) and
        # stacks everything nx x nx a chunk at a time; with four transitions
        # per chunk both horizons below span many chunks.
        n, short, long = 24, 20, 80
        nx = 2 * n
        monkeypatch.setattr(analysis, "_CHUNK", 4 * nx * nx)
        peaks = []
        for steps in (short, long):
            rec = _chain_run(n, steps)
            assert _text(stability_report(rec)) == _text(ref_report(rec))
            tracemalloc.start()
            try:
                stability_report(rec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_matrix = nx * nx * 8
        assert peaks[1] - peaks[0] < (long - short) * one_matrix
