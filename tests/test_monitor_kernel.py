"""The batched monitor kernel against the per-instant reference path.

``analysis._Loop`` stacks the closed loop and the information matrices of a
record over instants and every monitor runs batched numpy linear algebra on
those stacks, one call per group of equally sized subsystems.  The reference
below is the per-instant evaluation the kernel replaced: one ``F_k``, one set
of inverses and one LAPACK call per instant and subsystem.  Batched calls
run the same LAPACK routine on each matrix, so every report field but the
weak-coupling margin must agree bit for bit, which the tests check through
the JSON text of the reports (``repr`` of every float, NaN included).

The weak-coupling threshold blocks are the exception: the kernel takes them
from a ``d_i``-sized SVD through the push-through identity, the reference
from the textbook ``ny x ny`` solve.  So the margins, and the standalone
check's cross term and threshold, agree to ``COUPLING_RTOL`` of their
largest entry, with equal verdicts, checkability and condition numbers; on
the 24 random plants each threshold block is also held to ``1e-13`` of a
50-digit evaluation of the textbook formula, which the reference misses by
up to about ``1e-11``.
"""

import dataclasses
import json
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache

import mpmath
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
    error_step,
    stability_report,
)
from partkf.benchmarks import get_benchmark
from partkf.dekf import run_dekf
from partkf.dkf import EstimatorDesign, _sym, run_dkf
from partkf.harness import ExperimentConfig, run_experiment
from partkf.model import LinearSubsystem, assemble_global, make_partition
from partkf.simulate import simulate

from conftest import noise_for
from random_plants import SWEEP_SEEDS, random_plant

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
    q_lo, q_hi = float(q_eigs.min()), float(q_eigs.max())
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


#: Tolerance of the kernel's weak-coupling figures against the reference,
#: relative to the largest entry they are compared over.
COUPLING_RTOL = 1e-12


def _largest(values) -> float:
    """The largest magnitude among the values that are not NaN; 0 for none."""
    mags = np.abs(np.asarray(values, dtype=float))
    return float(mags[~np.isnan(mags)].max(initial=0.0))


def _close(got, want, scale) -> bool:
    """Whether ``got`` is within ``COUPLING_RTOL * scale`` of ``want``, with
    NaN at the same positions."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and bool(np.all(np.abs(got[~nan] - want[~nan]) <= COUPLING_RTOL * scale)))


def assert_report_matches(got: StabilityReport, want: StabilityReport) -> None:
    """Every field but ``coupling_margin`` bitwise (the JSON text), and the
    margins to ``COUPLING_RTOL`` of the record's largest ``|margin|``."""
    got, want = got.as_dict(), want.as_dict()
    margins, want_margins = got.pop("coupling_margin"), want.pop("coupling_margin")
    assert json.dumps(got) == json.dumps(want)
    assert _close(margins, want_margins, _largest(want_margins))


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
        assert_report_matches(stability_report(rec), ref_report(rec))

    @pytest.mark.parametrize("chunk", [1, 3 * 64], ids=["one-instant", "three-instants"])
    def test_chunked_kernel_bitwise_equal_to_reference(self, records, monkeypatch, chunk):
        # The fixtures' stacks fit one chunk; a small budget splits them, with
        # the mixed record's unchecked instant inside a chunk.
        monkeypatch.setattr(analysis, "_CHUNK", chunk)
        for name in ("mixed", "coupling-100x"):
            rec = records[name]
            assert_report_matches(stability_report(rec), ref_report(rec))

    def test_records_exercise_every_verdict(self, records):
        hot = stability_report(records["coupling-100x"])
        assert np.sum(~hot.coupling_ok[1:]) > 0
        assert not stability_report(records["singular"]).coupling_checkable[1:].any()
        mixed = stability_report(records["mixed"]).coupling_checkable
        assert np.flatnonzero(~mixed[1:]).tolist() == [MIXED_K - 1]

    @pytest.mark.parametrize("name", RECORDS)
    def test_standalone_weak_coupling_matches_reference(self, records, name):
        rec = records[name]
        want = [ref_weak_coupling(rec, k) for k in range(1, rec.steps + 1)]
        margin_scale = _largest([w["margin"] for w in want])
        for k, want_k in enumerate(want, start=1):
            got = check_weak_coupling(rec, k)
            assert got.keys() == want_k.keys(), k
            for key, value in want_k.items():
                if isinstance(value, np.ndarray):
                    assert _close(got[key], value, _largest(value)), (k, key)
                elif key == "margin":
                    assert _close(got[key], value, margin_scale), k
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


# -- the threshold blocks against 50-digit arithmetic ------------------------


RANDOM_STEPS = 6


@lru_cache(maxsize=None)
def _random_run(seed):
    bench = random_plant(seed)
    traj = simulate(bench.model, bench.x0, RANDOM_STEPS, bench.noise(seed))
    return run_dkf(bench.model, bench.design, traj)


def mp_threshold(rec, k, i) -> np.ndarray:
    """Subsystem ``i``'s threshold block ``Pi B (R^-1 + B' Pi B)^-1 B' Pi``
    at transition ``k``, in 50-digit arithmetic from the recorded floats:
    ``Pi`` the inverse of the symmetrized ``P_i(k-1)`` and ``B = F_ii^-1
    L_i``."""
    s = rec.partition.state_slice(i)
    with mpmath.workdps(50):
        Pi = mpmath.matrix(_sym(rec.covs[k - 1][i])) ** -1
        R_inv = mpmath.matrix(_sym(np.asarray(rec.estimator["R"], dtype=float))) ** -1
        F_ii = mpmath.matrix(_closed_loop(rec, k)[s, s])
        B = F_ii ** -1 * mpmath.matrix(rec.gains[k][i])
        PB = Pi * B
        T = PB * (R_inv + B.T * PB) ** -1 * PB.T
        return np.array(T.tolist(), dtype=float)


class TestRandomPlants:
    """The 24 random plants mix subsystem sizes 1..3, subsystems without
    outputs and a dense ``R``."""

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_threshold_blocks_match_50_digit_arithmetic(self, seed):
        rec = _random_run(seed)
        checked = 0
        for k in range(1, rec.steps + 1):
            res = check_weak_coupling(rec, k)
            if not res["checkable"]:
                continue
            for i in range(rec.partition.n):
                s = rec.partition.state_slice(i)
                want = mp_threshold(rec, k, i)
                err = np.abs(res["threshold"][s, s] - want).max()
                assert err <= 1e-13 * np.abs(want).max(), (k, i, err)
                checked += 1
        assert checked

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_report_and_verdicts_match_the_reference(self, seed):
        # Groups of several sizes: the verdicts and every field but the
        # margins stay bitwise.
        rec = _random_run(seed)
        assert_report_matches(stability_report(rec), ref_report(rec))


class TestCallCounts:
    def test_report_inverts_once_per_subsystem(self, monkeypatch):
        # Each subsystem's covariances are inverted in one batched call, that
        # of its group of equally sized subsystems.
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
        assert len(calls) == len(rec.partition.groups)

    def test_batched_inverses_are_the_per_member_inverses(self):
        # dims (3, 1, 1, 3): two groups of two.  One call per group runs the
        # LAPACK routine of one call per member on each matrix.
        rec = _random_run(8)
        assert [len(members) for members, _ in rec.partition.groups] == [2, 2]
        cov = analysis._Loop(rec).cov
        for P, info in zip(cov.P, cov.info):
            assert info.tobytes() == np.array([np.linalg.inv(P_i) for P_i in P]).tobytes()

    def test_weak_coupling_pass_is_batched_over_subsystems(self, monkeypatch):
        # One transition per chunk, so both chains run the pass in five chunks.
        monkeypatch.setattr(analysis, "_CHUNK", 1)
        counts = []
        for n in (8, 32):
            rec = _chain_run(n, 5)
            calls = []
            with monkeypatch.context() as m:
                for name in ("svd", "solve"):
                    exact = getattr(np.linalg, name)

                    def counted(*args, _name=name, _exact=exact, **kwargs):
                        calls.append(_name)
                        return _exact(*args, **kwargs)

                    m.setattr(np.linalg, name, counted)
                check_weak_coupling(rec, 1, _loop=analysis._Loop(rec))
            counts.append(sorted(calls))
        assert counts[0] == counts[1]
        assert {"svd", "solve"} <= set(counts[0])

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


class _Counted(Sequence):
    """One instant's entries of a record's block field, counting each read
    of an entry in ``reads`` under ``(field, k, i)``."""

    def __init__(self, entries, field, k, reads):
        self.entries, self.field, self.k, self.reads = list(entries), field, k, reads

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        picked = range(len(self.entries))[i]
        for j in picked if isinstance(picked, range) else [picked]:
            self.reads[self.field, self.k, j] += 1
        return self.entries[i]


#: The block fields of a record that the monitors read.
BLOCK_FIELDS = ("a_cols", "c_cols", "gains", "covs")


def _counted(rec):
    """A copy of ``rec`` whose block fields count their reads, and the
    counter."""
    reads = Counter()
    fields = {f: [_Counted(per_k, f, k, reads) for k, per_k in enumerate(getattr(rec, f))]
              for f in BLOCK_FIELDS}
    return dataclasses.replace(rec, **fields), reads


class TestRecordReads:
    @pytest.fixture(scope="class")
    def reactor_50(self):
        return run_experiment(ExperimentConfig(model={"name": "reactor-chain"}, steps=50,
                                               seed=1, monitors=False),
                              write_outputs=False)

    def test_report_reads_each_entry_once(self, reactor_50):
        # The bounds once stacked a_cols, c_cols and gains per group and the
        # closed-loop pass stacked them again: 401 reads of a_cols' 200
        # entries and 405 of c_cols' and gains' 204 each.
        rec = reactor_50
        counted, reads = _counted(rec)
        want = json.dumps(stability_report(rec).as_dict())
        assert json.dumps(stability_report(counted).as_dict()) == want
        shape_probes = len(rec.partition.groups)
        for field in BLOCK_FIELDS:
            entries = {(field, k, i) for k, per_k in enumerate(getattr(rec, field))
                       for i in range(len(per_k))}
            got = {key: n for key, n in reads.items() if key[0] == field}
            assert set(got) == entries, field
            assert sum(got.values()) <= len(entries) + shape_probes, (field, sum(got.values()))

    @pytest.mark.parametrize("k", [1, 17, 50])
    def test_one_transition_reads_only_its_instants(self, reactor_50, k):
        rec = reactor_50
        n = rec.partition.n
        counted, reads = _counted(rec)
        check_weak_coupling(counted, k)
        want = {("a_cols", k - 1), ("c_cols", k), ("gains", k), ("covs", k - 1), ("covs", k)}
        assert reads == Counter({(f, j, i): 1 for f, j in want for i in range(n)})
        reads.clear()
        model = get_benchmark("reactor-chain").model
        error_step(model, counted, k)
        want = {("a_cols", k - 1), ("c_cols", k), ("gains", k)}
        assert reads == Counter({(f, j, i): 1 for f, j in want for i in range(n)})


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

    def test_estimator_r_not_positive_definite_is_refused(self, reactor_run):
        _, _, rec = reactor_run
        bad = dataclasses.replace(rec, estimator={**rec.estimator,
                                                  "R": -np.asarray(rec.estimator["R"])})
        with pytest.raises(ValueError, match="estimator R is not positive definite"):
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
            assert_report_matches(stability_report(rec), ref_report(rec))
            tracemalloc.start()
            try:
                stability_report(rec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_matrix = nx * nx * 8
        assert peaks[1] - peaks[0] < (long - short) * one_matrix
