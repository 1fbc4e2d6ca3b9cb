"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and asserts the criterion.
"""

import time

import numpy as np
import pytest

from partkf.analysis import (
    check_contraction,
    contraction_rate,
    check_bounds,
    error_step,
    monte_carlo,
    rmse,
    stability_report,
)
from partkf.benchmarks import (
    LINEAR_GUESS,
    LINEAR_X0,
    REACTOR_COUPLING,
    get_benchmark,
)
from partkf.dekf import run_dekf
from partkf.dkf import run_dkf
from partkf.harness import (
    ExperimentConfig,
    _affine_dekf_vs_dkf,
    _dkf_vs_dfie,
    _n1_vs_centralized,
    export,
    run_experiment,
)
from partkf.model import _monolithic, linearize
from partkf.simulate import simulate

from conftest import noise_for


def _report(cid: str, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _cholesky_all(record):
    for per_k in record.covs:
        for P in per_k:
            np.linalg.cholesky(P)


@pytest.fixture(scope="module")
def reactor500():
    bench = get_benchmark("reactor-chain")
    traj = simulate(bench.model, bench.x0, 500, bench.noise(seed=7))
    return bench, run_dekf(bench.model, bench.design, traj)


@pytest.fixture(scope="module")
def decoupled500():
    bench = get_benchmark("linear-4state", coupling_scale=0.0)
    traj = simulate(bench.model, bench.x0, 500, bench.noise(seed=2))
    return bench, run_dkf(bench.model, bench.design, traj)


@pytest.fixture(scope="module")
def reactor_weak():
    bench = get_benchmark("reactor-chain")
    traj = simulate(bench.model, bench.x0, 150, bench.noise(seed=7))
    return bench, run_dekf(bench.model, bench.design, traj)


def test_c01_fie_equivalence(unit_weight_design):
    # Published matrices, initial state and guess; P0 = 100 I, Q = R = I.
    t0 = time.perf_counter()
    model = get_benchmark("linear-4state").model
    traj = simulate(model, LINEAR_X0, 5, noise_for(model, 1.0, seed=1))
    worst = _dkf_vs_dfie(model, unit_weight_design, traj)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report("C1", "distributed filter equals batch estimator for k<=5", ok,
            f"max rel diff {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_c02_single_partition_reductions(unit_weight_design):
    # Both trajectories are simulated on the single-subsystem view: one noise
    # stream per signal, not one per subsystem.
    # n=1 distributed filter vs centralized Kalman filter, 100 steps.
    model = get_benchmark("linear-4state").model
    traj = simulate(_monolithic(model), LINEAR_X0, 100, noise_for(model, 1.0, seed=3))
    worst_lin = _n1_vs_centralized(model, unit_weight_design, traj)

    # n=1 distributed extended filter vs classical global EKF, 100 steps.
    bench = get_benchmark("reactor-chain")
    traj_n = simulate(_monolithic(bench.model), bench.x0, 100, bench.noise(seed=11))
    worst_nl = _n1_vs_centralized(bench.model, bench.design, traj_n)
    ok = worst_lin <= 1e-9 and worst_nl <= 1e-9
    _report("C2", "single-partition reductions", ok,
            f"DKF vs KF {worst_lin:.2e}, DEKF vs EKF {worst_nl:.2e}")
    assert worst_lin <= 1e-9
    assert worst_nl <= 1e-9


def test_c03_linear_reduction():
    bench = get_benchmark("linear-4state")
    traj = simulate(bench.model, LINEAR_X0, 100, bench.noise(seed=5))
    worst = _affine_dekf_vs_dkf(bench.model, bench.design, traj)
    ok = worst <= 1e-12
    _report("C3", "extended filter reduces to linear filter on affine model",
            ok, f"max rel diff {worst:.2e}")
    assert worst <= 1e-12


def test_c04_error_recursion_identity(decoupled500, reactor500):
    bench_lin, rec_lin = decoupled500
    worst_lin = max(error_step(bench_lin.model, rec_lin, k).residual
                    for k in range(1, 501))
    bench_nl, rec_nl = reactor500
    worst_nl = max(error_step(bench_nl.model, rec_nl, k).residual
                   for k in range(1, 501))
    ok = worst_lin <= 1e-12 and worst_nl <= 1e-9
    _report("C4", "closed-loop error recursion identity over 500 steps", ok,
            f"linear {worst_lin:.2e}, nonlinear {worst_nl:.2e}")
    assert worst_lin <= 1e-12
    assert worst_nl <= 1e-9


def test_c05_monte_carlo_rmse_shape():
    t0 = time.perf_counter()
    config = ExperimentConfig(model={"name": "linear-4state"}, steps=50,
                              seed=1, monitors=False)
    result = monte_carlo(config, runs=500)
    elapsed = time.perf_counter() - t0
    rmse0 = rmse(LINEAR_GUESS[None, :], LINEAR_X0[None, :])[0]
    steady = float(np.mean(result.mean[30:]))
    final = result.rmse[:, 50]
    envelope_ok = bool(np.all(np.isfinite(result.hi))
                       and np.max(final) <= 3.0 * np.mean(final))
    ok = steady < 0.25 * rmse0 and envelope_ok and elapsed < 60.0
    _report("C5", "Monte Carlo RMSE decay shape (500 runs)", ok,
            f"mean RMSE(k>=30) {steady:.4f} = {100 * steady / rmse0:.1f}% of "
            f"RMSE(0) {rmse0:.4f}; max/mean at k=50 "
            f"{np.max(final) / np.mean(final):.2f}; {elapsed:.1f}s")
    assert steady < 0.25 * rmse0
    assert envelope_ok
    assert elapsed < 60.0


def test_c06_covariance_health(decoupled500, reactor500, reactor_weak):
    records = [decoupled500[1], reactor500[1], reactor_weak[1]]
    for rec in records:
        _cholesky_all(rec)
    floor_total = sum(rec.floor_events for rec in records)
    ok = floor_total == 0
    _report("C6", "posterior covariances SPD, no eigenvalue-floor events", ok,
            f"{sum(rec.steps + 1 for rec in records)} instants checked, "
            f"{floor_total} floor events")
    assert floor_total == 0


def test_c07_weak_coupling_monitor(reactor_weak):
    bench, rec = reactor_weak
    rep = stability_report(rec)
    baseline_ok = rep.coupling_all_hold and bool(np.all(rep.coupling_checkable[1:]))

    hot = get_benchmark("reactor-chain", coupling=100.0 * REACTOR_COUPLING)
    traj_hot = simulate(hot.model, hot.x0, 60, hot.noise(seed=7))
    rec_hot = run_dekf(hot.model, hot.design, traj_hot)
    rep_hot = stability_report(rec_hot)
    violations = int(np.sum(~rep_hot.coupling_ok[1:]))
    ok = baseline_ok and violations > 0
    _report("C7", "weak-coupling monitor", ok,
            f"baseline satisfied at all {rec.steps} instants "
            f"(min margin {np.nanmin(rep.coupling_margin[1:]):.2e}); "
            f"100x coupling: {violations} violations")
    assert baseline_ok
    assert violations > 0


def test_c08_contraction_inequality(reactor_weak):
    bench, rec = reactor_weak
    res_weak = check_contraction(rec)

    dec = get_benchmark("reactor-chain", coupling=0.0)
    traj = simulate(dec.model, dec.x0, 150, dec.noise(seed=9))
    rec_dec = run_dekf(dec.model, dec.design, traj)
    res_dec = check_contraction(rec_dec)

    bounds_weak = check_bounds(rec)
    bounds_dec = check_bounds(rec_dec)
    alphas_ok = all(0.0 < contraction_rate(b) < 1.0 and b.l_lo > 0
                    for b in (bounds_weak, bounds_dec))
    ok = res_weak["all_hold"] and res_dec["all_hold"] and alphas_ok
    _report("C8", "covariance contraction with computed rate", ok,
            f"alpha weak {res_weak['alpha']:.2e}, decoupled {res_dec['alpha']:.2e}; "
            f"hold at all instants: {res_weak['all_hold'] and res_dec['all_hold']}")
    assert res_weak["all_hold"]
    assert res_dec["all_hold"]
    assert alphas_ok


def test_c09_jacobian_integrity():
    bench = get_benchmark("reactor-chain")
    subs = bench.model.subsystems
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x = np.column_stack([rng.uniform(290.0, 370.0, 4),
                             rng.uniform(1.5, 5.0, 4)]).ravel()
        an = linearize(subs, x, mode="analytic")
        fd = linearize(subs, x, mode="fd")
        worst = max(worst,
                    float(np.max(np.abs(an.A - fd.A) / (1.0 + np.abs(fd.A)))),
                    float(np.max(np.abs(an.C - fd.C) / (1.0 + np.abs(fd.C)))))
    ok = worst <= 1e-5
    _report("C9", "analytic vs finite-difference Jacobians on 100 points", ok,
            f"worst rel diff {worst:.2e}")
    assert worst <= 1e-5


def test_c10_determinism(tmp_path):
    config = ExperimentConfig(model={"name": "reactor-chain"}, steps=40,
                              seed=21, monitors=True)
    rec_a = run_experiment(config, write_outputs=False)
    rec_b = run_experiment(config, write_outputs=False)
    path_a = export(rec_a, "csv", tmp_path, "a")
    path_b = export(rec_b, "csv", tmp_path, "b")
    bytes_ok = path_a.read_bytes() == path_b.read_bytes()

    bench = get_benchmark("reactor-chain")
    traj = simulate(bench.model, bench.x0, 40, bench.noise(seed=21))
    fwd = run_dekf(bench.model, bench.design, traj, order=[0, 1, 2, 3])
    rev = run_dekf(bench.model, bench.design, traj, order=[2, 3, 1, 0])
    order_ok = (np.array_equal(fwd.xhat_post, rev.xhat_post)
                and np.array_equal(fwd.xhat_pred, rev.xhat_pred)
                and all(np.array_equal(fwd.covs[k][i], rev.covs[k][i])
                        for k in range(41) for i in range(4)))

    lin = get_benchmark("linear-4state")
    traj_l = simulate(lin.model, lin.x0, 40, lin.noise(seed=22))
    fwd_l = run_dkf(lin.model, lin.design, traj_l, order=[0, 1])
    rev_l = run_dkf(lin.model, lin.design, traj_l, order=[1, 0])
    order_ok = order_ok and np.array_equal(fwd_l.xhat_post, rev_l.xhat_post)

    ok = bytes_ok and order_ok
    _report("C10", "byte-identical reruns and order-independent agents", ok,
            f"csv bytes equal: {bytes_ok}; permuted order identical: {order_ok}")
    assert bytes_ok
    assert order_ok
