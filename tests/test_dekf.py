import dataclasses
import re

import numpy as np
import pytest

from partkf.benchmarks import LINEAR_X0, REACTOR_C_S, REACTOR_T_S, get_benchmark
from partkf.dekf import dekf_gain_cov, dekf_predict, dekf_update, run_dekf
from partkf.dkf import (
    EstimatorDesign,
    ExchangeSnapshot,
    FilterError,
    gain_and_covariance,
    init_update,
    predict,
    run_dkf,
    update,
)
from partkf.model import LinearizationError, aggregate_nonlinear, linear_as_nonlinear, linearize
from partkf.simulate import NoiseSpec, simulate

from conftest import noise_for

REACTOR_STEADY = np.column_stack([REACTOR_T_S, REACTOR_C_S]).ravel()


class TestDekfPredict:
    def test_affine_model_matches_linear_prediction(self, linear_bench):
        lin = linear_bench.model
        nl = aggregate_nonlinear(lin.subsystems, lin.partition)
        snap = ExchangeSnapshot(k=1, posteriors=(LINEAR_X0[:2], LINEAR_X0[2:]))
        for i in range(2):
            assert np.array_equal(dekf_predict(i, snap, nl), predict(i, snap, lin))

    def test_steady_state_is_fixed_point(self, reactor_bench):
        p = reactor_bench.model.partition
        posts = tuple(REACTOR_STEADY[p.state_slice(i)] for i in range(4))
        snap = ExchangeSnapshot(k=1, posteriors=posts)
        for i in range(4):
            out = dekf_predict(i, snap, reactor_bench.model)
            assert np.allclose(out, posts[i], rtol=0, atol=1e-9)

    def test_offset_guess_prediction_stays_in_box(self, reactor_bench):
        p = reactor_bench.model.partition
        guess = reactor_bench.design.x0_guess
        posts = tuple(guess[p.state_slice(i)] for i in range(4))
        snap = ExchangeSnapshot(k=1, posteriors=posts)
        lo, hi = reactor_bench.model.state_box()
        for i in range(4):
            out = dekf_predict(i, snap, reactor_bench.model)
            assert np.all(np.isfinite(out))
            sl = p.state_slice(i)
            assert np.all(out >= lo[sl]) and np.all(out <= hi[sl])

    def test_missing_neighbor(self, reactor_bench):
        snap = ExchangeSnapshot(k=1, posteriors=(np.zeros(2), None,
                                                 np.zeros(2), np.zeros(2)))
        with pytest.raises(FilterError):
            dekf_predict(0, snap, reactor_bench.model)


class TestDekfGainCov:
    def test_affine_model_matches_linear_gain_and_covariance(self, linear_bench):
        lin = linear_bench.model
        nl = aggregate_nonlinear(lin.subsystems, lin.partition)
        design = linear_bench.design
        blocks = linearize(nl.subsystems, LINEAR_X0, mode="analytic")
        rng = np.random.default_rng(0)
        M = rng.normal(size=(2, 2))
        P = M @ M.T + np.eye(2)
        for i in range(2):
            L_nl, P_nl, floored = dekf_gain_cov(
                P, blocks.a_cols[i], blocks.a_blocks[(i, i)], blocks.C,
                blocks.c_cols[i], design.Q[i], design.R)
            L_lin, P_lin = gain_and_covariance(P, lin.a_col(i), lin.subsystems[i].A,
                                               lin.C, lin.c_col(i), design.Q[i], design.R)
            assert not floored
            assert np.array_equal(L_nl, L_lin)
            assert np.array_equal(P_nl, P_lin)

    def test_analytic_and_fd_blocks_give_close_gains(self, reactor_bench):
        model = reactor_bench.model
        design = reactor_bench.design
        x = REACTOR_STEADY + np.tile([2.0, 0.1], 4)
        ba = linearize(model.subsystems, x, mode="analytic")
        bf = linearize(model.subsystems, x, mode="fd")
        P = 5.0 * np.eye(2)
        for i in range(4):
            L_a, _, _ = dekf_gain_cov(P, ba.a_cols[i], ba.a_blocks[(i, i)],
                                      ba.C, ba.c_cols[i], design.Q[i], design.R)
            L_f, _, _ = dekf_gain_cov(P, bf.a_cols[i], bf.a_blocks[(i, i)],
                                      bf.C, bf.c_cols[i], design.Q[i], design.R)
            assert np.all(np.abs(L_a - L_f) <= 1e-4 * (1.0 + np.abs(L_f)))

    def test_covariance_spd_over_500_steps(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 500,
                        reactor_bench.noise(seed=17))
        rec = run_dekf(reactor_bench.model, reactor_bench.design, traj)
        assert rec.floor_events == 0
        for k in range(0, 501, 25):
            for i in range(4):
                np.linalg.cholesky(rec.covs[k][i])


class TestDekfUpdate:
    def test_perfect_prediction_keeps_posterior(self, reactor_bench):
        model = reactor_bench.model
        p = model.partition
        preds = tuple(REACTOR_STEADY[p.state_slice(i)] for i in range(4))
        y = model.h(REACTOR_STEADY)
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=y)
        L = np.ones((2, p.ny))
        for i in range(4):
            assert np.array_equal(dekf_update(i, preds[i], snap, L, model), preds[i])

    def test_affine_model_matches_linear_update(self, linear_bench):
        lin = linear_bench.model
        nl = aggregate_nonlinear(lin.subsystems, lin.partition)
        preds = (LINEAR_X0[:2] + 0.1, LINEAR_X0[2:] - 0.2)
        y = np.array([1.0, -2.0])
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=y)
        L = np.array([[0.5, 0.1], [-0.2, 0.3]])
        for i in range(2):
            assert np.array_equal(dekf_update(i, preds[i], snap, L, nl),
                                  update(i, preds[i], snap, L, lin))

    def test_one_update_serves_both_filters(self):
        assert dekf_update is update

    def test_affine_run_is_the_linear_run_bit_for_bit(self, linear_run):
        bench, traj, lin = linear_run
        model = bench.model
        ext = run_dekf(aggregate_nonlinear(model.subsystems, model.partition), bench.design, traj)
        assert np.array_equal(ext.xhat_pred, lin.xhat_pred)
        assert np.array_equal(ext.xhat_post, lin.xhat_post)
        for name in ("covs", "gains"):
            assert all(np.array_equal(a, b)
                       for ka, kb in zip(getattr(ext, name), getattr(lin, name), strict=True)
                       for a, b in zip(ka, kb, strict=True)), name

    def test_single_partition_step_matches_hand_assembled_ekf(self):
        # One full instant on the monolithic benchmark against a from-scratch
        # EKF step written inline.
        bm = get_benchmark("reactor-chain-mono")
        subs4 = get_benchmark("reactor-chain").model.subsystems
        traj = simulate(bm.model, bm.x0, 1, bm.noise(seed=5))
        rec = run_dekf(bm.model, bm.design, traj)

        inv = np.linalg.inv
        guess = bm.design.x0_guess
        C0 = linearize(subs4, guess, mode="analytic").C
        P0 = bm.design.P0[0]
        S0 = C0 @ P0 @ C0.T + bm.design.R
        K0 = P0 @ C0.T @ inv(S0)
        x = guess + K0 @ (traj.ys[0] - bm.model.h(guess))
        P = (np.eye(8) - K0 @ C0) @ P0
        A0 = linearize(subs4, x, mode="analytic").A
        x_pred = bm.model.f(x)
        P_pred = A0 @ P @ A0.T + bm.design.Q[0]
        C1 = linearize(subs4, x_pred, mode="analytic").C
        S1 = C1 @ P_pred @ C1.T + bm.design.R
        K1 = P_pred @ C1.T @ inv(S1)
        x1 = x_pred + K1 @ (traj.ys[1] - bm.model.h(x_pred))
        assert np.linalg.norm(rec.xhat_post[1] - x1) <= 1e-9 * (1 + np.linalg.norm(x1))


class TestRunDekf:
    def test_linear_wrapped_model_reproduces_dkf_record(self, linear_bench):
        lin = linear_bench.model
        nl = aggregate_nonlinear(lin.subsystems, lin.partition)
        design = linear_bench.design
        traj = simulate(lin, LINEAR_X0, 100, noise_for(lin, 0.05, seed=9))
        rec_lin = run_dkf(lin, design, traj)
        rec_nl = run_dekf(nl, design, traj)
        assert np.array_equal(rec_lin.xhat_post, rec_nl.xhat_post)
        assert np.array_equal(rec_lin.xhat_pred, rec_nl.xhat_pred)
        for k in range(101):
            for i in range(2):
                assert np.array_equal(rec_lin.covs[k][i], rec_nl.covs[k][i])
                assert np.array_equal(rec_lin.gains[k][i], rec_nl.gains[k][i])

    def test_affine_view_is_the_wrapped_view(self, linear_bench):
        # The linear subsystems themselves and their NonlinearSubsystem
        # wrappers give the extended filter the same record.
        lin, design = linear_bench.model, linear_bench.design
        traj = simulate(lin, LINEAR_X0, 40, linear_bench.noise(seed=5))
        views = (lin.subsystems, [linear_as_nonlinear(s) for s in lin.subsystems])
        direct, wrapped = (run_dekf(aggregate_nonlinear(subs, lin.partition), design, traj)
                           for subs in views)
        assert direct.content_digest() == wrapped.content_digest()

    def test_zero_instant_trajectory_rejected(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 3, reactor_bench.noise(seed=1))
        empty = dataclasses.replace(traj, xs=traj.xs[:0], ys=traj.ys[:0], ws=traj.ws[:0],
                                    vs=traj.vs[:0])
        with pytest.raises(ValueError, match="^measurements have no instant; "
                           "the filter starts from y_0$"):
            run_dekf(reactor_bench.model, reactor_bench.design, empty)

    def test_benchmark_error_bounded_after_transient(self, reactor_run):
        bench, traj, rec = reactor_run
        err = np.linalg.norm(rec.xs - rec.xhat_post, axis=1)
        assert err[0] > 20.0          # deliberately poor initial guess
        assert np.all(err[30:] < 3.0)  # bounded once the transient settles
        assert rec.floor_events == 0

    def test_relinearization_points_recorded(self, reactor_run):
        bench, _, rec = reactor_run
        # Dynamics blocks are evaluated at posteriors, output blocks at the
        # stacked predictions (the prior guess at instant 0): linearizing
        # there afresh gives the recorded blocks bitwise.
        subs = bench.model.subsystems
        assert len(rec.a_cols) == rec.steps and len(rec.c_cols) == rec.steps + 1
        for k in range(rec.steps + 1):
            at_pred = linearize(subs, rec.xhat_pred[k], mode="analytic")
            for i in range(4):
                assert np.array_equal(at_pred.c_cols[i], rec.c_cols[k][i])
            if k < rec.steps:
                at_post = linearize(subs, rec.xhat_post[k], mode="analytic")
                for i in range(4):
                    assert np.array_equal(at_post.a_cols[i], rec.a_cols[k][i])

    def test_zero_noise_exact_prior_tracks_exactly(self, reactor_bench):
        spec = NoiseSpec(w_std=np.zeros(8), v_std=np.zeros(8), seed=0)
        traj = simulate(reactor_bench.model, reactor_bench.x0, 100, spec)
        design = EstimatorDesign(Q=reactor_bench.design.Q, R=reactor_bench.design.R,
                                 P0=reactor_bench.design.P0,
                                 x0_guess=reactor_bench.x0.copy())
        rec = run_dekf(reactor_bench.model, design, traj)
        assert np.max(np.abs(rec.xs - rec.xhat_post)) <= 1e-8

    def test_agent_order_is_irrelevant_bitwise(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 25,
                        reactor_bench.noise(seed=13))
        a = run_dekf(reactor_bench.model, reactor_bench.design, traj,
                     order=[0, 1, 2, 3])
        b = run_dekf(reactor_bench.model, reactor_bench.design, traj,
                     order=[3, 1, 0, 2])
        assert np.array_equal(a.xhat_post, b.xhat_post)
        assert np.array_equal(a.xhat_pred, b.xhat_pred)
        for k in range(26):
            for i in range(4):
                assert np.array_equal(a.covs[k][i], b.covs[k][i])

    def test_fd_mode_close_to_analytic_mode(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 30,
                        reactor_bench.noise(seed=19))
        rec_a = run_dekf(reactor_bench.model, reactor_bench.design, traj,
                         mode="analytic")
        rec_f = run_dekf(reactor_bench.model, reactor_bench.design, traj, mode="fd")
        diff = np.abs(rec_a.xhat_post - rec_f.xhat_post)
        assert np.max(diff / (1.0 + np.abs(rec_f.xhat_post))) <= 1e-4

    def test_unknown_mode_is_rejected(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 5,
                        reactor_bench.noise(seed=1))
        with pytest.raises(ValueError, match="unknown mode 'analytc'"):
            run_dekf(reactor_bench.model, reactor_bench.design, traj, mode="analytc")

    def test_raising_jacobian_provider_names_subsystem_and_instant(self, reactor_bench):
        def boom(x_i, neighbors):
            raise ZeroDivisionError("boom")

        subs = list(reactor_bench.model.subsystems)
        subs[2] = dataclasses.replace(subs[2], jac_f=boom, jacobian_check_samples=())
        model = aggregate_nonlinear(subs, reactor_bench.model.partition)
        traj = simulate(model, reactor_bench.x0, 5, reactor_bench.noise(seed=1))
        with pytest.raises(LinearizationError, match="instant 1, subsystem 2") as err:
            run_dekf(model, reactor_bench.design, traj)
        assert err.value.subsystem == 2
        assert isinstance(err.value.__cause__, LinearizationError)
        assert isinstance(err.value.__cause__.__cause__, ZeroDivisionError)


def _from_call(n, good, bad):
    """A map that behaves like ``good`` until its ``n``-th call, then like
    ``bad``."""
    calls = [0]

    def fn(*args):
        calls[0] += 1
        return bad(*args) if calls[0] >= n else good(*args)
    return fn


def _raise(*args):
    raise ZeroDivisionError("boom")


#: One broken map of reactor subsystem 2 (built from the healthy one) and the
#: instant at which the filter must stop.  None may run to completion (a
#: wrong-shaped block would be broadcast into the gains) or escape as a bare
#: error without the subsystem and the instant.
MAP_FAULTS = {
    "jac_h-one-row": (lambda s: dict(jac_h=lambda x: s.jac_h(x)[:1]), 0),
    "jac_f-own-block-1x2": (lambda s: dict(
        jac_f=lambda x, n: {**s.jac_f(x, n), 2: s.jac_f(x, n)[2][:1]}), 1),
    "jac_f-undeclared-neighbor": (lambda s: dict(
        jac_f=lambda x, n: {**s.jac_f(x, n), 3: np.zeros((2, 2))}), 1),
    "jac_f-no-own-block": (lambda s: dict(
        jac_f=lambda x, n: {l: b for l, b in s.jac_f(x, n).items() if l != 2}), 1),
    "f-nan-from-6th-call": (lambda s: dict(
        f=_from_call(6, s.f, lambda x, n: np.full(2, np.nan))), 6),
    "h-raises-from-4th-call": (lambda s: dict(h=_from_call(4, s.h, _raise)), 3),
    "h-one-value-for-two": (lambda s: dict(h=lambda x: s.h(x)[:1]), 0),
}


@pytest.mark.parametrize("fault", MAP_FAULTS.values(), ids=MAP_FAULTS.keys())
def test_broken_map_names_subsystem_and_instant(reactor_bench, fault):
    make, k = fault
    traj = simulate(reactor_bench.model, reactor_bench.x0, 10, reactor_bench.noise(seed=3))
    subs = list(reactor_bench.model.subsystems)
    subs[2] = dataclasses.replace(subs[2], jacobian_check_samples=(), **make(subs[2]))
    model = aggregate_nonlinear(subs, reactor_bench.model.partition)
    with pytest.raises(LinearizationError) as err:
        run_dekf(model, reactor_bench.design, traj)
    assert err.value.subsystem == 2
    assert str(err.value).startswith(f"instant {k}, subsystem 2: ")


class TestMeasurementChecks:
    @pytest.mark.parametrize("field, rows, cols", [
        ("xs", 11, "nx-1"), ("ws", 11, "nx"), ("ws", 9, "nx"), ("vs", 0, "ny"), ("vs", 12, "ny")])
    def test_trajectory_arrays_need_one_row_per_instant(self, reactor_bench, field, rows, cols):
        # Accepted, the filter copied wrong-length noises into its record.
        model = reactor_bench.model
        traj = simulate(model, reactor_bench.x0, 10, reactor_bench.noise(seed=1))
        want = {"xs": (11, model.nx), "ws": (10, model.nx), "vs": (11, model.ny)}[field]
        shape = (rows, {"nx-1": model.nx - 1, "nx": model.nx, "ny": model.ny}[cols])
        bad = dataclasses.replace(traj, **{field: np.zeros(shape)})
        with pytest.raises(ValueError, match=re.escape(
                f"trajectory {field} has shape {shape}, expected {want}")):
            run_dekf(model, reactor_bench.design, bad)

    def test_wrong_measurement_shape_is_rejected(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 10,
                        reactor_bench.noise(seed=1))
        bad = dataclasses.replace(traj, ys=traj.ys[:, :-1])
        with pytest.raises(ValueError, match="measurements have shape"):
            run_dekf(reactor_bench.model, reactor_bench.design, bad)

    def test_non_finite_measurement_names_instant_and_subsystems(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 10,
                        reactor_bench.noise(seed=1))
        ys = traj.ys.copy()
        ys[6, 3] = np.nan
        ys[6, 6] = -np.inf
        with pytest.raises(FilterError, match=r"instant 6 .*subsystems \[1, 3\]"):
            run_dekf(reactor_bench.model, reactor_bench.design,
                     dataclasses.replace(traj, ys=ys))


class TestStepReplay:
    def test_step_functions_reproduce_run_dekf_bitwise(self, reactor_bench):
        # init_update, dekf_predict, dekf_gain_cov and dekf_update chained by
        # hand with the subsystems' own Jacobian providers give exactly the
        # engine's posteriors and covariances.
        model, design = reactor_bench.model, reactor_bench.design
        traj = simulate(model, reactor_bench.x0, 30, reactor_bench.noise(seed=11))
        rec = run_dekf(model, design, traj)
        p = model.partition
        subs = model.subsystems

        def c_cols_at(points):
            cols = [np.zeros((p.ny, d)) for d in p.dims]
            for i, sub in enumerate(subs):
                cols[i][p.out_slice(i)] = sub.jac_h(points[i])
            return cols

        guess = p.split_state(design.x0_guess)
        c_cols = c_cols_at(guess)
        innovation = traj.ys[0] - model.h(design.x0_guess)
        post, covs = [], []
        for i in range(p.n):
            x_i, P, _ = init_update(design.P0[i], c_cols[i], design.R, guess[i], innovation)
            post.append(x_i)
            covs.append(P)
        assert np.array_equal(np.concatenate(post), rec.xhat_post[0])
        for k in range(1, 31):
            rows = [subs[l].jac_f(post[l], {m: post[m] for m in subs[l].neighbors})
                    for l in range(p.n)]
            a_cols = [np.zeros((p.nx, d)) for d in p.dims]
            for l in range(p.n):
                for i, blk in rows[l].items():
                    a_cols[i][p.state_slice(l)] = blk
            phase1 = ExchangeSnapshot(k=k, posteriors=tuple(post))
            preds = [dekf_predict(i, phase1, model) for i in range(p.n)]
            c_cols = c_cols_at(preds)
            C_k = np.hstack(c_cols)
            phase2 = ExchangeSnapshot(k=k, posteriors=tuple(post), predictions=tuple(preds),
                                      measurement=traj.ys[k])
            gc = [dekf_gain_cov(covs[i], a_cols[i], rows[i][i], C_k, c_cols[i],
                                design.Q[i], design.R) for i in range(p.n)]
            assert not any(floored for _, _, floored in gc)
            post = [dekf_update(i, preds[i], phase2, gc[i][0], model) for i in range(p.n)]
            covs = [P for _, P, _ in gc]
            assert np.array_equal(np.concatenate(post), rec.xhat_post[k])
            for i in range(p.n):
                assert np.array_equal(covs[i], rec.covs[k][i])
