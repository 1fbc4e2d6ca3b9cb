import dataclasses

import numpy as np
import pytest

from partkf.benchmarks import LINEAR_A, LINEAR_GUESS, LINEAR_X0, get_benchmark, linear_subsystems
import partkf.dkf
from partkf.dkf import (
    CovarianceCollapseError,
    EstimatorDesign,
    EstimatorState,
    ExchangeSnapshot,
    FilterError,
    gain_and_covariance,
    init_states,
    predict,
    run_dkf,
    update,
)
from partkf.fie import centralized_kf_init, centralized_kf_step
from partkf.model import LinearSubsystem, assemble_global, make_partition
from partkf.simulate import simulate

from conftest import noise_for


def four_state_model():
    return assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))


def unit_design():
    return EstimatorDesign(Q=(np.eye(2), np.eye(2)), R=np.eye(2),
                           P0=(100.0 * np.eye(2), 100.0 * np.eye(2)),
                           x0_guess=LINEAR_GUESS)


def local_gain_cov(i, P, model, design):
    """``gain_and_covariance`` with subsystem ``i``'s constant blocks."""
    return gain_and_covariance(P, model.a_col(i), model.subsystems[i].A, model.C,
                               model.c_col(i), design.Q[i], design.R)


def identity_model(n=2):
    part = make_partition([n, n], [n, n])
    subs = [LinearSubsystem(i, np.eye(n), {}, np.eye(n), np.eye(n), np.eye(n))
            for i in range(2)]
    return assemble_global(subs, part)


class TestPredict:
    def test_identity_dynamics_without_coupling(self):
        model = identity_model()
        snap = ExchangeSnapshot(k=1, posteriors=(np.array([1.0, 2.0]),
                                                 np.array([3.0, 4.0])))
        assert np.array_equal(predict(0, snap, model), [1.0, 2.0])
        assert np.array_equal(predict(1, snap, model), [3.0, 4.0])

    def test_first_subsystem_prediction_is_matrix_product_block(self):
        model = four_state_model()
        snap = ExchangeSnapshot(k=1, posteriors=(LINEAR_X0[:2], LINEAR_X0[2:]))
        want = (LINEAR_A @ LINEAR_X0)[:2]
        got = predict(0, snap, model)
        assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_single_partition_reduces_to_global_product(self):
        model = four_state_model()
        sub = LinearSubsystem(0, model.A, {}, model.C, np.eye(4), np.eye(2))
        mono = assemble_global([sub], make_partition([4], [2]))
        snap = ExchangeSnapshot(k=1, posteriors=(LINEAR_X0,))
        assert np.array_equal(predict(0, snap, mono), model.A @ LINEAR_X0)

    def test_missing_neighbor_posterior(self):
        model = four_state_model()
        snap = ExchangeSnapshot(k=1, posteriors=(LINEAR_X0[:2], None))
        with pytest.raises(FilterError, match="neighbor"):
            predict(0, snap, model)


class TestGain:
    def test_single_partition_equals_standard_kalman_gain(self):
        model = four_state_model()
        sub = LinearSubsystem(0, model.A, {}, model.C, np.eye(4), np.eye(2))
        mono = assemble_global([sub], make_partition([4], [2]))
        design = EstimatorDesign.from_model(mono, P0=[100.0 * np.eye(4)],
                                            x0_guess=LINEAR_GUESS)
        rng = np.random.default_rng(0)
        M = rng.normal(size=(4, 4))
        P = M @ M.T + np.eye(4)
        L, _ = local_gain_cov(0, P, mono, design)
        P_pred = model.A @ P @ model.A.T + np.eye(4)
        S = model.C @ P_pred @ model.C.T + np.eye(2)
        L_std = P_pred @ model.C.T @ np.linalg.inv(S)
        assert np.allclose(L, L_std, rtol=0, atol=1e-10)

    def test_zero_output_matrix_gives_zero_gain(self):
        part = make_partition([2, 2], [1, 1])
        subs = [LinearSubsystem(i, 0.5 * np.eye(2), {}, np.zeros((1, 2)),
                                np.eye(2), np.eye(1)) for i in range(2)]
        model = assemble_global(subs, part)
        design = EstimatorDesign.from_model(model, P0=[np.eye(2)] * 2,
                                            x0_guess=np.zeros(4))
        L, _ = local_gain_cov(0, np.eye(2), model, design)
        assert np.array_equal(L, np.zeros((2, 2)))

    def test_first_instant_gain_matches_independent_formula(self):
        # Coefficient of the first post-initialization update, written out
        # with plain inverses.
        model = four_state_model()
        design = unit_design()
        traj = simulate(model, LINEAR_X0, 1, noise_for(model, 1.0, seed=1))
        states = init_states(model, design, traj.ys[0])
        i = 0
        L, _ = local_gain_cov(i, states[i].cov, model, design)
        inv = np.linalg.inv
        P = states[i].cov
        a_col = model.A[:, :2]
        c_col = model.C[:, :2]
        A_ii = model.A[:2, :2]
        Z = model.C @ a_col @ P @ A_ii.T + c_col @ design.Q[i]
        M = (model.C @ a_col @ P @ a_col.T @ model.C.T
             + c_col @ design.Q[i] @ c_col.T + design.R)
        assert np.allclose(L, Z.T @ inv(M), rtol=0, atol=1e-12)


class TestUpdate:
    def test_zero_gain_keeps_prediction(self):
        model = four_state_model()
        preds = (np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=np.array([10.0, -10.0]))
        out = update(0, preds[0], snap, np.zeros((2, 2)), model)
        assert np.array_equal(out, preds[0])

    def test_zero_innovation_keeps_prediction(self):
        model = four_state_model()
        preds = (LINEAR_X0[:2], LINEAR_X0[2:])
        y = model.C @ LINEAR_X0
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=y)
        L = np.ones((2, 2))
        assert np.array_equal(update(0, preds[0], snap, L, model), preds[0])

    def test_exact_start_zero_noise_tracks_truth(self):
        model = four_state_model()
        design = EstimatorDesign(Q=(np.eye(2),) * 2, R=np.eye(2),
                                 P0=(100.0 * np.eye(2),) * 2, x0_guess=LINEAR_X0)
        traj = simulate(model, LINEAR_X0, 1, noise_for(model, 0.0, seed=0))
        states = init_states(model, design, traj.ys[0])
        post0 = np.concatenate([s.xhat for s in states])
        assert np.allclose(post0, LINEAR_X0, rtol=0, atol=1e-12)
        post1 = run_dkf(model, design, traj).xhat_post[1]
        # Innovation is zero, so the posterior equals the exact prediction.
        assert np.allclose(post1, traj.xs[1], rtol=0, atol=1e-10)

    def test_missing_measurement(self):
        model = four_state_model()
        preds = (LINEAR_X0[:2], LINEAR_X0[2:])
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds)
        with pytest.raises(FilterError):
            update(0, preds[0], snap, np.zeros((2, 2)), model)


class TestCovariance:
    def test_zero_gain_gives_open_loop_recursion(self):
        part = make_partition([2, 2], [1, 1])
        subs = [LinearSubsystem(i, 0.5 * np.eye(2), {}, np.zeros((1, 2)),
                                np.eye(2), np.eye(1)) for i in range(2)]
        model = assemble_global(subs, part)
        design = EstimatorDesign.from_model(model, P0=[np.eye(2)] * 2,
                                            x0_guess=np.zeros(4))
        P = np.diag([2.0, 3.0])
        L, P_new = local_gain_cov(0, P, model, design)
        assert np.array_equal(L, np.zeros((2, 2)))
        assert np.allclose(P_new, 0.25 * P + np.eye(2), rtol=0, atol=1e-14)

    def test_single_partition_matches_standard_kf_over_50_steps(self):
        model = four_state_model()
        sub = LinearSubsystem(0, model.A, {}, model.C, np.eye(4), np.eye(2))
        mono = assemble_global([sub], make_partition([4], [2]))
        design = EstimatorDesign.from_model(mono, P0=[100.0 * np.eye(4)],
                                            x0_guess=LINEAR_GUESS)
        traj = simulate(mono, LINEAR_X0, 50, noise_for(mono, 1.0, seed=3))
        rec = run_dkf(mono, design, traj)
        x, P = centralized_kf_init(LINEAR_GUESS, 100.0 * np.eye(4), traj.ys[0], mono)
        for k in range(1, 51):
            x, P = centralized_kf_step(x, P, traj.ys[k], mono)
            diff = np.linalg.norm(rec.covs[k][0] - P) / max(1.0, np.linalg.norm(P))
            assert diff <= 1e-10

    def test_covariance_stays_spd_for_1000_steps(self):
        model = four_state_model()
        design = unit_design()
        traj = simulate(model, LINEAR_X0, 1000, noise_for(model, 1.0, seed=4))
        rec = run_dkf(model, design, traj)
        for k in range(0, 1001, 50):
            for i in range(2):
                np.linalg.cholesky(rec.covs[k][i])
                assert np.allclose(rec.covs[k][i], rec.covs[k][i].T)

    def test_closed_loop_form_identity(self):
        # P+ = F P F' + (I - L C_col) Q (I - L C_col)' + L R L'
        # with F = A_ii - L C A_col is algebraically identical to the
        # one-sided update formula.
        model = four_state_model()
        design = unit_design()
        rng = np.random.default_rng(5)
        M = rng.normal(size=(2, 2))
        P = M @ M.T + 0.5 * np.eye(2)
        i = 0
        L, P_new = local_gain_cov(i, P, model, design)
        a_col = model.A[:, :2]
        c_col = model.C[:, :2]
        A_ii = model.A[:2, :2]
        F = A_ii - L @ model.C @ a_col
        H = np.eye(2) - L @ c_col
        joseph = F @ P @ F.T + H @ design.Q[i] @ H.T + L @ design.R @ L.T
        assert np.allclose(P_new, joseph, rtol=0, atol=1e-11)

    def test_collapse_detected_with_corrupted_gain(self, monkeypatch):
        # The engine looks the gain computation up at call time; a 100x gain
        # with the covariance formula evaluated at that gain must abort the
        # run with the subsystem and the instant.
        model = four_state_model()
        design = unit_design()
        exact = gain_and_covariance

        def corrupted(P, a_col, a_ii, C, c_col, Q_i, R):
            L = 100.0 * exact(P, a_col, a_ii, C, c_col, Q_i, R)[0]
            Z = C @ a_col @ P @ a_ii.T + c_col @ Q_i
            P_new = a_ii @ P @ a_ii.T + Q_i - L @ Z
            return L, 0.5 * (P_new + P_new.T)

        monkeypatch.setattr(partkf.dkf, "gain_and_covariance", corrupted)
        traj = simulate(model, LINEAR_X0, 3, noise_for(model, 1.0, seed=4))
        with pytest.raises(CovarianceCollapseError) as info:
            run_dkf(model, design, traj)
        assert (info.value.subsystem, info.value.k) == (0, 1)


class TestDkfStep:
    def test_rmse_decreases_from_initial_error(self, linear_bench):
        traj = simulate(linear_bench.model, linear_bench.x0, 50,
                        linear_bench.noise(seed=1))
        rec = run_dkf(linear_bench.model, linear_bench.design, traj)
        assert rec.rmse[50] < np.sqrt(np.sum((LINEAR_GUESS - LINEAR_X0) ** 2) / 4)

    def test_single_partition_trajectory_matches_centralized(self):
        model = four_state_model()
        sub = LinearSubsystem(0, model.A, {}, model.C, np.eye(4), np.eye(2))
        mono = assemble_global([sub], make_partition([4], [2]))
        design = EstimatorDesign.from_model(mono, P0=[100.0 * np.eye(4)],
                                            x0_guess=LINEAR_GUESS)
        traj = simulate(mono, LINEAR_X0, 30, noise_for(mono, 1.0, seed=6))
        rec = run_dkf(mono, design, traj)
        x, P = centralized_kf_init(LINEAR_GUESS, 100.0 * np.eye(4), traj.ys[0], mono)
        assert np.allclose(rec.xhat_post[0], x, rtol=0, atol=1e-10)
        for k in range(1, 31):
            x, P = centralized_kf_step(x, P, traj.ys[k], mono)
            assert np.linalg.norm(rec.xhat_post[k] - x) <= 1e-10 * (1 + np.linalg.norm(x))

    def test_update_order_is_irrelevant_bitwise(self):
        model = four_state_model()
        design = unit_design()
        traj = simulate(model, LINEAR_X0, 20, noise_for(model, 1.0, seed=7))
        forward = run_dkf(model, design, traj, order=[0, 1])
        backward = run_dkf(model, design, traj, order=[1, 0])
        assert np.array_equal(forward.xhat_post, backward.xhat_post)
        assert np.array_equal(forward.xhat_pred, backward.xhat_pred)
        for k in range(21):
            for i in range(2):
                assert np.array_equal(forward.covs[k][i], backward.covs[k][i])
                assert np.array_equal(forward.gains[k][i], backward.gains[k][i])

    def test_states_advance_with_consistent_index(self):
        model = four_state_model()
        design = unit_design()
        traj = simulate(model, LINEAR_X0, 2, noise_for(model, 1.0, seed=8))
        states = init_states(model, design, traj.ys[0])
        assert all(s.k == 0 for s in states)
        assert [s.index for s in states] == [0, 1]
        rec = run_dkf(model, design, traj)
        # One entry per instant, one block per subsystem, instant 0 is the
        # initial update.
        assert len(rec.covs) == len(rec.gains) == len(rec.c_cols) == 3
        assert len(rec.a_cols) == 2
        assert all(len(per_k) == 2 for per_k in rec.covs + rec.gains)
        for i in range(2):
            assert np.array_equal(rec.covs[0][i], states[i].cov)
            assert np.array_equal(rec.gains[0][i], states[i].gain)


class TestInitStates:
    def test_information_form_matches_gain_form(self):
        model = four_state_model()
        design = unit_design()
        y0 = np.array([0.3, -0.7])
        states = init_states(model, design, y0)
        # Gain form per subsystem: K = P0 c' (c P0 c' + R)^-1.
        for i, sl in ((0, slice(0, 2)), (1, slice(2, 4))):
            c_col = model.C[:, sl]
            P0 = design.P0[i]
            S = c_col @ P0 @ c_col.T + design.R
            K = P0 @ c_col.T @ np.linalg.inv(S)
            innovation = y0 - model.C @ design.x0_guess
            want_x = design.x0_guess[sl] + K @ innovation
            want_P = (np.eye(2) - K @ c_col) @ P0
            assert np.allclose(states[i].xhat, want_x, rtol=0, atol=1e-9)
            assert np.allclose(states[i].cov, want_P, rtol=0, atol=1e-9)


class TestMeasurementChecks:
    def test_wrong_measurement_shape_is_rejected(self, linear_bench):
        traj = simulate(linear_bench.model, linear_bench.x0, 10,
                        linear_bench.noise(seed=1))
        bad = dataclasses.replace(traj, ys=traj.ys[:, :-1])
        with pytest.raises(ValueError, match="measurements have shape"):
            run_dkf(linear_bench.model, linear_bench.design, bad)

    def test_non_finite_measurement_names_instant_and_subsystem(self, linear_bench):
        traj = simulate(linear_bench.model, linear_bench.x0, 10,
                        linear_bench.noise(seed=1))
        ys = traj.ys.copy()
        ys[5, 1] = np.nan
        ys[7, 0] = np.inf
        with pytest.raises(FilterError, match=r"instant 5 .*subsystems \[1\]"):
            run_dkf(linear_bench.model, linear_bench.design,
                    dataclasses.replace(traj, ys=ys))


class TestStepReplay:
    def test_step_functions_reproduce_run_dkf_bitwise(self, linear_bench):
        # The public step functions, chained by hand, give exactly the
        # engine's posteriors and covariances.
        model, design = linear_bench.model, linear_bench.design
        traj = simulate(model, linear_bench.x0, 40, linear_bench.noise(seed=3))
        rec = run_dkf(model, design, traj)
        n = model.partition.n
        states = init_states(model, design, traj.ys[0])
        assert np.array_equal(np.concatenate([s.xhat for s in states]), rec.xhat_post[0])
        for k in range(1, 41):
            posteriors = tuple(s.xhat for s in states)
            phase1 = ExchangeSnapshot(k=k, posteriors=posteriors)
            preds = [predict(i, phase1, model) for i in range(n)]
            gc = [local_gain_cov(i, states[i].cov, model, design) for i in range(n)]
            phase2 = ExchangeSnapshot(k=k, posteriors=posteriors, predictions=tuple(preds),
                                      measurement=traj.ys[k])
            states = [EstimatorState(i, update(i, preds[i], phase2, gc[i][0], model),
                                     gc[i][1], gc[i][0], k) for i in range(n)]
            assert np.array_equal(np.concatenate([s.xhat for s in states]),
                                  rec.xhat_post[k])
            for i in range(n):
                assert np.array_equal(states[i].cov, rec.covs[k][i])
