import dataclasses
import re

import numpy as np
import pytest

from partkf.benchmarks import LINEAR_GUESS, LINEAR_X0
from partkf.dkf import run_dkf
from partkf.fie import (
    FIEProblem,
    _kkt,
    centralized_fie,
    classical_ekf_init,
    classical_ekf_step,
    local_fie,
    local_objective,
    run_dfie,
)
from partkf.model import LinearSubsystem, assemble_global, make_partition
from partkf.simulate import simulate

from conftest import noise_for


def plant_maps(model):
    """A linear plant's maps and Jacobians ``(f, h, jac_f, jac_h)`` as the
    EKF oracle reads them.  The Jacobians are the constant ``A`` and ``C``,
    so the oracle on these maps is the standard Kalman filter."""
    return model.f, model.h, (lambda x: model.A), (lambda x: model.C)


def local_problem(model, design, i, ys, history):
    """The local batch problem of subsystem ``i`` under ``design``."""
    return FIEProblem(model=model, subsystem=i, ys=ys, prior_mean=design.x0_guess,
                      prior_cov=design.P0[i], Q=design.Q[i], R=design.R, history=history)


class TestCentralizedFIE:
    def test_measurement_dominates_prior_at_k0(self):
        # Full-rank observation with a tiny weight pulls the estimate to y_0.
        part = make_partition([2], [2])
        sub = LinearSubsystem(0, 0.5 * np.eye(2), {}, np.eye(2),
                              np.eye(2), 1e-8 * np.eye(2))
        model = assemble_global([sub], part)
        y0 = np.array([3.0, -1.0])
        sol = centralized_fie(model, np.array([10.0, 10.0]), np.eye(2),
                              y0[None, :])
        assert np.allclose(sol.terminal, y0, atol=1e-6)

    def test_zero_noise_consistent_data_recovered_exactly(self, linear_bench):
        model = linear_bench.model
        traj = simulate(model, LINEAR_X0, 4, noise_for(model, 0.0, seed=0))
        sol = centralized_fie(model, LINEAR_X0, 100.0 * np.eye(4), traj.ys,
                              Q=np.eye(4), R=np.eye(2))
        for j in range(5):
            assert np.allclose(sol.states[j], traj.xs[j], rtol=0, atol=1e-8)
        assert sol.objective <= 1e-16

    def test_terminal_matches_standard_kalman_filter_k3(self, linear_bench):
        model = linear_bench.model
        traj = simulate(model, LINEAR_X0, 3, noise_for(model, 1.0, seed=1))
        sol = centralized_fie(model, LINEAR_GUESS, 100.0 * np.eye(4), traj.ys,
                              Q=np.eye(4), R=np.eye(2))
        f, h, jac_f, jac_h = plant_maps(model)
        x, P = classical_ekf_init(LINEAR_GUESS, 100.0 * np.eye(4), traj.ys[0],
                                  h, jac_h, R=np.eye(2))
        for k in range(1, 4):
            x, P = classical_ekf_step(x, P, traj.ys[k], f, h, jac_f, jac_h,
                                      Q=np.eye(4), R=np.eye(2))
        assert np.linalg.norm(sol.terminal - x) <= 1e-10 * (1 + np.linalg.norm(x))


class TestLocalFIE:
    @pytest.fixture
    def inputs(self, linear_bench, unit_weight_design):
        """``inputs(steps, seed)``: the model, the unit design, a trajectory
        and the filter's record of it."""
        def make(steps, seed=1):
            model = linear_bench.model
            traj = simulate(model, LINEAR_X0, steps, noise_for(model, 1.0, seed=seed))
            return model, unit_weight_design, traj, run_dkf(model, unit_weight_design, traj)
        return make

    def test_k1_solution_satisfies_hand_built_kkt(self, inputs):
        # Independent transcription of the horizon-1 stationarity system:
        # variables [x0, lam0, v0, pi0, w0, x1, lam1, v1].
        model, design, traj, rec = inputs(1)
        p = model.partition
        i = 0
        prob = local_problem(model, design, i, traj.ys[:2], rec.xhat_post[:1])
        sol = local_fie(prob)

        A_ii = model.A[:2, :2]
        A_il = model.A[:2, 2:]
        c_col = model.C[:, :2]
        c_other = model.C[:, 2:]
        A_li = model.A[2:, :2]      # neighbor block acting on subsystem 0
        A_ll = model.A[2:, 2:]
        G = c_other @ A_li
        P0inv = np.linalg.inv(design.P0[i])
        Qinv = np.linalg.inv(design.Q[i])
        Rinv = np.linalg.inv(design.R)
        I2 = np.eye(2)
        Z = np.zeros((2, 2))

        K = np.block([
            [P0inv, c_col.T, Z, A_ii.T, Z, Z, G.T, Z],
            [c_col, Z, I2, Z, Z, Z, Z, Z],
            [Z, I2, Rinv, Z, Z, Z, Z, Z],
            [A_ii, Z, Z, Z, I2, -I2, Z, Z],
            [Z, Z, Z, I2, Qinv, Z, Z, Z],
            [Z, Z, Z, -I2, Z, Z, c_col.T, Z],
            [G, Z, Z, Z, Z, c_col, Z, I2],
            [Z, Z, Z, Z, Z, Z, I2, Rinv],
        ])
        xhat_00_nb = rec.xhat_post[0, 2:]
        rhs = np.concatenate([
            P0inv @ design.x0_guess[:2],
            traj.ys[0] - c_other @ design.x0_guess[2:],
            np.zeros(2),
            -A_il @ xhat_00_nb,
            np.zeros(2),
            np.zeros(2),
            traj.ys[1] - c_other @ (A_ll @ xhat_00_nb),
            np.zeros(2),
        ])
        z = np.concatenate([sol.states[0], sol.lam[0], sol.v[0], sol.pi[0],
                            sol.w[0], sol.states[1], sol.lam[1], sol.v[1]])
        residual = np.linalg.norm(K @ z - rhs)
        assert residual < 1e-10

    def test_single_partition_equals_centralized(self, linear_bench):
        model = linear_bench.model
        part = make_partition([4], [2])
        sub = LinearSubsystem(0, model.A, {}, model.C, np.eye(4), np.eye(2))
        mono = assemble_global([sub], part)
        traj = simulate(mono, LINEAR_X0, 4, noise_for(mono, 1.0, seed=2))
        prob = FIEProblem(model=mono, subsystem=0, ys=traj.ys, prior_mean=LINEAR_GUESS,
                          prior_cov=100.0 * np.eye(4), Q=np.eye(4), R=np.eye(2),
                          history=np.zeros((4, 4)))
        sol_local = local_fie(prob)
        sol_central = centralized_fie(mono, LINEAR_GUESS, 100.0 * np.eye(4),
                                      traj.ys, Q=np.eye(4), R=np.eye(2))
        assert np.allclose(sol_local.states, sol_central.states, rtol=0, atol=1e-10)

    def test_k2_terminal_equals_closed_form_recursion(self, inputs):
        # The two-step recursion written out independently with plain inverses.
        model, design, traj, _ = inputs(2, seed=3)
        p = model.partition
        inv = np.linalg.inv
        C = model.C
        post0, post1, L_all = {}, {}, {}
        P_00, P_11 = {}, {}
        innovation0 = traj.ys[0] - C @ design.x0_guess
        for i in range(2):
            sl = p.state_slice(i)
            c_col = C[:, sl]
            P_post = inv(inv(design.P0[i]) + c_col.T @ inv(design.R) @ c_col)
            post0[i] = design.x0_guess[sl] + P_post @ c_col.T @ inv(design.R) @ innovation0
            P_00[i] = P_post
        pred1 = {}
        for i in range(2):
            sub = model.subsystems[i]
            pred1[i] = sub.A @ post0[i] + sum(b @ post0[l] for l, b in sub.coupling.items())
        stacked_pred1 = np.concatenate([pred1[0], pred1[1]])
        for i in range(2):
            sl = p.state_slice(i)
            sub = model.subsystems[i]
            a_col = model.A[:, sl]
            c_col = C[:, sl]
            Zm = C @ a_col @ P_00[i] @ sub.A.T + c_col @ design.Q[i]
            M = (C @ a_col @ P_00[i] @ a_col.T @ C.T
                 + c_col @ design.Q[i] @ c_col.T + design.R)
            L = Zm.T @ inv(M)
            post1[i] = pred1[i] + L @ (traj.ys[1] - C @ stacked_pred1)
            P_11[i] = sub.A @ P_00[i] @ sub.A.T + design.Q[i] - L @ Zm
        pred2 = {}
        for i in range(2):
            sub = model.subsystems[i]
            pred2[i] = sub.A @ post1[i] + sum(b @ post1[l] for l, b in sub.coupling.items())
        stacked_pred2 = np.concatenate([pred2[0], pred2[1]])
        closed_form = {}
        for i in range(2):
            sl = p.state_slice(i)
            sub = model.subsystems[i]
            a_col = model.A[:, sl]
            c_col = C[:, sl]
            Zm = C @ a_col @ P_11[i] @ sub.A.T + c_col @ design.Q[i]
            M = (C @ a_col @ P_11[i] @ a_col.T @ C.T
                 + c_col @ design.Q[i] @ c_col.T + design.R)
            closed_form[i] = pred2[i] + Zm.T @ inv(M) @ (traj.ys[2] - C @ stacked_pred2)

        history = np.vstack([np.concatenate([post0[0], post0[1]]),
                             np.concatenate([post1[0], post1[1]])])
        for i in range(2):
            sol = local_fie(local_problem(model, design, i, traj.ys[:3], history))
            diff = np.linalg.norm(sol.terminal - closed_form[i])
            assert diff <= 1e-10 * (1 + np.linalg.norm(closed_form[i]))

    def test_history_of_the_wrong_shape_rejected(self, inputs):
        model, design, traj, rec = inputs(2)
        prob = local_problem(model, design, 0, traj.ys[:3], rec.xhat_post[:1])
        with pytest.raises(ValueError, match=r"^history has shape \(1, 4\), "
                           r"expected \(2, 4\)$"):
            local_fie(prob)

    def test_empty_measurement_history_rejected(self, inputs):
        # Accepted, the expected history shape would be (-1, 4).
        model, design, traj, rec = inputs(2)
        prob = local_problem(model, design, 0, traj.ys[:0], rec.xhat_post[:0])
        with pytest.raises(ValueError, match="^ys has no instant; the problem starts at y_0$"):
            local_fie(prob)
        with pytest.raises(ValueError, match="^ys has no instant; the problem starts at y_0$"):
            centralized_fie(model, design.x0_guess, 100.0 * np.eye(4), traj.ys[:0])

    def test_scalar_measurement_history_rejected(self, inputs):
        # Accepted, reading the horizon raised a bare IndexError.
        model, design, traj, rec = inputs(2)
        prob = local_problem(model, design, 0, np.float64(1.0), rec.xhat_post[:0])
        with pytest.raises(ValueError, match=r"^ys has shape \(\), expected \(k\+1, 2\)$"):
            local_fie(prob)
        with pytest.raises(ValueError, match=r"^ys has shape \(\), expected \(k\+1, 2\)$"):
            centralized_fie(model, design.x0_guess, 100.0 * np.eye(4), np.float64(1.0))

    def test_own_block_of_history_is_not_read(self, inputs):
        model, design, traj, rec = inputs(4, seed=2)
        rng = np.random.default_rng(0)
        for i in range(2):
            history = rec.xhat_post[:4].copy()
            sol = local_fie(local_problem(model, design, i, traj.ys, history))
            history[:, model.partition.state_slice(i)] = rng.normal(size=(4, 2))
            other = local_fie(local_problem(model, design, i, traj.ys, history))
            for field in dataclasses.fields(sol):
                assert np.array_equal(getattr(sol, field.name), getattr(other, field.name))

    @pytest.mark.parametrize("field, at, message", [
        ("ys", (3, 1), "ys at instant 3 is not finite in the outputs of subsystems [1]"),
        ("prior_mean", (0,), "prior_mean at instant 0 is not finite in the states of "
                             "subsystems [0]"),
        ("history", (2, 3), "history at instant 2 is not finite in the states of "
                            "subsystems [1]"),
    ], ids=["ys", "prior_mean", "history"])
    def test_non_finite_input_names_field_instant_and_subsystems(self, inputs, field,
                                                                 at, message):
        model, design, traj, rec = inputs(3)
        values = {"ys": traj.ys.copy(), "prior_mean": design.x0_guess.copy(),
                  "history": rec.xhat_post[:3].copy()}
        values[field][at] = np.nan if field == "ys" else np.inf
        prob = FIEProblem(model=model, subsystem=0, prior_cov=design.P0[0], Q=design.Q[0],
                          R=design.R, **values)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            local_fie(prob)

    def test_kkt_residual_small(self, inputs):
        model, design, traj, rec = inputs(5, seed=4)
        for i in range(2):
            sol = local_fie(local_problem(model, design, i, traj.ys, rec.xhat_post[:5]))
            assert sol.kkt_residual < 1e-10 * (1.0 + np.linalg.norm(traj.ys))

    def test_objective_minimality_against_feasible_perturbations(self, inputs):
        model, design, traj, rec = inputs(3, seed=5)
        prob = local_problem(model, design, 0, traj.ys, rec.xhat_post[:3])
        sol = local_fie(prob)
        value_opt, states = local_objective(prob, sol.states[0], sol.w)
        assert np.allclose(states, sol.states, rtol=0, atol=1e-9)
        assert value_opt == pytest.approx(sol.objective, rel=1e-8)
        rng = np.random.default_rng(0)
        for _ in range(100):
            dx = rng.normal(scale=0.3, size=2)
            dw = rng.normal(scale=0.3, size=sol.w.shape)
            value, _ = local_objective(prob, sol.states[0] + dx, sol.w + dw)
            assert value >= value_opt - 1e-12


class TestKKTStructure:
    def test_assembled_system_is_symmetric(self, linear_bench, unit_weight_design):
        model = linear_bench.model
        design = unit_weight_design
        traj = simulate(model, LINEAR_X0, 3, noise_for(model, 1.0, seed=9))
        rec = run_dkf(model, design, traj)
        K, rhs, _, _ = _kkt(local_problem(model, design, 1, traj.ys, rec.xhat_post[:3]))
        assert np.array_equal(K, K.T)

    def test_semidefinite_prior_rejected(self, linear_bench):
        from partkf.fie import OracleError
        model = linear_bench.model
        traj = simulate(model, LINEAR_X0, 2, noise_for(model, 1.0, seed=9))
        singular_prior = np.diag([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(OracleError):
            centralized_fie(model, LINEAR_GUESS, singular_prior, traj.ys,
                            Q=np.eye(4), R=np.eye(2))


class TestDistributedFIEEquivalence:
    def test_self_consistent_mode_matches_recorded_history_mode(self, linear_bench,
                                                                unit_weight_design):
        model = linear_bench.model
        design = unit_weight_design
        traj = simulate(model, LINEAR_X0, 4, noise_for(model, 1.0, seed=6))
        rec = run_dkf(model, design, traj)
        with_history = run_dfie(model, design, traj.ys, 4, history=rec.xhat_post)
        standalone = run_dfie(model, design, traj.ys, 4)
        assert np.allclose(with_history.terminals, standalone.terminals,
                           rtol=0, atol=1e-10)

    def test_negative_steps_rejected(self, linear_bench, unit_weight_design):
        # Accepted, an empty run made every comparison over it pass.
        traj = simulate(linear_bench.model, LINEAR_X0, 2, noise_for(linear_bench.model, 1.0,
                                                                    seed=6))
        with pytest.raises(ValueError, match="^steps must be at least 0, got -1$"):
            run_dfie(linear_bench.model, unit_weight_design, traj.ys, -1)

    @pytest.mark.parametrize("steps", [2.5, True, "2"], ids=repr)
    def test_non_integer_steps_rejected_by_name(self, linear_bench, unit_weight_design,
                                                steps):
        # Accepted, 2.5 raised a bare TypeError from np.zeros.
        traj = simulate(linear_bench.model, LINEAR_X0, 2, noise_for(linear_bench.model, 1.0,
                                                                    seed=6))
        with pytest.raises(ValueError, match=re.escape(
                f"steps must be an integer, not {steps!r}")):
            run_dfie(linear_bench.model, unit_weight_design, traj.ys, steps)

    @pytest.mark.parametrize("ys", [np.float64(1.0), np.ones(2)], ids=["0-d", "1-d"])
    def test_measurements_without_instant_rows_rejected_by_name(self, linear_bench,
                                                                unit_weight_design, ys):
        # Accepted, a 0-d ys raised a bare IndexError reading its length.
        with pytest.raises(ValueError, match=re.escape(
                f"ys must hold one output vector per instant, got shape {ys.shape}")):
            run_dfie(linear_bench.model, unit_weight_design, ys, 0)

    def test_non_finite_input_stops_every_oracle_naming_its_place(self, linear_bench,
                                                                  unit_weight_design):
        model, design = linear_bench.model, unit_weight_design
        traj = simulate(model, LINEAR_X0, 4, noise_for(model, 1.0, seed=6))
        history = run_dkf(model, design, traj).xhat_post
        ys = traj.ys.copy()
        ys[3, 1] = np.nan
        in_ys = "^ys at instant 3 is not finite in the outputs of subsystems {}$"
        with pytest.raises(ValueError, match=in_ys.format(r"\[1\]")):
            run_dfie(model, design, ys, 4, history=history)
        with pytest.raises(ValueError, match=in_ys.format(r"\[1\]")):
            run_dfie(model, design, ys, 4)
        with pytest.raises(ValueError, match=in_ys.format(r"\[0\]")):
            centralized_fie(model, LINEAR_GUESS, 100.0 * np.eye(4), ys,
                            Q=np.eye(4), R=np.eye(2))
        history = history.copy()
        history[2, 3] = np.inf
        with pytest.raises(ValueError, match=r"^history at instant 2 is not finite in "
                           r"the states of subsystems \[1\]$"):
            run_dfie(model, design, traj.ys, 4, history=history)


class TestStandardKalmanOracle:
    def test_identity_system_gain_two_thirds(self):
        # A = C = Q = R = P = I: predicted covariance 2 I, gain (2/3) I.
        part = make_partition([2], [2])
        sub = LinearSubsystem(0, np.eye(2), {}, np.eye(2), np.eye(2), np.eye(2))
        model = assemble_global([sub], part)
        x = np.zeros(2)
        y = np.array([3.0, 6.0])
        x_new, P_new = classical_ekf_step(x, np.eye(2), y, *plant_maps(model), model.Q, model.R)
        assert np.allclose(x_new, (2.0 / 3.0) * y, rtol=0, atol=1e-12)
        assert np.allclose(P_new, (2.0 / 3.0) * np.eye(2), rtol=0, atol=1e-12)

    def test_zero_output_matrix_keeps_prediction(self):
        part = make_partition([2], [1])
        sub = LinearSubsystem(0, 0.9 * np.eye(2), {}, np.zeros((1, 2)),
                              np.eye(2), np.eye(1))
        model = assemble_global([sub], part)
        x = np.array([1.0, -2.0])
        P = np.diag([2.0, 3.0])
        x_new, P_new = classical_ekf_step(x, P, np.array([5.0]), *plant_maps(model),
                                          model.Q, model.R)
        assert np.allclose(x_new, 0.9 * x, rtol=0, atol=1e-14)
        assert np.allclose(P_new, 0.81 * P + np.eye(2), rtol=0, atol=1e-14)

    def test_one_step_matches_centralized_fie(self, linear_bench):
        model = linear_bench.model
        traj = simulate(model, LINEAR_X0, 1, noise_for(model, 1.0, seed=7))
        f, h, jac_f, jac_h = plant_maps(model)
        x, P = classical_ekf_init(LINEAR_GUESS, 100.0 * np.eye(4), traj.ys[0],
                                  h, jac_h, R=np.eye(2))
        x, P = classical_ekf_step(x, P, traj.ys[1], f, h, jac_f, jac_h,
                                  Q=np.eye(4), R=np.eye(2))
        sol = centralized_fie(model, LINEAR_GUESS, 100.0 * np.eye(4), traj.ys,
                              Q=np.eye(4), R=np.eye(2))
        assert np.linalg.norm(sol.terminal - x) <= 1e-10 * (1 + np.linalg.norm(x))
