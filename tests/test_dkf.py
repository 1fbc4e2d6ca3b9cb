import dataclasses
import re

import numpy as np
import pytest

from partkf.benchmarks import LINEAR_A, LINEAR_GUESS, LINEAR_X0
import partkf.dkf
from partkf.dekf import run_dekf
from partkf.dkf import (
    CovarianceCollapseError,
    _LinearSource,
    _run_filter,
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
from partkf.harness import _n1_vs_centralized
from partkf.model import (LinearSubsystem, _monolithic, _tr, assemble_global,
                          make_partition)
from partkf.simulate import simulate

from conftest import noise_for
from random_plants import random_plant


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

    def test_first_subsystem_prediction_is_matrix_product_block(self, linear_bench):
        model = linear_bench.model
        snap = ExchangeSnapshot(k=1, posteriors=(LINEAR_X0[:2], LINEAR_X0[2:]))
        want = (LINEAR_A @ LINEAR_X0)[:2]
        got = predict(0, snap, model)
        assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_single_partition_reduces_to_global_product(self, linear_bench):
        model = linear_bench.model
        sub = LinearSubsystem(0, model.A, {}, model.C, np.eye(4), np.eye(2))
        mono = assemble_global([sub], make_partition([4], [2]))
        snap = ExchangeSnapshot(k=1, posteriors=(LINEAR_X0,))
        assert np.array_equal(predict(0, snap, mono), model.A @ LINEAR_X0)

    def test_missing_neighbor_posterior(self, linear_bench):
        model = linear_bench.model
        snap = ExchangeSnapshot(k=1, posteriors=(LINEAR_X0[:2], None))
        with pytest.raises(FilterError, match="neighbor"):
            predict(0, snap, model)


class TestGain:
    def test_single_partition_equals_standard_kalman_gain(self, linear_bench):
        model = linear_bench.model
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

    def test_first_instant_gain_matches_independent_formula(self, linear_bench,
                                                            unit_weight_design):
        # Coefficient of the first post-initialization update, written out
        # with plain inverses.
        model = linear_bench.model
        design = unit_weight_design
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
    def test_zero_gain_keeps_prediction(self, linear_bench):
        model = linear_bench.model
        preds = (np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=np.array([10.0, -10.0]))
        out = update(0, preds[0], snap, np.zeros((2, 2)), model)
        assert np.array_equal(out, preds[0])

    def test_zero_innovation_keeps_prediction(self, linear_bench):
        model = linear_bench.model
        preds = (LINEAR_X0[:2], LINEAR_X0[2:])
        y = model.C @ LINEAR_X0
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=y)
        L = np.ones((2, 2))
        assert np.array_equal(update(0, preds[0], snap, L, model), preds[0])

    def test_exact_start_zero_noise_tracks_truth(self, linear_bench):
        model = linear_bench.model
        design = EstimatorDesign(Q=(np.eye(2),) * 2, R=np.eye(2),
                                 P0=(100.0 * np.eye(2),) * 2, x0_guess=LINEAR_X0)
        traj = simulate(model, LINEAR_X0, 1, noise_for(model, 0.0, seed=0))
        states = init_states(model, design, traj.ys[0])
        post0 = np.concatenate([s.xhat for s in states])
        assert np.allclose(post0, LINEAR_X0, rtol=0, atol=1e-12)
        post1 = run_dkf(model, design, traj).xhat_post[1]
        # Innovation is zero, so the posterior equals the exact prediction.
        assert np.allclose(post1, traj.xs[1], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("preds, message", [
        ((np.ones(3), np.ones(1)), r"block of subsystem 0 has shape \(3,\), expected \(2,\)"),
        ((np.ones(2), np.ones(2) + 1j), "block of subsystem 1 must be a number or an array"),
    ], ids=["sizes-adding-up", "complex"])
    def test_a_prediction_block_that_does_not_fit_names_its_subsystem(self, linear_bench,
                                                                     preds, message):
        # Blocks whose sizes add up to nx are not shared out across subsystems.
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=np.zeros(2))
        with pytest.raises(ValueError, match=message):
            update(0, np.ones(2), snap, np.zeros((2, 2)), linear_bench.model)

    def test_missing_measurement(self, linear_bench):
        model = linear_bench.model
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

    def test_single_partition_matches_standard_kf_over_50_steps(self, linear_bench,
                                                                unit_weight_design):
        model = linear_bench.model
        traj = simulate(_monolithic(model), LINEAR_X0, 50, noise_for(model, 1.0, seed=3))
        assert _n1_vs_centralized(model, unit_weight_design, traj) <= 1e-10

    def test_covariance_stays_spd_for_1000_steps(self, linear_bench, unit_weight_design):
        model = linear_bench.model
        design = unit_weight_design
        traj = simulate(model, LINEAR_X0, 1000, noise_for(model, 1.0, seed=4))
        rec = run_dkf(model, design, traj)
        for k in range(0, 1001, 50):
            for i in range(2):
                np.linalg.cholesky(rec.covs[k][i])
                assert np.allclose(rec.covs[k][i], rec.covs[k][i].T)

    def test_closed_loop_form_identity(self, linear_bench, unit_weight_design):
        # P+ = F P F' + (I - L C_col) Q (I - L C_col)' + L R L'
        # with F = A_ii - L C A_col is algebraically identical to the
        # one-sided update formula.
        model = linear_bench.model
        design = unit_weight_design
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

    def test_collapse_detected_with_corrupted_gain(self, linear_bench, unit_weight_design,
                                                   monkeypatch):
        # The engine looks the gain computation up at call time; a 100x gain
        # with the covariance formula evaluated at that gain must abort the
        # run with the subsystem and the instant.
        model = linear_bench.model
        design = unit_weight_design
        exact = gain_and_covariance

        def corrupted(P, a_col, a_ii, C, c_col, Q_i, R, info=None):
            L = 100.0 * exact(P, a_col, a_ii, C, c_col, Q_i, R, info)[0]
            Z = C @ a_col @ P @ _tr(a_ii) + c_col @ Q_i
            P_new = a_ii @ P @ _tr(a_ii) + Q_i - L @ Z
            return L, 0.5 * (P_new + _tr(P_new))

        monkeypatch.setattr(partkf.dkf, "gain_and_covariance", corrupted)
        traj = simulate(model, LINEAR_X0, 3, noise_for(model, 1.0, seed=4))
        with pytest.raises(CovarianceCollapseError) as info:
            run_dkf(model, design, traj)
        assert (info.value.subsystem, info.value.k) == (0, 1)

    @pytest.mark.parametrize("bench, run", [("linear_bench", run_dkf),
                                            ("reactor_bench", run_dekf)],
                             ids=["dkf", "dekf"])
    def test_gain_failure_after_instant_zero_names_subsystem_and_instant(
            self, monkeypatch, request, bench, run):
        # Instants k >= 1 settle through the same step as instant 0, and name
        # the failing subsystem and instant the same way.  The failure is
        # injected into the batched kernel for every stack that holds
        # subsystem 1's rows from its second instant on (its Q_1 is made
        # unique to find them): the group's call fails, and so does
        # subsystem 1 alone, which the engine then names.
        bench = request.getfixturevalue(bench)
        Q = list(bench.design.Q)
        Q[1] = 1.5 * Q[1]
        assert not any(np.array_equal(q, Q[1]) for i, q in enumerate(Q) if i != 1)
        design = dataclasses.replace(bench.design, Q=tuple(Q))
        exact = partkf.dkf._information_gain
        calls = []

        def failing(UT, RiUT, G, W, WV, base):
            d = base.shape[-1]
            # Instant 0 has W = P0 (d x d); later instants W = blkdiag(P, Q_i).
            if W.shape[-1] == 2 * d and any(np.array_equal(q, Q[1]) for q in W[:, d:, d:]):
                calls.append(len(calls) + 1)      # subsystem 1 at instant 1, 2, ...
                if calls[-1] >= 2:
                    raise FilterError("innovation covariance is not positive definite")
            return exact(UT, RiUT, G, W, WV, base)

        monkeypatch.setattr(partkf.dkf, "_information_gain", failing)
        traj = simulate(bench.model, bench.x0, 4, bench.noise(seed=1))
        with pytest.raises(FilterError, match="^subsystem 1 at instant 2: innovation "
                           "covariance is not positive definite$"):
            run(bench.model, design, traj)


class TestDkfStep:
    def test_rmse_decreases_from_initial_error(self, linear_bench):
        traj = simulate(linear_bench.model, linear_bench.x0, 50,
                        linear_bench.noise(seed=1))
        rec = run_dkf(linear_bench.model, linear_bench.design, traj)
        assert rec.rmse[50] < np.sqrt(np.sum((LINEAR_GUESS - LINEAR_X0) ** 2) / 4)

    def test_single_partition_trajectory_matches_centralized(self, linear_bench,
                                                             unit_weight_design):
        model = linear_bench.model
        traj = simulate(_monolithic(model), LINEAR_X0, 30, noise_for(model, 1.0, seed=6))
        assert _n1_vs_centralized(model, unit_weight_design, traj) <= 1e-10

    @pytest.mark.parametrize("order", [[0, 0], [1], [0, 1, 2], [1, 2]])
    def test_order_that_is_not_a_permutation_rejected(self, linear_bench, order):
        # Without the check the linear filter ran: its source ignores the
        # agenda (a survivor of tools/mutants.py).
        traj = simulate(linear_bench.model, LINEAR_X0, 3, linear_bench.noise(seed=1))
        with pytest.raises(ValueError, match="^order must be a permutation of the subsystems$"):
            run_dkf(linear_bench.model, linear_bench.design, traj, order=order)

    def test_update_order_is_irrelevant_bitwise(self, linear_bench, unit_weight_design):
        model = linear_bench.model
        design = unit_weight_design
        traj = simulate(model, LINEAR_X0, 20, noise_for(model, 1.0, seed=7))
        forward = run_dkf(model, design, traj, order=[0, 1])
        backward = run_dkf(model, design, traj, order=[1, 0])
        assert np.array_equal(forward.xhat_post, backward.xhat_post)
        assert np.array_equal(forward.xhat_pred, backward.xhat_pred)
        for k in range(21):
            for i in range(2):
                assert np.array_equal(forward.covs[k][i], backward.covs[k][i])
                assert np.array_equal(forward.gains[k][i], backward.gains[k][i])

    def test_reused_source_matches_a_fresh_run(self, linear_bench, unit_weight_design):
        model = linear_bench.model
        design = unit_weight_design
        source = _LinearSource(model, design)
        _run_filter(source, simulate(model, LINEAR_X0, 20, noise_for(model, 1.0, seed=7)),
                    None, None)
        traj = simulate(model, LINEAR_X0, 20, noise_for(model, 1.0, seed=8))
        reused = _run_filter(source, traj, [1, 0], None)
        fresh = run_dkf(model, design, traj, order=[1, 0])
        assert reused.content_digest() == fresh.content_digest()

    def test_states_advance_with_consistent_index(self, linear_bench, unit_weight_design):
        model = linear_bench.model
        design = unit_weight_design
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
    def test_information_form_matches_gain_form(self, linear_bench, unit_weight_design):
        model = linear_bench.model
        design = unit_weight_design
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

    def test_applies_the_engine_floor_at_instant_zero(self, linear_bench):
        # A prior this thin leaves a posterior eigenvalue under the floor, so
        # the engine bumps it at instant 0; init_states must do the same.
        design = dataclasses.replace(linear_bench.design,
                                     P0=(np.diag([1.0, 1e-18]), linear_bench.design.P0[1]))
        traj = simulate(linear_bench.model, linear_bench.x0, 3,
                        linear_bench.noise(seed=1))
        rec = run_dkf(linear_bench.model, design, traj)
        assert rec.floor_events == 1
        assert rec.covs[0][0][1, 1] == pytest.approx(1e-10, rel=1e-6)
        states = init_states(linear_bench.model, design, traj.ys[0])
        for i in range(2):
            assert np.array_equal(states[i].cov, rec.covs[0][i])


class TestMeasurementChecks:
    @pytest.mark.parametrize("field, rows, cols", [
        ("xs", 11, "nx-1"), ("ws", 11, "nx"), ("ws", 9, "nx"), ("vs", 0, "ny"), ("vs", 12, "ny")])
    def test_trajectory_arrays_need_one_row_per_instant(self, linear_bench, field, rows, cols):
        # Accepted, the filter copied wrong-length noises into its record.
        model = linear_bench.model
        traj = simulate(model, linear_bench.x0, 10, linear_bench.noise(seed=1))
        want = {"xs": (11, model.nx), "ws": (10, model.nx), "vs": (11, model.ny)}[field]
        shape = (rows, {"nx-1": model.nx - 1, "nx": model.nx, "ny": model.ny}[cols])
        bad = dataclasses.replace(traj, **{field: np.zeros(shape)})
        with pytest.raises(ValueError, match=re.escape(
                f"trajectory {field} has shape {shape}, expected {want}")):
            run_dkf(model, linear_bench.design, bad)

    def test_wrong_measurement_shape_is_rejected(self, linear_bench):
        traj = simulate(linear_bench.model, linear_bench.x0, 10,
                        linear_bench.noise(seed=1))
        bad = dataclasses.replace(traj, ys=traj.ys[:, :-1])
        with pytest.raises(ValueError, match="measurements have shape"):
            run_dkf(linear_bench.model, linear_bench.design, bad)

    def test_zero_instant_trajectory_rejected(self, linear_bench):
        # Accepted, the filter would raise a bare IndexError reading y_0.
        traj = simulate(linear_bench.model, linear_bench.x0, 3, linear_bench.noise(seed=1))
        empty = dataclasses.replace(traj, xs=traj.xs[:0], ys=traj.ys[:0], ws=traj.ws[:0],
                                    vs=traj.vs[:0])
        with pytest.raises(ValueError, match="^measurements have no instant; "
                           "the filter starts from y_0$"):
            run_dkf(linear_bench.model, linear_bench.design, empty)

    def test_non_finite_measurement_names_instant_and_subsystem(self, linear_bench):
        traj = simulate(linear_bench.model, linear_bench.x0, 10,
                        linear_bench.noise(seed=1))
        ys = traj.ys.copy()
        ys[5, 1] = np.nan
        ys[7, 0] = np.inf
        with pytest.raises(FilterError, match=r"instant 5 .*subsystems \[1\]"):
            run_dkf(linear_bench.model, linear_bench.design,
                    dataclasses.replace(traj, ys=ys))



class TestDesignChecks:
    @staticmethod
    def _run(linear_bench, **changes):
        traj = simulate(linear_bench.model, linear_bench.x0, 5,
                        linear_bench.noise(seed=1))
        design = dataclasses.replace(linear_bench.design, **changes)
        return run_dkf(linear_bench.model, design, traj)

    @pytest.mark.parametrize("field, message", [
        ("Q", r"^Q\[1\] is not finite$"),
        ("P0", r"^P0\[1\] is not finite$"),
        ("R", r"^R is not finite$"),
        ("x0_guess", r"^x0_guess of subsystem 1 is not finite$"),
    ], ids=["Q", "P0", "R", "x0_guess"])
    def test_non_finite_entry_names_field_and_subsystem(self, linear_bench, field, message):
        design = linear_bench.design
        if field in ("Q", "P0"):
            mats = [m.copy() for m in getattr(design, field)]
            mats[1][0, 1] = np.nan
            value = tuple(mats)
        else:
            value = getattr(design, field).copy()
            value.flat[-1] = np.nan
        with pytest.raises(ValueError, match=message):
            self._run(linear_bench, **{field: value})

    @pytest.mark.parametrize("field, message", [
        ("Q", r"^Q\[1\] is not symmetric$"),
        ("P0", r"^P0\[1\] is not symmetric$"),
        ("R", r"^R is not symmetric$"),
    ], ids=["Q", "P0", "R"])
    def test_non_symmetric_weight_names_field_and_subsystem(self, linear_bench, field,
                                                            message):
        # An upper-triangular weight, e.g. P0[1] = [[100, 50], [0, 100]]: the
        # filter would read its lower or upper triangle depending on the step.
        design = linear_bench.design
        if field in ("Q", "P0"):
            mats = [m.copy() for m in getattr(design, field)]
            mats[1][0, 1] += 0.5 * mats[1][0, 0]
            value = tuple(mats)
        else:
            value = design.R.copy()
            value[0, 1] += 0.5 * value[0, 0]
        with pytest.raises(ValueError, match=message):
            self._run(linear_bench, **{field: value})

    def test_group_checks_name_the_first_bad_weight_of_the_per_matrix_order(self):
        # validate tests finiteness and symmetry once per group stack; the
        # name must still be the first bad weight in the order of a test per
        # matrix: subsystem by subsystem Q[i], P0[i], the x0_guess block,
        # then R, and symmetry after finiteness.
        bench = random_plant(5, topology="chain", n=16)
        model, design = bench.model, bench.design
        assert len(model.partition.groups) > 1

        def per_matrix(d):
            p = model.partition
            for i in range(p.n):
                for name, m in ((f"Q[{i}]", d.Q[i]), (f"P0[{i}]", d.P0[i]),
                                (f"x0_guess of subsystem {i}", d.x0_guess[p.state_slice(i)])):
                    if not np.isfinite(m).all():
                        return f"{name} is not finite"
            if not np.isfinite(d.R).all():
                return "R is not finite"
            for name, m in [*((f"Q[{i}]", q) for i, q in enumerate(d.Q)),
                            *((f"P0[{i}]", q) for i, q in enumerate(d.P0)), ("R", d.R)]:
                if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
                    return f"{name} is not symmetric"
            return None

        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(60):
            Q, P0 = [q.copy() for q in design.Q], [q.copy() for q in design.P0]
            R, x0 = design.R.copy(), design.x0_guess.copy()
            for _ in range(rng.integers(1, 4)):
                m = [Q, P0, [R], [x0]][rng.integers(4)]
                m = m[rng.integers(len(m))]
                j = rng.integers(m.size)
                m.flat[j] = np.inf if rng.random() < 0.5 else m.flat[j] + 1.0
            broken = dataclasses.replace(design, Q=tuple(Q), P0=tuple(P0), R=R, x0_guess=x0)
            want = per_matrix(broken)
            if want is None:
                broken.validate(model)
                continue
            seen.add(want.split()[-1])
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                broken.validate(model)
        assert seen == {"finite", "symmetric"}

    def test_non_spd_measurement_weight_is_a_filter_error(self, linear_bench):
        # R belongs to no subsystem, and the filter factors it once, before
        # any instant.
        with pytest.raises(FilterError, match="^measurement weight R is not positive "
                           "definite$"):
            self._run(linear_bench, R=-np.eye(2))

    def test_indefinite_process_weight_names_subsystem(self, linear_bench):
        # Q[0] = -I used to run until instant 1 and stop there with a
        # covariance collapse, which named the symptom, not the weight.
        Q = (-np.eye(2), linear_bench.design.Q[1])
        with pytest.raises(ValueError, match=r"^Q\[0\] is not positive semidefinite$"):
            self._run(linear_bench, Q=Q)

    def test_semidefinite_process_weight_is_valid(self, linear_bench):
        # The information form needs no inverse of Q, so a weight that
        # leaves a direction unexcited is fine.
        Q = (linear_bench.design.Q[0], np.diag([1.0, 0.0]))
        rec = self._run(linear_bench, Q=Q)
        assert all(np.isfinite(P).all() and np.linalg.eigvalsh(P)[0] > 0
                   for covs in rec.covs for P in covs)

    def test_non_spd_prior_names_subsystem(self, linear_bench):
        P0 = (linear_bench.design.P0[0], -np.eye(2))
        with pytest.raises(FilterError, match="^subsystem 1 at instant 0: "
                           "prior covariance is not positive definite$"):
            self._run(linear_bench, P0=P0)

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


def _turned(eigs, seed: int) -> np.ndarray:
    """A symmetric matrix with eigenvalues ``eigs``, turned by a seeded
    random rotation."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigs), len(eigs))))
    return (q * eigs) @ q.T


def _floor_cases(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two covariances of dimension ``d``, trace about ``d - 1``: one whose
    smallest eigenvalue, ``1e-12 (d - 1)``, lies between ``COV_FLOOR_REL
    tr(P) / d`` and ``COV_FLOOR_REL tr(P) d``, and one below both."""
    ones = [1.0] * (d - 1)
    return _turned([1e-12 * (d - 1), *ones], seed), _turned([1e-14, *ones], seed + 1)


def _floor_holds(P: np.ndarray, fires: np.ndarray) -> bool:
    """Whether ``dkf._floor`` of the covariance or stack ``P`` fires exactly
    where ``fires`` says and lifts exactly those matrices by the bump."""
    d = P.shape[-1]
    out, fired = partkf.dkf._floor(P)
    want = np.where(fires[..., None, None], P + partkf.dkf.COV_FLOOR_BUMP * np.eye(d), P)
    return bool(np.array_equal(fired, fires) and np.array_equal(out, want))


class TestFloor:
    """The eigenvalue floor fires below ``COV_FLOOR_REL * tr(P) / d`` and
    not above it: a smallest eigenvalue between that threshold and ``d``
    times ``d`` as much tells the two apart."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_covariance(self, d):
        between, below = _floor_cases(d, seed=d)
        assert _floor_holds(between, np.array(False))
        assert _floor_holds(below, np.array(True))

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_stack_of_runs_and_members(self, d):
        fires = np.array([[False, True, False, False], [True, False, True, False],
                          [False, False, False, True]])
        P = np.empty(fires.shape + (d, d))
        for r, m in np.ndindex(fires.shape):
            P[r, m] = _floor_cases(d, seed=10 * r + m)[int(fires[r, m])]
        assert _floor_holds(P, fires)

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_threshold_times_d_fails_the_check(self, monkeypatch, d):
        # Negative control: at dimension d, ``tr(P) * d`` is ``tr(P) / d``
        # with the relative floor d * d times as large.
        between, below = _floor_cases(d, seed=d)
        monkeypatch.setattr(partkf.dkf, "COV_FLOOR_REL", partkf.dkf.COV_FLOOR_REL * d * d)
        assert not _floor_holds(between, np.array(False))
        assert _floor_holds(below, np.array(True))
