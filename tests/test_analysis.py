import dataclasses
import warnings

import numpy as np
import pytest

import partkf.benchmarks
import partkf.dkf
import partkf.harness
from partkf.analysis import (
    StabilityReport,
    check_bounds,
    check_contraction,
    check_weak_coupling,
    contraction_rate,
    error_step,
    lyapunov_values,
    monte_carlo,
    remainder_bounds,
    rmse,
    stability_report,
)
from partkf.benchmarks import LINEAR_A, LINEAR_GUESS, LINEAR_X0, get_benchmark
from partkf.dekf import run_dekf
from partkf.dkf import EstimatorDesign, _sym, run_dkf
from partkf.harness import ExperimentConfig, run_experiment
from partkf.model import (
    LinearizationError,
    LinearSubsystem,
    NonlinearSubsystem,
    aggregate_nonlinear,
    assemble_global,
    make_partition,
)
from partkf.simulate import NoiseSpec, SimulationError, simulate

from conftest import assert_same_ensemble, count_calls, noise_for, per_run_ensemble
from random_plants import random_plant


class TestErrorStep:
    def test_linear_model_remainders_vanish_and_identity_is_exact(self, linear_run):
        bench, traj, rec = linear_run
        for k in range(1, rec.steps + 1):
            dec = error_step(bench.model, rec, k)
            assert np.max(np.abs(dec.phi_dyn)) < 1e-12
            assert np.max(np.abs(dec.phi_out)) < 1e-12
            assert dec.residual < 1e-12

    def test_zero_noise_gives_zero_noise_term(self):
        bench = get_benchmark("linear-4state")
        traj = simulate(bench.model, bench.x0, 10, noise_for(bench.model, 0.0, seed=0))
        rec = run_dkf(bench.model, bench.design, traj)
        for k in range(1, 11):
            dec = error_step(bench.model, rec, k)
            assert np.array_equal(dec.s, np.zeros(4))

    def test_nonlinear_run_identity_below_tolerance(self, reactor_run):
        bench, traj, rec = reactor_run
        for k in range(1, rec.steps + 1):
            assert error_step(bench.model, rec, k).residual < 1e-9

    def test_out_of_range_instant_rejected(self, linear_run):
        bench, traj, rec = linear_run
        with pytest.raises(ValueError):
            error_step(bench.model, rec, 0)

    @pytest.mark.parametrize("k", [2.5, True, "2"], ids=["float", "bool", "string"])
    def test_instant_that_is_not_an_integer_rejected(self, k, linear_run):
        # Accepted, 2.5 raised a bare IndexError and True was read as k=1.
        bench, traj, rec = linear_run
        with pytest.raises(ValueError, match=f"^k must be an integer, not {k!r}$"):
            error_step(bench.model, rec, k)

    def test_numpy_integer_instant_is_an_integer(self, linear_run):
        bench, traj, rec = linear_run
        assert error_step(bench.model, rec, np.int64(3)).k == 3


class TestWeakCoupling:
    @pytest.mark.parametrize("k", [2.5, True, "2"], ids=["float", "bool", "string"])
    def test_instant_that_is_not_an_integer_rejected(self, k, linear_run):
        # Accepted, 2.5 raised a bare TypeError from range and True was
        # read as k=1.
        with pytest.raises(ValueError, match=f"^k must be an integer, not {k!r}$"):
            check_weak_coupling(linear_run[2], k)

    def test_out_of_range_instant_rejected(self, linear_run):
        rec = linear_run[2]
        with pytest.raises(ValueError, match="needs 1 <= k <= steps"):
            check_weak_coupling(rec, rec.steps + 1)

    def test_decoupled_network_satisfied_with_positive_margin(self):
        bench = get_benchmark("reactor-chain", coupling=0.0)
        traj = simulate(bench.model, bench.x0, 80, bench.noise(seed=3))
        rec = run_dekf(bench.model, bench.design, traj)
        for k in range(1, 81):
            res = check_weak_coupling(rec, k)
            assert res["checkable"]
            assert res["satisfied"]
            assert res["margin"] > 0
            # Fully decoupled closed loop: no cross-border error transport.
            assert not res["cross"].any()

    def test_benchmark_satisfied_at_every_instant(self, reactor_run):
        bench, traj, rec = reactor_run
        rep = stability_report(rec)
        assert bool(np.all(rep.coupling_checkable[1:]))
        assert rep.coupling_all_hold
        assert np.nanmin(rep.coupling_margin[1:]) > 0

    def test_scaled_coupling_violation_detected(self, reactor_bench):
        hot = get_benchmark("reactor-chain", coupling=100.0 * 0.03)
        traj = simulate(hot.model, hot.x0, 60, hot.noise(seed=7))
        rec = run_dekf(hot.model, hot.design, traj)
        rep = stability_report(rec)
        violations = np.where(~rep.coupling_ok[1:])[0]
        assert violations.size > 0

    def test_singular_diagonal_transition_reported_not_checkable(self):
        # Zero dynamics make the closed-loop diagonal block singular: the
        # monitor must report "not checkable" instead of a verdict.
        part = make_partition([2], [2])
        sub = LinearSubsystem(0, np.zeros((2, 2)), {}, np.eye(2),
                              np.eye(2), np.eye(2))
        model = assemble_global([sub], part)
        design = EstimatorDesign.from_model(model, P0=[np.eye(2)],
                                            x0_guess=np.zeros(2))
        traj = simulate(model, np.zeros(2), 5, noise_for(model, 1.0, seed=1))
        rec = run_dkf(model, design, traj)
        res = check_weak_coupling(rec, 2)
        assert not res["checkable"]
        assert not res["satisfied"]

    @pytest.mark.parametrize("cond, checkable", [(0.5e12, True), (1.5e12, False)])
    def test_a_block_past_the_condition_limit_is_not_checkable(self, cond, checkable):
        # C = 0 gives zero gains, so F = A: a condition number on either side
        # of COND_LIMIT (1e12).
        part = make_partition([2], [1])
        sub = LinearSubsystem(0, np.diag([0.5, 0.5 / cond]), {}, np.zeros((1, 2)),
                              np.eye(2), np.eye(1))
        model = assemble_global([sub], part)
        design = EstimatorDesign.from_model(model, P0=[np.eye(2)], x0_guess=np.zeros(2))
        traj = simulate(model, np.zeros(2), 3, noise_for(model, 1.0, seed=1))
        rec = run_dkf(model, design, traj)
        res = check_weak_coupling(rec, 2)
        assert res["checkable"] is checkable
        assert res["condition"] == pytest.approx(cond, rel=1e-9)

    def test_decoupled_off_diagonal_transition_is_zero(self):
        # All coupling blocks zero and block-diagonal output matrix: the
        # closed-loop transition has exactly zero cross blocks.
        bench = get_benchmark("linear-4state", coupling_scale=0.0)
        traj = simulate(bench.model, bench.x0, 20, bench.noise(seed=4))
        rec = run_dkf(bench.model, bench.design, traj)
        k = 10
        A_prev = rec.a_matrix(k - 1)
        C_k = rec.c_matrix(k)
        F = (np.eye(4) - rec.stacked_gain(k) @ C_k) @ A_prev
        assert np.max(np.abs(F[:2, 2:])) < 1e-14
        assert np.max(np.abs(F[2:, :2])) < 1e-14
        res = check_weak_coupling(rec, k)
        assert res["satisfied"]


class TestContraction:
    def _scalar_run(self):
        part = make_partition([1], [1])
        sub = LinearSubsystem(0, np.array([[0.5]]), {}, np.array([[1.0]]),
                              np.array([[1.0]]), np.array([[1.0]]))
        model = assemble_global([sub], part)
        design = EstimatorDesign.from_model(model, P0=[np.array([[1.0]])],
                                            x0_guess=np.array([0.0]))
        traj = simulate(model, np.array([1.0]), 50, noise_for(model, 1.0, seed=5))
        return model, design, run_dkf(model, design, traj)

    @pytest.mark.parametrize("alpha, vacuous", [(0.0, True), (0.5, False), (1.0, True)])
    def test_a_rate_outside_zero_one_is_vacuous(self, alpha, vacuous):
        assert check_contraction(self._scalar_run()[2], alpha)["vacuous"] is vacuous

    def test_scalar_system_rate_matches_hand_arithmetic(self):
        model, design, rec = self._scalar_run()
        bounds = check_bounds(rec)
        # Scalar closed forms, n = 1, a = 0.5, c = q = r = 1.
        p_lo, p_hi = bounds.p_lo, bounds.p_hi
        l_lo = (0.25 * p_lo + 1.0) / (0.25 * p_hi + 2.0)
        l_hi = (0.25 * p_hi + 1.0) / (0.25 * p_lo + 2.0)
        f_hi = 0.5 + 0.5 * l_hi
        x = l_lo ** 2 * 1.0 / (p_hi * f_hi ** 2)
        assert contraction_rate(bounds) == pytest.approx(x / (1.0 + x), rel=1e-12)

    def test_scalar_inequality_holds_with_direct_arithmetic(self):
        model, design, rec = self._scalar_run()
        result = check_contraction(rec)
        alpha = result["alpha"]
        assert result["all_hold"]
        for k in range(1, rec.steps + 1):
            p_k = rec.covs[k][0][0, 0]
            p_prev = rec.covs[k - 1][0][0, 0]
            L = rec.gains[k][0][0, 0]
            f = 0.5 - L * 0.5  # (1 - L c) a with the stacked column = a
            assert f * f / p_k <= (1.0 - alpha) / p_prev + 1e-12

    def test_decoupled_run_holds_at_all_instants(self, decoupled_linear_run):
        bench, traj, rec = decoupled_linear_run
        result = check_contraction(rec)
        assert result["all_hold"]
        assert 0.0 < result["alpha"] < 1.0

    def test_margins_match_direct_evaluation(self, reactor_run):
        # Fresh inverses of P_{k-1} and P_k at every instant guard the
        # information matrices carried from one instant to the next.
        _, _, rec = reactor_run
        result = check_contraction(rec)
        alpha = result["alpha"]
        p = rec.partition
        for k in range(1, rec.steps + 1):
            F = (np.eye(p.nx) - rec.stacked_gain(k) @ rec.c_matrix(k)) @ rec.a_matrix(k - 1)
            worst = np.inf
            for i in range(p.n):
                F_ii = F[p.state_slice(i), p.state_slice(i)]
                diff = ((1.0 - alpha) * np.linalg.inv(rec.covs[k - 1][i])
                        - F_ii.T @ np.linalg.inv(rec.covs[k][i]) @ F_ii)
                worst = min(worst, np.linalg.eigvalsh(_sym(diff))[0])
            assert result["margins"][k] == pytest.approx(worst, rel=1e-12), k

    def test_rate_always_inside_unit_interval(self, reactor_run):
        _, _, rec = reactor_run
        bounds = check_bounds(rec)
        assert bounds.l_lo > 0
        alpha = contraction_rate(bounds)
        assert 0.0 < alpha < 1.0


@pytest.fixture(scope="module")
def strongly_coupled_run():
    """linear-4state with ten times its coupling: the largest dynamics block
    norm is an off-diagonal one."""
    bench = get_benchmark("linear-4state", coupling_scale=10.0)
    traj = simulate(bench.model, bench.x0, 20, bench.noise(seed=3))
    return bench, traj, run_dkf(bench.model, bench.design, traj)


def _bounds_reference(rec) -> dict:
    """The bounds table by brute force: norms of every ``(l, i)`` block of the
    assembled ``A``, zero blocks included, and the diagonal closed-loop
    blocks as ``A_ii - L_i C A[:, i]``, in three passes over the record."""
    p = rec.partition
    n, K = p.n, rec.steps
    sl = [p.state_slice(i) for i in range(n)]
    norm = lambda m: float(np.linalg.norm(m, 2)) if m.size else 0.0
    a_diag, a_all = [], []
    for k in range(K):
        A = rec.a_matrix(k)
        for l in range(n):
            for i in range(n):
                a_all.append(norm(A[sl[l], sl[i]]))
                if l == i:
                    a_diag.append(a_all[-1])
    c_norms, p_lo, p_hi, gains = [], [], [], []
    for k in range(K + 1):
        for i in range(n):
            c_norms.append(norm(rec.c_cols[k][i]))
            eigs = np.linalg.eigvalsh(_sym(rec.covs[k][i]))
            p_lo.append(eigs[0])
            p_hi.append(eigs[-1])
            gains.append(norm(rec.gains[k][i]))
    f_diag = []
    for k in range(1, K + 1):
        A, C = rec.a_matrix(k - 1), rec.c_matrix(k)
        f_diag += [norm(A[s, s] - rec.gains[k][i] @ C @ A[:, s]) for i, s in enumerate(sl)]
    q = np.concatenate([np.linalg.eigvalsh(_sym(np.asarray(m, dtype=float)))
                        for m in rec.estimator["Q"]])
    r = np.linalg.eigvalsh(_sym(np.asarray(rec.estimator["R"], dtype=float)))
    t = {"a_lo": min(a_diag), "a_hi": max(a_all), "c_lo": min(c_norms),
         "c_hi": max(c_norms), "p_lo": min(p_lo), "p_hi": max(p_hi),
         "q_lo": min(q), "q_hi": max(q), "r_lo": r[0], "r_hi": r[-1],
         "gain_lo": min(gains), "gain_hi": max(gains), "f_diag_hi": max(f_diag)}
    t["l_lo"] = (t["c_lo"] * t["a_lo"] ** 2 * t["p_lo"] + t["c_lo"] * t["q_lo"]) / (
        (n * t["c_hi"] * t["a_hi"]) ** 2 * t["p_hi"] + t["c_hi"] ** 2 * t["q_hi"] + t["r_hi"])
    t["l_hi"] = (n * t["c_hi"] * t["a_hi"] ** 2 * t["p_hi"] + t["c_hi"] * t["q_hi"]) / (
        (t["c_lo"] * t["a_lo"]) ** 2 * t["p_lo"] + t["c_lo"] ** 2 * t["q_lo"] + t["r_lo"])
    t["f_hi"] = np.sqrt(n) * t["a_hi"] + np.sqrt(n) * t["l_hi"] * t["c_hi"] * t["a_hi"]
    t["bounded"] = (all(np.isfinite(t[key]) for key in ("a_lo", "a_hi", "c_lo", "c_hi",
                                                       "p_lo", "p_hi", "q_lo", "q_hi",
                                                       "r_lo", "r_hi"))
                    and t["p_lo"] > 0 and t["q_lo"] > 0 and t["r_lo"] > 0)
    return t


class TestBounds:
    @pytest.mark.parametrize("run", ["reactor_run", "decoupled_linear_run",
                                     "strongly_coupled_run"])
    def test_table_matches_brute_force_reference(self, run, request):
        _, _, rec = request.getfixturevalue(run)
        table = check_bounds(rec).as_dict()
        ref = _bounds_reference(rec)
        assert table.keys() == ref.keys()
        for key, want in ref.items():
            if key == "f_diag_hi":
                assert table[key] == pytest.approx(want, rel=1e-14, abs=0.0)
            else:
                assert table[key] == want, key

    def test_linear_blocks_constant_across_instants(self, linear_run):
        bench, traj, rec = linear_run
        bounds = check_bounds(rec)
        a11 = np.linalg.norm(LINEAR_A[:2, :2], 2)
        a22 = np.linalg.norm(LINEAR_A[2:, 2:], 2)
        a12 = np.linalg.norm(LINEAR_A[:2, 2:], 2)
        a21 = np.linalg.norm(LINEAR_A[2:, :2], 2)
        assert bounds.a_lo == pytest.approx(min(a11, a22), rel=1e-12)
        assert bounds.a_hi == pytest.approx(max(a11, a22, a12, a21), rel=1e-12)
        assert bounds.c_lo == pytest.approx(1.0, rel=1e-12)
        assert bounds.bounded

    def test_a_semidefinite_process_weight_is_not_bounded(self, linear_run):
        # The gain bounds need every weight's smallest eigenvalue above zero,
        # and a design may hold a semidefinite Q.
        rec = linear_run[2]
        Q = [[[1.0, 0.0], [0.0, 0.0]]] * 2
        bounds = check_bounds(dataclasses.replace(rec, estimator={**rec.estimator, "Q": Q}))
        assert bounds.q_lo == 0.0
        assert not bounds.bounded

    def test_reactor_weights_pin_q_range(self, reactor_run):
        _, _, rec = reactor_run
        bounds = check_bounds(rec)
        assert bounds.q_lo == 150.0
        assert bounds.q_hi == 150.0
        assert bounds.r_lo == 1.0 and bounds.r_hi == 1.0

    def test_q_range_spans_every_subsystem(self):
        # Random plant 3 has Q_0 with eigenvalues 0.617..4.009 and Q_2 with
        # 0.698: the range is over all subsystems, not Q_0's smallest and
        # Q_2's largest (which read 0.698).
        bench = random_plant(3)
        traj = simulate(bench.model, bench.x0, 3, bench.noise(seed=1))
        bounds = check_bounds(run_dkf(bench.model, bench.design, traj))
        eigs = np.concatenate([np.linalg.eigvalsh(q) for q in bench.design.Q])
        assert bounds.q_lo == eigs.min() == pytest.approx(0.6168, abs=1e-4)
        assert bounds.q_hi == eigs.max() == pytest.approx(4.009, abs=1e-3)

    def test_reactor_table_is_finite(self, reactor_run):
        _, _, rec = reactor_run
        table = check_bounds(rec).as_dict()
        for key, value in table.items():
            if key == "bounded":
                continue
            assert np.isfinite(value), key


class TestRemainderBounds:
    def test_linear_model_estimates_vanish(self, linear_run):
        bench, traj, rec = linear_run
        fits = remainder_bounds(bench.model, rec)
        assert fits["eps_dyn"] < 1e-10
        assert fits["eps_out"] < 1e-10

    def test_noise_free_linear_run_from_its_truth_returns_zero(self):
        # Its errors are rounding (about 1e-15), and the fit divided
        # rounding-level remainders by squared errors near 1e-30: eps_dyn
        # read 1.4e14.
        bench = get_benchmark("linear-4state", coupling_scale=0.0)
        traj = simulate(bench.model, bench.x0, 20, noise_for(bench.model, 0.0, seed=0))
        design = dataclasses.replace(bench.design, x0_guess=bench.x0)
        fits = remainder_bounds(bench.model, run_dkf(bench.model, design, traj))
        assert [fits[key] for key in ("eps_dyn", "eps_dyn_residual", "eps_out",
                                      "eps_out_residual")] == [0.0] * 4
        assert 0.0 < fits["error_range_dyn"][1] < 1e-20
        assert 0.0 < fits["error_range_out"][1] < 1e-20

    @staticmethod
    def _scalar_quadratic(guess: float):
        """A scalar model, f(x) = 0.5 x + 0.1 x^2 (a Taylor remainder of
        exactly 0.1 dx^2) and h(x) = x, and a design from ``guess``."""
        part = make_partition([1], [1])

        def f(x, nbrs):
            return np.array([0.5 * x[0] + 0.1 * x[0] ** 2])

        sub = NonlinearSubsystem(
            index=0, state_dim=1, out_dim=1, neighbor_dims={},
            f=f, h=lambda x: x.copy(),
            Q=np.array([[1.0]]), R=np.array([[1.0]]),
            jac_f=lambda x, nbrs: {0: np.array([[0.5 + 0.2 * x[0]]])},
            jac_h=lambda x: np.array([[1.0]]),
        )
        design = EstimatorDesign(Q=(np.array([[1.0]]),), R=np.array([[1.0]]),
                                 P0=(np.array([[1.0]]),), x0_guess=np.array([guess]))
        return aggregate_nonlinear([sub], part), design

    def test_scalar_quadratic_recovers_coefficient(self):
        model, design = self._scalar_quadratic(0.5)
        spec = NoiseSpec(w_std=np.array([0.5]), v_std=np.array([0.5]), seed=2,
                         w_bound=np.array([2.0]), v_bound=np.array([2.0]))
        traj = simulate(model, np.array([0.0]), 200, spec)
        rec = run_dekf(model, design, traj)
        fits = remainder_bounds(model, rec)
        assert fits["eps_dyn"] == pytest.approx(0.1, rel=1e-6)
        assert fits["eps_out"] < 1e-12

    def test_noise_free_nonlinear_run_from_its_truth_returns_zero(self):
        # Every error is exactly 0, so the fit has no squared error to divide by.
        model, design = self._scalar_quadratic(0.3)
        spec = NoiseSpec(w_std=np.array([0.0]), v_std=np.array([0.0]), seed=2)
        traj = simulate(model, np.array([0.3]), 20, spec)
        rec = run_dekf(model, design, traj)
        assert not np.any(rec.xs - rec.xhat_post) and not np.any(rec.xs - rec.xhat_pred)
        fits = remainder_bounds(model, rec)
        assert fits == {"eps_dyn": 0.0, "eps_dyn_residual": 0.0, "eps_out": 0.0,
                        "eps_out_residual": 0.0, "error_range_dyn": (0.0, 0.0),
                        "error_range_out": (0.0, 0.0)}

    def test_reactor_estimates_finite(self, reactor_run):
        bench, traj, rec = reactor_run
        fits = remainder_bounds(bench.model, rec)
        assert np.isfinite(fits["eps_dyn"]) and fits["eps_dyn"] >= 0
        assert np.isfinite(fits["eps_out"]) and fits["eps_out"] >= 0


class TestRmse:
    def test_zero_for_exact_estimates(self):
        x = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(rmse(x, x), np.zeros(3))

    def test_unit_error_vector(self):
        est = np.ones((1, 4))
        truth = np.zeros((1, 4))
        assert rmse(est, truth)[0] == pytest.approx(1.0, abs=0)

    def test_published_initial_vectors(self):
        expected = np.sqrt((0.7005 ** 2 + 0.9 ** 2 + 0.6001 ** 2 + 0.3007 ** 2) / 4)
        got = rmse(LINEAR_GUESS[None, :], LINEAR_X0[None, :])[0]
        assert got == pytest.approx(expected, rel=1e-10)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        est = rng.normal(size=(5, 6))
        truth = rng.normal(size=(5, 6))
        perm = rng.permutation(6)
        assert np.allclose(rmse(est, truth), rmse(est[:, perm], truth[:, perm]))

    def test_positive_whenever_estimates_differ(self):
        truth = np.zeros((1, 4))
        est = np.zeros((1, 4))
        est[0, 2] = 1e-9
        assert rmse(est, truth)[0] > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_every_record_uses_this_formula_bitwise(self, linear_run, reactor_run):
        # The filters' records and a Monte Carlo ensemble carry the public
        # formula, the one the benchmark's checks recompute.
        records = [linear_run[2], reactor_run[2]]
        assert [rec.kind for rec in records] == ["dkf", "dekf"]
        for rec in records:
            assert np.array_equal(rec.rmse, rmse(rec.xhat_post, rec.xs))
        config = ExperimentConfig(model={"name": "linear-4state"}, steps=20, seed=3,
                                  monitors=False)
        result = monte_carlo(config, runs=2)
        for seed, curve in zip(result.seeds, result.rmse):
            alone = run_experiment(config.replace(seed=int(seed)), write_outputs=False)
            assert np.array_equal(curve, rmse(alone.xhat_post, alone.xs))


class TestMonteCarlo:
    CONFIG = ExperimentConfig(model={"name": "linear-4state"}, steps=40,
                              seed=11, monitors=False)
    DOUBLED_R = {"R": (2.0 * get_benchmark("linear-4state").design.R).tolist()}

    def test_single_run_degenerate_envelope(self):
        result = monte_carlo(self.CONFIG, runs=1)
        assert result.runs == 1
        assert np.array_equal(result.mean, result.lo)
        assert np.array_equal(result.mean, result.hi)

    def test_fixed_base_seed_reproduces_ensemble(self):
        a = monte_carlo(self.CONFIG, runs=8)
        b = monte_carlo(self.CONFIG, runs=8)
        assert np.array_equal(a.seeds, b.seeds)
        assert np.array_equal(a.rmse, b.rmse)

    def test_steady_state_mean_below_initial_error(self):
        result = monte_carlo(self.CONFIG, runs=30)
        rmse0 = rmse(LINEAR_GUESS[None, :], LINEAR_X0[None, :])[0]
        assert result.mean[30:].mean() < rmse0

    @pytest.mark.parametrize("runs", [True, 2.7, "3"])
    def test_runs_must_be_an_integer(self, runs):
        with pytest.raises(ValueError, match="runs"):
            monte_carlo(self.CONFIG, runs=runs)

    @pytest.mark.parametrize("config", [
        CONFIG.replace(steps=20),
        CONFIG.replace(steps=20, estimator=DOUBLED_R),
        ExperimentConfig(model={"name": "reactor-chain"}, steps=20, seed=5,
                         monitors=False),
    ], ids=["linear", "linear-R-doubled", "reactor"])
    def test_each_run_equals_a_standalone_run_bitwise(self, config):
        result = monte_carlo(config, runs=3)
        for seed, curve in zip(result.seeds, result.rmse):
            alone = run_experiment(config.replace(seed=int(seed)), write_outputs=False)
            assert np.array_equal(curve, alone.rmse)

    def test_schedule_follows_the_configured_design(self):
        base = monte_carlo(self.CONFIG.replace(steps=20), runs=2)
        doubled = monte_carlo(self.CONFIG.replace(steps=20, estimator=self.DOUBLED_R),
                              runs=2)
        assert not np.array_equal(base.rmse[:, 1:], doubled.rmse[:, 1:])

    # The engine calls ``gain_and_covariance`` once per group of equally
    # sized subsystems and instant for a whole batch of runs; both plants
    # have one group.  Batches of two runs split the ensemble of four in
    # two: the linear filter settles its gain schedule once for both, the
    # extended filter settles its gains in each batch.
    @pytest.mark.parametrize("config, groups, per_batch", [
        (CONFIG.replace(steps=10), 1, False),
        (ExperimentConfig(model={"name": "reactor-chain"}, steps=10, seed=5,
                          monitors=False), 1, True),
    ], ids=["linear", "reactor"])
    def test_only_a_linear_ensemble_shares_its_gains(self, monkeypatch, config, groups,
                                                     per_batch):
        model = partkf.harness._resolve(config).model
        monkeypatch.setattr(partkf.harness, "_STACK_FLOATS",
                            2 * (config.steps + 1) * (model.nx + model.ny))
        calls = []
        exact = partkf.dkf.gain_and_covariance

        def counted(*args):
            calls.append(1)
            return exact(*args)

        monkeypatch.setattr(partkf.dkf, "gain_and_covariance", counted)
        passes = count_calls(monkeypatch, partkf.harness, "_simulate_runs")
        monte_carlo(config, runs=4)
        assert len(passes) == 2
        assert len(calls) == (len(passes) if per_batch else 1) * groups * config.steps


class TestStackedEnsemble:
    """A linear ensemble is simulated and filtered as stacks of runs; every
    field of its result equals the per-run path's bit for bit."""

    MC = ExperimentConfig(model={"name": "linear-4state"}, steps=50, monitors=False)

    def test_c5_config_equals_the_per_run_path(self):
        config = self.MC.replace(seed=1)
        assert_same_ensemble(monte_carlo(config, runs=500), per_run_ensemble(config, 500))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_config_equals_the_per_run_path(self, seed):
        config = self.MC.replace(seed=seed)
        assert_same_ensemble(monte_carlo(config, runs=20), per_run_ensemble(config, 20))

    @pytest.mark.parametrize("config", [
        MC.replace(seed=4),
        ExperimentConfig(model={"name": "reactor-chain"}, steps=10, seed=5, monitors=False),
    ], ids=["linear", "reactor"])
    def test_no_ensemble_simulates_run_by_run(self, monkeypatch, config):
        calls = count_calls(monkeypatch, partkf.harness, "simulate")
        monte_carlo(config, runs=3)
        assert calls == []

    # With w_bound = w_std every run redraws some process noise; at three
    # deviations three runs of this ensemble do and five do not.  All stay
    # in the stacked pass.
    @pytest.mark.parametrize("sigmas", [1.0, 3.0])
    def test_a_redrawing_run_stays_in_the_stacked_pass(self, monkeypatch, sigmas):
        w_bound = sigmas * get_benchmark("linear-4state").w_std
        config = self.MC.replace(seed=6, noise={"w_bound": w_bound.tolist()})
        calls = count_calls(monkeypatch, partkf.harness, "simulate")
        result = monte_carlo(config, runs=8)
        assert calls == []
        monkeypatch.undo()
        assert_same_ensemble(result, per_run_ensemble(config, 8))
        for seed, curve in zip(result.seeds, result.rmse):
            standalone = run_experiment(config.replace(seed=int(seed)), write_outputs=False)
            assert np.array_equal(curve, standalone.rmse)

    def test_a_diverging_ensemble_raises_the_per_run_error(self):
        # The state overflows at step 2 in every run; the stacked pass gives
        # way to the per-run path, whose first run raises.
        one = [[1.0]]
        config = ExperimentConfig(
            model={"inline": {"dims": [1], "out_dims": [1], "subsystems": [
                {"index": 0, "A": [[1e200]], "C": one, "Q": one, "R": one}]}},
            steps=5, seed=3, monitors=False, x0=[1.0],
            noise={"w_std": 0.1, "v_std": 0.1},
            estimator={"Q": 1.0, "R": 1.0, "P0": 1.0, "x0_guess": [0.0]})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError) as stacked:
                monte_carlo(config, runs=3)
            with pytest.raises(SimulationError) as alone:
                per_run_ensemble(config, 3)
        assert str(stacked.value) == str(alone.value) == "state became non-finite at step 2"
        assert stacked.value.step == alone.value.step == 2


class TestStackedNonlinearEnsemble:
    """A nonlinear ensemble is simulated and filtered as stacks of runs too,
    each run's maps called as in its own run; every field of its result
    equals the per-run path's bit for bit, and an ensemble with a failing
    run raises the error of the first failing run on the per-run path."""

    REACTOR = ExperimentConfig(model={"name": "reactor-chain"}, steps=50, monitors=False)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reactor_equals_the_per_run_path(self, monkeypatch, seed):
        config = self.REACTOR.replace(seed=seed)
        alone = count_calls(monkeypatch, partkf.harness, "simulate")
        result = monte_carlo(config, runs=20)
        assert alone == []
        monkeypatch.undo()
        assert_same_ensemble(result, per_run_ensemble(config, 20))

    def test_bench_config_equals_the_per_run_path(self):
        # reactor-500's ensemble: four runs at K=50, one batch.
        config = self.REACTOR.replace(seed=1)
        assert_same_ensemble(monte_carlo(config, runs=4), per_run_ensemble(config, 4))

    def test_a_batch_counts_the_arrays_of_one_instant(self, monkeypatch):
        # At K=1 a run's Jacobian stacks and information blocks of one
        # instant outnumber its states and measurements over the horizon.
        config = self.REACTOR.replace(seed=4, steps=1)
        source = partkf.harness._resolve(config).source
        model = source.model
        assert source.instant_floats > 2 * (model.nx + model.ny)
        monkeypatch.setattr(partkf.harness, "_STACK_FLOATS", 2 * source.instant_floats)
        passes = count_calls(monkeypatch, partkf.harness, "_simulate_runs")
        result = monte_carlo(config, runs=5)
        assert [len(call[-1]) for call in passes] == [2, 2, 1]
        assert_same_ensemble(result, per_run_ensemble(config, 5))

    # Process noise 60 times the published one.  At seed 1 the second run
    # leaves the box at step 16 and the first stays in; at seed 3 the
    # second leaves it at step 9, before the first does at step 28, and the
    # error is the first run's.
    @pytest.mark.parametrize("seed, step", [(1, 16), (3, 28)])
    def test_a_run_leaving_the_box_raises_the_per_run_error(self, monkeypatch, seed, step):
        bench = get_benchmark("reactor-chain")
        config = self.REACTOR.replace(seed=seed, noise={
            "w_std": (60 * bench.w_std).tolist(), "w_bound": (60 * bench.w_bound).tolist()})
        passes = count_calls(monkeypatch, partkf.harness, "_simulate_runs")
        with pytest.raises(SimulationError) as stacked:
            monte_carlo(config, runs=2)
        assert len(passes) == 1
        with pytest.raises(SimulationError) as alone:
            per_run_ensemble(config, 2)
        assert str(stacked.value) == str(alone.value) == (
            f"state left the validity box at step {step}")
        assert stacked.value.step == alone.value.step == step

    def test_a_failing_jacobian_of_one_run_raises_the_per_run_error(self, monkeypatch):
        # Subsystem 2's jac_f raises at the posterior of the second run at
        # instant 9 and of the third run at instant 6, so the filter fails
        # at instant 10 of the second run, after the third run's failure at
        # instant 7 in the stacked pass.
        config = self.REACTOR.replace(seed=2, steps=20)
        plan = partkf.harness._resolve(config)
        seeds = np.random.SeedSequence(config.seed).generate_state(4, dtype=np.uint64)
        p = plan.model.partition
        points = [plan.run(int(seeds[run])).xhat_post[k][p.state_slice(2)].copy()
                  for run, k in ((1, 9), (2, 6))]
        bench = get_benchmark("reactor-chain")
        sub = bench.model.subsystems[2]

        def jac_f(x_i, neighbors):
            if any(np.array_equal(x_i, point) for point in points):
                raise RuntimeError("no Jacobian here")
            return sub.jac_f(x_i, neighbors)

        subs = list(bench.model.subsystems)
        subs[2] = dataclasses.replace(sub, jac_f=jac_f, jacobian_check_samples=(), stacked=False)
        broken = dataclasses.replace(bench, model=aggregate_nonlinear(subs, p))
        monkeypatch.setitem(partkf.benchmarks._REGISTRY, "test-reactor", lambda: broken)
        config = config.replace(model={"name": "test-reactor"})
        passes = count_calls(monkeypatch, partkf.harness, "_pass")
        with pytest.raises(LinearizationError) as stacked:
            monte_carlo(config, runs=4)
        assert len(passes) == 1
        with pytest.raises(LinearizationError) as alone:
            per_run_ensemble(config, 4)
        assert str(stacked.value) == str(alone.value) == (
            "instant 10, subsystem 2: jac_f raised RuntimeError('no Jacobian here')")
        assert stacked.value.subsystem == alone.value.subsystem == 2


    def test_a_warning_inside_a_map_of_one_run_is_the_per_run_warning(self, monkeypatch):
        # Subsystem 1's f overflows at the truth of the second run at step 4
        # and still returns finite values.  The tests turn warnings into
        # errors, so a standalone run raises there; with warnings ignored
        # every run completes.
        config = self.REACTOR.replace(seed=2, steps=10)
        plan = partkf.harness._resolve(config)
        seeds = np.random.SeedSequence(config.seed).generate_state(3, dtype=np.uint64)
        p = plan.model.partition
        point = plan.run(int(seeds[1])).xs[4][p.state_slice(1)].copy()
        bench = get_benchmark("reactor-chain")
        sub = bench.model.subsystems[1]

        def f(x_i, neighbors):
            out = sub.f(x_i, neighbors)
            return out + 0.0 / np.cosh(np.float64(1e3)) if np.array_equal(x_i, point) else out

        subs = list(bench.model.subsystems)
        subs[1] = dataclasses.replace(sub, f=f, jacobian_check_samples=(), stacked=False)
        broken = dataclasses.replace(bench, model=aggregate_nonlinear(subs, p))
        monkeypatch.setitem(partkf.benchmarks._REGISTRY, "test-reactor", lambda: broken)
        config = config.replace(model={"name": "test-reactor"})
        with pytest.raises(SimulationError) as stacked:
            monte_carlo(config, runs=3)
        with pytest.raises(SimulationError) as alone:
            per_run_ensemble(config, 3)
        assert str(stacked.value) == str(alone.value) == (
            "step 4, subsystem 1: f raised RuntimeWarning('overflow encountered in cosh')")
        assert stacked.value.step == alone.value.step == 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert_same_ensemble(monte_carlo(config, runs=3), per_run_ensemble(config, 3))


def _failing_only_at(report: StabilityReport, k: int) -> StabilityReport:
    """``report`` with both monitors' outcomes true but at instant ``k``."""
    ok = np.ones_like(report.coupling_ok)
    ok[k] = False
    return dataclasses.replace(report, coupling_ok=ok, contraction_ok=ok.copy())


class TestAllHold:
    """Instant 0 has no step to judge; every later instant counts."""

    FLAGS = ("coupling_all_hold", "contraction_all_hold")

    def test_a_failure_at_instant_1_fails(self, linear_run):
        report = _failing_only_at(stability_report(linear_run[2]), 1)
        assert [getattr(report, flag) for flag in self.FLAGS] == [False, False]

    def test_a_failure_at_instant_0_is_not_judged(self, linear_run):
        report = _failing_only_at(stability_report(linear_run[2]), 0)
        assert [getattr(report, flag) for flag in self.FLAGS] == [True, True]

    def test_a_check_from_instant_2_fails_the_test(self, linear_run, monkeypatch):
        # Negative control: reading ``[2:]`` never judges instant 1.
        for flag, name in zip(self.FLAGS, ("coupling_ok", "contraction_ok")):
            monkeypatch.setattr(StabilityReport, flag, property(
                lambda self, name=name: bool(np.all(getattr(self, name)[2:]))))
        report = _failing_only_at(stability_report(linear_run[2]), 1)
        assert [getattr(report, flag) for flag in self.FLAGS] == [True, True]


class TestLyapunov:
    def test_descent_trend_on_decoupled_linear_run(self, decoupled_linear_run):
        bench, traj, rec = decoupled_linear_run
        rep = stability_report(rec)
        assert rep.coupling_all_hold
        alpha = rep.alpha
        V = rep.lyapunov
        assert np.all(V >= 0)
        # Empirical disturbance offset from the one-step descent inequality.
        kappa = np.max(V[1:] - (1.0 - alpha / 4.0) * V[:-1])
        threshold = 4.0 * kappa / alpha if alpha > 0 else np.inf
        for k in range(1, rec.steps + 1):
            if V[k - 1] > threshold:
                assert V[k] < V[k - 1]

    def test_values_match_direct_quadratic(self, linear_run):
        bench, traj, rec = linear_run
        V = lyapunov_values(rec)
        k = 7
        e = rec.xs[k] - rec.xhat_post[k]
        want = 0.0
        for i in range(2):
            sl = bench.model.partition.state_slice(i)
            want += e[sl] @ np.linalg.inv(rec.covs[k][i]) @ e[sl]
        assert V[k] == pytest.approx(want, rel=1e-10)
