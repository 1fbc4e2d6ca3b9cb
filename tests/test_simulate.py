import dataclasses
import re

import numpy as np
import pytest

from partkf.benchmarks import LINEAR_A, LINEAR_X0, get_benchmark, linear_subsystems
from partkf.model import (
    NonlinearSubsystem,
    aggregate_nonlinear,
    assemble_global,
    make_partition,
)
from partkf.simulate import NoiseSpec, SimulationError, Trajectory, sample_noise, simulate

from conftest import noise_for


def _raising_f(x_i, neighbors):
    raise ZeroDivisionError("boom")


def _model():
    return assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))


class TestSimulate:
    def test_zero_noise_first_step_is_matrix_product(self):
        model = _model()
        traj = simulate(model, LINEAR_X0, 3, noise_for(model, 0.0, seed=0))
        assert np.allclose(traj.xs[1], LINEAR_A @ LINEAR_X0, rtol=0, atol=1e-14)
        assert np.array_equal(traj.ws, np.zeros((3, 4)))

    def test_zero_state_zero_noise_stays_at_equilibrium(self):
        model = _model()
        traj = simulate(model, np.zeros(4), 10, noise_for(model, 0.0, seed=0))
        assert np.array_equal(traj.xs, np.zeros((11, 4)))
        assert np.array_equal(traj.ys, np.zeros((11, 2)))

    def test_reproducibility_identity(self):
        model = _model()
        traj = simulate(model, LINEAR_X0, 25, noise_for(model, 0.3, seed=42))
        for k in range(25):
            assert np.array_equal(traj.xs[k + 1], model.f(traj.xs[k]) + traj.ws[k])
        for k in range(26):
            assert np.array_equal(traj.ys[k], model.h(traj.xs[k]) + traj.vs[k])

    def test_identical_seed_identical_trajectory(self):
        model = _model()
        t1 = simulate(model, LINEAR_X0, 20, noise_for(model, 0.5, seed=9))
        t2 = simulate(model, LINEAR_X0, 20, noise_for(model, 0.5, seed=9))
        assert np.array_equal(t1.xs, t2.xs)
        assert np.array_equal(t1.ys, t2.ys)
        t3 = simulate(model, LINEAR_X0, 20, noise_for(model, 0.5, seed=10))
        assert not np.array_equal(t1.xs, t3.xs)

    def test_steps_must_be_positive(self):
        model = _model()
        with pytest.raises(ValueError):
            simulate(model, LINEAR_X0, 0, noise_for(model, 0.1, seed=0))

    @pytest.mark.parametrize("steps", [2.5, True, "2"], ids=repr)
    def test_non_integer_steps_rejected_by_name(self, steps):
        # Accepted, 2.5 and "2" raised a bare TypeError and True ran one step.
        model = _model()
        with pytest.raises(ValueError, match=re.escape(
                f"steps must be an integer, not {steps!r}")):
            simulate(model, LINEAR_X0, steps, noise_for(model, 0.1, seed=0))

    def test_validity_box_exit_reports_step(self):
        bench = get_benchmark("reactor-chain")
        x0 = bench.x0.copy()
        x0[0] = 499.0  # just inside the box; heat balance pushes it back down
        spec = NoiseSpec(w_std=np.zeros(8), v_std=np.zeros(8), seed=0)
        simulate(bench.model, x0, 5, spec)  # survives
        x0[0] = 501.0  # outside from the start
        with pytest.raises(SimulationError) as err:
            simulate(bench.model, x0, 5, spec)
        assert err.value.step == 0

    @pytest.mark.parametrize("f", [_raising_f, lambda x, n: np.full(2, np.nan)],
                             ids=["raises", "nan"])
    def test_broken_dynamics_map_names_step_and_subsystem(self, f):
        bench = get_benchmark("reactor-chain")
        subs = list(bench.model.subsystems)
        subs[1] = dataclasses.replace(subs[1], f=f, jacobian_check_samples=())
        model = aggregate_nonlinear(subs, bench.model.partition)
        with pytest.raises(SimulationError, match=r"^step 0, subsystem 1: f ") as err:
            simulate(model, bench.x0, 5, bench.noise(seed=1))
        assert err.value.step == 0

    def test_short_output_map_is_not_broadcast(self):
        # One subsystem with three outputs whose h returns one value, which
        # numpy would broadcast over all three measurements.
        sub = NonlinearSubsystem(index=0, state_dim=3, out_dim=3, neighbor_dims={},
                                 f=lambda x, n: 0.5 * x, h=lambda x: x[:1],
                                 Q=np.eye(3), R=np.eye(3))
        model = aggregate_nonlinear([sub], make_partition([3], [3]))
        spec = NoiseSpec(w_std=0.1 * np.ones(3), v_std=0.1 * np.ones(3), seed=0)
        with pytest.raises(SimulationError, match=r"^step 0, subsystem 0: h returned "
                                                  r"shape \(1,\), expected \(3,\)") as err:
            simulate(model, np.ones(3), 5, spec)
        assert err.value.step == 0

    def test_subsystem_streams_are_independent(self):
        # Tightening subsystem 0's bound (extra redraws) must not change the
        # noise consumed by subsystem 1: streams are split per subsystem.
        model = _model()
        loose = NoiseSpec(w_std=np.ones(4), v_std=np.ones(2), seed=5,
                          w_bound=np.array([6.0, 6.0, 6.0, 6.0]),
                          v_bound=np.array([6.0, 6.0]))
        tight = NoiseSpec(w_std=np.ones(4), v_std=np.ones(2), seed=5,
                          w_bound=np.array([1.0, 1.0, 6.0, 6.0]),
                          v_bound=np.array([1.0, 6.0]))
        t_loose = simulate(model, LINEAR_X0, 40, loose)
        t_tight = simulate(model, LINEAR_X0, 40, tight)
        assert np.array_equal(t_loose.ws[:, 2:], t_tight.ws[:, 2:])
        assert np.array_equal(t_loose.vs[:, 1], t_tight.vs[:, 1])
        assert not np.array_equal(t_loose.ws[:, :2], t_tight.ws[:, :2])

    def test_csv_and_json_roundtrip(self, tmp_path):
        model = _model()
        traj = simulate(model, LINEAR_X0, 5, noise_for(model, 0.2, seed=3))
        csv_path = traj.to_csv(tmp_path / "traj.csv")
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header == ["k", "x_1", "x_2", "x_3", "x_4", "y_1", "y_2"]
        traj.to_json(tmp_path / "traj.json")
        back = Trajectory.from_json(tmp_path / "traj.json")
        assert back.seed == traj.seed
        assert np.array_equal(back.xs, traj.xs)
        assert np.array_equal(back.ws, traj.ws)
        assert np.array_equal(back.vs, traj.vs)


class TestTrajectoryChecks:
    @pytest.mark.parametrize("xs", [np.float64(1.0), np.ones(4), np.ones((2, 4, 1))],
                             ids=["0-d", "1-d", "3-d"])
    def test_xs_without_instant_rows_rejected_by_name(self, xs):
        # Accepted, a 0-d xs made ``steps`` raise a bare IndexError inside
        # the filter's trajectory check.
        with pytest.raises(ValueError, match=re.escape(
                f"xs must hold one state vector per instant, got shape {np.shape(xs)}")):
            Trajectory(xs=xs, ys=np.ones((2, 2)), ws=np.ones((1, 4)),
                       vs=np.ones((2, 2)), seed=0)

    def test_xs_with_zero_rows_rejected_by_name(self):
        # Accepted, the filter blamed the measurements: "measurements have
        # shape (4, 2), expected (0, 2)".
        model = _model()
        traj = simulate(model, LINEAR_X0, 3, noise_for(model, 0.2, seed=3))
        with pytest.raises(ValueError, match=re.escape(
                "xs has shape (0, 4), no instant for the 4 instants of ys")):
            dataclasses.replace(traj, xs=traj.xs[:0])

    def test_replacing_xs_checks_it_too(self):
        model = _model()
        traj = simulate(model, LINEAR_X0, 3, noise_for(model, 0.2, seed=3))
        with pytest.raises(ValueError, match="^xs must hold one state vector"):
            dataclasses.replace(traj, xs=np.float64(0.0))


class TestSampleNoise:
    def test_zero_std_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert np.array_equal(sample_noise(np.zeros(3), None, rng), np.zeros(3))

    def test_bound_respected(self):
        # Bound proportional to a nominal state, as in plant-scale setups.
        x0 = np.array([100.0, 5.0, 50.0])
        std = 0.001 * x0
        bound = 0.005 * x0
        rng = np.random.default_rng(1)
        draws = np.array([sample_noise(std, bound, rng) for _ in range(2000)])
        assert np.all(np.abs(draws) <= bound)

    def test_fixed_seed_reproduces_sequence(self):
        std = np.ones(4)
        a = [sample_noise(std, None, np.random.default_rng(7)) for _ in range(1)]
        b = [sample_noise(std, None, np.random.default_rng(7)) for _ in range(1)]
        assert np.array_equal(a, b)

    def test_truncated_std_matches_analytic_value(self):
        # Normal truncated at +-3 sigma: variance 1 - 6 phi(3) / (2 Phi(3) - 1).
        from scipy.stats import norm
        expected_std = np.sqrt(1.0 - 6.0 * norm.pdf(3.0) / (2.0 * norm.cdf(3.0) - 1.0))
        rng = np.random.default_rng(123)
        std = np.ones(1)
        bound = 3.0 * np.ones(1)
        samples = np.array([sample_noise(std, bound, rng)[0] for _ in range(100_000)])
        assert abs(samples.std() - expected_std) <= 0.05 * expected_std

    def test_redraw_cap_signals_misconfigured_bound(self):
        # NoiseSpec validation forbids this pairing; the raw sampler guards
        # against it with a capped rejection loop.
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            sample_noise(np.ones(2), 1e-12 * np.ones(2), rng)


class TestNoiseSpecValidation:
    def test_bound_below_std_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(w_std=np.ones(2), v_std=np.ones(1), seed=0,
                      w_bound=0.5 * np.ones(2))

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(w_std=-np.ones(2), v_std=np.ones(1), seed=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(w_std=np.ones(2), v_std=np.ones(1), seed=2 ** 64)

    @pytest.mark.parametrize("seed", [1.5, "3", True], ids=repr)
    def test_non_integer_seed_rejected_by_name(self, seed):
        # Accepted, 1.5 became seed 1, "3" seed 3 and True seed 1.
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer, not {seed!r}")):
            NoiseSpec(w_std=np.ones(2), v_std=np.ones(1), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        spec = NoiseSpec(w_std=np.ones(2), v_std=np.ones(1), seed=np.uint64(2 ** 64 - 1))
        assert spec.seed == 2 ** 64 - 1 and type(spec.seed) is int

    @pytest.mark.parametrize("field", ["w_std", "v_std", "w_bound", "v_bound"])
    def test_nan_entry_rejected_by_name(self, field):
        # Accepted, a NaN w_std surfaced only as "state became non-finite at
        # step 1" from simulate, and a NaN bound truncated nothing.
        kw = {"w_std": np.ones(2), "v_std": np.ones(1),
              "w_bound": 3 * np.ones(2), "v_bound": 3 * np.ones(1)}
        kw[field] = np.where(np.arange(kw[field].size) == 0, np.nan, kw[field])
        with pytest.raises(ValueError, match=f"^{field} has a NaN entry$"):
            NoiseSpec(seed=0, **kw)
