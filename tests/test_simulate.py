import dataclasses
import importlib
import re
import warnings

import numpy as np
import pytest

from partkf.benchmarks import LINEAR_A, LINEAR_X0, get_benchmark, linear_subsystems
from partkf.model import (
    LinearizationError,
    LinearSubsystem,
    NonlinearSubsystem,
    aggregate_nonlinear,
    assemble_global,
    make_partition,
)
from partkf.simulate import (
    NoiseSpec,
    SimulationError,
    Trajectory,
    _simulate_runs,
    _start,
    sample_noise,
    simulate,
)

from conftest import count_calls, noise_for
from random_plants import random_plant

#: The simulation module; the package's ``simulate`` function shadows it as
#: an attribute of ``partkf``.
SIM = importlib.import_module("partkf.simulate")


def _raising_f(x_i, neighbors):
    raise ZeroDivisionError("boom")


def _model():
    return assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))


def numpy_streams(seed, n):
    """The generators of the splitting rule, made by NumPy itself:
    ``default_rng`` of the children of ``SeedSequence(seed).spawn(2 n)``,
    (process list, measurement list).  The references below draw from
    these, so that they stay independent of the pass that the module
    computes the streams by (``_stream_words``)."""
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2 * n)]
    return gens[:n], gens[n:]


def per_instant_simulate(model, x0, steps, noise):
    """The reference simulator: at every instant, one :func:`sample_noise`
    draw per subsystem from its measurement generator, then one from its
    process generator, each redrawn at once when out of bound."""
    steps, x0, w_std, v_std, w_bound, v_bound = _start(model, x0, steps, noise)
    p = model.partition
    w_gens, v_gens = numpy_streams(noise.seed, p.n)
    box = model.state_box()

    def draw(std, bound, gens, slices, k):
        parts = []
        for rng, sl in zip(gens, slices):
            try:
                parts.append(sample_noise(std[sl], None if bound is None else bound[sl], rng))
            except SimulationError as exc:
                raise SimulationError(str(exc), step=k) from exc
        return np.concatenate(parts)

    state_slices = [p.state_slice(i) for i in range(p.n)]
    out_slices = [p.out_slice(i) for i in range(p.n)]
    xs = np.empty((steps + 1, model.nx))
    ys = np.empty((steps + 1, model.ny))
    ws = np.empty((steps, model.nx))
    vs = np.empty((steps + 1, model.ny))
    xs[0] = x0
    for k in range(steps + 1):
        if box is not None and (np.any(xs[k] < box[0]) or np.any(xs[k] > box[1])):
            raise SimulationError(f"state left the validity box at step {k}", step=k)
        if not np.all(np.isfinite(xs[k])):
            raise SimulationError(f"state became non-finite at step {k}", step=k)
        vs[k] = draw(v_std, v_bound, v_gens, out_slices, k)
        try:
            ys[k] = model.h(xs[k]) + vs[k]
            if k < steps:
                ws[k] = draw(w_std, w_bound, w_gens, state_slices, k)
                xs[k + 1] = model.f(xs[k]) + ws[k]
        except LinearizationError as exc:
            raise SimulationError(f"step {k}, {exc}", step=k) from exc
    return Trajectory(xs=xs, ys=ys, ws=ws, vs=vs, seed=noise.seed)


def keep_block_noise(noise, model, steps, w_std, v_std, w_bound, v_bound):
    """A wrong drawing rule, the negative control of the reference check:
    each generator's block drawn at once, and an out-of-bound draw redrawn
    in place from the generator's next numbers, so the rest of the block is
    kept.  Every draw is within its bound, but a redraw no longer moves the
    later draws of its generator."""
    p = model.partition
    out = []
    for gens, dims, offsets, rows, std, bound in zip(
            numpy_streams(noise.seed, p.n), (p.dims, p.out_dims), (p.offsets, p.out_offsets),
            (steps, steps + 1), (w_std, v_std), (w_bound, v_bound)):
        z = np.concatenate([g.normal(0.0, 1.0, size=(rows, d)) for g, d in zip(gens, dims)],
                           axis=1) * std
        if bound is not None:
            for i, rng in enumerate(gens):
                sl = slice(offsets[i], offsets[i + 1])
                for row in z[:, sl]:
                    bad = np.abs(row) > bound[sl]
                    while bad.any():
                        row[bad] = rng.normal(0.0, 1.0, size=int(bad.sum())) * std[sl][bad]
                        bad = np.abs(row) > bound[sl]
        out.append(z)
    return tuple(out)


#: The fixtures of the reference check: the two registered plants and a
#: chain of sixteen subsystems of one to three states, some without outputs.
REFERENCE_PLANTS = {
    "linear-4state": lambda: get_benchmark("linear-4state"),
    "reactor-chain": lambda: get_benchmark("reactor-chain"),
    "chain-16": lambda: random_plant(5, topology="chain", n=16),
}


def _matches_reference(bench, sigmas, seed, steps=40) -> bool:
    """Whether :func:`simulate` gives the reference's ``xs``, ``ys``, ``ws``
    and ``vs`` bit for bit, or raises its error at its step, for the
    fixture's noise bounded at ``sigmas`` deviations (``None``: unbounded)."""
    noise = NoiseSpec(w_std=bench.w_std, v_std=bench.v_std, seed=seed,
                      w_bound=None if sigmas is None else sigmas * bench.w_std,
                      v_bound=None if sigmas is None else sigmas * bench.v_std)
    try:
        want = per_instant_simulate(bench.model, bench.x0, steps, noise)
    except SimulationError as exc:
        with pytest.raises(SimulationError) as err:
            simulate(bench.model, bench.x0, steps, noise)
        return str(err.value) == str(exc) and err.value.step == exc.step
    got = simulate(bench.model, bench.x0, steps, noise)
    return all(np.array_equal(getattr(got, name), getattr(want, name))
               for name in ("xs", "ys", "ws", "vs"))


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
        subs[1] = dataclasses.replace(subs[1], f=f, jacobian_check_samples=(), stacked=False)
        model = aggregate_nonlinear(subs, bench.model.partition)
        with pytest.raises(SimulationError, match=r"^step 0, subsystem 1: f ") as err:
            simulate(model, bench.x0, 5, bench.noise(seed=1))
        assert err.value.step == 0

    @pytest.mark.parametrize("map_, make, dtype", [
        ("f", lambda s: dict(f=lambda x, n: s.f(x, n) + 1j), "complex128"),
        ("h", lambda s: dict(h=lambda x: [str(v) for v in s.h(x)]), "<U"),
        ("h", lambda s: dict(h=lambda x: s.h(x) > 0), "bool")], ids=["complex", "str", "bool"])
    def test_non_real_map_value_names_step_subsystem_and_map(self, map_, make, dtype):
        # Accepted, f = x + 1j ran on the real part of its value (with a
        # ComplexWarning) and a string such as '1.5' was read as 1.5.
        bench = get_benchmark("reactor-chain")
        subs = list(bench.model.subsystems)
        subs[1] = dataclasses.replace(subs[1],
                                      jacobian_check_samples=(), stacked=False, **make(subs[1]))
        model = aggregate_nonlinear(subs, bench.model.partition)
        with pytest.raises(SimulationError, match=rf"^step 0, subsystem 1: {map_} returned "
                                                  rf"{dtype}\S* values, expected real numbers$"):
            simulate(model, bench.x0, 5, bench.noise(seed=1))

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


class TestReferenceSimulator:
    """:func:`simulate` draws each generator's noise as one block and
    redraws a generator with an out-of-bound draw row by row; the result is
    the per-instant reference's, bit for bit."""

    SIGMAS = [None, 1.0, 1.5, 3.0, 6.0]

    @pytest.mark.parametrize("sigmas", SIGMAS, ids=repr)
    @pytest.mark.parametrize("plant", sorted(REFERENCE_PLANTS))
    def test_simulate_equals_the_per_instant_reference(self, monkeypatch, plant, sigmas):
        bench = REFERENCE_PLANTS[plant]()
        redraws = count_calls(monkeypatch, SIM, "sample_noise")
        assert all(_matches_reference(bench, sigmas, seed) for seed in range(10))
        if sigmas == 1.0:  # the row by row redraw took part
            assert redraws

    def test_a_drawer_that_keeps_the_block_fails_the_check(self, monkeypatch):
        bench = REFERENCE_PLANTS["linear-4state"]()
        monkeypatch.setattr(SIM, "_noise", keep_block_noise)
        assert all(_matches_reference(bench, None, seed) for seed in range(10))
        assert not any(_matches_reference(bench, 1.0, seed) for seed in range(10))

    def test_a_run_bounded_at_six_deviations_draws_only_blocks(self, monkeypatch):
        bench = get_benchmark("linear-4state")
        calls = count_calls(monkeypatch, SIM, "sample_noise")
        simulate(bench.model, bench.x0, 50, bench.noise(seed=1))
        assert calls == []
        simulate(bench.model, bench.x0, 50, noise_for(bench.model, 0.05, 1, bound_sigmas=1.0))
        assert calls


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


    def test_a_block_draw_equals_row_draws_until_a_redraw(self):
        # The identity the block draws of simulate rest on: one (K, d) draw of
        # sample_noise's rule, normal(0, 1) * std, gives the numbers of K draws
        # of d by sample_noise, unbounded or with a bound no draw exceeds.
        std = np.array([0.5, 2.0, 1e-3])
        block = np.random.default_rng(7).normal(0.0, 1.0, size=(40, 3)) * std
        for bound in (None, 10.0 * std):
            rng = np.random.default_rng(7)
            rows = np.array([sample_noise(std, bound, rng) for _ in range(40)])
            assert np.array_equal(rows, block)
        # Negative control: at a bound of one deviation some draws are
        # redrawn, and every later draw of the generator moves.
        assert np.any(np.abs(block) > std)
        rng = np.random.default_rng(7)
        rows = np.array([sample_noise(std, std, rng) for _ in range(40)])
        first = np.flatnonzero(np.any(np.abs(block) > std, axis=1))[0]
        assert np.array_equal(rows[:first], block[:first])
        assert not np.array_equal(rows[first:], block[first:])


#: Seeds at the edges of the 64-bit range and of its 32-bit words, where a
#: seed's entropy grows from one word to two.
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
#: The edge seeds and 200 random 64-bit seeds.
PASS_SEEDS = EDGE_SEEDS + [int(s) for s in np.random.default_rng(2014).integers(
    0, 2 ** 64, size=200, dtype=np.uint64, endpoint=False)]


def pass_matches_numpy(seeds, m: int) -> bool:
    """Whether the array pass, run once for all of ``seeds``, gives each
    child ``c < m`` of each seed the words
    ``SeedSequence(seed).spawn(m)[c].generate_state(4, uint64)``, and a
    generator built from them the PCG64 state and the first draws of
    ``default_rng`` of that child."""
    got = SIM._stream_words(seeds, m)
    for seed, words in zip(seeds, got, strict=True):
        children = np.random.SeedSequence(seed).spawn(m)
        for w, child in zip(words, children, strict=True):
            if not np.array_equal(w, child.generate_state(4, np.uint64)):
                return False
            gen, want = SIM._generator(w), np.random.default_rng(child)
            if gen.bit_generator.state != want.bit_generator.state:
                return False
            if not np.array_equal(gen.normal(size=3), want.normal(size=3)):
                return False
    return True


class TestStreamStates:
    """The array pass computes NumPy's splitting rule; the tests hold it to
    NumPy's own generators."""

    @pytest.mark.parametrize("m", [1, 2, 3, 128, 300])
    def test_the_pass_gives_numpys_states_and_draws(self, m):
        assert pass_matches_numpy(PASS_SEEDS, m)

    def test_seeds_in_one_pass_are_each_their_own_pass(self):
        one = np.stack([SIM._stream_words([s], 5)[0] for s in EDGE_SEEDS])
        assert np.array_equal(SIM._stream_words(EDGE_SEEDS, 5), one)
        assert len({w.tobytes() for w in one.reshape(-1, 4)}) == 5 * len(EDGE_SEEDS)

    def test_the_pass_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SIM._stream_words(EDGE_SEEDS, 300)
            SIM._generator(SIM._stream_words([2 ** 64 - 1], 1)[0][0]).normal(size=3)

    @pytest.mark.parametrize("bit", [0, 31])
    @pytest.mark.parametrize("name", ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_L",
                                      "_MIX_R"])
    def test_a_constant_off_by_one_bit_fails_the_check(self, monkeypatch, name, bit):
        assert pass_matches_numpy(EDGE_SEEDS, 3)
        monkeypatch.setattr(SIM, name, getattr(SIM, name) ^ 1 << bit)
        assert not pass_matches_numpy(EDGE_SEEDS, 3)


class TestSimulateRuns:
    SEEDS = [11, 12, 13, 2 ** 64 - 1]

    def test_each_run_is_its_simulate_run_bitwise(self):
        model = _model()
        noise = noise_for(model, 0.3, seed=0)
        xs, ys = _simulate_runs(model, LINEAR_X0, 30, noise, self.SEEDS)
        assert xs.shape == (31, 4, 4) and ys.shape == (31, 4, 2)
        for j, seed in enumerate(self.SEEDS):
            traj = simulate(model, LINEAR_X0, 30, dataclasses.replace(noise, seed=seed))
            assert np.array_equal(xs[:, j], traj.xs)
            assert np.array_equal(ys[:, j], traj.ys)

    def test_a_redrawing_run_stays_in_the_stack_bitwise(self, monkeypatch):
        model = _model()
        noise = noise_for(model, 0.3, seed=0, bound_sigmas=2.5)
        xs, ys = _simulate_runs(model, LINEAR_X0, 30, noise, range(10))
        assert xs.shape == (31, 10, 4)
        redraws = count_calls(monkeypatch, SIM, "sample_noise")
        redrawing = []
        for j in range(10):
            before = len(redraws)
            traj = simulate(model, LINEAR_X0, 30, dataclasses.replace(noise, seed=j))
            redrawing.append(len(redraws) > before)
            assert np.array_equal(xs[:, j], traj.xs)
            assert np.array_equal(ys[:, j], traj.ys)
        assert 0 < sum(redrawing) < 10

    def test_a_non_finite_state_gives_way_to_simulate(self):
        model = assemble_global([LinearSubsystem(0, [[1e200]], {}, [[1.0]], [[1.0]],
                                                 [[1.0]])], make_partition([1], [1]))
        noise = noise_for(model, 0.1, seed=0)
        assert _simulate_runs(model, [1.0], 5, noise, [1, 2]) is None
        with np.errstate(over="ignore"), pytest.raises(SimulationError,
                                                       match="non-finite at step 2"):
            simulate(model, [1.0], 5, dataclasses.replace(noise, seed=1))

    def test_a_seed_is_checked_as_noise_spec_checks_it(self):
        model = _model()
        noise = noise_for(model, 0.3, seed=0)
        for seed, message in ((2 ** 64, "^seed must fit in 64 bits$"),
                              (-1, "^seed must fit in 64 bits$"),
                              (1.5, "^seed must be an integer, not 1.5$")):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(noise, seed=seed)
            with pytest.raises(ValueError, match=message):
                _simulate_runs(model, LINEAR_X0, 5, noise, [1, seed])

    def test_arguments_are_checked_as_simulate_checks_them(self):
        model = _model()
        noise = noise_for(model, 0.3, seed=0)
        for x0, steps, message in ((LINEAR_X0[:3], 5, "x0 must have shape"),
                                   (LINEAR_X0, 0, "steps must be at least 1")):
            for call in (lambda: simulate(model, x0, steps, noise),
                         lambda: _simulate_runs(model, x0, steps, noise, [1])):
                with pytest.raises(ValueError, match=message):
                    call()


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

    @pytest.mark.parametrize("field", ["w_std", "v_std"])
    def test_infinite_std_rejected_by_name(self, field):
        # Accepted, an infinite v_std gave a trajectory of infinite
        # measurements without error, and an infinite w_std surfaced only as
        # "state became non-finite at step 1" from simulate.
        kw = {"w_std": np.ones(4), "v_std": np.ones(2)}
        kw[field] = np.where(np.arange(kw[field].size) == 0, np.inf, kw[field])
        with pytest.raises(ValueError, match=f"^{field} has an infinite entry$"):
            NoiseSpec(seed=0, **kw)

    @pytest.mark.parametrize("field", ["w_bound", "v_bound"])
    def test_infinite_bound_truncates_nothing(self, field):
        bench = get_benchmark("linear-4state")
        kw = {"w_bound": None, "v_bound": None,
              field: np.full(4 if field == "w_bound" else 2, np.inf)}
        bounded = NoiseSpec(w_std=np.full(4, 0.1), v_std=np.full(2, 0.1), seed=3, **kw)
        free = NoiseSpec(w_std=np.full(4, 0.1), v_std=np.full(2, 0.1), seed=3)
        a, b = (simulate(bench.model, bench.x0, 5, spec) for spec in (bounded, free))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
