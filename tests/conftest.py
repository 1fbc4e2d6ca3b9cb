import numpy as np
import pytest

from partkf.benchmarks import get_benchmark
from partkf.dekf import run_dekf
from partkf.dkf import run_dkf
from partkf.simulate import NoiseSpec, simulate


@pytest.fixture(scope="session")
def linear_bench():
    return get_benchmark("linear-4state")


@pytest.fixture(scope="session")
def unit_weight_design():
    """Identity process/measurement weights with the published prior: the
    design of the linear fixture at unit noise."""
    return get_benchmark("linear-4state", noise_std=1.0).design


@pytest.fixture(scope="session")
def linear_run(linear_bench):
    """A 60-step run of the linear fixture at its default noise level."""
    traj = simulate(linear_bench.model, linear_bench.x0, 60, linear_bench.noise(seed=1))
    return linear_bench, traj, run_dkf(linear_bench.model, linear_bench.design, traj)


@pytest.fixture(scope="session")
def decoupled_linear_run():
    """Stable decoupled variant of the linear fixture (coupling removed)."""
    bench = get_benchmark("linear-4state", coupling_scale=0.0)
    traj = simulate(bench.model, bench.x0, 120, bench.noise(seed=2))
    return bench, traj, run_dkf(bench.model, bench.design, traj)


@pytest.fixture(scope="session")
def reactor_bench():
    return get_benchmark("reactor-chain")


@pytest.fixture(scope="session")
def reactor_run(reactor_bench):
    """A 150-step run of the reactor benchmark with its published weights."""
    traj = simulate(reactor_bench.model, reactor_bench.x0, 150,
                    reactor_bench.noise(seed=7))
    return reactor_bench, traj, run_dekf(reactor_bench.model, reactor_bench.design, traj)


def noise_for(model, std, seed, bound_sigmas=6.0):
    std = float(std)
    return NoiseSpec(
        w_std=std * np.ones(model.nx), v_std=std * np.ones(model.ny), seed=seed,
        w_bound=bound_sigmas * std * np.ones(model.nx) if std else None,
        v_bound=bound_sigmas * std * np.ones(model.ny) if std else None,
    )
