import dataclasses

import numpy as np
import pytest

from partkf.analysis import MonteCarloResult
from partkf.benchmarks import get_benchmark
from partkf.dekf import run_dekf
from partkf.dkf import run_dkf
from partkf.harness import _resolve
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


def per_run_ensemble(config, runs: int) -> MonteCarloResult:
    """``monte_carlo(config, runs)`` computed run by run, each run simulated
    and filtered alone on a plan of its own: the reference of the stacked
    ensemble pass."""
    plan = _resolve(config.replace(runs=1, monitors=False))
    seeds = np.random.SeedSequence(config.seed).generate_state(runs, dtype=np.uint64)
    arr = np.vstack([plan.run(int(s)).rmse for s in seeds])
    return MonteCarloResult(seeds=seeds, rmse=arr, mean=arr.mean(axis=0),
                            lo=arr.min(axis=0), hi=arr.max(axis=0))


def assert_same_ensemble(got: MonteCarloResult, want: MonteCarloResult) -> None:
    """Every field of two ensembles equal bit for bit, dtype and shape too."""
    for field in dataclasses.fields(MonteCarloResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that records each call; returns
    the list of calls."""
    calls, exact = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
