"""The paper's identities on 24 seeded random partitioned linear plants.

The acceptance checks C1-C4 and C10 run on the two published fixtures only;
this sweep runs the same identity functions (``partkf.harness``) on rings,
stars and random graphs of 2 to 5 subsystems, at the acceptance tolerances.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from partkf import benchmarks, harness
from partkf.analysis import error_step, monte_carlo
from partkf.dekf import run_dekf
from partkf.dkf import run_dkf
from partkf.harness import (ExperimentConfig, _affine_dekf_vs_dkf, _dkf_vs_dfie,
                            _n1_vs_centralized)
from partkf.model import aggregate_nonlinear, linear_as_nonlinear
from partkf.simulate import simulate

from conftest import assert_same_ensemble, count_calls, per_run_ensemble
from random_plants import SWEEP_SEEDS, TOPOLOGIES, random_plant

STEPS = 30


@lru_cache(maxsize=None)
def _case(seed: int, steps: int = STEPS):
    bench = random_plant(seed)
    return bench, simulate(bench.model, bench.x0, steps, bench.noise(seed))


def test_sweep_covers_the_structure_mix():
    plants = [random_plant(s) for s in SWEEP_SEEDS]
    parts = [b.model.partition for b in plants]
    assert {b.name.split("-")[1] for b in plants} == set(TOPOLOGIES)
    assert {p.n for p in parts} == {2, 3, 4, 5}
    assert {d for p in parts for d in p.dims} == {1, 2, 3}
    assert {m for p in parts for m in p.out_dims} == {0, 1, 2, 3}
    assert sum(0 in p.out_dims for p in parts) >= len(plants) // 3
    dense = [np.any(b.design.R[b.model.R == 0.0]) for b in plants]
    assert sum(dense) == len(plants) // 2


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_c1_dkf_equals_dfie(seed):
    bench, traj = _case(seed, 5)
    assert _dkf_vs_dfie(bench.model, bench.design, traj) <= 1e-8


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_c2_single_partition_dkf_equals_kf(seed):
    bench, traj = _case(seed)
    assert _n1_vs_centralized(bench.model, bench.design, traj) <= 1e-9


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_c2_single_partition_dekf_equals_ekf_on_affine_view(seed):
    # The extended-filter reduction on the plant's affine view, whose maps and
    # Jacobians are the linear subsystems' own.
    bench, traj = _case(seed)
    affine = aggregate_nonlinear(bench.model.subsystems, bench.model.partition)
    assert _n1_vs_centralized(affine, bench.design, traj) <= 1e-9


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_c3_affine_dekf_equals_dkf(seed):
    bench, traj = _case(seed)
    assert _affine_dekf_vs_dkf(bench.model, bench.design, traj) <= 1e-12


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_affine_dekf_is_dkf_bit_for_bit(seed):
    # Both filters form the innovation as y - [h_i(xp_i)]_i, so on the affine
    # view the extended filter computes the linear filter's very numbers.
    bench, traj = _case(seed)
    model = bench.model
    lin = run_dkf(model, bench.design, traj)
    ext = run_dekf(aggregate_nonlinear(model.subsystems, model.partition), bench.design, traj)
    for name in ("xhat_pred", "xhat_post"):
        assert np.array_equal(getattr(ext, name), getattr(lin, name)), name
    for name in ("covs", "gains"):
        got, want = getattr(ext, name), getattr(lin, name)
        assert len(got) == len(want) == STEPS + 1
        assert all(np.array_equal(a, b) for ka, kb in zip(got, want)
                   for a, b in zip(ka, kb, strict=True)), name


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_affine_view_is_the_wrapped_view(seed):
    # The linear subsystems themselves and their NonlinearSubsystem wrappers
    # give the extended filter the same record.
    bench, traj = _case(seed)
    model = bench.model
    views = (model.subsystems, [linear_as_nonlinear(s) for s in model.subsystems])
    direct, wrapped = (run_dekf(aggregate_nonlinear(subs, model.partition), bench.design, traj)
                       for subs in views)
    assert direct.content_digest() == wrapped.content_digest()


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_c4_error_recursion_identity(seed):
    bench, traj = _case(seed)
    rec = run_dkf(bench.model, bench.design, traj)
    assert max(error_step(bench.model, rec, k).residual for k in range(1, STEPS + 1)) <= 1e-12


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_c10_permuted_agents_give_equal_digest(seed):
    bench, traj = _case(seed)
    order = np.random.default_rng(seed).permutation(bench.model.partition.n).tolist()
    if order == sorted(order):
        order.reverse()
    assert (run_dkf(bench.model, bench.design, traj, order=order).content_digest()
            == run_dkf(bench.model, bench.design, traj).content_digest())


def _ensemble_config(monkeypatch, bench, seed: int) -> ExperimentConfig:
    """A Monte Carlo config of ``bench``, registered for this test only."""
    monkeypatch.setitem(benchmarks._REGISTRY, bench.name, lambda: bench)
    return ExperimentConfig(model={"name": bench.name}, steps=STEPS, seed=seed,
                            monitors=False)


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_stacked_ensemble_equals_the_per_run_path(monkeypatch, seed):
    config = _ensemble_config(monkeypatch, random_plant(seed), seed)
    alone = count_calls(monkeypatch, harness, "simulate")
    result = monte_carlo(config, runs=6)
    assert alone == []
    assert_same_ensemble(result, per_run_ensemble(config, 6))


def test_stacked_chain_ensemble_equals_the_per_run_path(monkeypatch):
    # Sixteen subsystems of one to three states in a chain, as the bench's
    # linear-chain couples them: several groups.  Batches of two runs split
    # the ensemble into three passes.
    bench = random_plant(5, topology="chain", n=16)
    config = _ensemble_config(monkeypatch, bench, 5)
    assert len(bench.model.partition.groups) == 3
    monkeypatch.setattr(harness, "_STACK_FLOATS",
                        2 * (STEPS + 1) * (bench.model.nx + bench.model.ny))
    passes = count_calls(monkeypatch, harness, "_simulate_runs")
    result = monte_carlo(config, runs=5)
    assert len(passes) == 3
    assert_same_ensemble(result, per_run_ensemble(config, 5))


def test_stacked_affine_view_ensemble_equals_the_per_run_path(monkeypatch):
    # The affine view of the chain plant above runs the extended filter in
    # the stacked pass: its maps are called once per run and subsystem, its
    # gains settled per batch.  Batches of two runs split the ensemble into
    # three passes.
    bench = random_plant(5, topology="chain", n=16)
    p = bench.model.partition
    affine = dataclasses.replace(bench, name="affine-chain",
                                 model=aggregate_nonlinear(bench.model.subsystems, p))
    config = _ensemble_config(monkeypatch, affine, 5)
    monkeypatch.setattr(harness, "_STACK_FLOATS", 2 * (STEPS + 1) * (p.nx + p.ny))
    passes = count_calls(monkeypatch, harness, "_simulate_runs")
    alone = count_calls(monkeypatch, harness, "simulate")
    result = monte_carlo(config, runs=5)
    assert len(passes) == 3
    assert alone == []
    assert_same_ensemble(result, per_run_ensemble(config, 5))
