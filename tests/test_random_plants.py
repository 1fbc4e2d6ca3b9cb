"""The paper's identities on 24 seeded random partitioned linear plants.

The acceptance checks C1-C4 and C10 run on the two published fixtures only;
this sweep runs the same identity functions (``partkf.harness``) on rings,
stars and random graphs of 2 to 5 subsystems, at the acceptance tolerances.
"""

from functools import lru_cache

import numpy as np
import pytest

from partkf.analysis import error_step
from partkf.dekf import run_dekf
from partkf.dkf import run_dkf
from partkf.harness import _affine_dekf_vs_dkf, _dkf_vs_dfie, _n1_vs_centralized
from partkf.model import aggregate_nonlinear, linear_as_nonlinear
from partkf.simulate import simulate

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
