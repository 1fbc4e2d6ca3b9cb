"""The information-form gain kernel against the dense reference.

Both filters compute their gains in information form, one batched call of
``dkf._information_gain`` per group of equally sized subsystems and instant.
The reference below is the dense per-subsystem formula that the kernel
replaced: per subsystem the ``ny x ny`` innovation matrix ``M = C A_col P
A_col' C' + C_col Q_i C_col' + R``, factored, and ``L = Z' M^-1`` with ``Z =
C A_col P A_ii' + C_col Q_i``; at instant 0 the prior fused through ``P0^-1 +
C_col' R^-1 C_col``.  It runs through the engine itself with the two gain
steps swapped, so the prediction, the floor and the update are shared and
only the gains differ.  The arithmetic changed, so the two agree to
``DENSE_RTOL`` relative, not bit for bit.  The dense formula is the less
accurate of the two: on ``linear-4state`` at instant 1, where ``cond(M)`` is
about 1.3e4, it misses a 50-digit evaluation of the gain by 4.4e-13, while
the kernel stays within ``MP_RTOL`` of it at every instant.

The engine also predicts, forms the innovation and updates a group of
subsystems per call.  The second reference, at the end, is the per-agent
step API chained by hand, which the engine must match byte for byte.
"""

import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import partkf.dkf as dkf
import partkf.model
from partkf.benchmarks import Benchmark, get_benchmark
from partkf.dekf import run_dekf
from partkf.dkf import (EstimatorDesign, EstimatorState, ExchangeSnapshot, gain_and_covariance,
                        init_states, predict, run_dkf, update)
from partkf.model import LinearSubsystem, _sym, assemble_global, make_partition
from partkf.simulate import simulate

from conftest import count_calls
from random_plants import SWEEP_SEEDS, random_plant

#: Relative agreement of gains, covariances and estimates with the dense
#: reference: the largest entry difference over a record field, divided by
#: the field's largest entry.
DENSE_RTOL = 1e-12
#: Relative distance of every gain from its 50-digit evaluation.
MP_RTOL = 1e-14


# -- reference path: the dense per-subsystem formula ------------------------


def _dense_gain_and_covariance(P, a_col, a_ii, C, c_col, Q, R, info=None):
    """``gain_and_covariance`` of a group stack, one subsystem at a time
    through the ``ny x ny`` innovation matrix."""
    out = []
    for P_i, a, aii, c, Q_i in zip(P, a_col, a_ii, c_col, Q):
        CAP = C @ a @ P_i
        Z = CAP @ aii.T + c @ Q_i
        M = CAP @ (C @ a).T + c @ Q_i @ c.T + R
        L = cho_solve(cho_factor(_sym(M)), Z).T
        out.append((L, _sym(aii @ P_i @ aii.T + Q_i - L @ Z)))
    return tuple(np.array(m) for m in zip(*out))


def _dense_prior_gain(R):
    """``_prior_gain`` of a group stack, one subsystem at a time, as the
    information-form initial update: ``P = (P0^-1 + c' R^-1 c)^-1`` and
    ``L = P c' R^-1``."""
    def prior_gain(P0, info):
        out = []
        for P0_i, UT in zip(P0, info[0]):
            c, eye = UT.T, np.eye(len(P0_i))
            Rinv_c = cho_solve(cho_factor(_sym(R)), c)
            P = cho_solve(cho_factor(cho_solve(cho_factor(P0_i), eye) + c.T @ Rinv_c), eye)
            P = _sym(P)
            out.append((P @ Rinv_c.T, P))
        return tuple(np.array(m) for m in zip(*out))
    return prior_gain


def _dense_run(monkeypatch, run, bench, design, traj):
    with monkeypatch.context() as m:
        m.setattr(dkf, "gain_and_covariance", _dense_gain_and_covariance)
        m.setattr(dkf, "_prior_gain", _dense_prior_gain(design.R))
        return run(bench.model, design, traj)


def _rel(got, want) -> float:
    got, want = (np.concatenate([np.ravel(b) for per_k in field for b in per_k])
                 for field in (got, want))
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# -- fixtures ------------------------------------------------------------------


def _chain(n: int = 16, seed: int = 1) -> Benchmark:
    """A chain of ``n`` subsystems of 2 states and 1 output, each coupled to
    ``i - 1`` and ``i + 1`` with blocks of norm 0.04, own blocks orthogonal
    scaled to radius 0.9 (the benchmark's ``linear-chain``)."""
    rng = np.random.default_rng(seed)
    subs = []
    for i in range(n):
        A = 0.9 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
        blocks = {}
        for l in (i - 1, i + 1):
            if 0 <= l < n:
                blk = rng.standard_normal((2, 2))
                blocks[l] = 0.04 * blk / np.linalg.norm(blk, 2)
        subs.append(LinearSubsystem(i, A, blocks, np.eye(2)[:1], 0.01 * np.eye(2),
                                    0.01 * np.eye(1)))
    return _fixture("linear-chain", assemble_global(subs, make_partition([2] * n, [1] * n)),
                    rng, P0_scale=1.0)


def _mixed() -> Benchmark:
    """Five subsystems of sizes 2, 1, 3, 1, 2 on a ring, with one that has
    no outputs: three groups whose members interleave."""
    rng = np.random.default_rng(7)
    dims, outs = [2, 1, 3, 1, 2], [1, 1, 2, 0, 1]
    subs = []
    for i, (d, m) in enumerate(zip(dims, outs)):
        blocks = {l: 0.1 * rng.standard_normal((d, dims[l])) for l in ((i - 1) % 5, (i + 1) % 5)}
        subs.append(LinearSubsystem(i, 0.8 * np.linalg.qr(rng.standard_normal((d, d)))[0],
                                    blocks, rng.standard_normal((m, d)), 0.01 * np.eye(d),
                                    0.01 * np.eye(m)))
    return _fixture("mixed-sizes", assemble_global(subs, make_partition(dims, outs)), rng,
                    P0_scale=4.0)


def _fixture(name, model, rng, P0_scale) -> Benchmark:
    x0 = rng.standard_normal(model.nx)
    design = EstimatorDesign.from_model(
        model, P0=[P0_scale * np.eye(d) for d in model.partition.dims], x0_guess=x0 + 0.5)
    w_std, v_std = 0.1 * np.ones(model.nx), 0.1 * np.ones(model.ny)
    return Benchmark(name=name, model=model, x0=x0, design=design, w_std=w_std,
                     v_std=v_std, w_bound=6.0 * w_std, v_bound=6.0 * v_std)


def _q_zero() -> Benchmark:
    """``linear-4state`` with a design whose ``Q_0`` is zero: semidefinite."""
    bench = get_benchmark("linear-4state")
    Q = (np.zeros((2, 2)), bench.design.Q[1])
    return dataclasses.replace(bench, design=dataclasses.replace(bench.design, Q=Q))


FIXTURES = {
    "linear-4state": (lambda: get_benchmark("linear-4state"), run_dkf, 60),
    "linear-chain-16": (_chain, run_dkf, 30),
    "reactor-chain": (lambda: get_benchmark("reactor-chain"), run_dekf, 60),
    "q-zero": (_q_zero, run_dkf, 60),
    "mixed-sizes": (_mixed, run_dkf, 40),
}


def _assert_matches_dense(monkeypatch, bench, run, steps):
    traj = simulate(bench.model, bench.x0, steps, bench.noise(seed=1))
    fast = run(bench.model, bench.design, traj)
    dense = _dense_run(monkeypatch, run, bench, bench.design, traj)
    assert fast.floor_events == dense.floor_events
    for field in ("gains", "covs"):
        assert _rel(getattr(fast, field), getattr(dense, field)) <= DENSE_RTOL, field
    assert _rel([fast.xhat_post], [dense.xhat_post]) <= DENSE_RTOL


class TestDenseReference:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_matches_the_dense_reference(self, monkeypatch, name):
        build, run, steps = FIXTURES[name]
        _assert_matches_dense(monkeypatch, build(), run, steps)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_random_plant_matches_the_dense_reference(self, monkeypatch, seed):
        _assert_matches_dense(monkeypatch, random_plant(seed), run_dkf, 40)

    def test_fixtures_cover_groups_and_semidefinite_q(self):
        assert [len(m) for m, _ in _mixed().model.partition.groups] == [2, 2, 1]
        assert not np.any(_q_zero().design.Q[0])
        # The sweep has plants with one, two and three groups, and 12 with
        # a dense estimator R.
        plants = [random_plant(s) for s in SWEEP_SEEDS]
        assert {len(p.model.partition.groups) for p in plants} == {1, 2, 3}
        assert sum(np.any(p.design.R != p.model.R) for p in plants) == 12

    def test_the_reference_has_teeth(self, monkeypatch):
        # Passing only the diagonal of a dense R to the kernel is caught.
        bench = random_plant(13)
        exact = dkf._r_factor
        monkeypatch.setattr(dkf, "_r_factor", lambda R: exact(np.diag(np.diag(R))))
        with pytest.raises(AssertionError):
            _assert_matches_dense(monkeypatch, bench, run_dkf, 10)


def _mp(a) -> mpmath.matrix:
    return mpmath.matrix(np.asarray(a).tolist())


class TestFiftyDigits:
    def test_gains_match_a_50_digit_evaluation(self, linear_bench):
        # The dense formula L = Z' M^-1 in 50-digit arithmetic, from the
        # filter's own P(k-1); the dense float formula misses it by more
        # than MP_RTOL at instant 1 (4.4e-13 on subsystem 1).
        model, design = linear_bench.model, linear_bench.design
        traj = simulate(model, linear_bench.x0, 10, linear_bench.noise(seed=1))
        rec = run_dkf(model, design, traj)
        dense_miss = 0.0
        with mpmath.workdps(50):
            C, R = _mp(model.C), _mp(design.R)
            for k in range(11):
                for i in range(2):
                    c = _mp(model.c_col(i))
                    if k == 0:
                        P = _mp(design.P0[i])
                        Z, M = c * P, c * P * c.T + R
                    else:
                        P_f = rec.covs[k - 1][i]
                        P, CA = _mp(P_f), C * _mp(model.a_col(i))
                        A, Q = _mp(model.subsystems[i].A), _mp(design.Q[i])
                        Z = CA * P * A.T + c * Q
                        M = CA * P * CA.T + c * Q * c.T + R
                    want = np.array((mpmath.inverse(M) * Z).T.tolist(), dtype=float)
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(rec.gains[k][i] - want)) <= MP_RTOL * scale, (k, i)
                    if k == 1:
                        L, _ = _dense_gain_and_covariance(
                            [P_f], [model.a_col(i)], [model.subsystems[i].A], model.C,
                            [model.c_col(i)], [design.Q[i]], design.R)
                        dense_miss = max(dense_miss, np.max(np.abs(L[0] - want)) / scale)
        assert dense_miss > MP_RTOL


class TestBatching:
    @pytest.mark.parametrize("name", ["linear-chain-16", "mixed-sizes", "reactor-chain"])
    def test_one_kernel_call_per_group_and_instant(self, monkeypatch, name):
        build, run, steps = FIXTURES[name]
        bench = build()
        calls = []
        exact = dkf._information_gain

        def counted(*args):
            calls.append(len(args[0]))
            return exact(*args)

        monkeypatch.setattr(dkf, "_information_gain", counted)
        traj = simulate(bench.model, bench.x0, 5, bench.noise(seed=1))
        run(bench.model, bench.design, traj)
        groups = bench.model.partition.groups
        assert len(calls) == len(groups) * 6
        assert calls == [len(m) for m, _ in groups] * 6

    @pytest.mark.parametrize("name, run, per_instant", [
        ("mixed-sizes", run_dkf, False), ("reactor-chain", run_dekf, True)])
    def test_r_is_factored_once_and_solved_once_per_group(self, monkeypatch, name, run,
                                                          per_instant):
        # The linear source forms U, R^-1 U and U' R^-1 U once, with instant
        # 0's; the extended filter solves once per group and instant.
        bench = FIXTURES[name][0]()
        counts = {"_spd_factor": 0, "_factor_solve": 0}
        for fn in counts:
            exact = getattr(dkf, fn)

            def counted(*args, fn=fn, exact=exact):
                counts[fn] += 1
                return exact(*args)
            monkeypatch.setattr(dkf, fn, counted)
        steps = 5
        traj = simulate(bench.model, bench.x0, steps, bench.noise(seed=1))
        run(bench.model, bench.design, traj)
        groups = len(bench.model.partition.groups)
        assert counts == {"_spd_factor": 1,
                          "_factor_solve": groups * (steps + 1 if per_instant else 2)}

    def test_step_functions_reproduce_a_multi_group_run_bitwise(self):
        # Every gain of the batched engine is the step API's for its
        # subsystem alone, with members of three groups interleaved.
        bench = _mixed()
        model, design = bench.model, bench.design
        traj = simulate(model, bench.x0, 15, bench.noise(seed=2))
        rec = run_dkf(model, design, traj)
        assert rec.floor_events == 0
        states = init_states(model, design, traj.ys[0])
        covs = [s.cov for s in states]
        for i, s in enumerate(states):
            assert np.array_equal(s.gain, rec.gains[0][i])
            assert np.array_equal(s.cov, rec.covs[0][i])
        for k in range(1, 16):
            for i, sub in enumerate(model.subsystems):
                L, P = gain_and_covariance(covs[i], model.a_col(i), sub.A, model.C,
                                           model.c_col(i), design.Q[i], design.R)
                assert np.array_equal(L, rec.gains[k][i])
                assert np.array_equal(P, rec.covs[k][i])
                covs[i] = P


# -- reference path: the per-agent step API -----------------------------------


def _descending_predict(i, snapshot, model):
    """``predict`` with the neighbors added in descending index order: a
    planted defect of the reference loop."""
    sub = model.subsystems[i]
    out = sub.A @ snapshot.posteriors[i]
    for l in sorted(sub.neighbors, reverse=True):
        out = out + sub.coupling[l] @ snapshot.posteriors[l]
    return out


def _step_api_run(model, design, traj, predict=predict) -> dict:
    """``xhat_pred``, ``xhat_post``, ``gains`` and ``covs`` of ``run_dkf``
    rebuilt from the public step functions, one subsystem per call."""
    n = model.partition.n
    states = init_states(model, design, traj.ys[0])
    pred, post = [design.x0_guess], [np.concatenate([s.xhat for s in states])]
    gains, covs = [[s.gain for s in states]], [[s.cov for s in states]]
    for k in range(1, traj.steps + 1):
        posteriors = tuple(s.xhat for s in states)
        preds = [predict(i, ExchangeSnapshot(k=k, posteriors=posteriors), model)
                 for i in range(n)]
        gc = [gain_and_covariance(states[i].cov, model.a_col(i), model.subsystems[i].A,
                                  model.C, model.c_col(i), design.Q[i], design.R)
              for i in range(n)]
        phase2 = ExchangeSnapshot(k=k, posteriors=posteriors, predictions=tuple(preds),
                                  measurement=traj.ys[k])
        states = [EstimatorState(i, update(i, preds[i], phase2, L, model), P, L, k)
                  for i, (L, P) in enumerate(gc)]
        pred.append(np.concatenate(preds))
        post.append(np.concatenate([s.xhat for s in states]))
        gains.append([s.gain for s in states])
        covs.append([s.cov for s in states])
    return {"xhat_pred": np.array(pred), "xhat_post": np.array(post), "gains": gains,
            "covs": covs}


def _bits(a) -> bytes:
    """The bytes of an array, or of a record's per-instant blocks: equal
    bytes are equal bits, the sign of a zero included."""
    if isinstance(a, list):
        return b"".join(_bits(b) for b in a)
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _differing_fields(seed: int, predict=predict) -> list[str]:
    bench = random_plant(seed)
    traj = simulate(bench.model, bench.x0, 30, bench.noise(seed))
    rec = run_dkf(bench.model, bench.design, traj)
    assert rec.floor_events == 0   # the reference applies no floor
    want = _step_api_run(bench.model, bench.design, traj, predict)
    return [name for name, value in want.items() if _bits(value) != _bits(getattr(rec, name))]


class TestBatchedStep:
    """The engine predicts, forms the innovation and updates a whole group
    of equally sized subsystems per call; each subsystem keeps the bits of
    the per-agent step functions."""

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_random_plant_equals_the_step_api_bitwise(self, seed):
        # Mixed dimensions, neighbor slots of several sizes (star and random
        # graphs), subsystems without outputs and dense R.
        assert _differing_fields(seed) == []

    def test_the_reference_has_teeth(self):
        # Adding the neighbor terms in descending order moves bits on at
        # least one plant.
        assert any(_differing_fields(seed, _descending_predict) for seed in SWEEP_SEEDS)

    def test_linear_run_makes_no_per_agent_call(self, monkeypatch):
        # The stack products of an instant (own term, neighbor slots,
        # outputs, update) do not grow with the number of subsystems, and
        # no per-subsystem map or step function is called.
        products = {}
        for n in (16, 64):
            bench = _chain(n)
            trajs = {K: simulate(bench.model, bench.x0, K, bench.noise(seed=1)) for K in (3, 6)}
            with monkeypatch.context() as m:
                per_agent = [count_calls(m, LinearSubsystem, "f"),
                             count_calls(m, LinearSubsystem, "h"),
                             count_calls(m, dkf, "predict"), count_calls(m, dkf, "update")]
                matvec = [count_calls(m, partkf.model, "_matvec"),
                          count_calls(m, dkf, "_matvec")]
                counts = {}
                for K, traj in trajs.items():
                    run_dkf(bench.model, bench.design, traj)
                    counts[K] = sum(map(len, matvec))
                    for calls in matvec:
                        calls.clear()
            assert per_agent == [[], [], [], []], n
            products[n] = (counts[6] - counts[3]) / 3
        assert products[16] == products[64] < 16, products


class TestRunStacks:
    """The kernel of the stacked ensemble pass: on a stack of runs each run
    gets the bits of its own call, through one solve against ``R`` over
    every run's columns and batched products, ``2 d_i``-sized solves,
    eigenvalues and Cholesky factorizations."""

    @staticmethod
    def _spd(rng, shape, d):
        m = rng.normal(size=shape + (d, d))
        return m @ np.swapaxes(m, -1, -2) + 0.1 * np.eye(d)

    @pytest.mark.parametrize("shared_p", [False, True], ids=["own-P", "shared-P"])
    @pytest.mark.parametrize("ny", [2, 8, 128])
    def test_a_stack_of_runs_gives_each_run_its_own_bits(self, ny, shared_p):
        # A shared prior covariance is instant 1 of the extended filter,
        # whose instant-0 gains do not depend on the measurements.
        rng = np.random.default_rng(ny)
        runs, members, d, nx = 5, 3, 2, 8
        P = self._spd(rng, (members,) if shared_p else (runs, members), d)
        a = rng.normal(size=(runs, members, nx, d))
        aii = rng.normal(size=(runs, members, d, d))
        C = rng.normal(size=(runs, ny, nx))
        c = rng.normal(size=(runs, members, ny, d))
        Q = self._spd(rng, (members,), d)
        R = self._spd(rng, (), ny)
        L, P_post = gain_and_covariance(P, a, aii, C, c, Q, R)
        floored, fired = dkf._floor(P_post)
        for r in range(runs):
            L_r, P_r = gain_and_covariance(P if shared_p else P[r], a[r], aii[r], C[r], c[r],
                                           Q, R)
            assert L[r].tobytes() == L_r.tobytes()
            assert P_post[r].tobytes() == P_r.tobytes()
            F_r, fired_r = dkf._floor(P_r)
            assert floored[r].tobytes() == F_r.tobytes()
            assert np.array_equal(fired[r], fired_r)

    def test_the_failing_member_of_a_stack_of_runs_is_named(self):
        stack = np.tile(np.eye(2), (4, 3, 1, 1))
        assert partkf.model._not_posdef(stack) is None
        stack[2, 1] = -np.eye(2)
        assert partkf.model._not_posdef(stack) == 1
        stack[3, 0] = -np.eye(2)
        assert partkf.model._not_posdef(stack) == 0
