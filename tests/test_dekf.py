import dataclasses
import hashlib
import re

import numpy as np
import pytest

from partkf.benchmarks import LINEAR_X0, REACTOR_C_S, REACTOR_T_S, get_benchmark
from partkf.dekf import dekf_gain_cov, dekf_predict, dekf_update, run_dekf
from partkf.dkf import (
    EstimatorDesign,
    ExchangeSnapshot,
    FilterError,
    gain_and_covariance,
    init_update,
    predict,
    run_dkf,
    update,
)
from partkf.model import (LinearizationError, LinearSubsystem, aggregate_nonlinear,
                          linear_as_nonlinear, linearize, make_partition)
from partkf.simulate import NoiseSpec, SimulationError, simulate

from conftest import noise_for

REACTOR_STEADY = np.column_stack([REACTOR_T_S, REACTOR_C_S]).ravel()


class TestDekfPredict:
    def test_affine_model_matches_linear_prediction(self, linear_bench):
        lin = linear_bench.model
        nl = aggregate_nonlinear(lin.subsystems, lin.partition)
        snap = ExchangeSnapshot(k=1, posteriors=(LINEAR_X0[:2], LINEAR_X0[2:]))
        for i in range(2):
            assert np.array_equal(dekf_predict(i, snap, nl), predict(i, snap, lin))

    def test_steady_state_is_fixed_point(self, reactor_bench):
        p = reactor_bench.model.partition
        posts = tuple(REACTOR_STEADY[p.state_slice(i)] for i in range(4))
        snap = ExchangeSnapshot(k=1, posteriors=posts)
        for i in range(4):
            out = dekf_predict(i, snap, reactor_bench.model)
            assert np.allclose(out, posts[i], rtol=0, atol=1e-9)

    def test_offset_guess_prediction_stays_in_box(self, reactor_bench):
        p = reactor_bench.model.partition
        guess = reactor_bench.design.x0_guess
        posts = tuple(guess[p.state_slice(i)] for i in range(4))
        snap = ExchangeSnapshot(k=1, posteriors=posts)
        lo, hi = reactor_bench.model.state_box()
        for i in range(4):
            out = dekf_predict(i, snap, reactor_bench.model)
            assert np.all(np.isfinite(out))
            sl = p.state_slice(i)
            assert np.all(out >= lo[sl]) and np.all(out <= hi[sl])

    def test_missing_neighbor(self, reactor_bench):
        snap = ExchangeSnapshot(k=1, posteriors=(np.zeros(2), None,
                                                 np.zeros(2), np.zeros(2)))
        with pytest.raises(FilterError):
            dekf_predict(0, snap, reactor_bench.model)


class TestDekfGainCov:
    def test_affine_model_matches_linear_gain_and_covariance(self, linear_bench):
        lin = linear_bench.model
        nl = aggregate_nonlinear(lin.subsystems, lin.partition)
        design = linear_bench.design
        blocks = linearize(nl.subsystems, LINEAR_X0, mode="analytic")
        rng = np.random.default_rng(0)
        M = rng.normal(size=(2, 2))
        P = M @ M.T + np.eye(2)
        for i in range(2):
            L_nl, P_nl, floored = dekf_gain_cov(
                P, blocks.a_cols[i], blocks.a_blocks[(i, i)], blocks.C,
                blocks.c_cols[i], design.Q[i], design.R)
            L_lin, P_lin = gain_and_covariance(P, lin.a_col(i), lin.subsystems[i].A,
                                               lin.C, lin.c_col(i), design.Q[i], design.R)
            assert not floored
            assert np.array_equal(L_nl, L_lin)
            assert np.array_equal(P_nl, P_lin)

    def test_analytic_and_fd_blocks_give_close_gains(self, reactor_bench):
        model = reactor_bench.model
        design = reactor_bench.design
        x = REACTOR_STEADY + np.tile([2.0, 0.1], 4)
        ba = linearize(model.subsystems, x, mode="analytic")
        bf = linearize(model.subsystems, x, mode="fd")
        P = 5.0 * np.eye(2)
        for i in range(4):
            L_a, _, _ = dekf_gain_cov(P, ba.a_cols[i], ba.a_blocks[(i, i)],
                                      ba.C, ba.c_cols[i], design.Q[i], design.R)
            L_f, _, _ = dekf_gain_cov(P, bf.a_cols[i], bf.a_blocks[(i, i)],
                                      bf.C, bf.c_cols[i], design.Q[i], design.R)
            assert np.all(np.abs(L_a - L_f) <= 1e-4 * (1.0 + np.abs(L_f)))

    def test_covariance_spd_over_500_steps(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 500,
                        reactor_bench.noise(seed=17))
        rec = run_dekf(reactor_bench.model, reactor_bench.design, traj)
        assert rec.floor_events == 0
        for k in range(0, 501, 25):
            for i in range(4):
                np.linalg.cholesky(rec.covs[k][i])


class TestDekfUpdate:
    def test_perfect_prediction_keeps_posterior(self, reactor_bench):
        model = reactor_bench.model
        p = model.partition
        preds = tuple(REACTOR_STEADY[p.state_slice(i)] for i in range(4))
        y = model.h(REACTOR_STEADY)
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=y)
        L = np.ones((2, p.ny))
        for i in range(4):
            assert np.array_equal(dekf_update(i, preds[i], snap, L, model), preds[i])

    def test_affine_model_matches_linear_update(self, linear_bench):
        lin = linear_bench.model
        nl = aggregate_nonlinear(lin.subsystems, lin.partition)
        preds = (LINEAR_X0[:2] + 0.1, LINEAR_X0[2:] - 0.2)
        y = np.array([1.0, -2.0])
        snap = ExchangeSnapshot(k=1, posteriors=preds, predictions=preds,
                                measurement=y)
        L = np.array([[0.5, 0.1], [-0.2, 0.3]])
        for i in range(2):
            assert np.array_equal(dekf_update(i, preds[i], snap, L, nl),
                                  update(i, preds[i], snap, L, lin))

    def test_one_update_serves_both_filters(self):
        assert dekf_update is update

    def test_affine_run_is_the_linear_run_bit_for_bit(self, linear_run):
        bench, traj, lin = linear_run
        model = bench.model
        ext = run_dekf(aggregate_nonlinear(model.subsystems, model.partition), bench.design, traj)
        assert np.array_equal(ext.xhat_pred, lin.xhat_pred)
        assert np.array_equal(ext.xhat_post, lin.xhat_post)
        for name in ("covs", "gains"):
            assert all(np.array_equal(a, b)
                       for ka, kb in zip(getattr(ext, name), getattr(lin, name), strict=True)
                       for a, b in zip(ka, kb, strict=True)), name

    def test_single_partition_step_matches_hand_assembled_ekf(self):
        # One full instant on the monolithic benchmark against a from-scratch
        # EKF step written inline.
        bm = get_benchmark("reactor-chain-mono")
        subs4 = get_benchmark("reactor-chain").model.subsystems
        traj = simulate(bm.model, bm.x0, 1, bm.noise(seed=5))
        rec = run_dekf(bm.model, bm.design, traj)

        inv = np.linalg.inv
        guess = bm.design.x0_guess
        C0 = linearize(subs4, guess, mode="analytic").C
        P0 = bm.design.P0[0]
        S0 = C0 @ P0 @ C0.T + bm.design.R
        K0 = P0 @ C0.T @ inv(S0)
        x = guess + K0 @ (traj.ys[0] - bm.model.h(guess))
        P = (np.eye(8) - K0 @ C0) @ P0
        A0 = linearize(subs4, x, mode="analytic").A
        x_pred = bm.model.f(x)
        P_pred = A0 @ P @ A0.T + bm.design.Q[0]
        C1 = linearize(subs4, x_pred, mode="analytic").C
        S1 = C1 @ P_pred @ C1.T + bm.design.R
        K1 = P_pred @ C1.T @ inv(S1)
        x1 = x_pred + K1 @ (traj.ys[1] - bm.model.h(x_pred))
        assert np.linalg.norm(rec.xhat_post[1] - x1) <= 1e-9 * (1 + np.linalg.norm(x1))


class TestRunDekf:
    def test_linear_wrapped_model_reproduces_dkf_record(self, linear_bench):
        lin = linear_bench.model
        nl = aggregate_nonlinear(lin.subsystems, lin.partition)
        design = linear_bench.design
        traj = simulate(lin, LINEAR_X0, 100, noise_for(lin, 0.05, seed=9))
        rec_lin = run_dkf(lin, design, traj)
        rec_nl = run_dekf(nl, design, traj)
        assert np.array_equal(rec_lin.xhat_post, rec_nl.xhat_post)
        assert np.array_equal(rec_lin.xhat_pred, rec_nl.xhat_pred)
        for k in range(101):
            for i in range(2):
                assert np.array_equal(rec_lin.covs[k][i], rec_nl.covs[k][i])
                assert np.array_equal(rec_lin.gains[k][i], rec_nl.gains[k][i])

    def test_affine_view_is_the_wrapped_view(self, linear_bench):
        # The linear subsystems themselves and their NonlinearSubsystem
        # wrappers give the extended filter the same record.
        lin, design = linear_bench.model, linear_bench.design
        traj = simulate(lin, LINEAR_X0, 40, linear_bench.noise(seed=5))
        views = (lin.subsystems, [linear_as_nonlinear(s) for s in lin.subsystems])
        direct, wrapped = (run_dekf(aggregate_nonlinear(subs, lin.partition), design, traj)
                           for subs in views)
        assert direct.content_digest() == wrapped.content_digest()

    def test_zero_instant_trajectory_rejected(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 3, reactor_bench.noise(seed=1))
        empty = dataclasses.replace(traj, xs=traj.xs[:0], ys=traj.ys[:0], ws=traj.ws[:0],
                                    vs=traj.vs[:0])
        with pytest.raises(ValueError, match="^measurements have no instant; "
                           "the filter starts from y_0$"):
            run_dekf(reactor_bench.model, reactor_bench.design, empty)

    def test_benchmark_error_bounded_after_transient(self, reactor_run):
        bench, traj, rec = reactor_run
        err = np.linalg.norm(rec.xs - rec.xhat_post, axis=1)
        assert err[0] > 20.0          # deliberately poor initial guess
        assert np.all(err[30:] < 3.0)  # bounded once the transient settles
        assert rec.floor_events == 0

    def test_relinearization_points_recorded(self, reactor_run):
        bench, _, rec = reactor_run
        # Dynamics blocks are evaluated at posteriors, output blocks at the
        # stacked predictions (the prior guess at instant 0): linearizing
        # there afresh gives the recorded blocks bitwise.
        subs = bench.model.subsystems
        assert len(rec.a_cols) == rec.steps and len(rec.c_cols) == rec.steps + 1
        for k in range(rec.steps + 1):
            at_pred = linearize(subs, rec.xhat_pred[k], mode="analytic")
            for i in range(4):
                assert np.array_equal(at_pred.c_cols[i], rec.c_cols[k][i])
            if k < rec.steps:
                at_post = linearize(subs, rec.xhat_post[k], mode="analytic")
                for i in range(4):
                    assert np.array_equal(at_post.a_cols[i], rec.a_cols[k][i])

    def test_zero_noise_exact_prior_tracks_exactly(self, reactor_bench):
        spec = NoiseSpec(w_std=np.zeros(8), v_std=np.zeros(8), seed=0)
        traj = simulate(reactor_bench.model, reactor_bench.x0, 100, spec)
        design = EstimatorDesign(Q=reactor_bench.design.Q, R=reactor_bench.design.R,
                                 P0=reactor_bench.design.P0,
                                 x0_guess=reactor_bench.x0.copy())
        rec = run_dekf(reactor_bench.model, design, traj)
        assert np.max(np.abs(rec.xs - rec.xhat_post)) <= 1e-8

    def test_agent_order_is_irrelevant_bitwise(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 25,
                        reactor_bench.noise(seed=13))
        a = run_dekf(reactor_bench.model, reactor_bench.design, traj,
                     order=[0, 1, 2, 3])
        b = run_dekf(reactor_bench.model, reactor_bench.design, traj,
                     order=[3, 1, 0, 2])
        assert np.array_equal(a.xhat_post, b.xhat_post)
        assert np.array_equal(a.xhat_pred, b.xhat_pred)
        for k in range(26):
            for i in range(4):
                assert np.array_equal(a.covs[k][i], b.covs[k][i])

    def test_fd_mode_close_to_analytic_mode(self, reactor_bench):
        # Subsystems without providers are linearized by central differences
        # throughout, as ``linearize(mode="fd")`` does.
        model = reactor_bench.model
        bare = [dataclasses.replace(sub, jac_f=None, jac_h=None) for sub in model.subsystems]
        traj = simulate(model, reactor_bench.x0, 30, reactor_bench.noise(seed=19))
        rec_a = run_dekf(model, reactor_bench.design, traj)
        rec_f = run_dekf(aggregate_nonlinear(bare, model.partition), reactor_bench.design, traj)
        diff = np.abs(rec_a.xhat_post - rec_f.xhat_post)
        assert np.max(diff / (1.0 + np.abs(rec_f.xhat_post))) <= 1e-4
        for k in range(rec_f.steps):
            fd = linearize(bare, rec_f.xhat_post[k], mode="fd")
            for i in range(4):
                assert np.array_equal(fd.a_cols[i], rec_f.a_cols[k][i])

    def test_unknown_mode_is_rejected(self, reactor_bench):
        # The filter takes no mode; ``linearize`` is the one place that does.
        with pytest.raises(ValueError, match="unknown mode 'analytc'"):
            linearize(reactor_bench.model.subsystems, reactor_bench.x0, mode="analytc")

    def test_raising_jacobian_provider_names_subsystem_and_instant(self, reactor_bench):
        def boom(x_i, neighbors):
            raise ZeroDivisionError("boom")

        subs = list(reactor_bench.model.subsystems)
        subs[2] = dataclasses.replace(subs[2], jac_f=boom,
                                      jacobian_check_samples=(), stacked=False)
        model = aggregate_nonlinear(subs, reactor_bench.model.partition)
        traj = simulate(model, reactor_bench.x0, 5, reactor_bench.noise(seed=1))
        with pytest.raises(LinearizationError, match="instant 1, subsystem 2") as err:
            run_dekf(model, reactor_bench.design, traj)
        assert err.value.subsystem == 2
        assert isinstance(err.value.__cause__, LinearizationError)
        assert isinstance(err.value.__cause__.__cause__, ZeroDivisionError)


def _from_call(n, good, bad):
    """A map that behaves like ``good`` until its ``n``-th call, then like
    ``bad``."""
    calls = [0]

    def fn(*args):
        calls[0] += 1
        return bad(*args) if calls[0] >= n else good(*args)
    return fn


def _raise(*args):
    raise ZeroDivisionError("boom")


#: One broken map of reactor subsystem 2 (built from the healthy one) and the
#: instant at which the filter must stop.  None may run to completion (a
#: wrong-shaped block would be broadcast into the gains) or escape as a bare
#: error without the subsystem and the instant.
MAP_FAULTS = {
    "jac_h-one-row": (lambda s: dict(jac_h=lambda x: s.jac_h(x)[:1]), 0),
    "jac_f-own-block-1x2": (lambda s: dict(
        jac_f=lambda x, n: {**s.jac_f(x, n), 2: s.jac_f(x, n)[2][:1]}), 1),
    "jac_f-undeclared-neighbor": (lambda s: dict(
        jac_f=lambda x, n: {**s.jac_f(x, n), 3: np.zeros((2, 2))}), 1),
    "jac_f-no-own-block": (lambda s: dict(
        jac_f=lambda x, n: {l: b for l, b in s.jac_f(x, n).items() if l != 2}), 1),
    "f-nan-from-6th-call": (lambda s: dict(
        f=_from_call(6, s.f, lambda x, n: np.full(2, np.nan))), 6),
    "h-raises-from-4th-call": (lambda s: dict(h=_from_call(4, s.h, _raise)), 3),
    "h-one-value-for-two": (lambda s: dict(h=lambda x: s.h(x)[:1]), 0),
    "jac_f-nan-in-neighbor-block-from-4th-call": (lambda s: dict(jac_f=_from_call(
        4, s.jac_f, lambda x, n: {**s.jac_f(x, n), 1: np.full((2, 2), np.nan)})), 4),
    "f-complex": (lambda s: dict(f=lambda x, n: s.f(x, n) + 0j), 1),
    "h-strings": (lambda s: dict(h=lambda x: [repr(float(v)) for v in s.h(x)]), 0),
}


@pytest.mark.parametrize("fault", MAP_FAULTS.values(), ids=MAP_FAULTS.keys())
def test_broken_map_names_subsystem_and_instant(reactor_bench, fault):
    make, k = fault
    traj = simulate(reactor_bench.model, reactor_bench.x0, 10, reactor_bench.noise(seed=3))
    subs = list(reactor_bench.model.subsystems)
    subs[2] = dataclasses.replace(subs[2],
                                  jacobian_check_samples=(), stacked=False, **make(subs[2]))
    model = aggregate_nonlinear(subs, reactor_bench.model.partition)
    with pytest.raises(LinearizationError) as err:
        run_dekf(model, reactor_bench.design, traj)
    assert err.value.subsystem == 2
    assert str(err.value).startswith(f"instant {k}, subsystem 2: ")


def test_non_real_values_are_rejected_naming_the_map(reactor_bench):
    # Accepted, a complex f ran on its real part (with a ComplexWarning)
    # and a string such as '1.5' was read as 1.5.
    traj = simulate(reactor_bench.model, reactor_bench.x0, 5, reactor_bench.noise(seed=3))
    for make, k, what in [(MAP_FAULTS["f-complex"][0], 1, "f returned complex128"),
                          (MAP_FAULTS["h-strings"][0], 0, "h returned <U"),
                          (lambda s: dict(jac_h=lambda x: s.jac_h(x) * 1j), 0,
                           "jac_h returned complex128")]:
        subs = list(reactor_bench.model.subsystems)
        subs[2] = dataclasses.replace(subs[2],
                                      jacobian_check_samples=(), stacked=False, **make(subs[2]))
        with pytest.raises(LinearizationError, match=re.escape(
                f"instant {k}, subsystem 2: {what}")) as err:
            run_dekf(aggregate_nonlinear(subs, reactor_bench.model.partition),
                     reactor_bench.design, traj)
        assert str(err.value).endswith("values, expected real numbers")


def _chain() -> list:
    """Four two-state subsystems in a chain, ``i`` coupled to ``i-1`` and
    ``i+1``, as nonlinear subsystems with exact affine maps."""
    return [linear_as_nonlinear(LinearSubsystem(
        i, 0.9 * np.eye(2), {l: 0.05 * np.eye(2) for l in (i - 1, i + 1) if 0 <= l < 4},
        np.eye(1, 2), np.eye(2), np.eye(1))) for i in range(4)]


#: Per map, from its third call on: how subsystem 1's healthy map turns
#: NaN (block 2 for ``jac_f``), and the map the error must name.  Subsystem
#: 3's map raises from then on, and the error must still name subsystem 1,
#: as a check after every call would.
TWO_FAULTS = {
    "jac_f": (lambda good: lambda x, n: {**good(x, n), 2: np.full((2, 2), np.nan)},
              "jac_f block 2"),
    "f": (lambda good: lambda x, n: np.full(2, np.nan), "f"),
    "h": (lambda good: lambda x: np.full(1, np.nan), "h"),
    "jac_h": (lambda good: lambda x: np.full((1, 2), np.nan), "jac_h"),
}


def _two_faults(name: str) -> list:
    subs = _chain()
    for i, bad in ((1, TWO_FAULTS[name][0](getattr(subs[1], name))), (3, _raise)):
        subs[i] = dataclasses.replace(subs[i], **{name: _from_call(3, getattr(subs[i], name),
                                                                   bad)})
    return subs


def _chain_run() -> tuple:
    """The chain's partition, noise, a 6-step trajectory of the healthy
    chain and a design for it."""
    part = make_partition([2] * 4, [1] * 4)
    healthy = aggregate_nonlinear(_chain(), part)
    noise = noise_for(healthy, 0.1, seed=2)
    traj = simulate(healthy, np.ones(8), 6, noise)
    design = EstimatorDesign.from_model(healthy, P0=[np.eye(2)] * 4, x0_guess=np.zeros(8))
    return part, noise, traj, design


@pytest.mark.parametrize("name", TWO_FAULTS)
def test_first_failing_subsystem_is_named_when_two_fail(name):
    part, noise, traj, design = _chain_run()
    what = f"subsystem 1: {TWO_FAULTS[name][1]} returned a non-finite value"
    # The filter calls jac_f and f from instant 1 on, jac_h and h from instant 0 on.
    with pytest.raises(LinearizationError, match=re.escape(
            f"instant {2 if name in ('h', 'jac_h') else 3}, {what}")) as err:
        run_dekf(aggregate_nonlinear(_two_faults(name), part), design, traj)
    assert err.value.subsystem == 1
    if name in ("jac_f", "jac_h"):
        subs = _two_faults(name)
        linearize(subs, np.ones(8))
        linearize(subs, np.ones(8))
        with pytest.raises(LinearizationError, match=f"^{re.escape(what)}$"):
            linearize(subs, np.ones(8))
    else:
        # The simulation calls f and h once per step from step 0 on.
        with pytest.raises(SimulationError, match=re.escape(f"step 2, {what}")):
            simulate(aggregate_nonlinear(_two_faults(name), part), np.ones(8), 6, noise)


def test_a_bad_jacobian_block_is_named_before_a_later_map_that_raises():
    # At instant 3 subsystem 1's jac_f block 2 turns NaN and subsystem 0's f
    # raises.  The filter calls every jac_f before any f, so the error names
    # the jac_f block, as a check after every call would; without the bad
    # block it names subsystem 0's f.
    part, _, traj, design = _chain_run()
    for bad_block, i, what in ((True, 1, "jac_f block 2 returned a non-finite value"),
                               (False, 0, "f raised ZeroDivisionError('boom')")):
        subs = _chain()
        if bad_block:
            subs[1] = dataclasses.replace(subs[1], jac_f=_from_call(
                3, subs[1].jac_f, TWO_FAULTS["jac_f"][0](subs[1].jac_f)))
        subs[0] = dataclasses.replace(subs[0], f=_from_call(3, subs[0].f, _raise))
        with pytest.raises(LinearizationError, match=re.escape(
                f"instant 3, subsystem {i}: {what}")) as err:
            run_dekf(aggregate_nonlinear(subs, part), design, traj)
        assert err.value.subsystem == i


#: ``content_digest`` of ``run_dekf`` (no monitors) on ``reactor-chain``
#: over K=50 at seeds 1-3: how the maps are evaluated must not move a bit.
DEKF_DIGESTS = {
    1: "e106607b05b665e9adeb4d70e93978079d525eca2f6a4737aa57c7228e2a228c",
    2: "0b743adc85f5cff351289c7b35e021e3a279bb0352eedbaa4291687d29b0d030",
    3: "547f27a6b5b19b371ae2fa9f67179983bf0cc0505a142ea3eb10f114730c70ad",
}
#: The same at seed 1 with subsystem 2 linearized by central differences.
MIXED_DEKF_DIGEST = "9c095620efb33c6a082cdb8ef19a00def5661c9ac33724c2bb0707868317d965"
#: SHA-256 of the bytes of ``linearize`` on ``reactor-chain`` (``A``,
#: ``C``, the ``a_cols``, the ``c_cols`` and the ``a_blocks`` in key order)
#: at the operating point and off it, per mode.
LINEARIZE_DIGESTS = {
    ("steady", "analytic"): "f2aaad1ea46c2b9d2a24222e8c52ecec6b67a2a62cd83c55324892c807e95817",
    ("steady", "fd"): "e2dffe1ff6ff35701539b4a7d0012d3f45e9f66120e337034e7006235f43179d",
    ("offset", "analytic"): "bebea22cbf31a77ee974d1243f51c3d8223434042f754226534ada0ffd6a568c",
    ("offset", "fd"): "353ffff916aee03cffd82f6abdc6bfa57b836828bfb66c68f90550cd24980887",
}


@pytest.mark.parametrize("seed", DEKF_DIGESTS)
def test_extended_filter_records_are_pinned(reactor_bench, seed):
    traj = simulate(reactor_bench.model, reactor_bench.x0, 50, reactor_bench.noise(seed=seed))
    rec = run_dekf(reactor_bench.model, reactor_bench.design, traj)
    assert rec.content_digest() == DEKF_DIGESTS[seed]


def test_extended_filter_record_with_central_differences_is_pinned(reactor_bench):
    subs = list(reactor_bench.model.subsystems)
    subs[2] = dataclasses.replace(subs[2], jac_f=None, jac_h=None,
                                  jacobian_check_samples=(), stacked=False)
    traj = simulate(reactor_bench.model, reactor_bench.x0, 50, reactor_bench.noise(seed=1))
    rec = run_dekf(aggregate_nonlinear(subs, reactor_bench.model.partition),
                   reactor_bench.design, traj)
    assert rec.content_digest() == MIXED_DEKF_DIGEST


@pytest.mark.parametrize("point, mode", LINEARIZE_DIGESTS)
def test_linearization_blocks_are_pinned(reactor_bench, point, mode):
    x = REACTOR_STEADY + (np.array([3.0, -0.02] * 4) if point == "offset" else 0.0)
    b = linearize(reactor_bench.model.subsystems, x, mode=mode)
    digest = hashlib.sha256()
    for m in (b.A, b.C, *b.a_cols, *b.c_cols, *(b.a_blocks[k] for k in sorted(b.a_blocks))):
        digest.update(np.ascontiguousarray(m).tobytes())
    assert digest.hexdigest() == LINEARIZE_DIGESTS[point, mode]


class TestMeasurementChecks:
    @pytest.mark.parametrize("field, rows, cols", [
        ("xs", 11, "nx-1"), ("ws", 11, "nx"), ("ws", 9, "nx"), ("vs", 0, "ny"), ("vs", 12, "ny")])
    def test_trajectory_arrays_need_one_row_per_instant(self, reactor_bench, field, rows, cols):
        # Accepted, the filter copied wrong-length noises into its record.
        model = reactor_bench.model
        traj = simulate(model, reactor_bench.x0, 10, reactor_bench.noise(seed=1))
        want = {"xs": (11, model.nx), "ws": (10, model.nx), "vs": (11, model.ny)}[field]
        shape = (rows, {"nx-1": model.nx - 1, "nx": model.nx, "ny": model.ny}[cols])
        bad = dataclasses.replace(traj, **{field: np.zeros(shape)})
        with pytest.raises(ValueError, match=re.escape(
                f"trajectory {field} has shape {shape}, expected {want}")):
            run_dekf(model, reactor_bench.design, bad)

    def test_wrong_measurement_shape_is_rejected(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 10,
                        reactor_bench.noise(seed=1))
        bad = dataclasses.replace(traj, ys=traj.ys[:, :-1])
        with pytest.raises(ValueError, match="measurements have shape"):
            run_dekf(reactor_bench.model, reactor_bench.design, bad)

    def test_non_finite_measurement_names_instant_and_subsystems(self, reactor_bench):
        traj = simulate(reactor_bench.model, reactor_bench.x0, 10,
                        reactor_bench.noise(seed=1))
        ys = traj.ys.copy()
        ys[6, 3] = np.nan
        ys[6, 6] = -np.inf
        with pytest.raises(FilterError, match=r"instant 6 .*subsystems \[1, 3\]"):
            run_dekf(reactor_bench.model, reactor_bench.design,
                     dataclasses.replace(traj, ys=ys))


class TestStepReplay:
    def test_step_functions_reproduce_run_dekf_bitwise(self, reactor_bench):
        # init_update, dekf_predict, dekf_gain_cov and dekf_update chained by
        # hand with the subsystems' own Jacobian providers give exactly the
        # engine's posteriors and covariances.
        model, design = reactor_bench.model, reactor_bench.design
        traj = simulate(model, reactor_bench.x0, 30, reactor_bench.noise(seed=11))
        rec = run_dekf(model, design, traj)
        p = model.partition
        subs = model.subsystems

        def c_cols_at(points):
            cols = [np.zeros((p.ny, d)) for d in p.dims]
            for i, sub in enumerate(subs):
                cols[i][p.out_slice(i)] = sub.jac_h(points[i])
            return cols

        guess = p.split_state(design.x0_guess)
        c_cols = c_cols_at(guess)
        innovation = traj.ys[0] - model.h(design.x0_guess)
        post, covs = [], []
        for i in range(p.n):
            x_i, P, _ = init_update(design.P0[i], c_cols[i], design.R, guess[i], innovation)
            post.append(x_i)
            covs.append(P)
        assert np.array_equal(np.concatenate(post), rec.xhat_post[0])
        for k in range(1, 31):
            rows = [subs[l].jac_f(post[l], {m: post[m] for m in subs[l].neighbors})
                    for l in range(p.n)]
            a_cols = [np.zeros((p.nx, d)) for d in p.dims]
            for l in range(p.n):
                for i, blk in rows[l].items():
                    a_cols[i][p.state_slice(l)] = blk
            phase1 = ExchangeSnapshot(k=k, posteriors=tuple(post))
            preds = [dekf_predict(i, phase1, model) for i in range(p.n)]
            c_cols = c_cols_at(preds)
            C_k = np.hstack(c_cols)
            phase2 = ExchangeSnapshot(k=k, posteriors=tuple(post), predictions=tuple(preds),
                                      measurement=traj.ys[k])
            gc = [dekf_gain_cov(covs[i], a_cols[i], rows[i][i], C_k, c_cols[i],
                                design.Q[i], design.R) for i in range(p.n)]
            assert not any(floored for _, _, floored in gc)
            post = [dekf_update(i, preds[i], phase2, gc[i][0], model) for i in range(p.n)]
            covs = [P for _, P, _ in gc]
            assert np.array_equal(np.concatenate(post), rec.xhat_post[k])
            for i in range(p.n):
                assert np.array_equal(covs[i], rec.covs[k][i])
