"""Per-layer figures from the traced run.

The traced run executes the workload's operations once with spans around
each call into a module's public functions, then replays the filter step by
step through the public step functions and checks that the replay reproduces
the engine's ``xhat_post`` and ``covs`` exactly.  A step function that a
later version of the package no longer has makes its metrics missing (None),
not failed.

Where a layer is not on the workload's own path, it is measured on the
workload's counterpart so that every traced run reports every layer: a
linear workload runs the extended filter on its affine-wrapped model (the
``mode="dekf"`` path of ``run_experiment``), and the nonlinear reactor runs
the linear filter and the batch oracle on its linearization at the end of
the simulated trajectory.
"""

from __future__ import annotations

import json
import time
from statistics import median

import numpy as np

from partkf import (
    Benchmark,
    EstimatorDesign,
    ExchangeSnapshot,
    EstimatorState,
    LinearSubsystem,
    aggregate_nonlinear,
    analysis,
    assemble_global,
    dekf,
    dkf,
    get_benchmark,
    harness,
    linear_as_nonlinear,
    linearize,
    run_dfie,
    simulate,
)
from partkf.records import RunRecord
from partkf.simulate import Trajectory

import chain
from workloads import JOB_ERRORS, JOBS, Session

SWEEP_SIZES = (16, 32, 64, 128)
SWEEP_STEPS = 10
#: The engine run and its step replay repeat at least ``REPLAY_PAIRS`` times
#: and until ``REPLAY_SECONDS`` are spent, so that short runs give figures
#: over many repetitions and long ones a median of three.
REPLAY_PAIRS = 3
REPLAY_SECONDS = 1.0
LINEARIZE_POINTS = 100

DKF_STEP_API = ("init_states", "predict", "gain_and_covariance", "update")
DEKF_STEP_API = ("dekf_predict", "dekf_gain_cov", "dekf_update", "COV_FLOOR_REL",
                 "COV_FLOOR_BUMP")


#: Module functions timed during the traced operations: calls made inside
#: ``run_experiment``, ``monte_carlo`` and ``attach_monitors``.
PATCHES = [
    (harness, "get_benchmark", "benchmarks.get_benchmark"),
    (harness, "simulate", "simulate.simulate"),
    (harness, "run_dkf", "dkf.run_dkf"),
    (harness, "run_dekf", "dekf.run_dekf"),
    (harness, "run_experiment", "harness.run_experiment"),
    (analysis, "check_bounds", "analysis.check_bounds"),
    (analysis, "check_weak_coupling", "analysis.check_weak_coupling"),
    (analysis, "check_contraction", "analysis.check_contraction"),
    (analysis, "lyapunov_values", "analysis.lyapunov_values"),
]


def _trajectory(rec: RunRecord) -> Trajectory:
    return Trajectory(xs=rec.xs, ys=rec.ys, ws=rec.ws, vs=rec.vs, seed=rec.seed)


def _same(rec: RunRecord, post: np.ndarray, covs: list) -> bool:
    return (np.array_equal(post, rec.xhat_post)
            and all(np.array_equal(a, b) for ka, kb in zip(covs, rec.covs)
                    for a, b in zip(ka, kb)))


# -- linear filter replay ------------------------------------------------


def replay_dkf(tracer, model, design, traj) -> tuple[np.ndarray, list]:
    """``run_dkf`` rebuilt from ``init_states``, ``predict``,
    ``gain_and_covariance`` and ``update``."""
    n = model.partition.n
    with tracer.span("dkf.init_states"):
        states = dkf.init_states(model, design, traj.ys[0])
    post = [np.concatenate([s.xhat for s in states])]
    covs = [[s.cov for s in states]]
    for k in range(1, traj.steps + 1):
        posteriors = tuple(s.xhat for s in states)
        phase1 = ExchangeSnapshot(k=k, posteriors=posteriors)
        with tracer.span("dkf.predict"):
            preds = [dkf.predict(i, phase1, model) for i in range(n)]
        with tracer.span("dkf.gain_cov"):
            gc = [dkf.gain_and_covariance(states[i].cov, model.a_col(i),
                                          model.subsystems[i].A, model.C,
                                          model.c_col(i), design.Q[i], design.R)
                  for i in range(n)]
        phase2 = ExchangeSnapshot(k=k, posteriors=posteriors,
                                  predictions=tuple(preds),
                                  measurement=np.asarray(traj.ys[k], dtype=float))
        with tracer.span("dkf.update"):
            xh = [dkf.update(i, preds[i], phase2, gc[i][0], model) for i in range(n)]
        states = [EstimatorState(i, xh[i], gc[i][1], gc[i][0], k) for i in range(n)]
        post.append(np.concatenate(xh))
        covs.append([s.cov for s in states])
    return np.vstack(post), covs


# -- extended filter replay ----------------------------------------------


def _c_col(sub, x_i, p) -> np.ndarray:
    col = np.zeros((p.ny, sub.state_dim))
    if sub.out_dim:
        col[p.out_slice(sub.index), :] = np.asarray(sub.jac_h(x_i), dtype=float)
    return col


def _floor(P: np.ndarray) -> tuple[np.ndarray, bool]:
    d = P.shape[0]
    if np.linalg.eigvalsh(P)[0] < dekf.COV_FLOOR_REL * np.trace(P) / d:
        return P + dekf.COV_FLOOR_BUMP * np.eye(d), True
    return P, False


def replay_dekf(tracer, model, design, traj) -> tuple[np.ndarray, list, int]:
    """``run_dekf`` rebuilt from the subsystems' ``jac_f``/``jac_h`` and
    ``dekf_predict``, ``dekf_gain_cov`` and ``dekf_update``."""
    p = model.partition
    n = p.n
    subs = model.subsystems
    floors = 0
    guess = p.split_state(design.x0_guess)
    with tracer.span("dekf.init"):
        c_cols = [_c_col(subs[i], guess[i], p) for i in range(n)]
        innovation0 = traj.ys[0] - model.h(design.x0_guess)
        xh, covs_k = [], []
        for i in range(n):
            x_i, P, _ = dkf.init_update(design.P0[i], c_cols[i], design.R,
                                        guess[i], innovation0)
            P, floored = _floor(P)
            floors += floored
            xh.append(x_i)
            covs_k.append(P)
    post = [np.concatenate(xh)]
    covs = [covs_k]
    for k in range(1, traj.steps + 1):
        posteriors = tuple(xh)
        with tracer.span("dekf.jacobian"):
            rows = []
            for i in range(n):
                nbrs = {l: posteriors[l] for l in subs[i].neighbors}
                got = subs[i].jac_f(posteriors[i], nbrs)
                rows.append({int(l): np.asarray(b, dtype=float) for l, b in got.items()})
            a_cols = []
            for i in range(n):
                col = np.zeros((p.nx, p.dims[i]))
                for l in range(n):
                    blk = rows[l].get(i)
                    if blk is not None:
                        col[p.state_slice(l), :] = blk
                a_cols.append(col)
        phase1 = ExchangeSnapshot(k=k, posteriors=posteriors)
        with tracer.span("dekf.predict"):
            preds = [dekf.dekf_predict(i, phase1, model) for i in range(n)]
        with tracer.span("dekf.jacobian"):
            c_cols = [_c_col(subs[i], preds[i], p) for i in range(n)]
            C_k = np.hstack(c_cols)
        with tracer.span("dekf.gain_cov"):
            gc = []
            for i in range(n):
                L, P, floored = dekf.dekf_gain_cov(covs[-1][i], a_cols[i], rows[i][i],
                                                   C_k, c_cols[i], design.Q[i], design.R)
                floors += floored
                gc.append((L, P))
        phase2 = ExchangeSnapshot(k=k, posteriors=posteriors,
                                  predictions=tuple(preds), measurement=traj.ys[k])
        with tracer.span("dekf.update"):
            xh = [dekf.dekf_update(i, preds[i], phase2, gc[i][0], model)
                  for i in range(n)]
        post.append(np.concatenate(xh))
        covs.append([P for _, P in gc])
    return np.vstack(post), covs, floors


# -- counterparts ----------------------------------------------------------


def affine_wrapped(model):
    """The linear model as ``run_experiment(mode="dekf")`` runs it."""
    return aggregate_nonlinear([linear_as_nonlinear(s) for s in model.subsystems],
                               model.partition)


def linearized(bench: Benchmark, point: np.ndarray) -> Benchmark:
    """Linear model of a nonlinear fixture about ``point``, in deviation
    coordinates, with the fixture's weights and noise."""
    model = bench.model
    p = model.partition
    lin = linearize(model.subsystems, point)
    subs = []
    for i, sub in enumerate(model.subsystems):
        subs.append(LinearSubsystem(
            index=i, A=lin.a_blocks[(i, i)],
            coupling={l: lin.a_blocks[(i, l)] for l in sub.neighbors},
            C=lin.c_cols[i][p.out_slice(i)], Q=bench.design.Q[i],
            R=bench.design.R[p.out_slice(i), p.out_slice(i)]))
    lin_model = assemble_global(subs, p)
    design = EstimatorDesign(Q=bench.design.Q, R=bench.design.R, P0=bench.design.P0,
                             x0_guess=bench.design.x0_guess - point)
    return Benchmark(name=bench.name + "-linearized", model=lin_model,
                     x0=bench.x0 - point, design=design, w_std=bench.w_std,
                     v_std=bench.v_std, w_bound=bench.w_bound, v_bound=bench.v_bound)


# -- the traced run -------------------------------------------------------


def _has(module, names) -> bool:
    return all(hasattr(module, name) for name in names)


def _replay_pairs(tracer, engine: str, run_fn, replay_fn, phases, steps: int):
    """Run the engine and its step replay in pairs, at least ``REPLAY_PAIRS``
    times and until ``REPLAY_SECONDS`` are spent.

    Returns the per-instant milliseconds of each replayed phase and of the
    engine's remainder (``record``: the engine's time minus the replayed
    phases), each the median over the pairs; whether every replay was exact;
    and the last replay's output.
    """
    per_pair, exact, out = [], True, None
    start = time.perf_counter()
    while len(per_pair) < REPLAY_PAIRS or time.perf_counter() - start < REPLAY_SECONDS:
        before = {p: tracer.total(p) or 0.0 for p in phases}
        with tracer.span(f"replay.{engine}.run") as run:
            rec = run_fn()
        out = replay_fn()
        exact = exact and _same(rec, out[0], out[1])
        spent = {p: tracer.total(p) - before[p] for p in phases}
        spent["record"] = run["end"] - run["start"] - sum(spent.values())
        per_pair.append(spent)
    ms = {p: 1e3 * median(pair[p] for pair in per_pair) / steps
          for p in (*phases, "record")}
    return ms, exact, out


def dkf_layers(tracer, session: Session, model, design, traj) -> dict:
    keys = ("dkf.predict_ms", "dkf.gain_cov_ms", "dkf.update_ms", "dkf.record_ms")
    if not _has(dkf, DKF_STEP_API) or not hasattr(harness, "run_dkf"):
        return dict.fromkeys(keys)
    ms, exact, _ = _replay_pairs(
        tracer, "dkf", lambda: harness.run_dkf(model, design, traj),
        lambda: replay_dkf(tracer, model, design, traj),
        ("dkf.init_states", "dkf.predict", "dkf.gain_cov", "dkf.update"), traj.steps)
    session.check("DKF step replay reproduces run_dkf exactly", exact)
    return dict(zip(keys, (ms["dkf.predict"], ms["dkf.gain_cov"], ms["dkf.update"],
                           ms["record"])))


def dekf_layers(tracer, session: Session, model, design, traj) -> dict:
    names = ("dekf.jacobian", "dekf.predict", "dekf.gain_cov", "dekf.update")
    keys = [n + "_ms" for n in names] + ["dekf.record_ms"]
    if not (_has(dekf, DEKF_STEP_API) and _has(dkf, ("init_update",))
            and hasattr(harness, "run_dekf")):
        return {**dict.fromkeys(keys), "dekf.floor_events": None}
    ms, exact, out = _replay_pairs(
        tracer, "dekf", lambda: harness.run_dekf(model, design, traj),
        lambda: replay_dekf(tracer, model, design, traj),
        ("dekf.init",) + names, traj.steps)
    session.check("DEKF step replay reproduces run_dekf exactly", exact)
    values = [ms[n] for n in names] + [ms["record"]]
    return {**dict(zip(keys, values)), "dekf.floor_events": out[2]}


def linearize_layers(tracer, subs, points) -> dict:
    step = max(1, len(points) // LINEARIZE_POINTS)
    for x in points[::step]:
        with tracer.span("model.linearize_analytic"):
            linearize(subs, x, mode="analytic")
        with tracer.span("model.linearize_fd"):
            linearize(subs, x, mode="fd")
    return {"model.linearize_analytic_ms": 1e3 * tracer.median("model.linearize_analytic"),
            "model.linearize_fd_ms": 1e3 * tracer.median("model.linearize_fd")}


def scaling_sweep(tracer, seed: int, sizes, steps: int) -> dict:
    """DKF, monitor and record cost of the chain over ``n`` at a short horizon."""
    out = {}
    for n in sizes:
        bench = get_benchmark(chain.NAME, n=n, seed=seed)
        traj = simulate(bench.model, bench.x0, steps, bench.noise(seed))
        with tracer.span(f"sweep.dkf.n{n}") as s_dkf:
            rec = harness.run_dkf(bench.model, bench.design, traj)
        with tracer.span(f"sweep.monitors.n{n}") as s_mon:
            analysis.attach_monitors(rec)
        size = len(json.dumps(rec.to_json()))
        out[f"dkf.ms_per_step.n{n}"] = 1e3 * (s_dkf["end"] - s_dkf["start"]) / steps
        out[f"analysis.monitors_ms_per_step.n{n}"] = (
            1e3 * (s_mon["end"] - s_mon["start"]) / steps)
        out[f"records.record_mb.n{n}"] = size / 1e6
    return out


def traced_run(tracer, wl, seed: int, out_dir, sweep=None) -> tuple[dict, Session]:
    """The workload's operations untraced, then traced, then the replays and
    the scaling sweep (``(sizes, steps)``, by default ``SWEEP_SIZES`` at
    ``SWEEP_STEPS``).  Returns the per-layer metrics and the session that
    counted the operations."""
    plain = Session(wl, seed, out_dir)
    plain.attempt("setup")
    t0 = time.perf_counter()
    plain.pipeline(JOBS)
    untraced = time.perf_counter() - t0

    session = Session(wl, seed, out_dir, tracer=tracer)
    session.attempted, session.failed = plain.attempted, plain.failed
    session.notes = plain.notes
    session.attempt("setup")
    with tracer.span("workload") as top:
        with tracer.patched(PATCHES):
            session.pipeline(JOBS)
    traced = top["end"] - top["start"]
    with tracer.span("checks"):
        session.run_checks()
    rec = session.monitored
    if rec is None:
        return {}, session

    steps = wl.steps

    def ms(value, per=1):
        return None if value is None else 1e3 * value / per

    m = {
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
        "simulate.ms_per_step": ms(tracer.total("simulate.simulate"),
                                   steps + wl.mc_runs * wl.mc_steps),
        "benchmarks.build_ms": ms(tracer.median("benchmarks.get_benchmark")),
        "harness.overhead_ms": ms(tracer.median("harness.run_experiment", self_time=True)),
        "analysis.bounds_s": tracer.total("analysis.check_bounds"),
        "analysis.weak_coupling_s": tracer.total("analysis.check_weak_coupling"),
        "analysis.contraction_s": tracer.total("analysis.check_contraction"),
        "analysis.lyapunov_s": tracer.total("analysis.lyapunov_values"),
        "records.to_json_s": tracer.total("records.to_json"),
        "records.csv_s": tracer.total("records.csv"),
        "records.from_json_s": tracer.total("records.from_json"),
        "records.digest_s": tracer.median("records.digest"),
    }

    cfg = session.cfg
    bench = get_benchmark(cfg.model["name"], **cfg.model.get("params", {}))
    traj = _trajectory(rec)
    try:
        if bench.model.linear:
            m.update(dkf_layers(tracer, session, bench.model, bench.design, traj))
            wrapped = affine_wrapped(bench.model)
            m.update(dekf_layers(tracer, session, wrapped, bench.design, traj))
            nl_subs = wrapped.subsystems
            m["fie.oracle_s"] = tracer.total("fie.run_dfie")
        else:
            m.update(dekf_layers(tracer, session, bench.model, bench.design, traj))
            nl_subs = bench.model.subsystems
            lin = linearized(bench, rec.xs[-1])
            lin_traj = simulate(lin.model, lin.x0, steps, lin.noise(seed))
            m.update(dkf_layers(tracer, session, lin.model, lin.design, lin_traj))
            with tracer.span("fie.run_dfie") as s:
                run_dfie(lin.model, lin.design, lin_traj.ys, 2)
            m["fie.oracle_s"] = s["end"] - s["start"]
        m.update(linearize_layers(tracer, nl_subs, rec.xhat_post))
        m.update(scaling_sweep(tracer, seed, *(sweep or (SWEEP_SIZES, SWEEP_STEPS))))
    except JOB_ERRORS as exc:
        session.check("per-layer replay", False, f"{type(exc).__name__}: {exc}")
    return m, session
