"""Experiment runner: config ingestion, filter orchestration, verification
suites and file export.

Configuration schema
--------------------

Experiments are described by a JSON document (all keys optional unless noted):

```
{
  "model":     {"name": "reactor-chain", "params": {"coupling": 0.03}}
            or {"inline": {"dims": [2, 2], "out_dims": [1, 1],
                           "subsystems": [
                             {"index": 0,
                              "A": [[...], [...]],          row-major
                              "coupling": {"1": [[...]]},   neighbor index -> block
                              "C": [[...]],
                              "Q": [[...]], "R": [[...]]}, ...]}},
  "steps":     50,              # K >= 1
  "runs":      1,               # Monte Carlo repetitions >= 1
  "seed":      1,               # 64-bit master seed
  "mode":      "auto",          # "dkf" | "dekf" | "auto"
  "monitors":  true,
  "out_dir":   "out",
  "x0":        [...],           # truth initial state (required for inline)
  "noise":     {"w_std": s|[...], "v_std": s|[...],
                "w_bound": s|[...], "v_bound": s|[...]},
  "estimator": {"Q": s|[[..] per subsystem], "R": s|[[..]],
                "P0": s|[[..] per subsystem], "x0_guess": [...]}
}
```

Scalars for ``noise``/``estimator`` entries broadcast over coordinates
(diagonal matrices for weights).  Registered model names come with complete
defaults; inline models must specify ``x0``, ``noise`` and ``estimator``.
Matrices are row-major nested arrays with full-precision decimal numbers.

Export formats
--------------

``<stem>.csv``: one row per instant with columns ``k``, ``x_1..x_nx``,
``xhat_1..xhat_nx``, ``y_1..y_ny``, ``rmse`` and, when monitors are attached,
the 0/1 flags ``coupling_ok`` and ``contraction_ok`` (instants where a
monitor is undefined count as 1).  ``<stem>.json``: the full replayable
record including config and seed.  Everything except wall-clock timings is a
pure function of (config, seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .benchmarks import get_benchmark
from .dkf import EstimatorDesign, _LinearSource, _run_filter, run_dkf
from .dekf import _NonlinearSource, run_dekf
from .fie import (
    centralized_fie,
    centralized_kf_init,
    centralized_kf_step,
    classical_ekf_init,
    classical_ekf_step,
    run_dfie,
)
from .model import (
    GlobalModel,
    LinearSubsystem,
    aggregate_nonlinear,
    assemble_global,
    linear_as_nonlinear,
    linearize,
    make_partition,
)
from .records import RunRecord, _load_json, _write_csv
from .simulate import NoiseSpec, _broadcast, simulate

__all__ = ["ExperimentConfig", "load_config", "run_experiment", "export",
           "import_record", "verify_suite", "write_monte_carlo_csv"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model reference, horizon, seed and overrides."""

    model: dict
    steps: int = 50
    runs: int = 1
    seed: int = 1
    mode: str = "auto"
    monitors: bool = True
    out_dir: str | None = None
    x0: list | None = None
    noise: dict | None = None
    estimator: dict | None = None

    def __post_init__(self):
        for name in ("steps", "runs", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be in [0, 2**64)")
        if not isinstance(self.monitors, bool):
            raise ValueError(f"monitors must be true or false, not {self.monitors!r}")
        if self.mode not in ("auto", "dkf", "dekf"):
            raise ValueError("mode must be auto, dkf or dekf")
        if not isinstance(self.model, dict) or not ({"name", "inline"} & set(self.model)):
            raise ValueError("model must carry a registered 'name' or an 'inline' spec")

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; ``ValueError`` naming ``name`` unless it is an
    integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an :class:`ExperimentConfig` from a JSON file."""
    payload = _load_json(path)
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**payload)


def _inline_model(spec: dict) -> GlobalModel:
    part = make_partition(spec["dims"], spec["out_dims"])
    subs = []
    for raw in spec["subsystems"]:
        subs.append(LinearSubsystem(
            index=int(raw["index"]),
            A=np.asarray(raw["A"], dtype=float),
            coupling={int(l): np.asarray(b, dtype=float)
                      for l, b in raw.get("coupling", {}).items()},
            C=np.asarray(raw["C"], dtype=float),
            Q=np.asarray(raw["Q"], dtype=float),
            R=np.asarray(raw["R"], dtype=float),
        ))
    return assemble_global(subs, part)


def _weight_list(value, diag_dims, name: str) -> tuple[np.ndarray, ...]:
    if np.isscalar(value):
        return tuple(float(value) * np.eye(d) for d in diag_dims)
    mats = [np.asarray(m, dtype=float) for m in value]
    if len(mats) != len(diag_dims):
        raise ValueError(f"{name} must provide one matrix per subsystem")
    return tuple(mats)


def _resolve(config: ExperimentConfig) -> "_Plan":
    """Everything ``config`` fixes for a run but the seed: model, truth
    initial state, noise, design and the filter ``mode`` selects (``auto``
    picks by model kind)."""
    if "name" in config.model:
        bench = get_benchmark(config.model["name"], **config.model.get("params", {}))
        model, x0, design = bench.model, bench.x0, bench.design
        noise_kw = {"w_std": bench.w_std, "v_std": bench.v_std,
                    "w_bound": bench.w_bound, "v_bound": bench.v_bound}
    else:
        model = _inline_model(config.model["inline"])
        x0 = None
        design = None
        noise_kw = {"w_std": None, "v_std": None, "w_bound": None, "v_bound": None}

    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=float)
    if x0 is None:
        raise ValueError("inline models require an explicit x0")

    p = model.partition
    if config.noise is not None:
        for key in ("w_std", "v_std", "w_bound", "v_bound"):
            if key in config.noise:
                dim = p.nx if key.startswith("w") else p.ny
                noise_kw[key] = _broadcast(config.noise[key], dim, key)
    if noise_kw["w_std"] is None or noise_kw["v_std"] is None:
        raise ValueError("inline models require noise w_std and v_std")
    noise = NoiseSpec(seed=config.seed, **noise_kw)

    est = dict(config.estimator or {})
    if design is None and not {"Q", "R", "P0", "x0_guess"} <= set(est):
        raise ValueError("inline models require estimator Q, R, P0 and x0_guess")
    Q = (_weight_list(est["Q"], p.dims, "estimator.Q") if "Q" in est
         else design.Q)
    if "R" in est:
        R = (float(est["R"]) * np.eye(p.ny) if np.isscalar(est["R"])
             else np.asarray(est["R"], dtype=float))
    else:
        R = design.R
    P0 = (_weight_list(est["P0"], p.dims, "estimator.P0") if "P0" in est
          else design.P0)
    guess = (np.asarray(est["x0_guess"], dtype=float) if "x0_guess" in est
             else design.x0_guess)
    design = EstimatorDesign(Q=Q, R=R, P0=P0, x0_guess=guess)

    mode = config.mode
    if mode == "auto":
        mode = "dkf" if model.linear else "dekf"
    if mode == "dkf":
        if not model.linear:
            raise ValueError("mode dkf requires a linear model")
        source = _LinearSource(model, design)
    else:
        run_model = model
        if model.linear:
            wrapped = [linear_as_nonlinear(s) for s in model.subsystems]
            run_model = aggregate_nonlinear(wrapped, model.partition)
        source = _NonlinearSource(run_model, "analytic", design)
    return _Plan(config, model, x0, noise, source)


@dataclass(frozen=True)
class _Plan:
    """A config resolved once: the truth model, its initial state and noise,
    and the linearization source of the chosen filter, which carries the
    design (and, for the linear filter, the gain schedule all runs share)."""

    config: ExperimentConfig
    model: GlobalModel
    x0: np.ndarray
    noise: NoiseSpec
    source: object

    def run(self, seed: int) -> RunRecord:
        """Simulate the truth at ``seed`` and run the filter over it."""
        config = self.config.replace(seed=seed)
        traj = simulate(self.model, self.x0, config.steps,
                        dataclasses.replace(self.noise, seed=config.seed))
        return _run_filter(self.source, traj, None, config.as_dict())


def run_experiment(config: ExperimentConfig, write_outputs: bool = True) -> RunRecord:
    """Simulate the truth, run the filter selected by ``mode`` (``auto``
    picks by model kind), attach monitors and write output files."""
    record = _resolve(config).run(config.seed)
    if config.monitors:
        analysis.attach_monitors(record)
    if write_outputs and config.out_dir:
        stem = _stem(config, record)
        export(record, "csv", config.out_dir, stem)
        export(record, "json", config.out_dir, stem)
        if record.monitors is not None:
            out = Path(config.out_dir)
            analysis.write_monitor_csv(record, out / f"{stem}_monitors.csv")
            analysis.write_summary_json(record, out / f"{stem}_summary.json")
    return record


def _stem(config: ExperimentConfig, record: RunRecord) -> str:
    name = config.model.get("name", "inline")
    return f"{name}_{record.kind}_seed{record.seed}"


def export(record: RunRecord, fmt: str, out_dir: str | Path,
           stem: str = "record") -> Path:
    """Write a record as ``csv`` or ``json``; returns the file path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out / f"{stem}.json"
        record.to_json(path)
        return path
    if fmt != "csv":
        raise ValueError(f"unknown export format {fmt!r}")
    nx = record.xs.shape[1]
    ny = record.ys.shape[1]
    header = (["k"] + [f"x_{j + 1}" for j in range(nx)]
              + [f"xhat_{j + 1}" for j in range(nx)]
              + [f"y_{j + 1}" for j in range(ny)] + ["rmse"])
    m = record.monitors
    if m is not None:
        header += ["coupling_ok", "contraction_ok"]
    rows = []
    for k in range(record.steps + 1):
        row = [k, *record.xs[k], *record.xhat_post[k], *record.ys[k], record.rmse[k]]
        if m is not None:
            row += [int(m["coupling_ok"][k]), int(m["contraction_ok"][k])]
        rows.append(row)
    return _write_csv(out / f"{stem}.csv", header, rows)


def import_record(path: str | Path) -> RunRecord:
    """Load a record previously exported as JSON."""
    return RunRecord.from_json(path)


def write_monte_carlo_csv(result: analysis.MonteCarloResult, out_dir: str | Path,
                          stem: str = "montecarlo") -> tuple[Path, Path]:
    """Write the per-run ensemble (one row per run per instant) and the
    per-instant summary (mean and envelope)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    instants = range(result.rmse.shape[1])
    long_path = _write_csv(
        out / f"{stem}_runs.csv", ["k", "run", "seed", "rmse"],
        ([k, r, int(result.seeds[r]), result.rmse[r, k]]
         for r in range(result.runs) for k in instants))
    summary_path = _write_csv(
        out / f"{stem}_summary.csv", ["k", "mean", "min", "max"],
        ([k, result.mean[k], result.lo[k], result.hi[k]] for k in instants))
    return long_path, summary_path


# -- verification suites -----------------------------------------------------


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def verify_suite(seed: int = 1) -> list[tuple[str, bool, str]]:
    """Oracle-equivalence and reduction checks; returns (name, ok, detail).

    These are the structural identities the recursive filters are built on:
    the distributed recursion solves the distributed batch problem, the
    single-partition filters collapse to their centralized counterparts, and
    the nonlinear filter on an affine model reproduces the linear one.
    """
    results: list[tuple[str, bool, str]] = []

    # Distributed recursion vs distributed batch oracle, horizons 0..5.
    bench = get_benchmark("linear-4state")
    model = bench.model
    design = EstimatorDesign(
        Q=tuple(np.eye(2) for _ in range(2)), R=np.eye(2),
        P0=tuple(100.0 * np.eye(2) for _ in range(2)), x0_guess=bench.design.x0_guess)
    noise = NoiseSpec(w_std=np.ones(4), v_std=np.ones(2), seed=seed,
                      w_bound=6.0 * np.ones(4), v_bound=6.0 * np.ones(2))
    traj = simulate(model, bench.x0, 5, noise)
    rec = run_dkf(model, design, traj)
    dfie = run_dfie(model, design, traj.ys, 5, history=rec.xhat_post)
    worst = max(_rel(dfie.terminals[k], rec.xhat_post[k]) for k in range(6))
    results.append(("DKF=FIE k<=5", worst <= 1e-8, f"max rel diff {worst:.2e}"))

    # Centralized batch oracle vs standard Kalman filter at k=3.
    sol = centralized_fie(model, design.x0_guess, 100.0 * np.eye(4), traj.ys[:4],
                          Q=np.eye(4), R=np.eye(2))
    x_kf, P_kf = centralized_kf_init(design.x0_guess, 100.0 * np.eye(4),
                                     traj.ys[0], model, R=np.eye(2))
    for k in range(1, 4):
        x_kf, P_kf = centralized_kf_step(x_kf, P_kf, traj.ys[k], model,
                                         Q=np.eye(4), R=np.eye(2))
    d = _rel(sol.terminal, x_kf)
    results.append(("centralized FIE=KF k=3", d <= 1e-9, f"rel diff {d:.2e}"))

    # Single-partition DKF vs centralized KF over 100 steps.
    part = make_partition([4], [2])
    sub = LinearSubsystem(0, model.A, {}, model.C, np.eye(4), np.eye(2))
    mono = assemble_global([sub], part)
    noise_m = NoiseSpec(w_std=np.ones(4), v_std=np.ones(2), seed=seed + 1,
                        w_bound=6.0 * np.ones(4), v_bound=6.0 * np.ones(2))
    traj_m = simulate(mono, bench.x0, 100, noise_m)
    des_m = EstimatorDesign.from_model(mono, P0=[100.0 * np.eye(4)],
                                       x0_guess=bench.design.x0_guess)
    rec_m = run_dkf(mono, des_m, traj_m)
    x_kf, P_kf = centralized_kf_init(des_m.x0_guess, des_m.P0[0], traj_m.ys[0], mono)
    worst = _rel(rec_m.xhat_post[0], x_kf)
    for k in range(1, 101):
        x_kf, P_kf = centralized_kf_step(x_kf, P_kf, traj_m.ys[k], mono)
        worst = max(worst, _rel(rec_m.xhat_post[k], x_kf),
                    _rel(rec_m.covs[k][0], P_kf))
    results.append(("n=1 DKF=centralized KF", worst <= 1e-9, f"max rel diff {worst:.2e}"))

    # Single-partition DEKF vs classical EKF over 100 steps.
    bm_mono = get_benchmark("reactor-chain-mono")
    subs4 = get_benchmark("reactor-chain").model.subsystems
    traj_n = simulate(bm_mono.model, bm_mono.x0, 100, bm_mono.noise(seed + 2))
    rec_n = run_dekf(bm_mono.model, bm_mono.design, traj_n)
    f = bm_mono.model.f
    h = bm_mono.model.h
    jf = lambda x: linearize(subs4, x, mode="analytic").A
    jh = lambda x: linearize(subs4, x, mode="analytic").C
    x_e, P_e = classical_ekf_init(bm_mono.design.x0_guess, bm_mono.design.P0[0],
                                  traj_n.ys[0], h, jh, bm_mono.design.R)
    worst = _rel(rec_n.xhat_post[0], x_e)
    for k in range(1, 101):
        x_e, P_e = classical_ekf_step(x_e, P_e, traj_n.ys[k], f, h, jf, jh,
                                      bm_mono.design.Q[0], bm_mono.design.R)
        worst = max(worst, _rel(rec_n.xhat_post[k], x_e),
                    _rel(rec_n.covs[k][0], P_e))
    results.append(("n=1 DEKF=classical EKF", worst <= 1e-9, f"max rel diff {worst:.2e}"))

    # DEKF on an affine-wrapped model vs DKF over 100 steps.
    wrapped = aggregate_nonlinear([linear_as_nonlinear(s) for s in model.subsystems],
                                  model.partition)
    noise_a = NoiseSpec(w_std=0.05 * np.ones(4), v_std=0.05 * np.ones(2),
                        seed=seed + 3, w_bound=0.3 * np.ones(4),
                        v_bound=0.3 * np.ones(2))
    traj_a = simulate(model, bench.x0, 100, noise_a)
    rec_lin = run_dkf(model, bench.design, traj_a)
    rec_wrp = run_dekf(wrapped, bench.design, traj_a)
    worst = max(_rel(rec_wrp.xhat_post[k], rec_lin.xhat_post[k]) for k in range(101))
    results.append(("DEKF=DKF on affine model", worst <= 1e-12, f"max rel diff {worst:.2e}"))
    return results
