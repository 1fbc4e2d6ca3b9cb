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
(diagonal matrices for weights).  A key that is not listed here, in the
config, ``noise`` or ``estimator``, is an error.  Registered model names come
with complete defaults; inline models must specify ``x0``, ``noise`` and
``estimator``.
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
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import analysis
from .benchmarks import get_benchmark
from .dkf import EstimatorDesign, _LinearSource, _one_block, _run_filter, run_dkf
from .dekf import _NonlinearSource, run_dekf
from .fie import centralized_fie, classical_ekf_init, classical_ekf_step, run_dfie
from .model import (
    GlobalModel,
    LinearSubsystem,
    _integer,
    _monolithic,
    aggregate_nonlinear,
    assemble_global,
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
        if not isinstance(self.model.get("params", {}), dict):
            raise ValueError(f"model params must map parameter names to values, "
                             f"not {self.model['params']!r}")

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


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
            coupling={l: np.asarray(b, dtype=float)
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


#: The keys of a config's ``noise`` and ``estimator`` sections.
_NOISE_KEYS = ("w_std", "v_std", "w_bound", "v_bound")
_ESTIMATOR_KEYS = ("Q", "R", "P0", "x0_guess")


def _resolve(config: ExperimentConfig) -> "_Plan":
    """Everything ``config`` fixes for a run but the seed: model, truth
    initial state, noise, design and the filter ``mode`` selects (``auto``
    picks by model kind)."""
    for section, known in (("noise", _NOISE_KEYS), ("estimator", _ESTIMATOR_KEYS)):
        unknown = set(getattr(config, section) or {}) - set(known)
        if unknown:
            raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    if "name" in config.model:
        bench = get_benchmark(config.model["name"], **config.model.get("params", {}))
        model, x0, design = bench.model, bench.x0, bench.design
        noise_kw = {key: getattr(bench, key) for key in _NOISE_KEYS}
    else:
        model = _inline_model(config.model["inline"])
        x0 = None
        design = None
        noise_kw = dict.fromkeys(_NOISE_KEYS)

    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=float)
    if x0 is None:
        raise ValueError("inline models require an explicit x0")

    p = model.partition
    if config.noise is not None:
        for key in _NOISE_KEYS:
            if key in config.noise:
                dim = p.nx if key.startswith("w") else p.ny
                noise_kw[key] = _broadcast(config.noise[key], dim, key)
    if noise_kw["w_std"] is None or noise_kw["v_std"] is None:
        raise ValueError("inline models require noise w_std and v_std")
    noise = NoiseSpec(seed=config.seed, **noise_kw)

    est = dict(config.estimator or {})
    if design is None and not set(_ESTIMATOR_KEYS) <= set(est):
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
        run_model = (aggregate_nonlinear(model.subsystems, model.partition)
                     if model.linear else model)
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
#
# One function per identity the recursive filters are built on.  Each takes a
# partitioned plant, its design and a trajectory, and returns the worst
# relative difference ``|a - b| / max(1, |b|)`` of the identity's left side
# ``a`` from its right side ``b``, taken at every instant and per subsystem
# block, over the estimates and over the covariances and gains wherever the
# identity claims them.


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def _worst_blocks(model: GlobalModel, xs_a, xs_b) -> float:
    """Worst relative difference of two stacked estimate histories, per
    instant and per subsystem block."""
    p = model.partition
    return max(_rel(a[p.state_slice(i)], b[p.state_slice(i)])
               for a, b in zip(xs_a, xs_b) for i in range(p.n))


def _centralized(model: GlobalModel, design: EstimatorDesign, ys: np.ndarray) -> list:
    """Posteriors ``(x, P)`` at every instant of the classical EKF on the maps
    and Jacobians of the plant seen as one subsystem, for a one-subsystem
    design.  On a linear plant the maps are ``A x`` and ``C x`` and the
    Jacobians ``A`` and ``C``, so this is the centralized Kalman filter."""
    sub = _monolithic(model).subsystems[0]
    f, jac_f = (lambda x: sub.f(x, {})), (lambda x: sub.jac_f(x, {})[0])
    return list(accumulate(
        ys[1:], lambda s, y: classical_ekf_step(*s, y, f, sub.h, jac_f, sub.jac_h,
                                                design.Q[0], design.R),
        initial=classical_ekf_init(design.x0_guess, design.P0[0], ys[0], sub.h, sub.jac_h,
                                   design.R)))


def _dkf_vs_dfie(model: GlobalModel, design: EstimatorDesign, traj) -> float:
    """The distributed filter solves the distributed batch problem: its
    estimates equal the batch terminals at every instant."""
    rec = run_dkf(model, design, traj)
    dfie = run_dfie(model, design, traj.ys, traj.steps, history=rec.xhat_post)
    return _worst_blocks(model, rec.xhat_post, dfie.terminals)


def _centralized_fie_vs_kf(model: GlobalModel, design: EstimatorDesign, traj) -> float:
    """The centralized batch estimate over the whole record equals the
    centralized Kalman filter's at the last instant, the one instant at which
    the batch solution is a filtered estimate.  The centralized estimators
    see the plant as one block."""
    one = _one_block(design)
    sol = centralized_fie(model, one.x0_guess, one.P0[0], traj.ys, Q=one.Q[0], R=one.R)
    return _rel(sol.terminal, _centralized(model, one, traj.ys)[-1][0])


def _n1_vs_centralized(model: GlobalModel, design: EstimatorDesign, traj) -> float:
    """With one partition the distributed filter is the centralized Kalman
    filter, and the distributed extended filter the classical EKF: equal
    estimates and covariances at every instant."""
    one = _one_block(design)
    rec = (run_dkf if model.linear else run_dekf)(_monolithic(model), one, traj)
    return max(max(_rel(rec.xhat_post[k], x), _rel(rec.covs[k][0], P))
               for k, (x, P) in enumerate(_centralized(model, one, traj.ys)))


def _affine_dekf_vs_dkf(model: GlobalModel, design: EstimatorDesign, traj) -> float:
    """On an affine model the extended filter is the linear filter: equal
    estimates, covariances and gains at every instant."""
    affine = aggregate_nonlinear(model.subsystems, model.partition)
    ext, lin = run_dekf(affine, design, traj), run_dkf(model, design, traj)
    return max(_worst_blocks(model, ext.xhat_post, lin.xhat_post),
               *(_rel(a, b) for m_ext, m_lin in zip(ext.covs + ext.gains, lin.covs + lin.gains)
                 for a, b in zip(m_ext, m_lin)))


def verify_suite(seed: int = 1) -> list[tuple[str, bool, str]]:
    """Oracle-equivalence and reduction checks; returns (name, ok, detail).

    These are the structural identities the recursive filters are built on:
    the distributed recursion solves the distributed batch problem, the
    centralized batch problem is solved by the Kalman filter, the
    single-partition filters collapse to their centralized counterparts, and
    the nonlinear filter on an affine model reproduces the linear one.  The
    checks draw their noise from ``seed`` and the next three seeds (modulo
    ``2**64``).
    """
    lin, reactor = get_benchmark("linear-4state"), get_benchmark("reactor-chain")
    unit = get_benchmark("linear-4state", noise_std=1.0)   # Q = R = I, unit noise
    checks = (  # name, identity, fixture, simulated on one subsystem, steps, seed, tolerance
        ("DKF=FIE k<=5", _dkf_vs_dfie, unit, False, 5, seed, 1e-8),
        ("centralized FIE=KF k=3", _centralized_fie_vs_kf, unit, False, 3, seed, 1e-9),
        ("n=1 DKF=centralized KF", _n1_vs_centralized, unit, True, 100, seed + 1, 1e-9),
        ("n=1 DEKF=classical EKF", _n1_vs_centralized, reactor, True, 100, seed + 2, 1e-9),
        ("DEKF=DKF on affine model", _affine_dekf_vs_dkf, lin, False, 100, seed + 3, 1e-12),
    )
    results = []
    for name, identity, bench, collapse, steps, s, tol in checks:
        plant = _monolithic(bench.model) if collapse else bench.model
        traj = simulate(plant, bench.x0, steps, bench.noise(s % 2 ** 64))
        worst = identity(bench.model, bench.design, traj)
        figure = "rel diff" if identity is _centralized_fie_vs_kf else "max rel diff"
        results.append((name, worst <= tol, f"{figure} {worst:.2e}"))
    return results
