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
  "monitors":  true,
  "out_dir":   "out",
  "x0":        [...],           # truth initial state (required for inline)
  "noise":     {"w_std": s|[...], "v_std": s|[...],
                "w_bound": s|[...], "v_bound": s|[...]},
  "estimator": {"Q": s|[[..] per subsystem], "R": s|[[..]],
                "P0": s|[[..] per subsystem], "x0_guess": [...]}
}
```

A coupling key is a neighbor index written in decimal digits (``"1"``,
``"01"``); any other key (``"1.7"``, ``"1_0"``, ``"x"``) is an error naming
the subsystem and the key.
Scalars for ``noise``/``estimator`` entries broadcast over coordinates
(diagonal matrices for weights).  A key that is not listed here, in the
config, ``noise`` or ``estimator``, is an error.  Registered model names come
with complete defaults; inline models must specify ``x0``, ``noise`` and
``estimator``.
The model kind picks the filter: the distributed Kalman filter for a linear
plant, the distributed extended filter for a nonlinear one.
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
from .benchmarks import _REGISTRY, Benchmark, get_benchmark
from .dkf import (EstimatorDesign, FilterError, _LinearSource, _one_block,
                  _posterior_stack, _run_filter, run_dkf)
from .dekf import _NonlinearSource, run_dekf
from .fie import centralized_fie, classical_ekf_init, classical_ekf_step, run_dfie
from .model import (
    GlobalModel,
    LinearSubsystem,
    _flag,
    _frozen,
    _integer,
    _monolithic,
    _numbers,
    _object,
    _require,
    _seed,
    aggregate_nonlinear,
    assemble_global,
    make_partition,
)
from .records import RunRecord, _load_json, _write_csv
from .simulate import NoiseSpec, _broadcast, _simulate_runs, simulate

__all__ = ["ExperimentConfig", "load_config", "run_experiment", "export",
           "import_record", "verify_suite", "write_monte_carlo_csv"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model reference, horizon, seed and overrides."""

    model: dict
    steps: int = 50
    runs: int = 1
    seed: int = 1
    monitors: bool = True
    out_dir: str | None = None
    x0: list | None = None
    noise: dict | None = None
    estimator: dict | None = None

    def __post_init__(self):
        for name in ("steps", "runs"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        object.__setattr__(self, "seed", _seed(self.seed))
        _flag("monitors", self.monitors)
        if not isinstance(self.out_dir, (str, type(None))):
            raise ValueError(f"out_dir must be a string, not {self.out_dir!r}")
        if not isinstance(self.model, dict) or not ({"name", "inline"} & set(self.model)):
            raise ValueError("model must carry a registered 'name' or an 'inline' spec")
        if not isinstance(self.model.get("params", {}), dict):
            raise ValueError(f"model params must map parameter names to values, "
                             f"not {self.model['params']!r}")
        if "inline" in self.model:
            inline = _object("model.inline", self.model["inline"])
            _require("model.inline", inline, ("dims", "out_dims", "subsystems"))
            subs = inline["subsystems"]
            if not isinstance(subs, (list, tuple)):
                raise ValueError(f"model.inline subsystems must be a list, not {subs!r}")
            for j, raw in enumerate(subs):
                name = f"model.inline subsystem {j}"
                _require(name, _object(name, raw), ("index", "A", "C", "Q", "R"))
                _integer(f"{name} index", raw["index"])
                _object(f"{name} coupling", raw.get("coupling", {}))
        for name in ("noise", "estimator"):
            if getattr(self, name) is not None:
                _object(name, getattr(self, name))

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an :class:`ExperimentConfig` from a JSON file."""
    payload = _object("config", _load_json(path))
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**payload)


def _inline_model(spec: dict) -> GlobalModel:
    """The linear model of an inline spec whose keys
    :class:`ExperimentConfig` checked."""
    part = make_partition(spec["dims"], spec["out_dims"])
    subs = []
    for j, raw in enumerate(spec["subsystems"]):
        name = f"model.inline subsystem {j}"
        A, C, Q, R = (_numbers(f"{name} {key}", raw[key]) for key in "ACQR")
        coupling = {l: _numbers(f"{name} coupling {l}", b)
                    for l, b in raw.get("coupling", {}).items()}
        subs.append(LinearSubsystem(raw["index"], A, coupling, C, Q, R))
    return assemble_global(subs, part)


def _weight_list(value, diag_dims, name: str) -> tuple[np.ndarray, ...]:
    if not isinstance(value, (list, tuple, np.ndarray)):
        scale = _numbers(name, value)
        return tuple(np.diag(np.full(d, scale)) for d in diag_dims)
    mats = [_numbers(f"{name}[{i}]", m) for i, m in enumerate(value)]
    if len(mats) != len(diag_dims):
        raise ValueError(f"{name} must provide one matrix per subsystem")
    return tuple(mats)


#: The keys of a config's ``noise`` and ``estimator`` sections.
_NOISE_KEYS = ("w_std", "v_std", "w_bound", "v_bound")
_ESTIMATOR_KEYS = ("Q", "R", "P0", "x0_guess")


#: How many built benchmarks :func:`_benchmark` keeps, and the most states
#: a kept one may have: a larger model is built on every call, so that the
#: kept ones hold a few MB each at most.
_KEPT, _KEPT_NX = 8, 512
#: The benchmarks :func:`_benchmark` keeps, least recently used first.
_BUILT: dict[tuple, Benchmark] = {}


def _plain(value) -> bool:
    """Whether ``value`` is made only of what a JSON document loads as:
    dicts with string keys, lists, strings, integers, floats, booleans and
    ``None``, so that its JSON text gives it back exactly."""
    if type(value) is dict:
        return all(type(key) is str and _plain(item) for key, item in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return value is None or type(value) in (str, int, float, bool)


def _built_key(name, params) -> tuple | None:
    """The key under which :func:`_benchmark` keeps a build: the registered
    builder, the name and the params' JSON, key order kept.  ``None`` for a
    name that is not registered, an unhashable builder, or params that are
    not :func:`_plain` (a NumPy value, a tuple, an integer dict key), nest
    too deep or hold an integer too long to write."""
    builder = _REGISTRY.get(name) if isinstance(name, str) else None
    try:
        if builder is not None and _plain(params):
            key = builder, name, json.dumps(params, separators=(",", ":"))
            hash(key)
            return key
    except (TypeError, ValueError, RecursionError):
        pass
    return None


def _benchmark(name, params) -> Benchmark:
    """``get_benchmark(name, **params)`` with every array read-only.

    The last :data:`_KEPT` builds of at most :data:`_KEPT_NX` states are
    kept under :func:`_built_key`, which holds the registered builder, so a
    name registered anew builds anew; the builder must be a pure function
    of its parameters.  An error is raised again on every call."""
    key = _built_key(name, params)
    bench = _BUILT.pop(key, None) if key is not None else None
    if bench is None:
        bench = get_benchmark(name, **params)
        d = bench.design
        bench = dataclasses.replace(
            bench, x0=_frozen(bench.x0),
            design=EstimatorDesign(Q=tuple(map(_frozen, d.Q)), R=_frozen(d.R),
                                   P0=tuple(map(_frozen, d.P0)),
                                   x0_guess=_frozen(d.x0_guess)),
            **{field: _frozen(value) for field in _NOISE_KEYS
               if (value := getattr(bench, field)) is not None})
    if key is not None and bench.model.partition.nx <= _KEPT_NX:
        _BUILT[key] = bench
        if len(_BUILT) > _KEPT:
            _BUILT.pop(next(iter(_BUILT)))
    return bench


def _resolve(config: ExperimentConfig) -> "_Plan":
    """Everything ``config`` fixes for a run but the seed: model, truth
    initial state, noise, design and the filter the model kind picks.  A
    named model's benchmark comes from :func:`_benchmark`, so a repeat call
    of an equal model section does not build it again; the rest is resolved
    on every call, and the filter's source has its own empty gain
    schedule."""
    for section, known in (("noise", _NOISE_KEYS), ("estimator", _ESTIMATOR_KEYS)):
        unknown = set(getattr(config, section) or {}) - set(known)
        if unknown:
            raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    if "name" in config.model:
        bench = _benchmark(config.model["name"], config.model.get("params", {}))
        model, x0, design = bench.model, bench.x0, bench.design
        noise_kw = {key: getattr(bench, key) for key in _NOISE_KEYS}
    else:
        model = _inline_model(config.model["inline"])
        x0 = None
        design = None
        noise_kw = dict.fromkeys(_NOISE_KEYS)

    if config.x0 is not None:
        x0 = _numbers("x0", config.x0)
    if x0 is None:
        raise ValueError("inline models require an explicit x0")

    p = model.partition
    if config.noise is not None:
        for key in _NOISE_KEYS:
            if key in config.noise:
                dim = p.nx if key.startswith("w") else p.ny
                value = config.noise[key]
                if value is not None:   # null unsets the key
                    value = _numbers(f"noise.{key}", value)
                noise_kw[key] = _broadcast(value, dim, key)
    if noise_kw["w_std"] is None or noise_kw["v_std"] is None:
        raise ValueError("inline models require noise w_std and v_std")
    noise = NoiseSpec(seed=config.seed, **noise_kw)

    est = dict(config.estimator or {})
    if design is None and not set(_ESTIMATOR_KEYS) <= set(est):
        raise ValueError("inline models require estimator Q, R, P0 and x0_guess")
    Q = (_weight_list(est["Q"], p.dims, "estimator.Q") if "Q" in est
         else design.Q)
    if "R" in est:
        R = _numbers("estimator.R", est["R"])
        R = np.diag(np.full(p.ny, R)) if R.ndim == 0 else R
    else:
        R = design.R
    P0 = (_weight_list(est["P0"], p.dims, "estimator.P0") if "P0" in est
          else design.P0)
    guess = (_numbers("estimator.x0_guess", est["x0_guess"]) if "x0_guess" in est
             else design.x0_guess)
    design = EstimatorDesign(Q=Q, R=R, P0=P0, x0_guess=guess)

    source = (_LinearSource if model.linear else _NonlinearSource)(model, design)
    return _Plan(config, model, x0, noise, source)


#: The most numbers an array of a stacked ensemble pass holds (2 MB of
#: floats), which bounds the memory of a long or wide ensemble.
_STACK_FLOATS = 2 ** 18


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

    def rmse(self, seeds) -> np.ndarray:
        """The RMSE rows ``(runs, K+1)`` of the runs at ``seeds``, row ``j``
        bit for bit ``self.run(seeds[j]).rmse``.  A linear plan simulates
        and filters all its runs as stacks (see :meth:`_stacked_rmse`),
        whatever their noise draws; a nonlinear one, and a linear one whose
        stacked pass fails, runs them one by one, so that an error is the
        one the first failing run raises."""
        rows = self._stacked_rmse(seeds) if self.model.linear else None
        if rows is None:
            rows = np.vstack([self.run(int(s)).rmse for s in seeds])
        return rows

    def _stacked_rmse(self, seeds) -> np.ndarray | None:
        """The RMSE rows of the runs at ``seeds`` from one pass of the
        simulation and one of the filter's loop per batch of runs, a batch
        holding at most ``_STACK_FLOATS`` numbers per array.  ``None`` when
        a pass fails: a non-finite state or measurement, or a filter
        error."""
        K = self.config.steps
        rows = np.empty((len(seeds), K + 1))
        width = max(1, _STACK_FLOATS // ((K + 1) * (self.model.nx + self.model.ny)))
        for start in range(0, len(seeds), width):
            truth = _simulate_runs(self.model, self.x0, K, self.noise,
                                   seeds[start:start + width])
            if truth is None:
                return None
            xs, ys = truth
            try:
                post = _posterior_stack(self.source, ys)
            except FilterError:
                return None
            rows[start:start + width] = analysis.rmse(post, xs).T
        return rows


def run_experiment(config: ExperimentConfig, write_outputs: bool = True) -> RunRecord:
    """Simulate the truth, run the filter the model kind picks (DKF for a
    linear plant, DEKF for a nonlinear one), attach monitors and write output
    files."""
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
