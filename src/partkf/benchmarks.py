"""Benchmark registry: ready-to-run fixtures with models, initial
conditions, estimator hyperparameters and noise defaults.

Two families ship with the package:

- ``linear-4state``: an open-loop unstable four-state linear plant split into
  two subsystems of two states, each measuring its first coordinate.  The
  published matrices, initial state, initial guess and prior covariance are
  reproduced verbatim.  ``coupling_scale`` scales the off-diagonal blocks
  (0 gives the stable decoupled variant used for long identity runs).  The
  default simulation noise level is 0.05; the estimator weights follow the
  noise covariances.

- ``reactor-chain``: a self-contained synthetic network of four exothermic
  reactor-like units, two states each (temperature, concentration), with
  smooth saturating cross-coupling whose strength is a config scalar.  Each
  unit measures its temperature directly and its concentration through a
  weak-signal sensor.  Both choices are load bearing for the stability
  monitors: one-output units would make the local gains rank one and the
  weak-coupling threshold matrix singular (the condition could never hold
  with a margin), while full-strength sensing of both states would make the
  filter memoryless and the condition vacuously true at any coupling.  Flow
  topology: unit 0 receives recycle from units 1 and 3; units 1, 2, 3 are
  fed from their upstream neighbor.  Ambient and feed levels are calibrated
  so the declared operating point is an exact fixed point.  Estimator
  weights: process 150 I, measurement I, prior covariance 0.01 I,
  reproducing a deliberately overconfident prior far from the truth.
  ``reactor-chain-mono`` is ``reactor-chain`` seen through the model's
  single-subsystem view (for single-partition reduction checks): the same
  maps, weights, state box, prior, guess and noise, with no second copy of
  the constants.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dkf import EstimatorDesign, _one_block
from .model import (
    GlobalModel,
    LinearSubsystem,
    NonlinearSubsystem,
    _frozen,
    _integer,
    _monolithic,
    _real,
    aggregate_nonlinear,
    assemble_global,
    make_partition,
)
from .simulate import NoiseSpec

__all__ = ["Benchmark", "get_benchmark", "register_benchmark", "available_benchmarks",
           "LINEAR_A", "LINEAR_C", "LINEAR_X0", "LINEAR_GUESS", "REACTOR_COUPLING"]


@dataclass(frozen=True)
class Benchmark:
    """A complete experiment fixture."""

    name: str
    model: GlobalModel
    x0: np.ndarray
    design: EstimatorDesign
    w_std: np.ndarray
    v_std: np.ndarray
    w_bound: np.ndarray
    v_bound: np.ndarray

    def noise(self, seed: int) -> NoiseSpec:
        return NoiseSpec(w_std=self.w_std, v_std=self.v_std, seed=seed,
                         w_bound=self.w_bound, v_bound=self.v_bound)


# -- linear four-state fixture ----------------------------------------------

LINEAR_A = np.array([
    [0.68, 0.25, 0.17, 0.11],
    [-0.09, 0.98, 0.0, -0.13],
    [0.15, 0.0, 0.9, -0.6],
    [0.12, -0.01, 0.1, 0.89],
])
LINEAR_C = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
])
LINEAR_X0 = np.array([-7.0047, 9.0089, 6.0012, -3.0066])
LINEAR_GUESS = np.array([-7.7052, 9.9089, 6.6013, -3.3073])

#: Default simulation noise level of the linear fixture.  The plant is open
#: loop unstable and the estimators start from a fixed 10 percent offset, so
#: this level keeps the steady-state RMSE far below the initial error, which
#: is the regime the Monte Carlo shape checks assert.
LINEAR_NOISE_STD = 0.05
#: Truncation at six standard deviations.
NOISE_BOUND_SIGMAS = 6.0


def linear_subsystems(coupling_scale: float = 1.0,
                      noise_std: float = LINEAR_NOISE_STD) -> list[LinearSubsystem]:
    q = noise_std ** 2
    s = float(coupling_scale)
    sub0 = LinearSubsystem(
        index=0, A=LINEAR_A[:2, :2],
        coupling={1: s * LINEAR_A[:2, 2:]} if s else {},
        C=LINEAR_C[0:1, 0:2], Q=q * np.eye(2), R=q * np.eye(1))
    sub1 = LinearSubsystem(
        index=1, A=LINEAR_A[2:, 2:],
        coupling={0: s * LINEAR_A[2:, :2]} if s else {},
        C=LINEAR_C[1:2, 2:4], Q=q * np.eye(2), R=q * np.eye(1))
    return [sub0, sub1]


def _linear_4state(coupling_scale: float = 1.0,
                   noise_std: float = LINEAR_NOISE_STD) -> Benchmark:
    part = make_partition([2, 2], [1, 1])
    model = assemble_global(linear_subsystems(coupling_scale, noise_std), part)
    design = EstimatorDesign.from_model(model, P0=[100.0 * np.eye(2)] * 2,
                                        x0_guess=LINEAR_GUESS)
    std_w = noise_std * np.ones(4)
    std_v = noise_std * np.ones(2)
    return Benchmark(
        name="linear-4state", model=model, x0=LINEAR_X0, design=design,
        w_std=std_w, v_std=std_v,
        w_bound=NOISE_BOUND_SIGMAS * std_w, v_bound=NOISE_BOUND_SIGMAS * std_v,
    )


# -- synthetic reactor chain -------------------------------------------------

#: Operating point: temperature and concentration per unit.
REACTOR_T_S = np.array([310.84, 310.83, 312.47, 311.16])
REACTOR_C_S = np.array([3.03, 2.80, 2.84, 3.01])
#: Truth and estimator starting points (far from the operating point; the
#: prior covariance below is deliberately overconfident).
REACTOR_X0 = np.array([341.9213, 3.3349, 341.9161, 3.0803,
                       343.7129, 3.1286, 342.2733, 3.3156])
REACTOR_GUESS = np.array([362.7388, 3.5215, 362.8758, 3.2521,
                          365.0446, 3.3023, 362.5779, 3.5010])
#: Recycle/feed topology: unit 0 <- {1, 3}, unit i <- {i-1} otherwise.
REACTOR_NEIGHBORS = {0: (1, 3), 1: (0,), 2: (1,), 3: (2,)}

REACTOR_DT = 0.05
REACTOR_E_ACT = 3000.0       # activation temperature (K)
REACTOR_K_RATE = 450.0       # rate prefactor (1/h)
REACTOR_HEAT = 30.0          # temperature rise per unit reaction rate
REACTOR_KAPPA_T = 1.2        # thermal relaxation rate (1/h)
REACTOR_KAPPA_C = 1.0        # feed renewal rate (1/h)
REACTOR_SAT_T = 5.0          # coupling saturation scale for temperature (K)
REACTOR_SAT_C = 0.5          # coupling saturation scale for concentration
#: Default cross-coupling strength (1/h).  Weak enough that the
#: weak-coupling monitor holds at every instant; scaling it by 100 produces
#: a detected violation.
REACTOR_COUPLING = 0.03
#: Concentration sensor signal scale (its reading is this multiple of the
#: concentration, against a unit measurement weight).
REACTOR_C_SENSOR = 0.02

REACTOR_BOX_T = (200.0, 500.0)
REACTOR_BOX_C = (0.05, 20.0)


def _rate(T, c):
    return REACTOR_K_RATE * c * np.exp(-REACTOR_E_ACT / T)


def _sat(z, scale: float):
    return scale * np.tanh(z / scale)


def _squared(z):
    """``z ** 2`` by libm ``pow``, as a NumPy float64 scalar's ``** 2`` is,
    for a number or for each entry of an array (an array's ``** 2`` is
    ``z * z``, off by one bit at some points)."""
    return np.float_power(z, 2) if isinstance(z, np.ndarray) else z ** 2


def _sat_prime(z, scale: float):
    return 1.0 / _squared(np.cosh(z / scale))


# The reactor's maps take one point (``x_i`` of shape ``(2,)``) or a stack
# of points (``(..., 2)``), and give a stack the bits of its points' calls:
# one point's coordinates are Python floats, a stack's are arrays of the
# stack's shape, and the arithmetic is the same.  IEEE ``+ - * /`` and libm
# ``pow`` give a Python float the bits of a NumPy float64 scalar, and the
# transcendental functions are NumPy's for both.  So at ``T == 0`` a point's
# map raises ``ZeroDivisionError`` where a stack's gives ``-inf``.


def _coords(x):
    """The coordinates of one point as Python floats, or of a stack of
    points as arrays of the stack's shape."""
    return x.tolist() if x.ndim == 1 else x.transpose(x.ndim - 1, *range(x.ndim - 1))


def _assembled(entries: list, lead: tuple) -> np.ndarray:
    """The vector or matrix of ``entries`` (a list of entries or of rows)
    for one point (``lead == ()``); for a stack of points, whose entries are
    arrays of shape ``lead`` or numbers, a ``lead + shape`` array."""
    if not lead:
        return np.array(entries)
    rows = entries if isinstance(entries[0], list) else [entries]
    out = np.empty(lead + (len(rows), len(rows[0])))
    for j, row in enumerate(rows):
        for k, v in enumerate(row):
            out[..., j, k] = v
    return out if rows is entries else out[..., 0, :]


def _reactor_levels(i: int, coupling: float) -> tuple[float, float]:
    """Ambient temperature and feed concentration that make the operating
    point an exact fixed point for the given coupling strength."""
    T_s, c_s = REACTOR_T_S[i], REACTOR_C_S[i]
    r_s = _rate(T_s, c_s)
    sum_T = sum(_sat(REACTOR_T_S[l] - T_s, REACTOR_SAT_T) for l in REACTOR_NEIGHBORS[i])
    sum_c = sum(_sat(REACTOR_C_S[l] - c_s, REACTOR_SAT_C) for l in REACTOR_NEIGHBORS[i])
    T_env = T_s - (REACTOR_HEAT * r_s + coupling * sum_T) / REACTOR_KAPPA_T
    c_in = c_s + (r_s - coupling * sum_c) / REACTOR_KAPPA_C
    return float(T_env), float(c_in)


def _reactor_f(i: int, coupling: float) -> Callable:
    T_env, c_in = _reactor_levels(i, coupling)

    def f(x_i, neighbors):
        T, c = _coords(x_i)
        r = _rate(T, c)
        dT = -REACTOR_KAPPA_T * (T - T_env) + REACTOR_HEAT * r
        dc = REACTOR_KAPPA_C * (c_in - c) - r
        for l in REACTOR_NEIGHBORS[i]:
            T_l, c_l = _coords(neighbors[l])
            dT += coupling * _sat(T_l - T, REACTOR_SAT_T)
            dc += coupling * _sat(c_l - c, REACTOR_SAT_C)
        return _assembled([T + REACTOR_DT * dT, c + REACTOR_DT * dc], x_i.shape[:-1])

    return f


def _reactor_jac_f(i: int, coupling: float) -> Callable:
    def jac(x_i, neighbors):
        T, c = _coords(x_i)
        lead = x_i.shape[:-1]
        arrhenius = np.exp(-REACTOR_E_ACT / T)   # ``_rate``'s, taken once
        r = REACTOR_K_RATE * c * arrhenius
        dr_dT = r * REACTOR_E_ACT / _squared(T)
        dr_dc = REACTOR_K_RATE * arrhenius
        sat = {}
        for l in REACTOR_NEIGHBORS[i]:
            T_l, c_l = _coords(neighbors[l])
            sat[l] = _sat_prime(T_l - T, REACTOR_SAT_T), _sat_prime(c_l - c, REACTOR_SAT_C)
        sat_T_sum = sum(s_T for s_T, _ in sat.values())
        sat_c_sum = sum(s_c for _, s_c in sat.values())
        blocks = {i: _assembled([
            [1.0 + REACTOR_DT * (-REACTOR_KAPPA_T + REACTOR_HEAT * dr_dT
                                 - coupling * sat_T_sum),
             REACTOR_DT * REACTOR_HEAT * dr_dc],
            [-REACTOR_DT * dr_dT,
             1.0 + REACTOR_DT * (-REACTOR_KAPPA_C - dr_dc - coupling * sat_c_sum)],
        ], lead)}
        for l, (s_T, s_c) in sat.items():
            blocks[l] = _assembled([[REACTOR_DT * coupling * s_T, 0.0],
                                    [0.0, REACTOR_DT * coupling * s_c]], lead)
        return blocks

    return jac


#: The reactor's output map is linear: ``h(x_i) = x_i * _REACTOR_H_SCALE``
#: (a product by 1.0 is exact), with this constant Jacobian.
_REACTOR_H_SCALE = _frozen([1.0, REACTOR_C_SENSOR])
_REACTOR_H_JAC = _frozen(np.diag(_REACTOR_H_SCALE))


def _reactor_h(x_i):
    return x_i * _REACTOR_H_SCALE


def _reactor_jac_h(x_i):
    if x_i.ndim == 1:
        return _REACTOR_H_JAC
    out = np.empty(x_i.shape[:-1] + _REACTOR_H_JAC.shape)
    out[...] = _REACTOR_H_JAC
    return out


def reactor_subsystems(coupling: float = REACTOR_COUPLING) -> list[NonlinearSubsystem]:
    box_lo = np.array([REACTOR_BOX_T[0], REACTOR_BOX_C[0]])
    box_hi = np.array([REACTOR_BOX_T[1], REACTOR_BOX_C[1]])
    subs = []
    for i in range(4):
        samples = []
        for shift in (0.0, 5.0):
            x_i = np.array([REACTOR_T_S[i] + shift, REACTOR_C_S[i] + 0.05 * shift])
            nbrs = {l: np.array([REACTOR_T_S[l] - shift, REACTOR_C_S[l]])
                    for l in REACTOR_NEIGHBORS[i]}
            samples.append((x_i, nbrs))
        subs.append(NonlinearSubsystem(
            index=i, state_dim=2, out_dim=2,
            neighbor_dims={l: 2 for l in REACTOR_NEIGHBORS[i]},
            f=_reactor_f(i, coupling), h=_reactor_h,
            Q=150.0 * np.eye(2), R=np.eye(2),
            jac_f=_reactor_jac_f(i, coupling), jac_h=_reactor_jac_h,
            state_box=(box_lo, box_hi),
            jacobian_check_samples=tuple(samples), stacked=True,
        ))
    return subs


def _reactor_chain(coupling: float = REACTOR_COUPLING) -> Benchmark:
    part = make_partition([2] * 4, [2] * 4)
    model = aggregate_nonlinear(reactor_subsystems(coupling), part)
    design = EstimatorDesign.from_model(model, P0=[0.01 * np.eye(2)] * 4,
                                        x0_guess=REACTOR_GUESS)
    x_s = np.column_stack([REACTOR_T_S, REACTOR_C_S]).ravel()
    y_s = np.column_stack([REACTOR_T_S, REACTOR_C_SENSOR * REACTOR_C_S]).ravel()
    w_std = 0.001 * np.abs(x_s)
    v_std = 0.001 * np.abs(y_s)
    return Benchmark(name="reactor-chain", model=model, x0=REACTOR_X0,
                     design=design, w_std=w_std, v_std=v_std,
                     w_bound=5.0 * w_std, v_bound=5.0 * v_std)


def _reactor_chain_mono(coupling: float = REACTOR_COUPLING) -> Benchmark:
    """``reactor-chain`` seen as one single subsystem (degenerate partition),
    with the one-block view of its design."""
    bench = _reactor_chain(coupling)
    return replace(bench, name="reactor-chain-mono", model=_monolithic(bench.model),
                   design=_one_block(bench.design))


_REGISTRY: dict[str, Callable[..., Benchmark]] = {
    "linear-4state": _linear_4state,
    "reactor-chain": _reactor_chain,
    "reactor-chain-mono": _reactor_chain_mono,
}


def register_benchmark(name: str, builder: Callable[..., Benchmark]) -> None:
    """Add a named benchmark builder to the registry, or replace the one
    under ``name``.

    A builder must be a pure function of its parameters:
    :func:`partkf.harness.run_experiment` and
    :func:`partkf.analysis.monte_carlo` reuse what it built for a config
    of equal name, builder and ``params`` (in one process, the last few
    builds of at most 512 states).  Registering a name anew takes effect
    at the next call."""
    _REGISTRY[str(name)] = builder


def available_benchmarks() -> list[str]:
    return sorted(_REGISTRY)


def get_benchmark(name: str, **params) -> Benchmark:
    """Build a registered benchmark, passing ``params`` to its builder.  A
    parameter the builder does not take, or a value not of its default's
    kind, raises ``ValueError`` naming the benchmark and the parameter: an
    integer default takes an integer (a bool is not one), a float default a
    finite real number; other defaults leave the value to the builder.  A
    ``ValueError`` of the build itself names the parameters passed.  Every
    call builds the benchmark afresh."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"available: {', '.join(available_benchmarks())}") from None
    signature = inspect.signature(builder)
    try:
        signature.bind(**params)
        for key, value in params.items():
            default = signature.parameters[key].default if key in signature.parameters else None
            if type(default) is int:
                _integer(key, value)
            elif isinstance(default, float):
                _real(key, value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"benchmark {name!r}: {exc}") from None
    try:
        return builder(**params)
    except ValueError as exc:
        if not params:
            raise
        raise ValueError(f"benchmark {name!r} built with {', '.join(map(str, params))}: "
                         f"{exc}") from exc
