"""Partition-based distributed extended Kalman filter.

The extended filter is the linear two-phase engine of :mod:`partkf.dkf` with
its blocks re-linearized at every sampling instant.  This module supplies the
nonlinear linearization source and the public step functions, two of them the
linear filter's: ``dekf_update`` is :func:`partkf.dkf.update` and
``dekf_gain_cov`` is :func:`partkf.dkf.gain_and_covariance` with the floor.
So on an affine model the extended filter is the linear filter bit for bit.
The evaluation points are deliberately asymmetric; they follow from the
record's ``xhat_post`` and ``xhat_pred`` and are not stored again:

- dynamics blocks are linearized at the posteriors ``xhat_post[k]`` (computed
  at the end of instant ``k``, used by the gain and covariance at ``k+1``);
- output blocks are linearized at the stacked prediction ``xhat_pred[k]``;
- the innovation uses the nonlinear output map at the stacked prediction, not
  its linearization.

Jacobian blocks come from each subsystem's analytic providers in
``mode="analytic"``, with central differences for a subsystem that has none,
and from central differences everywhere in ``mode="fd"``.  A failing map
raises ``LinearizationError`` naming the subsystem (and, in a run, the
instant).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Sequence

import numpy as np

from .dkf import (  # noqa: F401  (the floor constants are part of this module's API)
    COV_FLOOR_BUMP,
    COV_FLOOR_REL,
    EstimatorDesign,
    ExchangeSnapshot,
    _floor,
    _posteriors,
    _run_filter,
    gain_and_covariance,
    update,
)
from .model import (GlobalModel, _a_cols, _check_mode, _checked, _jac_cols_h, _jac_rows_f,
                    _own_outputs)
from .records import RunRecord
from .simulate import Trajectory

__all__ = ["dekf_predict", "dekf_gain_cov", "dekf_update", "run_dekf"]


def dekf_predict(i: int, snapshot: ExchangeSnapshot, model: GlobalModel) -> np.ndarray:
    """Nonlinear propagation of the local posterior with neighbor posteriors
    as interaction inputs."""
    sub = model.subsystems[i]
    x_i, neighbors = _posteriors(snapshot, i, sub.neighbors)
    return _checked(sub, "f", sub.f, x_i, neighbors, shape=(sub.state_dim,))


def dekf_gain_cov(P_prev: np.ndarray, a_col_i: np.ndarray, a_ii: np.ndarray,
                  C_k: np.ndarray, c_col_i: np.ndarray, Q_i: np.ndarray,
                  R: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Gain and posterior covariance from time-indexed Jacobian blocks.

    Applies the eigenvalue floor policy and returns whether it fired.
    """
    L, P = gain_and_covariance(P_prev, a_col_i, a_ii, C_k, c_col_i, Q_i, R)
    P, floored = _floor(P)
    return L, P, floored


#: The local update of both filters: the innovation is the measurement minus
#: every subsystem's own (nonlinear) output map at its prediction.
dekf_update = update


class _NonlinearSource:
    """Linearization source of a nonlinear model and one design (validated
    once, here): Jacobian blocks at the given points, nonlinear prediction
    and the nonlinear output residual.  Its gains depend on the estimates,
    so its schedule stays empty."""

    kind = "dekf"
    predict = staticmethod(dekf_predict)
    schedule = MappingProxyType({})

    def __init__(self, model: GlobalModel, mode: str, design: EstimatorDesign):
        design.validate(model)
        self.model = model
        self.mode = mode
        self.design = design

    def dynamics(self, x: np.ndarray) -> tuple[list, list]:
        p = self.model.partition
        rows = _jac_rows_f(self.model.subsystems, p, x, self.mode)
        return _a_cols(rows, p), [rows[(i, i)] for i in range(p.n)]

    def output(self, x: np.ndarray) -> tuple[list, np.ndarray]:
        cols = _jac_cols_h(self.model.subsystems, self.model.partition, x, self.mode)
        return cols, np.hstack(cols)

    def innovation(self, y: np.ndarray, points: Sequence[np.ndarray]) -> np.ndarray:
        return y - _own_outputs(self.model.subsystems, points)

    def keep(self, k: int, L_k: list, P_k: list, floors: int) -> tuple:
        return L_k, P_k, floors


def run_dekf(model: GlobalModel, design: EstimatorDesign, traj: Trajectory,
             order: Sequence[int] | None = None, mode: str = "analytic") -> RunRecord:
    """Execute the distributed extended Kalman filter over a trajectory.

    Per instant: relinearize the dynamics at the posteriors of the previous
    instant, predict, relinearize the output map at the stacked prediction,
    compute gains and covariances, then update against the measurement.
    Aborts with the step index on covariance collapse.  ``mode`` is
    ``"analytic"`` or ``"fd"``; any other value raises ``ValueError``.
    """
    _check_mode(mode)
    if model.linear:
        raise ValueError("run_dekf needs a nonlinear model; use run_dkf instead")
    return _run_filter(_NonlinearSource(model, mode, design), traj, order, None)
