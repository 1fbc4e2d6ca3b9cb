"""Partition-based distributed extended Kalman filter.

The extended filter is the linear two-phase engine of :mod:`partkf.dkf` with
its blocks re-linearized at every sampling instant by the nonlinear
linearization source, which lives beside the linear one in that module.  So
on an affine model the extended filter is the linear filter bit for bit.
This module holds :func:`run_dekf` and the public step functions, all but
one of them the linear filter's: ``dekf_predict`` is
:func:`partkf.dkf.predict` and ``dekf_update`` is :func:`partkf.dkf.update`,
one checked call of the subsystem's maps for either model kind, and
``dekf_gain_cov`` is :func:`partkf.dkf.gain_and_covariance` with the floor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dkf import (  # noqa: F401  (the floor constants are part of this module's API)
    COV_FLOOR_BUMP,
    COV_FLOOR_REL,
    EstimatorDesign,
    _floor,
    _NonlinearSource,
    _run_filter,
    gain_and_covariance,
    predict,
    update,
)
from .model import GlobalModel
from .records import RunRecord
from .simulate import Trajectory

__all__ = ["dekf_predict", "dekf_gain_cov", "dekf_update", "run_dekf"]


#: The local prediction of both filters: the subsystem's (nonlinear) map
#: ``f`` at its posterior and its neighbors', one checked call.
dekf_predict = predict


def dekf_gain_cov(P_prev: np.ndarray, a_col_i: np.ndarray, a_ii: np.ndarray,
                  C_k: np.ndarray, c_col_i: np.ndarray, Q_i: np.ndarray,
                  R: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Gain and posterior covariance from time-indexed Jacobian blocks.

    Applies the eigenvalue floor policy and returns whether it fired.
    """
    L, P = gain_and_covariance(P_prev, a_col_i, a_ii, C_k, c_col_i, Q_i, R)
    P, floored = _floor(P)
    return L, P, bool(floored)


#: The local update of both filters: the innovation is the measurement minus
#: every subsystem's own (nonlinear) output map at its prediction.
dekf_update = update


def run_dekf(model: GlobalModel, design: EstimatorDesign, traj: Trajectory,
             order: Sequence[int] | None = None) -> RunRecord:
    """Execute the distributed extended Kalman filter over a trajectory.

    Per instant: relinearize the dynamics at the posteriors of the previous
    instant, predict, relinearize the output map at the stacked prediction,
    compute gains and covariances, then update against the measurement.
    Aborts with the step index on covariance collapse.
    """
    if model.linear:
        raise ValueError("run_dekf needs a nonlinear model; use run_dkf instead")
    return _run_filter(_NonlinearSource(model, design), traj, order, None)
