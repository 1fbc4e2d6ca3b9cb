"""Partition-based distributed extended Kalman filter.

The extended filter is the linear two-phase engine of :mod:`partkf.dkf` with
its blocks re-linearized at every sampling instant.  This module supplies the
nonlinear linearization source and the public step functions, all but one
of them the linear filter's: ``dekf_predict`` is :func:`partkf.dkf.predict`
and ``dekf_update`` is :func:`partkf.dkf.update`, one checked call of the
subsystem's maps for either model kind, and ``dekf_gain_cov`` is
:func:`partkf.dkf.gain_and_covariance` with the floor.
Its source factors ``R`` once and hands the engine, per instant and group
of equally sized subsystems, the re-linearized blocks and their information
blocks, which the engine's one batched gain kernel reads as it reads the
linear source's constant ones.  So on an affine model the extended filter
is the linear filter bit for bit.
The evaluation points are deliberately asymmetric; they follow from the
record's ``xhat_post`` and ``xhat_pred`` and are not stored again:

- dynamics blocks are linearized at the posteriors ``xhat_post[k]`` (computed
  at the end of instant ``k``, used by the gain and covariance at ``k+1``);
- output blocks are linearized at the stacked prediction ``xhat_pred[k]``;
- the innovation uses the nonlinear output map at the stacked prediction, not
  its linearization.

Per instant the source walks the subsystems once per evaluation point
(``model._walk``): ``jac_f`` and ``f`` at the posteriors, ``f`` in agenda
order (``order=``), then ``jac_h`` and ``h`` at the prediction.  Each walk
runs the plan that the model compiled for it once (``GlobalModel._plan``),
so an instant pays for its maps, their checks and little else.  The walks
write the Jacobian blocks (analytic providers, central differences for a
subsystem without them) straight into the group stacks that the gain kernel
reads, whose rows are the recorded column blocks.  A failing map raises
``LinearizationError`` naming the subsystem, the map and the instant.  The
source also takes a stack of runs, so a Monte Carlo ensemble runs as one
pass of the engine: a stacked subsystem's maps
(``NonlinearSubsystem.stacked``) are called once per instant for every run,
any other map once per run, and the gain kernel settles every run of a
group at once, each run bit for bit its own run.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Sequence

import numpy as np

from .dkf import (  # noqa: F401  (the floor constants are part of this module's API)
    COV_FLOOR_BUMP,
    COV_FLOOR_REL,
    EstimatorDesign,
    _floor,
    _group_blocks,
    _r_factor,
    _run_filter,
    _Settled,
    gain_and_covariance,
    predict,
    update,
)
from .model import GlobalModel, _walk
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


class _NonlinearSource:
    """Linearization source of a nonlinear model and one design (validated
    once, here, ``R`` factored and ``Q`` stacked once): Jacobian group
    stacks at the given points (rows: the column blocks), their information
    blocks, the nonlinear prediction and outputs, of one run or of a stack
    of runs.  Its gains depend on the estimates, so its
    schedule stays empty."""

    kind = "dekf"
    schedule = MappingProxyType({})

    def __init__(self, model: GlobalModel, design: EstimatorDesign):
        design.validate(model)
        self.model = model
        self.design = design
        self.R_factor = _r_factor(design.R)
        p = model.partition
        self.Q = p.stacked(design.Q)
        #: Per run, the most numbers an array of one instant holds: a
        #: group's Jacobian stack (``nx`` per state), its ``U'`` (``2 ny``)
        #: or its kernel matrices (``4 d``).
        self.instant_floats = p.nx * max(p.nx, 2 * p.ny, 4 * max(p.dims))

    def dynamics(self, x: np.ndarray, agenda: Sequence[int]) -> list:
        """At the posteriors ``x``, in one walk: the dynamics Jacobian's group
        stacks and the prediction (``f``, called in ``agenda`` order)."""
        return _walk(self.model, x, ("jac_f", "f"), agenda)

    def output(self, x: np.ndarray) -> tuple:
        """At the prediction ``x``, in one walk: the output Jacobian's matrix
        and group stacks, and the outputs."""
        stacks, values = _walk(self.model, x, ("jac_h", "h"))
        return self.model.partition.assembled(stacks), stacks, values

    def blocks(self, a_stacks, C, c_stacks) -> list[tuple]:
        """The :func:`~partkf.dkf._group_blocks` of this instant's stacks."""
        return _group_blocks(self, a_stacks, C, c_stacks)

    def keep(self, k: int, entry: _Settled) -> _Settled:
        return entry


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
