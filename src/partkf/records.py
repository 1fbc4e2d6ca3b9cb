"""Run records and the file formats of partkf.

A record holds the simulated truth, every per-instant estimator quantity
(predictions, posteriors, gains, covariances and Jacobian blocks), monitor
outputs and the RMSE sequence.  Records are self-contained: together with the
embedded configuration and seed they replay deterministically.  Wall-clock
timings are excluded from the content digest.

This module owns partkf's file formats (all but the monitor summary JSON of
:func:`partkf.analysis.write_summary_json`): the record JSON
(``"schema": 1``, then the :class:`RunRecord` fields in declaration order,
``wall_clock`` last and only with timings), the trajectory JSON (the same
array encoding, arrays as nested lists), every CSV table (``_write_csv``) and
loading JSON given as a dict or a path (``_load_json``).  A float CSV cell is
written as the ``repr`` of the Python float, the shortest decimal that reads
back to the same double; any other cell (instant, run index, seed, 0/1 flag)
is written as it is.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .model import StatePartition, make_partition

__all__ = ["RunRecord"]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _encode(value):
    """Arrays, and lists or tuples of arrays, as nested lists; anything else
    as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _blocks(per_instant) -> list[list[np.ndarray]]:
    return [[_array(b) for b in per_k] for per_k in per_instant]


#: How ``RunRecord.from_json`` restores a field; unlisted fields load as they are.
_DECODERS = {
    "seed": int, "dims": tuple, "out_dims": tuple, "floor_events": int,
    **dict.fromkeys(("xs", "ys", "ws", "vs", "xhat_pred", "xhat_post",
                     "rmse", "wall_clock"), _array),
    **dict.fromkeys(("gains", "covs", "a_cols", "c_cols"), _blocks),
}


def _load_json(source: dict | str | Path) -> dict:
    """A JSON payload given as a dict, or read from a file path."""
    if isinstance(source, dict):
        return source
    return json.loads(Path(source).read_text())


def _write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write ``header`` and ``rows``; see the module docstring for the cells."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])
    return path


@dataclass
class RunRecord:
    """Trajectory, estimates and diagnostics of one filter run.

    Array layout (``K`` steps, instants ``0..K``):

    - ``xs, ys, ws, vs``: truth and realized noises from the simulation.
    - ``xhat_pred[k]``: stacked one-step prediction at instant ``k``; row 0 is
      the prior guess used by the initial measurement update.
    - ``xhat_post[k]``: stacked posterior estimate at instant ``k``.
    - ``gains[k][i]`` / ``covs[k][i]``: local gain and posterior covariance.
    - ``a_cols[k][i]``: dynamics Jacobian column block evaluated at the
      posterior ``xhat_post[k]`` (used by the step to instant ``k+1``).
    - ``c_cols[k][i]``: output Jacobian column block evaluated at the
      prediction ``xhat_pred[k]``.
    """

    kind: str
    seed: int
    dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    xs: np.ndarray
    ys: np.ndarray
    ws: np.ndarray
    vs: np.ndarray
    xhat_pred: np.ndarray
    xhat_post: np.ndarray
    gains: list[list[np.ndarray]]
    covs: list[list[np.ndarray]]
    a_cols: list[list[np.ndarray]]
    c_cols: list[list[np.ndarray]]
    rmse: np.ndarray
    estimator: dict
    floor_events: int = 0
    wall_clock: np.ndarray | None = None
    monitors: dict | None = None
    config: dict | None = None

    @property
    def steps(self) -> int:
        return self.xs.shape[0] - 1

    @property
    def partition(self) -> StatePartition:
        return make_partition(self.dims, self.out_dims)

    def stacked_gain(self, k: int) -> np.ndarray:
        """Global gain at instant ``k``: local gains stacked by subsystem."""
        return np.vstack(self.gains[k])

    def a_matrix(self, k: int) -> np.ndarray:
        """Assembled dynamics Jacobian evaluated at the posterior of ``k``."""
        return np.hstack(self.a_cols[k])

    def c_matrix(self, k: int) -> np.ndarray:
        """Assembled output Jacobian evaluated at the prediction of ``k``."""
        return np.hstack(self.c_cols[k])

    def error_post(self) -> np.ndarray:
        """Estimation error ``x_k - xhat_post[k]`` for every instant."""
        return self.xs - self.xhat_post

    # -- serialization ----------------------------------------------------

    def _payload(self, with_timing: bool) -> dict:
        payload = {"schema": 1}
        for f in fields(self):
            if f.name != "wall_clock":
                payload[f.name] = _encode(getattr(self, f.name))
        if with_timing:
            payload["wall_clock"] = _encode(self.wall_clock)
        return payload

    def content_digest(self) -> str:
        """SHA-256 over the deterministic content (timings excluded)."""
        return hashlib.sha256(_canonical(self._payload(with_timing=False)).encode()).hexdigest()

    def to_json(self, path: str | Path | None = None) -> dict:
        payload = self._payload(with_timing=True)
        if path is not None:
            Path(path).write_text(json.dumps(payload))
        return payload

    @classmethod
    def from_json(cls, payload: dict | str | Path) -> "RunRecord":
        """Restore a record of schema 1 (another schema raises
        ``ValueError``); a missing required field raises ``KeyError``, a
        missing optional one keeps its default and a key that is not a field
        (``a_points``/``c_points`` of older records) is ignored."""
        payload = _load_json(payload)
        if payload.get("schema") != 1:
            raise ValueError(f"record schema {payload.get('schema')!r} is not supported; "
                             "this version reads schema 1")
        values = {}
        for f in fields(cls):
            if f.name in payload:
                value = payload[f.name]
                decode = _DECODERS.get(f.name)
                values[f.name] = value if decode is None or value is None else decode(value)
            elif f.default is MISSING:
                raise KeyError(f.name)
        return cls(**values)
