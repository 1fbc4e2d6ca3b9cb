"""Run records and the file formats of partkf.

A record holds the simulated truth, every per-instant estimator quantity
(predictions, posteriors, gains, covariances and Jacobian blocks), monitor
outputs and the RMSE sequence.  Records are self-contained: together with the
embedded configuration and seed they replay deterministically.  Wall-clock
timings are excluded from the content digest.

This module owns partkf's file formats (all but the monitor summary JSON of
:func:`partkf.analysis.write_summary_json`): the record JSON, the trajectory
JSON (arrays as nested lists), every CSV table (``_write_csv``) and loading
JSON given as a dict or a path (``_load_json``).  A float CSV cell is written
as the ``repr`` of the Python float, the shortest decimal that reads back to
the same double; any other cell (instant, run index, seed, 0/1 flag) is
written as it is.

The record JSON is ``"schema": 2``, then the :class:`RunRecord` fields in
declaration order, ``wall_clock`` last.  Arrays, and the per-instant lists of
``covs``, are nested lists.  Each of ``gains``, ``a_cols`` and ``c_cols``
is one entry per subsystem, ``{"shape": [r, c], "index": [...], "values":
[[...], ...]}``: ``shape`` is the subsystem's block shape, fixed by ``dims``
and ``out_dims``; ``index`` lists, in increasing order, the flat row-major
positions that are nonzero or ``-0.0`` at some instant; ``values`` holds one
row per instant, the block's entries at those positions.  Every other
position is ``+0.0`` at every instant, so the blocks load back bit for bit.
Schema-1 files, in which every block is a nested list, still load.  The
content digest hashes the canonical schema-1 content whatever the file's
schema, so a record's digest does not depend on how it was stored.
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


#: The per-instant block fields that schema 2 stores one entry per subsystem.
_PACKED = ("gains", "a_cols", "c_cols")


def _block_shapes(name: str, dims, out_dims) -> list[tuple[int, int]]:
    """The shape of each subsystem's block of the block field ``name``."""
    nx, ny = sum(dims), sum(out_dims)
    return [{"gains": (d, ny), "covs": (d, d), "a_cols": (nx, d), "c_cols": (ny, d)}[name]
            for d in dims]


def _pack(name: str, per_instant, shapes) -> list[dict]:
    """One schema-2 entry per subsystem: the positions that are nonzero or
    ``-0.0`` at some instant, and each instant's entries there."""
    entries = []
    for i, (rows, cols) in enumerate(shapes):
        stack = np.array([per_k[i] for per_k in per_instant], dtype=float)
        if per_instant and stack.shape[1:] != (rows, cols):
            raise ValueError(f"{name} of subsystem {i} has shape {stack.shape[1:]}, "
                             f"expected {(rows, cols)}")
        flat = stack.reshape(len(per_instant), rows * cols)
        index = np.flatnonzero(((flat != 0) | np.signbit(flat)).any(axis=0))
        entries.append({"shape": [rows, cols], "index": index.tolist(),
                        "values": flat[:, index].tolist()})
    return entries


def _unpack(name: str, entries, shapes) -> list[list[np.ndarray]]:
    """The per-instant blocks of a schema-2 field; a malformed entry raises
    ``ValueError`` naming the field and the subsystem."""
    if not isinstance(entries, list) or len(entries) != len(shapes):
        raise ValueError(f"{name} must hold one entry per subsystem ({len(shapes)})")
    stacks = []
    for i, (entry, (rows, cols)) in enumerate(zip(entries, shapes)):
        where = f"{name} of subsystem {i}"
        if not isinstance(entry, dict) or not {"shape", "index", "values"} <= set(entry):
            raise ValueError(f"{where} must have a shape, an index and values")
        if entry["shape"] != [rows, cols]:
            raise ValueError(f"{where} has shape {entry['shape']}, expected "
                             f"{[rows, cols]} from dims and out_dims")
        index = entry["index"]
        if not isinstance(index, list) or not all(type(j) is int for j in index):
            raise ValueError(f"{where}: index must be a list of integers")
        index = np.array(index, dtype=np.intp)
        if index.size and (index[0] < 0 or index[-1] >= rows * cols
                           or np.any(np.diff(index) <= 0)):
            raise ValueError(f"{where}: index must increase within [0, {rows * cols})")
        try:
            values = np.array(entry["values"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: values must be rows of {index.size} numbers") from exc
        if values.shape == (0,):
            values = values.reshape(0, index.size)
        if values.ndim != 2 or values.shape[1] != index.size:
            raise ValueError(f"{where}: values must be rows of {index.size} numbers")
        if stacks and values.shape[0] != len(stacks[0]):
            raise ValueError(f"{where} has {values.shape[0]} instants, "
                             f"subsystem 0 has {len(stacks[0])}")
        full = np.zeros((values.shape[0], rows * cols))
        full[:, index] = values
        stacks.append(full.reshape(-1, rows, cols))
    instants = len(stacks[0]) if stacks else 0
    return [[stack[k] for stack in stacks] for k in range(instants)]


def _check_dims(payload: dict) -> None:
    """``ValueError`` naming the field unless ``dims`` lists integers of at
    least 1 and ``out_dims`` as many integers of at least 0 (a bool is not
    an integer).  A missing field is left to the caller's ``KeyError``."""
    given = {name: payload[name] for name in ("dims", "out_dims") if name in payload}
    for name, value in given.items():
        least = 1 if name == "dims" else 0
        if (not isinstance(value, (list, tuple)) or not value
                or not all(type(d) is int and d >= least for d in value)):
            raise ValueError(f"record {name} must list integers of at least {least}, "
                             f"not {value!r}")
    if len(given) == 2 and len(given["dims"]) != len(given["out_dims"]):
        raise ValueError(f"record dims and out_dims have lengths {len(payload['dims'])} "
                         f"and {len(payload['out_dims'])}; they must be equal")


def _check_shapes(what: str, arrays, shapes: dict) -> None:
    """``ValueError`` naming ``what`` and the array unless each array
    ``arrays[name]`` has the shape ``shapes[name]``; an empty JSON list fits
    any empty shape."""
    for name, want in shapes.items():
        got = np.shape(arrays[name])
        if got != want and not (got == (0,) and 0 in want):
            raise ValueError(f"{what} {name} has shape {got}, expected {want}")


def _run_shapes(instants: int, nx: int, ny: int) -> dict:
    """The shapes of a run's truth arrays ``xs``, ``ys``, ``ws``, ``vs``
    over ``instants`` instants."""
    return {"xs": (instants, nx), "ys": (instants, ny), "ws": (instants - 1, nx),
            "vs": (instants, ny)}


def _check_record(values: dict) -> None:
    """``ValueError`` naming the field, and for a block field the instant and
    the subsystem, unless every array field of a loaded record has its shape
    for ``dims``, ``out_dims`` and the ``K + 1`` instants that ``xs`` holds."""
    dims, out_dims = values["dims"], values["out_dims"]
    nx, ny = sum(dims), sum(out_dims)
    instants = len(values["xs"]) if np.ndim(values["xs"]) else 0
    if not instants:
        raise ValueError("record xs holds no instant; a run starts at instant 0")
    _check_shapes("record", values, {**_run_shapes(instants, nx, ny), "rmse": (instants,),
                                     "xhat_pred": (instants, nx), "xhat_post": (instants, nx)})
    # ``a_cols`` has no instant K: it is the dynamics Jacobian of the step from k.
    for name, count in (("covs", instants), ("gains", instants), ("a_cols", instants - 1),
                        ("c_cols", instants)):
        if len(values[name]) != count:
            raise ValueError(f"record {name} has {len(values[name])} instants, expected {count}")
        shapes = dict(enumerate(_block_shapes(name, dims, out_dims)))
        for k, blocks in enumerate(values[name]):
            if len(blocks) != len(dims):
                raise ValueError(f"record {name} at instant {k} has {len(blocks)} blocks, "
                                 f"expected one per subsystem ({len(dims)})")
            _check_shapes(f"record {name} at instant {k}, subsystem", blocks, shapes)


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

    def _payload(self, with_timing: bool, schema: int = 1) -> dict:
        """The fields as JSON values: schema 1 writes every array as nested
        lists, schema 2 packs the block fields (see the module docstring)."""
        payload = {"schema": schema}
        for f in fields(self):
            if f.name == "wall_clock":
                continue
            value = getattr(self, f.name)
            if schema == 2 and f.name in _PACKED:
                shapes = _block_shapes(f.name, self.dims, self.out_dims)
                payload[f.name] = _pack(f.name, value, shapes)
            else:
                payload[f.name] = _encode(value)
        if with_timing:
            payload["wall_clock"] = _encode(self.wall_clock)
        return payload

    def content_digest(self) -> str:
        """SHA-256 over the deterministic schema-1 content (timings excluded)."""
        return hashlib.sha256(_canonical(self._payload(with_timing=False)).encode()).hexdigest()

    def to_json(self, path: str | Path | None = None) -> dict:
        """The schema-2 payload, with timings; written when ``path`` is given."""
        payload = self._payload(with_timing=True, schema=2)
        if path is not None:
            Path(path).write_text(json.dumps(payload))
        return payload

    @classmethod
    def from_json(cls, payload: dict | str | Path) -> "RunRecord":
        """Restore a record of schema 2 or 1 (another schema, or one that is
        not an integer, raises ``ValueError``, as do ``dims`` and
        ``out_dims`` that are not lists of valid dimensions of one length and
        arrays of other shapes, see :func:`_check_record`); a
        missing required field raises ``KeyError``, a missing optional one
        keeps its default and a key that is not a field
        (``a_points``/``c_points`` of older records) is ignored."""
        payload = _load_json(payload)
        schema = payload.get("schema")
        if type(schema) is not int:
            raise ValueError(f"record schema {schema!r} is not an integer")
        if schema not in (1, 2):
            raise ValueError(f"record schema {schema!r} is not supported; "
                             "this version reads schemas 1 and 2")
        _check_dims(payload)
        values = {}
        for f in fields(cls):
            if f.name in payload:
                value = payload[f.name]
                if schema == 2 and f.name in _PACKED:
                    # ``dims`` and ``out_dims`` precede the block fields.
                    values[f.name] = _unpack(f.name, value, _block_shapes(
                        f.name, values["dims"], values["out_dims"]))
                    continue
                decode = _DECODERS.get(f.name)
                values[f.name] = value if decode is None or value is None else decode(value)
            elif f.default is MISSING:
                raise KeyError(f.name)
        _check_record(values)
        return cls(**values)
