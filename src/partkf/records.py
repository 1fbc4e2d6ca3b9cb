"""Run records and the file formats of partkf.

A record holds the simulated truth, every per-instant estimator quantity
(predictions, posteriors, gains, covariances and Jacobian blocks), monitor
outputs and the RMSE sequence.  Records are self-contained: together with the
embedded configuration and seed they replay deterministically.  Wall-clock
timings are excluded from the content digest.

This module owns partkf's file formats (all but the monitor summary JSON of
:func:`partkf.analysis.write_summary_json`): the record JSON, every CSV
table (``_write_csv``) and loading JSON given as a dict or a path
(``_load_json``).  A trajectory has no file of its own; the record carries
its arrays and seed.  A float CSV cell is written
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
Schema-1 files, in which every block is a nested list, still load.  A
loaded record's ``dims`` and ``out_dims`` must pass the partition's own
rule (``model.make_partition``), and every shape of the record is read from
that partition.  The content digest hashes the canonical schema-1 content
whatever the file's schema, so a record's digest does not depend on how it
was stored.  It feeds SHA-256 that text piece by piece, each block field
one instant at a time (``_canonical_pieces``), and never builds the whole
payload or text; its hex is that of the whole text.  Its memory is bounded
by one instant of a block field or by the largest other field: the
``(K + 1)``-row arrays (``xs``, ``xhat_post``, ...) and ``monitors`` are
encoded whole, so it grows with ``K`` times the state size, not with ``K``
times the size of an instant's blocks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import reprlib
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, dataclass, fields
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from .model import (StatePartition, _floats, _integer, _numbers, _object, _require, _seed,
                    make_partition)

__all__ = ["RunRecord"]


#: The canonical JSON text of a value, ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))``, from one encoder instead of one per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _canonical_pieces(items: Iterable[tuple[str, object]]) -> Iterator[str]:
    """The text that :func:`_canonical` writes for the dict of ``items``
    (each value as the record holds it, see :func:`_encode`), piece by
    piece: the keys in sorted order, each block field one instant at a time
    and every other value as one piece.  Joined, the pieces are that text
    exactly; held at once, they are at most one instant of a block field or
    one other field."""
    yield "{"
    for j, (name, value) in enumerate(sorted(items, key=itemgetter(0))):
        yield f"{',' if j else ''}{_canonical(name)}:"
        if name in _BLOCKS:
            yield "["
            for k, per_k in enumerate(value):
                yield f"{',' if k else ''}{_canonical(_encode(per_k))}"
            yield "]"
        else:
            yield _canonical(_encode(value))
    yield "}"


def _encode(value):
    """Arrays, and lists or tuples of arrays, as nested lists; anything else
    as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _blocks(name: str, per_instant, shapes) -> list[list[np.ndarray]]:
    """The per-instant blocks of the block field ``name`` stored as nested
    lists (``covs``, and every block field of schema 1): one conversion of
    the whole field when every block has its shape ``shapes[i]``, else one
    per block, so that :func:`_check_record` can name a bad one."""
    where = f"record {name}"
    if not (isinstance(per_instant, list) and all(isinstance(b, list) for b in per_instant)):
        raise ValueError(f"{where} must list the blocks of each instant")
    whole = _floats(per_instant) if len(set(shapes)) == 1 else None
    if whole is not None and whole.shape[1:] == (len(shapes), *shapes[0]):
        return [list(per_k) for per_k in whole]
    return [[_numbers(where, b) for b in per_k] for per_k in per_instant]


#: The per-instant block fields of a record, and those that schema 2 stores
#: one entry per subsystem.
_BLOCKS = ("gains", "covs", "a_cols", "c_cols")
_PACKED = ("gains", "a_cols", "c_cols")


def _block_shapes(name: str, p: StatePartition) -> list[tuple[int, int]]:
    """The shape of each subsystem's block of the block field ``name``."""
    return [{"gains": (d, p.ny), "covs": (d, d), "a_cols": (p.nx, d), "c_cols": (p.ny, d)}[name]
            for d in p.dims]


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
        values = _floats(entry["values"])
        if values is not None and values.shape == (0,):
            values = values.reshape(0, index.size)
        if values is None or values.ndim != 2 or values.shape[1] != index.size:
            raise ValueError(f"{where}: values must be rows of {index.size} numbers, "
                             "one per index entry")
        if stacks and values.shape[0] != len(stacks[0]):
            raise ValueError(f"{where}: values hold {values.shape[0]} instants, "
                             f"those of subsystem 0 {len(stacks[0])}")
        full = np.zeros((values.shape[0], rows * cols))
        full[:, index] = values
        stacks.append(full.reshape(-1, rows, cols))
    instants = len(stacks[0]) if stacks else 0
    return [[stack[k] for stack in stacks] for k in range(instants)]


def _check_shapes(what: str, arrays, shapes: dict) -> None:
    """``ValueError`` naming ``what`` and the array unless each array
    ``arrays[name]`` has the shape ``shapes[name]``; an empty JSON list fits
    any empty shape."""
    for name, want in shapes.items():
        got = np.shape(arrays[name])
        if got != want and not (got == (0,) and 0 in want):
            raise ValueError(f"{what} {name} has shape {got}, expected {want}")


def _check_design(what: str, design: dict, p: StatePartition) -> None:
    """``ValueError`` naming ``what`` and the weight unless the estimator
    design ``design`` holds numbers (:func:`~partkf.model._numbers`) of the
    shapes of the partition ``p``: one ``d x d`` matrix per subsystem in
    ``Q`` and ``P0``, ``R`` of ``ny x ny`` and ``x0_guess`` of ``nx``
    entries."""
    for key in ("Q", "P0"):
        if not isinstance(design[key], (list, tuple)) or len(design[key]) != p.n:
            raise ValueError(f"{what} {key} must hold one matrix per subsystem")
        # One test for real arrays of their shapes, as a design holds them.
        if [m.shape if type(m) is np.ndarray and m.dtype.kind in "iuf" else None
                for m in design[key]] != [(d, d) for d in p.dims]:
            _check_shapes(f"{what} {key}, subsystem",
                          {i: _numbers(f"{what} {key}", m) for i, m in enumerate(design[key])},
                          {i: (d, d) for i, d in enumerate(p.dims)})
    _check_shapes(what, {key: _numbers(f"{what} {key}", design[key]) for key in ("R", "x0_guess")},
                  {"R": (p.ny, p.ny), "x0_guess": (p.nx,)})


def _run_shapes(instants: int, nx: int, ny: int) -> dict:
    """The shapes of a run's truth arrays ``xs``, ``ys``, ``ws``, ``vs``
    over ``instants`` instants."""
    return {"xs": (instants, nx), "ys": (instants, ny), "ws": (instants - 1, nx),
            "vs": (instants, ny)}


def _check_record(values: dict, p: StatePartition) -> None:
    """``ValueError`` naming the field, and for a block field the instant and
    the subsystem, unless ``kind`` names a filter, every array field of a
    loaded record (a given ``wall_clock`` too) has its shape for the
    partition ``p`` of its ``dims`` and ``out_dims`` and the ``K + 1``
    instants that ``xs`` holds, ``estimator`` is a design of that shape (as
    ``EstimatorDesign.serializable`` writes it), ``floor_events`` counts at
    most one event per subsystem and instant, and ``monitors``, when given,
    holds what the monitor exports read (:func:`_check_flags`)."""
    if values["kind"] not in ("dkf", "dekf"):
        raise ValueError(f"record kind must be 'dkf' or 'dekf', not {values['kind']!r}")
    instants = len(values["xs"]) if np.ndim(values["xs"]) else 0
    if not instants:
        raise ValueError("record xs holds no instant; a run starts at instant 0")
    timed = {} if values.get("wall_clock") is None else {"wall_clock": (instants,)}
    _check_shapes("record", values, {**_run_shapes(instants, p.nx, p.ny), "rmse": (instants,),
                                     **timed, "xhat_pred": (instants, p.nx),
                                     "xhat_post": (instants, p.nx)})
    # ``a_cols`` has no instant K: it is the dynamics Jacobian of the step from k.
    for name, count in (("covs", instants), ("gains", instants), ("a_cols", instants - 1),
                        ("c_cols", instants)):
        if len(values[name]) != count:
            raise ValueError(f"record {name} has {len(values[name])} instants, expected {count}")
        shapes = _block_shapes(name, p)
        if all([b.shape for b in blocks] == shapes for blocks in values[name]):
            continue
        # Instant by instant, to name the first bad block.
        shapes = dict(enumerate(shapes))
        for k, blocks in enumerate(values[name]):
            if len(blocks) != p.n:
                raise ValueError(f"record {name} at instant {k} has {len(blocks)} blocks, "
                                 f"expected one per subsystem ({p.n})")
            _check_shapes(f"record {name} at instant {k}, subsystem", blocks, shapes)
    _require("record estimator", values["estimator"], ("Q", "R", "P0", "x0_guess"))
    _check_design("record estimator", values["estimator"], p)
    if not 0 <= values.get("floor_events", 0) <= instants * p.n:
        raise ValueError(f"record floor_events must lie in [0, {instants * p.n}], at most one "
                         f"per subsystem and instant, not {values['floor_events']}")
    if values.get("monitors") is not None:
        _check_flags(values["monitors"], instants)


#: The monitor flag lists that the record's CSV export and the monitor
#: exports read.
_FLAGS = ("coupling_ok", "coupling_checkable", "contraction_ok")


def _check_flags(monitors: dict, instants: int) -> None:
    """``ValueError`` naming the field unless ``monitors`` holds what the
    monitor exports read: the flag lists :data:`_FLAGS`, each one entry per
    instant that equals 0 or 1 (``false`` or ``true``), the margins and the
    Lyapunov values, each one real number (NaN allowed) per instant,
    ``bounds`` as an object and ``alpha`` as a real number."""
    series = ("coupling_margin", "contraction_margin", "lyapunov")
    _require("record monitors", monitors, (*_FLAGS, *series, "bounds", "alpha"))
    for key in (*_FLAGS, *series):
        value = monitors[key]
        ok = isinstance(value, list) and len(value) == instants and (
            all(f in (0, 1) for f in value) if key in _FLAGS
            else (x := _floats(value)) is not None and x.shape == (instants,))
        if not ok:
            what = "0/1 or boolean flag" if key in _FLAGS else "number"
            raise ValueError(f"record monitors {key} must list one {what} per "
                             f"instant ({instants}), not {reprlib.repr(value)}")
    _object("record monitors bounds", monitors["bounds"])
    if (alpha := _floats(monitors["alpha"])) is None or alpha.ndim:
        raise ValueError(f"record monitors alpha must be a number, not "
                         f"{reprlib.repr(monitors['alpha'])}")


#: How ``RunRecord.from_json`` restores and checks a field (a malformed
#: value raises ``ValueError`` naming it); ``kind`` loads as it is and the
#: block fields by their shapes (:func:`_blocks`, :func:`_unpack`).
_DECODERS = {
    "seed": _seed,
    "floor_events": partial(_integer, "record floor_events"),
    **{name: partial(_object, f"record {name}") for name in ("estimator", "monitors", "config")},
    **{name: partial(_numbers, f"record {name}") for name in (
        "xs", "ys", "ws", "vs", "xhat_pred", "xhat_post", "rmse", "wall_clock")},
}


def _load_json(source: dict | str | Path) -> dict:
    """A JSON payload given as a dict, or read from a file path; a file that
    is not JSON raises ``ValueError`` naming the path."""
    if isinstance(source, dict):
        return source
    try:
        return json.loads(Path(source).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: {exc}") from None


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

    def _fields(self, schema: int) -> Iterator[tuple[str, object]]:
        """The keys and values of the payload of ``schema``, in the file's
        order: ``schema``, the fields but ``wall_clock``, then, for schema 2
        only, ``wall_clock``.  A value is as the record holds it, but for the
        block fields that schema 2 packs (see the module docstring): the one
        owner of each schema's field set."""
        yield "schema", schema
        p = self.partition
        for f in fields(self):
            if f.name == "wall_clock":
                continue
            value = getattr(self, f.name)
            if schema == 2 and f.name in _PACKED:
                value = _pack(f.name, value, _block_shapes(f.name, p))
            yield f.name, value
        if schema == 2:
            yield "wall_clock", self.wall_clock

    def _payload(self, schema: int) -> dict:
        """The fields as JSON values: schema 1 writes every array as nested
        lists and no timings (the digested content), schema 2 packs the block
        fields and ends with ``wall_clock``."""
        return {name: _encode(value) for name, value in self._fields(schema)}

    def content_digest(self) -> str:
        """SHA-256 over the canonical schema-1 text (timings excluded), the
        hex of ``sha256(_canonical(self._payload(1)))``, fed one piece at a
        time (:func:`_canonical_pieces`) so that neither is ever built."""
        digest = hashlib.sha256()
        for piece in _canonical_pieces(self._fields(1)):
            digest.update(piece.encode())
        return digest.hexdigest()

    def to_json(self, path: str | Path | None = None) -> dict:
        """The schema-2 payload, with timings; written when ``path`` is given."""
        payload = self._payload(2)
        if path is not None:
            Path(path).write_text(json.dumps(payload))
        return payload

    @classmethod
    def from_json(cls, payload: dict | str | Path) -> "RunRecord":
        """Restore a record of schema 2 or 1.  Another schema, or one that is
        not an integer, raises ``ValueError``, as does a field of the wrong
        kind (:data:`_DECODERS`: the model's value rules), ``dims`` and
        ``out_dims`` that ``make_partition`` refuses (its message prefixed
        with ``record``), arrays or estimator weights of other shapes and
        ``monitors`` without the flags and series the exports read (see
        :func:`_check_record`); each names the field.  A missing required
        field raises ``KeyError``, a missing optional one keeps its default
        and a key that is not a field (``a_points``/``c_points`` of older
        records) is ignored."""
        payload = _object("record", _load_json(payload))
        schema = payload.get("schema")
        if type(schema) is not int:
            raise ValueError(f"record schema {schema!r} is not an integer")
        if schema not in (1, 2):
            raise ValueError(f"record schema {schema!r} is not supported; "
                             "this version reads schemas 1 and 2")
        try:
            p = make_partition(payload["dims"], payload["out_dims"])
        except ValueError as exc:
            raise ValueError(f"record {exc}") from None
        values = {"dims": p.dims, "out_dims": p.out_dims}
        for f in fields(cls):
            if f.name in values:
                continue
            if f.name in payload:
                value = payload[f.name]
                if f.name in _BLOCKS:
                    decode = _unpack if schema == 2 and f.name in _PACKED else _blocks
                    values[f.name] = decode(f.name, value, _block_shapes(f.name, p))
                    continue
                keep = f.name == "kind" or (value is None and f.default is None)
                values[f.name] = value if keep else _DECODERS[f.name](value)
            elif f.default is MISSING:
                raise KeyError(f.name)
        _check_record(values, p)
        return cls(**values)
