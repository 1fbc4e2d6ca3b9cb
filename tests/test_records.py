"""File formats: exact read-back of every CSV table and the record JSON
loader's required and optional fields."""

import csv
import dataclasses
import json
import math
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from partkf.analysis import monte_carlo, write_monitor_csv
from partkf.dkf import EstimatorDesign, run_dkf
from partkf.harness import (
    ExperimentConfig,
    export,
    import_record,
    run_experiment,
    write_monte_carlo_csv,
)
from partkf.model import LinearSubsystem, assemble_global, make_partition
from partkf.records import RunRecord
from partkf.simulate import simulate

from conftest import noise_for

REACTOR = ExperimentConfig(model={"name": "reactor-chain"}, steps=12, seed=5)
BLOCK_FIELDS = ("gains", "covs", "a_cols", "c_cols")
#: A reactor-chain record (K=5, seed 1) written in schema 1, and its digest.
SCHEMA_1_FILE = Path(__file__).parent / "data" / "reactor-chain_k5_schema1.json"
SCHEMA_1_DIGEST = "181170c317d0b0fc14229bfcf1e12670d49c3d9c4151ed79cabe781c7c787e42"


def _bits(value) -> bytes:
    """The bytes of a double; every NaN maps to one pattern, as CSV writes
    each NaN as ``nan``."""
    value = float(value)
    return struct.pack("<d", math.nan if math.isnan(value) else value)


def _read(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_exact(row: dict, expected: dict) -> None:
    for column, value in expected.items():
        assert _bits(row[column]) == _bits(value), column


@pytest.fixture(scope="module")
def monitored():
    return run_experiment(REACTOR, write_outputs=False)


@pytest.mark.parametrize("monitors", [True, False])
def test_export_csv_reads_back_exactly(tmp_path, monitored, monitors):
    record = (monitored if monitors else
              run_experiment(REACTOR.replace(monitors=False), write_outputs=False))
    rows = _read(export(record, "csv", tmp_path))
    assert len(rows) == record.steps + 1
    assert ("coupling_ok" in rows[0]) == monitors
    for k, row in enumerate(rows):
        assert row["k"] == str(k)
        expected = {"rmse": record.rmse[k]}
        for prefix, values in (("x", record.xs[k]), ("xhat", record.xhat_post[k]),
                               ("y", record.ys[k])):
            expected.update({f"{prefix}_{j + 1}": v for j, v in enumerate(values)})
        _assert_exact(row, expected)


def test_monitor_csv_reads_back_exactly(tmp_path, monitored):
    m = monitored.monitors
    rows = _read(write_monitor_csv(monitored, tmp_path / "monitors.csv"))
    assert len(rows) == monitored.steps + 1
    assert rows[0]["coupling_margin"] == "nan"
    for k, row in enumerate(rows):
        assert row["coupling_ok"] == str(m["coupling_ok"][k])
        _assert_exact(row, {"coupling_margin": m["coupling_margin"][k],
                            "contraction_margin": m["contraction_margin"][k],
                            "lyapunov": m["lyapunov"][k],
                            "rmse": monitored.rmse[k]})


def test_monte_carlo_csvs_read_back_exactly(tmp_path):
    config = ExperimentConfig(model={"name": "linear-4state"}, steps=6, seed=3,
                              monitors=False)
    result = monte_carlo(config, runs=3)
    long_path, summary_path = write_monte_carlo_csv(result, tmp_path)
    rows = _read(long_path)
    assert len(rows) == 3 * 7
    for row in rows:
        r, k = int(row["run"]), int(row["k"])
        assert int(row["seed"]) == int(result.seeds[r])
        _assert_exact(row, {"rmse": result.rmse[r, k]})
    rows = _read(summary_path)
    assert len(rows) == 7
    for k, row in enumerate(rows):
        _assert_exact(row, {"mean": result.mean[k], "min": result.lo[k],
                            "max": result.hi[k]})


def test_trajectory_csv_reads_back_exactly(tmp_path, reactor_bench):
    traj = simulate(reactor_bench.model, reactor_bench.x0, 8, reactor_bench.noise(seed=4))
    rows = _read(traj.to_csv(tmp_path / "traj.csv"))
    assert len(rows) == 9
    for k, row in enumerate(rows):
        expected = {f"x_{j + 1}": v for j, v in enumerate(traj.xs[k])}
        expected.update({f"y_{j + 1}": v for j, v in enumerate(traj.ys[k])})
        _assert_exact(row, expected)


class TestFromJson:
    def test_every_field_gets_its_type_back(self, monitored):
        back = RunRecord.from_json(json.loads(json.dumps(monitored.to_json())))
        for f in fields(RunRecord):
            want, got = getattr(monitored, f.name), getattr(back, f.name)
            assert type(got) is type(want), f.name
            if isinstance(want, list) and isinstance(want[0], list):
                assert type(got[0][0]) is type(want[0][0]), f.name
        assert back.content_digest() == monitored.content_digest()

    def test_missing_required_field_raises_key_error(self, monitored):
        payload = monitored.to_json()
        del payload["covs"]
        with pytest.raises(KeyError, match="covs"):
            RunRecord.from_json(payload)

    def test_other_schema_rejected_by_name(self, monitored):
        payload = monitored.to_json()
        payload["schema"] = 7
        with pytest.raises(ValueError, match="schema 7"):
            RunRecord.from_json(payload)

    @pytest.mark.parametrize("schema", [True, 1.0, "2", None], ids=repr)
    def test_non_integer_schema_rejected_by_name(self, monitored, schema):
        # Accepted, ``true`` and ``1.0`` loaded as schema 1.
        payload = monitored.to_json()
        payload["schema"] = schema
        with pytest.raises(ValueError, match=re.escape(
                f"record schema {schema!r} is not an integer")):
            RunRecord.from_json(payload)

    def test_missing_optional_fields_load_with_defaults(self, monitored):
        payload = monitored.to_json()
        for key in ("floor_events", "monitors", "config", "wall_clock"):
            del payload[key]
        back = RunRecord.from_json(payload)
        assert back.floor_events == 0
        assert back.monitors is None and back.config is None
        assert back.wall_clock is None
        assert back.dims == monitored.dims and isinstance(back.dims, tuple)
        assert np.array_equal(back.xhat_post, monitored.xhat_post)
        assert all(np.array_equal(a, b) for a, b in zip(back.covs[-1], monitored.covs[-1]))


def _assert_same_blocks(back: RunRecord, record: RunRecord) -> None:
    """Every block of every instant has its shape, dtype, values (NaN in
    place) and signs back, and the digest is unchanged."""
    for name in BLOCK_FIELDS:
        want, got = getattr(record, name), getattr(back, name)
        assert len(got) == len(want), name
        for k, (per_want, per_got) in enumerate(zip(want, got)):
            assert len(per_got) == len(per_want), (name, k)
            for i, (a, b) in enumerate(zip(per_want, per_got)):
                a = np.asarray(a)
                assert b.dtype == np.float64 and b.shape == a.shape, (name, k, i)
                assert np.array_equal(b, a, equal_nan=True), (name, k, i)
                assert np.array_equal(np.signbit(b), np.signbit(a)), (name, k, i)
    assert back.content_digest() == record.content_digest()


def _through_file(record: RunRecord) -> RunRecord:
    return RunRecord.from_json(json.loads(json.dumps(record.to_json())))


def _edited(record: RunRecord, name: str, edit) -> RunRecord:
    """A copy of ``record`` whose field ``name`` has each block ``edit(k, i,
    block copy)``."""
    blocks = [[edit(k, i, np.array(b, dtype=float)) for i, b in enumerate(per_k)]
              for k, per_k in enumerate(getattr(record, name))]
    return dataclasses.replace(record, **{name: blocks})


def _chain_record() -> RunRecord:
    """A 10-step DKF run on a chain of 32 two-state, one-output subsystems,
    each coupled to its two neighbours: sparse gains and Jacobian columns."""
    n = 32
    rng = np.random.default_rng(0)
    subs = [LinearSubsystem(i, 0.9 * np.linalg.qr(rng.normal(size=(2, 2)))[0],
                            {l: 0.02 * rng.normal(size=(2, 2)) for l in (i - 1, i + 1)
                             if 0 <= l < n},
                            np.array([[1.0, 0.0]]), 0.01 * np.eye(2), 0.01 * np.eye(1))
            for i in range(n)]
    model = assemble_global(subs, make_partition([2] * n, [1] * n))
    x0 = rng.normal(size=2 * n)
    design = EstimatorDesign.from_model(model, P0=[np.eye(2)] * n, x0_guess=x0 + 0.5)
    return run_dkf(model, design, simulate(model, x0, 10, noise_for(model, 0.1, seed=1)))


class TestLeanBlocks:
    """The schema-2 encoding of ``gains``, ``a_cols`` and ``c_cols``."""

    def test_writes_schema_2_one_entry_per_subsystem(self, monitored):
        payload = monitored.to_json()
        assert payload["schema"] == 2
        n = len(monitored.dims)
        for name in ("gains", "a_cols", "c_cols"):
            assert len(payload[name]) == n, name
            assert all(set(entry) == {"shape", "index", "values"} for entry in payload[name])
            assert len(payload[name][0]["values"]) == len(getattr(monitored, name))
        assert isinstance(payload["covs"][3][1], list)

    def test_round_trip_keeps_nan_and_negative_zero(self, monitored):
        a_zero = np.array([b[1] for b in monitored.a_cols]) == 0
        row, col = np.argwhere(a_zero.all(axis=0))[0]

        def a_edit(k, i, block):
            if (k, i) == (4, 1):
                block[row, col] = -0.0
            if (k, i) == (6, 2):
                block[0, 0] = np.nan
            return block

        def gain_edit(k, i, block):
            if (k, i) == (2, 0):
                block[1, 1] = np.nan
            return block

        record = _edited(_edited(monitored, "a_cols", a_edit), "gains", gain_edit)
        assert np.signbit(record.a_cols[4][1][row, col])
        assert np.isnan(record.a_cols[6][2][0, 0])
        payload = record.to_json()
        assert row * record.a_cols[0][1].shape[1] + col in payload["a_cols"][1]["index"]
        _assert_same_blocks(_through_file(record), record)

    def test_round_trip_of_a_record_without_steps(self, monitored):
        k0 = dict(xs=monitored.xs[:1], ys=monitored.ys[:1], ws=monitored.ws[:0],
                  vs=monitored.vs[:1], xhat_pred=monitored.xhat_pred[:1],
                  xhat_post=monitored.xhat_post[:1], gains=monitored.gains[:1],
                  covs=monitored.covs[:1], a_cols=[], c_cols=monitored.c_cols[:1],
                  rmse=monitored.rmse[:1], wall_clock=monitored.wall_clock[:1],
                  monitors=None)
        record = dataclasses.replace(monitored, **k0)
        assert record.steps == 0
        payload = record.to_json()
        assert all(entry["values"] == [] for entry in payload["a_cols"])
        back = _through_file(record)
        assert back.a_cols == []
        _assert_same_blocks(back, record)

    def test_round_trip_of_a_jacobian_entry_zero_at_some_instants(self, monitored):
        # The reactor's Jacobian entries are zero always or never; make one
        # zero at the even instants only.
        stack = np.array([b[1] for b in monitored.a_cols])
        row, col = np.argwhere((stack != 0).all(axis=0))[0]

        def edit(k, i, block):
            if i == 1 and k % 2 == 0:
                block[row, col] = 0.0
            return block

        record = _edited(monitored, "a_cols", edit)
        column = np.array([b[1][row, col] for b in record.a_cols])
        assert (column == 0).any() and (column != 0).any()
        _assert_same_blocks(_through_file(record), record)
        _assert_same_blocks(RunRecord.from_json(json.loads(json.dumps(record._payload(
            with_timing=True)))), record)

    def test_export_and_import_keep_blocks(self, tmp_path, monitored):
        back = import_record(export(monitored, "json", tmp_path))
        _assert_same_blocks(back, monitored)

    @pytest.mark.parametrize("name", ["gains", "a_cols", "c_cols"])
    def test_malformed_entry_names_field_and_subsystem(self, monitored, name):
        where = f"{name} of subsystem 1"
        payload = json.loads(json.dumps(monitored.to_json()))
        entry = payload[name][1]
        rows, cols = entry["shape"]

        bad = json.loads(json.dumps(payload))
        bad[name][1]["index"][-1] = rows * cols
        with pytest.raises(ValueError, match=re.escape(f"{where}: index must increase "
                                                       f"within [0, {rows * cols})")):
            RunRecord.from_json(bad)

        bad = json.loads(json.dumps(payload))
        bad[name][1]["values"][3].pop()
        with pytest.raises(ValueError, match=re.escape(f"{where}: values must be rows of "
                                                       f"{len(entry['index'])} numbers")):
            RunRecord.from_json(bad)

        bad = json.loads(json.dumps(payload))
        bad[name][1]["shape"] = [cols, rows]
        with pytest.raises(ValueError, match=re.escape(
                f"{where} has shape {[cols, rows]}, expected {[rows, cols]} "
                "from dims and out_dims")):
            RunRecord.from_json(bad)

        bad = json.loads(json.dumps(payload))
        bad["out_dims"] = [*payload["out_dims"][:-1], payload["out_dims"][-1] + 1]
        with pytest.raises(ValueError, match=r"of subsystem 0 has shape .* from dims and "
                                             r"out_dims"):
            RunRecord.from_json(bad)

    def test_blocks_that_disagree_with_dims_are_not_written(self, monitored):
        record = dataclasses.replace(monitored, out_dims=(*monitored.out_dims[:-1], 3))
        with pytest.raises(ValueError, match=re.escape(
                "gains of subsystem 0 has shape (2, 8), expected (2, 9)")):
            record.to_json()

    def test_lean_file_of_a_sparse_chain_is_small(self):
        record = _chain_record()
        lean = len(json.dumps(record.to_json()))
        dense = len(json.dumps(record._payload(with_timing=True)))
        assert lean <= 0.4 * dense
        _assert_same_blocks(_through_file(record), record)


class TestSchema1File:
    """Schema-1 files, as written before schema 2, still load."""

    def test_frozen_file_loads_with_its_digest(self):
        payload = json.loads(SCHEMA_1_FILE.read_text())
        assert payload["schema"] == 1
        record = import_record(SCHEMA_1_FILE)
        assert record.content_digest() == SCHEMA_1_DIGEST
        assert record.steps == 5 and record.monitors is not None
        _assert_same_blocks(_through_file(record), record)

    def test_dims_that_disagree_with_the_blocks_rejected_by_instant(self):
        # Accepted, the record loaded with 2 x 2 covariance blocks for a
        # 1-state subsystem and the monitors failed on a bare broadcast error.
        payload = json.loads(SCHEMA_1_FILE.read_text())
        payload["dims"] = [1, 3, 2, 2]
        with pytest.raises(ValueError, match=re.escape(
                "record covs at instant 0, subsystem 0 has shape (2, 2), expected (1, 1)")):
            RunRecord.from_json(payload)

    @pytest.mark.parametrize("field, shape", [
        ("ys", "(5, 8), expected (6, 8)"), ("ws", "(4, 8), expected (5, 8)"),
        ("vs", "(5, 8), expected (6, 8)"), ("xhat_pred", "(5, 8), expected (6, 8)"),
        ("xhat_post", "(5, 8), expected (6, 8)"), ("rmse", "(5,), expected (6,)")])
    def test_array_one_instant_short_rejected_by_name(self, field, shape):
        # Accepted, a short xhat_post loaded and the monitors failed on a bare
        # broadcast error.
        payload = json.loads(SCHEMA_1_FILE.read_text())
        payload[field] = payload[field][:-1]
        with pytest.raises(ValueError, match=re.escape(f"record {field} has shape {shape}")):
            RunRecord.from_json(payload)

    def test_states_of_another_dimension_rejected(self):
        payload = json.loads(SCHEMA_1_FILE.read_text())
        payload["xs"] = [row[:-1] for row in payload["xs"]]
        with pytest.raises(ValueError, match=re.escape(
                "record xs has shape (6, 7), expected (6, 8)")):
            RunRecord.from_json(payload)

    @pytest.mark.parametrize("field, instants", [
        ("covs", 6), ("gains", 6), ("a_cols", 5), ("c_cols", 6)])
    def test_block_field_of_another_shape_rejected_by_instant_and_subsystem(self, field,
                                                                          instants):
        payload = json.loads(SCHEMA_1_FILE.read_text())
        assert len(payload[field]) == instants

        bad = json.loads(json.dumps(payload))
        bad[field][2][1].pop()
        with pytest.raises(ValueError, match=re.escape(
                f"record {field} at instant 2, subsystem 1 has shape (")):
            RunRecord.from_json(bad)

        bad = json.loads(json.dumps(payload))
        bad[field][3].pop()
        with pytest.raises(ValueError, match=re.escape(
                f"record {field} at instant 3 has 3 blocks, expected one per subsystem (4)")):
            RunRecord.from_json(bad)

        bad = json.loads(json.dumps(payload))
        bad[field].pop()
        with pytest.raises(ValueError, match=re.escape(
                f"record {field} has {instants - 1} instants, expected {instants}")):
            RunRecord.from_json(bad)

    @pytest.mark.parametrize("schema", [1, 2])
    @pytest.mark.parametrize("field, value, message", [
        ("dims", ["2", 2, 2, 2], "^record dims must list integers of at least 1"),
        ("dims", [True, 2, 2, 2], "^record dims must list integers of at least 1"),
        ("dims", [2.0, 2, 2, 2], "^record dims must list integers of at least 1"),
        ("dims", [0, 2, 2, 2], "^record dims must list integers of at least 1"),
        ("dims", [], "^record dims must list integers of at least 1"),
        ("out_dims", [2, "2", 2, 2], "^record out_dims must list integers of at least 0"),
        ("out_dims", [2, False, 2, 2], "^record out_dims must list integers of at least 0"),
        ("out_dims", [2, -1, 2, 2], "^record out_dims must list integers of at least 0"),
        ("out_dims", [2, 2, 2], "^record dims and out_dims have lengths 4 and 3; "),
        ("dims", [2, 2, 2, 2, 2], "^record dims and out_dims have lengths 5 and 4; "),
    ], ids=["dims-str", "dims-bool", "dims-float", "dims-zero", "dims-empty", "out_dims-str",
            "out_dims-bool", "out_dims-negative", "out_dims-short", "dims-long"])
    def test_bad_dims_rejected_by_name(self, schema, field, value, message):
        # Accepted, a string entry loaded silently from schema 1 and raised a
        # bare TypeError from schema 2.
        payload = json.loads(SCHEMA_1_FILE.read_text())
        if schema == 2:
            payload = RunRecord.from_json(payload).to_json()
        payload[field] = value
        with pytest.raises(ValueError, match=message):
            RunRecord.from_json(payload)
