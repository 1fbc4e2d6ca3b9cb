"""File formats: exact read-back of every CSV table and the record JSON
loader's required and optional fields."""

import csv
import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest

from partkf.analysis import monte_carlo, write_monitor_csv
from partkf.harness import ExperimentConfig, export, run_experiment, write_monte_carlo_csv
from partkf.records import RunRecord
from partkf.simulate import simulate

REACTOR = ExperimentConfig(model={"name": "reactor-chain"}, steps=12, seed=5)


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
