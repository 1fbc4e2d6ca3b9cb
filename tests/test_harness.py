import csv
import json

import numpy as np
import pytest

from partkf import analysis
from partkf.analysis import rmse
from partkf.benchmarks import LINEAR_GUESS, LINEAR_X0, available_benchmarks
from partkf.harness import (
    ExperimentConfig,
    export,
    import_record,
    load_config,
    run_experiment,
    verify_suite,
)

BASE = ExperimentConfig(model={"name": "linear-4state"}, steps=50, seed=1,
                        monitors=True)


class TestConfig:
    def test_steps_and_runs_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model={"name": "linear-4state"}, steps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model={"name": "linear-4state"}, runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model={"name": "linear-4state"}, mode="ukf")

    @pytest.mark.parametrize("field, value", [
        ("steps", 2.5), ("steps", True), ("runs", 2.7), ("runs", True),
        ("seed", 1.5), ("seed", "1"), ("seed", -1), ("seed", 2 ** 64),
        ("monitors", "false"), ("monitors", 0),
    ])
    def test_wrongly_typed_field_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(model={"name": "linear-4state"}, **{field: value})

    def test_integral_fields_become_python_ints(self):
        config = ExperimentConfig(model={"name": "linear-4state"}, steps=np.int64(5),
                                  seed=np.uint64(2 ** 64 - 1))
        assert type(config.steps) is int and type(config.seed) is int
        assert config.seed == 2 ** 64 - 1
        assert config.digest() == config.replace(steps=5).digest()

    def test_model_reference_required(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model={})

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"name": "linear-4state"},
                                    "horizon": 10}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"name": "reactor-chain",
                                              "params": {"coupling": 0.05}},
                                    "steps": 25, "seed": 3, "mode": "dekf"}))
        config = load_config(path)
        assert config.steps == 25
        assert config.model["params"]["coupling"] == 0.05

    def test_digest_changes_with_content(self):
        assert BASE.digest() != BASE.replace(seed=2).digest()
        assert BASE.digest() == ExperimentConfig(
            model={"name": "linear-4state"}, steps=50, seed=1, monitors=True).digest()


class TestRunExperiment:
    def test_linear_fixture_converges(self):
        record = run_experiment(BASE, write_outputs=False)
        rmse0 = rmse(LINEAR_GUESS[None, :], LINEAR_X0[None, :])[0]
        assert record.kind == "dkf"
        assert np.mean(record.rmse[30:]) < rmse0
        assert record.monitors is not None

    def test_same_config_same_content_digest(self):
        a = run_experiment(BASE, write_outputs=False)
        b = run_experiment(BASE, write_outputs=False)
        assert a.content_digest() == b.content_digest()

    def test_auto_mode_picks_filter_by_model_kind(self):
        rec = run_experiment(ExperimentConfig(model={"name": "reactor-chain"},
                                              steps=10, monitors=False),
                             write_outputs=False)
        assert rec.kind == "dekf"

    def test_dekf_mode_wraps_linear_model(self):
        rec = run_experiment(BASE.replace(mode="dekf", steps=10, monitors=False),
                             write_outputs=False)
        assert rec.kind == "dekf"

    def test_dkf_mode_rejects_nonlinear_model(self):
        config = ExperimentConfig(model={"name": "reactor-chain"}, steps=5,
                                  mode="dkf")
        with pytest.raises(ValueError, match="linear"):
            run_experiment(config, write_outputs=False)

    def test_inline_model_runs(self):
        inline = {
            "dims": [1, 1], "out_dims": [1, 1],
            "subsystems": [
                {"index": 0, "A": [[0.9]], "coupling": {"1": [[0.05]]},
                 "C": [[1.0]], "Q": [[0.01]], "R": [[0.01]]},
                {"index": 1, "A": [[0.8]], "coupling": {"0": [[0.05]]},
                 "C": [[1.0]], "Q": [[0.01]], "R": [[0.01]]},
            ],
        }
        config = ExperimentConfig(
            model={"inline": inline}, steps=20, seed=2, monitors=False,
            x0=[1.0, -1.0],
            noise={"w_std": 0.1, "v_std": 0.1, "w_bound": 0.6, "v_bound": 0.6},
            estimator={"Q": 0.01, "R": 0.01, "P0": 1.0, "x0_guess": [0.0, 0.0]})
        rec = run_experiment(config, write_outputs=False)
        assert rec.kind == "dkf"
        assert rec.steps == 20

    def test_inline_coupling_key_given_twice_rejected(self):
        # "1" and "01" both name subsystem 1; accepted, A[0, 1] read 0.2.
        inline = {"dims": [1, 1], "out_dims": [1, 1],
                  "subsystems": [
                      {"index": 0, "A": [[0.9]], "coupling": {"1": [[0.1]], "01": [[0.2]]},
                       "C": [[1.0]], "Q": [[0.01]], "R": [[0.01]]},
                      {"index": 1, "A": [[0.8]], "C": [[1.0]], "Q": [[0.01]],
                       "R": [[0.01]]}]}
        with pytest.raises(ValueError, match="^subsystem 0: neighbor 1 is given twice$"):
            run_experiment(ExperimentConfig(model={"inline": inline}, x0=[0.0, 0.0]),
                           write_outputs=False)

    def test_inline_model_requires_initial_state(self):
        inline = {"dims": [1], "out_dims": [1],
                  "subsystems": [{"index": 0, "A": [[0.9]], "C": [[1.0]],
                                  "Q": [[0.01]], "R": [[0.01]]}]}
        with pytest.raises(ValueError, match="x0"):
            run_experiment(ExperimentConfig(model={"inline": inline}),
                           write_outputs=False)


class TestSharedArrays:
    def test_gains_and_covariances_are_read_only(self):
        rec = run_experiment(BASE.replace(steps=5, monitors=False), write_outputs=False)
        with pytest.raises(ValueError):
            rec.gains[1][0][0, 0] = 0.0
        with pytest.raises(ValueError):
            rec.covs[1][0][0, 0] = 0.0

    def test_json_roundtrip_and_monitors_work_on_read_only_records(self, tmp_path):
        rec = run_experiment(BASE.replace(steps=10, monitors=False), write_outputs=False)
        back = import_record(export(rec, "json", tmp_path, "rec"))
        assert back.content_digest() == rec.content_digest()
        analysis.attach_monitors(rec)
        analysis.attach_monitors(back)
        assert rec.monitors is not None
        assert back.content_digest() == rec.content_digest()


class TestExport:
    def test_json_roundtrip_preserves_record(self, tmp_path):
        record = run_experiment(BASE.replace(steps=15), write_outputs=False)
        path = export(record, "json", tmp_path, "rec")
        back = import_record(path)
        assert back.content_digest() == record.content_digest()
        assert np.array_equal(back.xs, record.xs)
        assert np.array_equal(back.xhat_post, record.xhat_post)
        for k in range(record.steps + 1):
            for i in range(2):
                assert np.array_equal(back.covs[k][i], record.covs[k][i])
                assert np.array_equal(back.gains[k][i], record.gains[k][i])

    def test_csv_rmse_column_consistent_with_state_columns(self, tmp_path):
        record = run_experiment(BASE.replace(steps=15), write_outputs=False)
        path = export(record, "csv", tmp_path, "rec")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        for row in rows:
            x = np.array([float(row[f"x_{j}"]) for j in range(1, 5)])
            xh = np.array([float(row[f"xhat_{j}"]) for j in range(1, 5)])
            assert float(row["rmse"]) == pytest.approx(
                rmse(xh[None, :], x[None, :])[0], rel=1e-12)

    def test_csv_monitor_flags_are_binary(self, tmp_path):
        record = run_experiment(BASE.replace(steps=15), write_outputs=False)
        path = export(record, "csv", tmp_path, "rec")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["coupling_ok"] in ("0", "1")
            assert row["contraction_ok"] in ("0", "1")

    def test_identical_runs_identical_csv_bytes(self, tmp_path):
        rec_a = run_experiment(BASE.replace(steps=15), write_outputs=False)
        rec_b = run_experiment(BASE.replace(steps=15), write_outputs=False)
        path_a = export(rec_a, "csv", tmp_path, "a")
        path_b = export(rec_b, "csv", tmp_path, "b")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_out_dir_files_written(self, tmp_path):
        config = BASE.replace(steps=10, out_dir=str(tmp_path))
        run_experiment(config)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "linear-4state_dkf_seed1.csv",
            "linear-4state_dkf_seed1.json",
            "linear-4state_dkf_seed1_monitors.csv",
            "linear-4state_dkf_seed1_summary.json",
        }

    def test_unknown_format_rejected(self, tmp_path):
        record = run_experiment(BASE.replace(steps=5, monitors=False),
                                write_outputs=False)
        with pytest.raises(ValueError):
            export(record, "parquet", tmp_path)


def test_registry_lists_shipped_benchmarks():
    names = available_benchmarks()
    assert {"linear-4state", "reactor-chain", "reactor-chain-mono"} <= set(names)


def test_verify_suite_all_green():
    results = verify_suite(seed=1)
    assert len(results) == 5
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"
