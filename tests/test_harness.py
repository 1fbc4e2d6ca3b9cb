import csv
import json
import re

import numpy as np
import pytest

from partkf import analysis, benchmarks
from partkf.analysis import rmse
from partkf.benchmarks import LINEAR_GUESS, LINEAR_X0, available_benchmarks, get_benchmark
from partkf.dkf import _one_block
from partkf.harness import (
    ExperimentConfig,
    _resolve,
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

    def test_model_params_must_be_a_mapping(self):
        # Accepted, a list raised a bare TypeError unpacking it for the builder.
        with pytest.raises(ValueError, match=re.escape(
                "model params must map parameter names to values, not [1]")):
            ExperimentConfig(model={"name": "linear-4state", "params": [1]})

    @pytest.mark.parametrize("section, key", [("noise", "w_sd"), ("estimator", "P_0")])
    def test_unknown_noise_or_estimator_key_rejected_by_name(self, section, key):
        # Accepted, the run went ahead at the benchmark's defaults.
        with pytest.raises(ValueError, match=re.escape(f"unknown {section} keys: ['{key}']")):
            _resolve(BASE.replace(**{section: {key: 5}}))

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

    def test_arrays_two_runs_of_a_plan_share_are_read_only(self):
        config = BASE.replace(steps=5, monitors=False)
        plan = _resolve(config)
        first, second = plan.run(1), plan.run(2)

        def arrays(rec):
            for value in vars(rec).values():
                if isinstance(value, np.ndarray):
                    yield value
                elif isinstance(value, list) and value and isinstance(value[0], list):
                    yield from (a for per_k in value for a in per_k)

        shared = [(a, b) for a in arrays(first) for b in arrays(second)
                  if np.shares_memory(a, b)]
        assert {id(a) for a, _ in shared} >= {id(a) for a in first.a_cols[0]}
        assert all(not a.flags.writeable and not b.flags.writeable for a, b in shared)
        for field in ("a_cols", "c_cols"):
            with pytest.raises(ValueError):
                getattr(first, field)[-1][1][0, 0] += 0.5
        assert plan.run(3).content_digest() == _resolve(config).run(3).content_digest()

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


@pytest.mark.parametrize("params, message", [
    ({"foo": 1}, "got an unexpected keyword argument 'foo'"),
    ({"coupling_scale": 0.5, "noise_std": 1.0, "extra": 2},
     "got an unexpected keyword argument 'extra'"),
], ids=["unknown", "unknown-after-known"])
def test_parameter_a_builder_does_not_take_rejected_by_name(params, message):
    # Accepted, the builder's call raised a bare TypeError.
    with pytest.raises(ValueError, match=re.escape(f"benchmark 'linear-4state': {message}")):
        get_benchmark("linear-4state", **params)


@pytest.mark.parametrize("params, message", [
    ({"noise_std": "x"}, "noise_std must be a finite real number, not 'x'"),
    ({"noise_std": None}, "noise_std must be a finite real number, not None"),
    ({"noise_std": True}, "noise_std must be a finite real number, not True"),
    ({"coupling_scale": float("nan")}, "coupling_scale must be a finite real number, not nan"),
    ({"coupling_scale": float("inf")}, "coupling_scale must be a finite real number, not inf"),
    ({"noise_std": 10 ** 400}, f"noise_std must be a finite real number, not {10 ** 400}"),
], ids=["str", "none", "bool", "nan", "inf", "beyond-float"])
def test_parameter_value_of_another_kind_rejected_by_name(params, message):
    # Accepted, a string raised a bare TypeError from the builder and NaN
    # built a plant.
    with pytest.raises(ValueError, match=re.escape(f"benchmark 'linear-4state': {message}")):
        get_benchmark("linear-4state", **params)


def test_parameter_values_follow_the_builder_defaults(monkeypatch):
    def build(n: int = 2, scale: float = 1.0, label: str = "a", flag: bool = False):
        return (n, scale, label, flag)

    monkeypatch.setitem(benchmarks._REGISTRY, "kinds", build)
    assert get_benchmark("kinds", n=np.int64(3), scale=2, label=None, flag=1) == (3, 2, None, 1)
    for params, message in (({"n": 2.0}, "n must be an integer, not 2.0"),
                            ({"n": True}, "n must be an integer, not True"),
                            ({"n": "2"}, "n must be an integer, not '2'"),
                            ({"scale": "1"}, "scale must be a finite real number, not '1'")):
        with pytest.raises(ValueError, match=re.escape(f"benchmark 'kinds': {message}")):
            get_benchmark("kinds", **params)


def test_mono_reactor_design_is_the_one_block_view_bitwise():
    mono = get_benchmark("reactor-chain-mono").design
    one = _one_block(get_benchmark("reactor-chain").design)
    for a, b in zip((*mono.Q, *mono.P0, mono.R, mono.x0_guess),
                    (*one.Q, *one.P0, one.R, one.x0_guess), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", available_benchmarks())
def test_every_registered_benchmark_runs_with_monitors(name):
    rec = run_experiment(ExperimentConfig(model={"name": name}, steps=2, monitors=True),
                         write_outputs=False)
    assert rec.monitors is not None
    assert np.isfinite(rec.xhat_post).all()


def test_verify_suite_all_green():
    results = verify_suite(seed=1)
    assert len(results) == 5
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"
