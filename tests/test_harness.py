import csv
import dataclasses
import gc
import json
import re
import weakref

import numpy as np
import pytest

import partkf.dkf
from conftest import assert_same_ensemble
from partkf import analysis, benchmarks, harness
from partkf.analysis import monte_carlo, rmse
from partkf.benchmarks import (
    LINEAR_GUESS,
    LINEAR_X0,
    Benchmark,
    available_benchmarks,
    get_benchmark,
    register_benchmark,
)
from partkf.dkf import EstimatorDesign, _one_block
from partkf.harness import (
    ExperimentConfig,
    _resolve,
    export,
    import_record,
    load_config,
    run_experiment,
    verify_suite,
)
from partkf.model import LinearSubsystem, assemble_global, make_partition
from partkf.records import RunRecord, _canonical, _write_csv

BASE = ExperimentConfig(model={"name": "linear-4state"}, steps=50, seed=1,
                        monitors=True)



def _inline_pair() -> dict:
    """An inline model of two coupled one-state subsystems."""
    return {"dims": [1, 1], "out_dims": [1, 1],
            "subsystems": [{"index": i, "A": [[0.9]], "coupling": {str(1 - i): [[0.05]]},
                            "C": [[1.0]], "Q": [[0.01]], "R": [[0.01]]} for i in (0, 1)]}

class TestConfig:
    def test_steps_and_runs_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model={"name": "linear-4state"}, steps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model={"name": "linear-4state"}, runs=0)

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
        assert _canonical(config.as_dict()) == _canonical(config.replace(steps=5).as_dict())

    def test_model_reference_required(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model={})

    def test_model_params_must_be_a_mapping(self):
        # Accepted, a list raised a bare TypeError unpacking it for the builder.
        with pytest.raises(ValueError, match=re.escape(
                "model params must map parameter names to values, not [1]")):
            ExperimentConfig(model={"name": "linear-4state", "params": [1]})

    def test_model_param_name_not_a_string_rejected_by_name(self):
        # Accepted, the builder's call raised a bare TypeError: keywords
        # must be strings.
        with pytest.raises(ValueError, match=re.escape(
                "model.params key 1 must be a string, a parameter name")):
            ExperimentConfig(model={"name": "linear-4state", "params": {1: 0.5}})

    @pytest.mark.parametrize("value, kind", [
        (np.array(0.03), "Object of type ndarray"), (np.int64(3), "Object of type int64"),
        (np.float32(0.03), "Object of type float32"), ({1: 0.03, "a": 0.03}, "'<' not supported"),
    ], ids=["array", "int64", "float32", "mixed-keys"])
    def test_model_param_json_cannot_write_rejected_by_name(self, value, kind):
        # Accepted, run_experiment ran and content_digest raised a bare
        # TypeError: Object of type ndarray is not JSON serializable.
        with pytest.raises(ValueError, match=re.escape(
                f"model.params.coupling cannot be written as JSON: {kind}")):
            ExperimentConfig(model={"name": "reactor-chain", "params": {"coupling": value}})

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

    def test_load_rejects_a_mode_key(self, tmp_path):
        # The model kind picks the filter; an old config naming one is refused.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"name": "linear-4state"}, "mode": "dekf"}))
        with pytest.raises(ValueError, match=re.escape("unknown config keys: ['mode']")):
            load_config(path)

    @pytest.mark.parametrize("payload, message", [
        (5, "config must be an object, not 5"),
        ([[1]], "config must be an object, not [[1]]"),
    ], ids=["number", "list"])
    def test_load_rejects_a_top_level_that_is_not_an_object(self, payload, message, tmp_path):
        # Accepted, both raised a bare TypeError from reading the keys.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(path)

    @pytest.mark.parametrize("field, value", [
        ("x0", LINEAR_X0 + 0.5), ("x0", (1.0, 2.0, 3.0, 4.0)),
        ("noise", {"w_std": np.float32(0.1)}), ("noise", {"v_bound": np.full(2, 0.5)}),
        ("estimator", {"x0_guess": np.zeros(4)}), ("estimator", {"R": {1: 0.5}}),
    ], ids=["x0-array", "x0-tuple", "noise-float32", "noise-array", "estimator-array",
            "estimator-integer-key"])
    def test_a_value_json_cannot_hold_is_rejected_by_name(self, field, value):
        # Accepted, an array ran and then failed with a bare TypeError when
        # the record's digest wrote the config as JSON.
        with pytest.raises(ValueError, match=f"^{field} must hold only JSON values "):
            BASE.replace(**{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"model": {"inline": 5}}, "model.inline must be an object, not 5"),
        ({"model": {"inline": {"dims": [1], "out_dims": [1], "subsystems": 5}}},
         "model.inline subsystems must be a list, not 5"),
        ({"model": {"inline": {"dims": [1], "out_dims": [1], "subsystems": [5]}}},
         "model.inline subsystem 0 must be an object, not 5"),
        ({"model": {"name": "linear-4state"}, "noise": 5}, "noise must be an object, not 5"),
        ({"model": {"name": "linear-4state"}, "noise": [1]},
         "noise must be an object, not [1]"),
        ({"model": {"name": "linear-4state"}, "estimator": 5},
         "estimator must be an object, not 5"),
    ], ids=["inline", "inline-subsystems", "inline-subsystem", "noise", "noise-list",
            "estimator"])
    def test_section_that_is_not_an_object_rejected_by_name(self, fields, message):
        # Accepted, each raised a bare TypeError when the run read the
        # section (a noise list was read as its unknown keys).
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("dims"), "model.inline is missing the key 'dims'"),
        (lambda m: m.pop("out_dims"), "model.inline is missing the key 'out_dims'"),
        (lambda m: m.pop("subsystems"), "model.inline is missing the key 'subsystems'"),
        (lambda m: m["subsystems"][0].pop("index"),
         "model.inline subsystem 0 is missing the key 'index'"),
        (lambda m: [m["subsystems"][1].pop(key) for key in "ACQR"],
         "model.inline subsystem 1 is missing the key 'A'"),
        (lambda m: m["subsystems"][0].pop("R"),
         "model.inline subsystem 0 is missing the key 'R'"),
        (lambda m: m["subsystems"][0].update(index=0.5),
         "model.inline subsystem 0 index must be an integer, not 0.5"),
        (lambda m: m["subsystems"][1].update(index=True),
         "model.inline subsystem 1 index must be an integer, not True"),
        (lambda m: m["subsystems"][0].update(coupling=[[0.05]]),
         "model.inline subsystem 0 coupling must be an object, not [[0.05]]"),
    ], ids=["dims", "out_dims", "subsystems", "index", "A", "R", "fractional-index",
            "bool-index", "coupling-list"])
    def test_malformed_inline_model_rejected_by_name(self, edit, message):
        # Accepted, a missing key raised a bare KeyError ('dims') when the run
        # built the model, an index of 0.5 was read as 0 and a coupling list
        # raised an AttributeError.
        inline = _inline_pair()
        edit(inline)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(model={"inline": inline})

    @pytest.mark.parametrize("section, key, value, message", [
        ("estimator", "Q", "x", "estimator.Q must be a number or an array of numbers, not 'x'"),
        ("estimator", "Q", True, "estimator.Q must be a number or an array of numbers, not True"),
        ("estimator", "Q", [[[0.01]], [["x"]]],
         "estimator.Q[1] must be a number or an array of numbers, not [['x']]"),
        ("estimator", "R", "x", "estimator.R must be a number or an array of numbers, not 'x'"),
        ("estimator", "P0", False,
         "estimator.P0 must be a number or an array of numbers, not False"),
        ("estimator", "x0_guess", [0.0, None],
         "estimator.x0_guess must be a number or an array of numbers, not [0.0, None]"),
        ("noise", "w_std", "x", "noise.w_std must be a number or an array of numbers, not 'x'"),
        ("noise", "v_bound", [0.6, True],
         "noise.v_bound must be a number or an array of numbers, not [0.6, True]"),
        (None, "x0", "x", "x0 must be a number or an array of numbers, not 'x'"),
        (None, "x0", [1.0, [2.0]], "x0 must be a number or an array of numbers, not [1.0, [2.0]]"),
    ], ids=["Q-string", "Q-bool", "Q-entry", "R-string", "P0-bool", "x0_guess-none",
            "w_std-string", "v_bound-bool", "x0-string", "x0-ragged"])
    def test_value_that_is_not_a_number_rejected_by_name(self, section, key, value, message):
        # Accepted, a string raised a bare "could not convert string to
        # float: 'x'", and estimator Q true ran with Q = I.
        fields = {"model": {"inline": _inline_pair()}, "x0": [1.0, -1.0],
                  "noise": {"w_std": 0.1, "v_std": 0.1},
                  "estimator": {"Q": 0.01, "R": 0.01, "P0": 1.0, "x0_guess": [0.0, 0.0]}}
        if section is None:
            fields[key] = value
        else:
            fields[section][key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _resolve(ExperimentConfig(**fields))

    def test_inline_matrix_that_is_not_numbers_rejected_by_name(self):
        inline = _inline_pair()
        inline["subsystems"][1]["coupling"] = {"0": [["x"]]}
        config = ExperimentConfig(model={"inline": inline}, x0=[1.0, -1.0],
                                  noise={"w_std": 0.1, "v_std": 0.1},
                                  estimator={"Q": 0.01, "R": 0.01, "P0": 1.0,
                                             "x0_guess": [0.0, 0.0]})
        with pytest.raises(ValueError, match=re.escape(
                "model.inline subsystem 1 coupling 0 must be a number or an array of "
                "numbers, not [['x']]")):
            _resolve(config)

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"name": "reactor-chain",
                                              "params": {"coupling": 0.05}},
                                    "steps": 25, "seed": 3}))
        config = load_config(path)
        assert config.steps == 25
        assert config.model["params"]["coupling"] == 0.05


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

    @pytest.mark.parametrize("key", ["x", "1.7", "1_0"])
    def test_inline_coupling_key_that_is_not_an_index_rejected_by_name(self, key):
        # Accepted, "1_0" built a coupling to neighbor 10 (then refused as
        # unknown); "x" and "1.7" raised a bare "invalid literal for int()".
        inline = _inline_pair()
        inline["subsystems"][0]["coupling"] = {key: [[0.05]]}
        with pytest.raises(ValueError, match=re.escape(
                f"subsystem 0: coupling key must be an integer, not {key!r}")):
            run_experiment(ExperimentConfig(model={"inline": inline}, x0=[0.0, 0.0]),
                           write_outputs=False)

    @pytest.mark.parametrize("key, message", [
        ("R", "^R is not finite$"),
        ("Q", r"^Q\[0\] is not finite$"),
    ])
    def test_non_finite_scalar_weight_rejected_by_name(self, key, message):
        # Accepted, building inf * I warned "invalid value encountered in
        # multiply" before the named error.
        config = ExperimentConfig(model={"name": "linear-4state"},
                                  estimator={key: float("1e400")})
        with pytest.raises(ValueError, match=message):
            _resolve(config)

    def test_integer_beyond_64_bits_is_a_number(self):
        # Refused as "must be a number", while a benchmark parameter took it.
        config = ExperimentConfig(model={"name": "linear-4state"},
                                  estimator={"x0_guess": [2 ** 70, 0, 0, 0]})
        assert _resolve(config).source.design.x0_guess[0] == 2.0 ** 70

    @pytest.mark.parametrize("key, value, name", [
        ("A", [[float("nan")]], "A"),
        ("C", [[float("inf")]], "C"),
        ("coupling", {"1": [[float("-inf")]]}, "coupling block to 1"),
    ], ids=["A", "C", "coupling"])
    def test_inline_non_finite_block_rejected_by_name(self, key, value, name):
        # Accepted, the run failed in the filter with an anonymous "array
        # must not contain infs or NaNs".
        subs = [{"index": i, "A": [[0.9]], "coupling": {str(1 - i): [[0.05]]},
                 "C": [[1.0]], "Q": [[0.01]], "R": [[0.01]]} for i in (0, 1)]
        subs[0][key] = value
        inline = {"dims": [1, 1], "out_dims": [1, 1], "subsystems": subs}
        config = ExperimentConfig(
            model={"inline": inline}, steps=5, seed=2, monitors=False, x0=[1.0, -1.0],
            noise={"w_std": 0.1, "v_std": 0.1},
            estimator={"Q": 0.01, "R": 0.01, "P0": 1.0, "x0_guess": [0.0, 0.0]})
        with pytest.raises(ValueError, match=f"^subsystem 0: {name} must be finite$"):
            run_experiment(config, write_outputs=False)

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

    @pytest.mark.parametrize("name", ["reactor-chain", "linear-4state"])
    def test_csv_bytes_are_those_of_the_cell_by_cell_writer(self, tmp_path, name):
        # The reference builds every row from NumPy scalars, as the writer
        # did before it converted the arrays to Python floats at once.
        record = run_experiment(BASE.replace(model={"name": name}, steps=20),
                                write_outputs=False)
        assert record.monitors is not None
        m, rows = record.monitors, []
        for k in range(record.steps + 1):
            rows.append([k, *record.xs[k], *record.xhat_post[k], *record.ys[k], record.rmse[k],
                         int(m["coupling_ok"][k]), int(m["contraction_ok"][k])])
        got = export(record, "csv", tmp_path, "rec").read_bytes()
        header = got.decode().splitlines()[0].split(",")
        assert got == _write_csv(tmp_path / "want.csv", header, rows).read_bytes()

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


def test_a_failing_build_names_the_parameters_passed():
    # Accepted, a coupling of 2**70 failed the reactor's Jacobian spot check
    # with a message that named no parameter.
    with pytest.raises(ValueError, match=r"^benchmark 'reactor-chain' built with coupling: "
                                         r"subsystem 0: analytic df/dx_0 disagrees"):
        get_benchmark("reactor-chain", coupling=2 ** 70)


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


# -- a benchmark built once ----------------------------------------------------


def _chain(n: int = 3, coupling: float = 0.05) -> Benchmark:
    """A chain of ``n`` one-state subsystems, each coupled to its neighbours
    by ``coupling``."""
    subs = [LinearSubsystem(i, [[0.9]], {l: [[coupling]] for l in (i - 1, i + 1) if 0 <= l < n},
                            [[1.0]], [[0.01]], [[0.01]]) for i in range(n)]
    model = assemble_global(subs, make_partition([1] * n, [1] * n))
    std = np.full(n, 0.1)
    design = EstimatorDesign.from_model(model, P0=[np.eye(1)] * n, x0_guess=np.zeros(n))
    return Benchmark("test-chain", model, np.ones(n), design, std, std, 6 * std, 6 * std)


@pytest.fixture
def chain(monkeypatch):
    """The name under which :func:`_chain` is registered for one test."""
    monkeypatch.setitem(benchmarks._REGISTRY, "test-chain", _chain)
    return "test-chain"


def _inline_config(**fields) -> ExperimentConfig:
    return ExperimentConfig(**{
        "model": {"inline": _inline_pair()}, "steps": 5, "seed": 4, "x0": [1.0, -1.0],
        "noise": {"w_std": 0.1, "v_std": 0.1},
        "estimator": {"Q": 0.01, "R": 0.01, "P0": 1.0, "x0_guess": [0.0, 0.0]}, **fields})


def _arrays(value, name: str):
    """``(path, array)`` of every NumPy array in ``value`` and in the lists,
    tuples and dicts it holds."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, (list, tuple)):
        for j, item in enumerate(value):
            yield from _arrays(item, f"{name}[{j}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _arrays(item, f"{name}[{key!r}]")


def _content(record: RunRecord) -> list:
    """Every array of a record but its timings and its config."""
    return [pair for f in dataclasses.fields(RunRecord) if f.name not in ("wall_clock", "config")
            for pair in _arrays(getattr(record, f.name), f.name)]


def assert_same_arrays(got: RunRecord, want: RunRecord) -> None:
    """Every array of :func:`_content` equal bit for bit, dtype and shape too."""
    pairs = list(zip(_content(got), _content(want), strict=True))
    assert len(pairs) > 5
    for (name, a), (_, b) in pairs:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def assert_same_record(got: RunRecord, want: RunRecord) -> None:
    """Equal digests and every array equal bit for bit."""
    assert got.content_digest() == want.content_digest()
    assert_same_arrays(got, want)


@pytest.fixture
def built(monkeypatch) -> dict:
    """The benchmarks ``_resolve`` keeps, empty at the start of one test."""
    kept = {}
    monkeypatch.setattr(harness, "_BUILT", kept)
    return kept


def _bench_arrays(bench: Benchmark) -> list:
    """The arrays of a kept benchmark."""
    model = bench.model
    return [a for _, a in _arrays(
        [model.A, model.C, model.Q, model.R, bench.x0, vars(bench.design),
         [getattr(bench, key) for key in ("w_std", "v_std", "w_bound", "v_bound")],
         # A subsystem's Jacobian spot-check samples are read by its
         # constructor only.
         [{k: v for k, v in vars(sub).items() if k != "jacobian_check_samples"}
          for sub in model.subsystems]], "bench")]


class TestKeptResolution:
    """``run_experiment`` and ``monte_carlo`` keep the benchmark a named
    model builds, keyed on the registered builder, the name and the exact
    JSON of the params; everything else is resolved on every call."""

    CONFIGS = {
        "linear-4state": ExperimentConfig(model={"name": "linear-4state"}, steps=20, seed=3),
        "reactor-chain": ExperimentConfig(model={"name": "reactor-chain"}, steps=10, seed=5),
        "inline": _inline_config(),
        "registered": ExperimentConfig(model={"name": "test-chain", "params": {"n": 4}},
                                       steps=8, seed=6),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_a_warm_call_is_the_cold_call_bit_for_bit(self, chain, built, name):
        config = self.CONFIGS[name]
        kept = 0 if name == "inline" else 1
        cold = run_experiment(config, write_outputs=False)
        assert len(built) == kept
        warm = run_experiment(config, write_outputs=False)
        assert cold.monitors is not None
        assert_same_record(warm, cold)
        built.clear()
        cold = monte_carlo(config, runs=3)
        assert len(built) == kept
        assert_same_ensemble(monte_carlo(config, runs=3), cold)

    def test_a_warm_call_builds_nothing(self, chain, built, monkeypatch):
        calls = []
        monkeypatch.setitem(benchmarks._REGISTRY, chain,
                            lambda n=3: calls.append(n) or _chain(n))
        config = self.CONFIGS["registered"]
        for _ in range(2):
            run_experiment(config, write_outputs=False)
            monte_carlo(config, runs=2)
        assert calls == [4]

    def test_every_kept_array_is_read_only(self, chain, built):
        for config in self.CONFIGS.values():
            _resolve(config)
        assert len(built) == 3
        for bench in built.values():
            arrays = _bench_arrays(bench)
            assert len(arrays) > 10
            assert not any(a.flags.writeable for a in arrays)

    def test_a_one_ulp_coupling_is_another_model(self, chain, built):
        near = float(np.nextafter(0.05, 1.0))
        plans = [_resolve(ExperimentConfig(model={"name": chain, "params": {"coupling": c}}))
                 for c in (0.05, near, 0.05)]
        assert len(built) == 2
        assert plans[0].model is plans[2].model
        assert not np.array_equal(plans[0].model.A, plans[1].model.A)
        assert plans[1].model.A.tobytes() == get_benchmark(chain, coupling=near).model.A.tobytes()

    def test_values_json_tells_apart_are_kept_apart(self, chain, built):
        # 0.0 and -0.0, 0 and 0.0, 1 and true are different JSON texts, so
        # each config is resolved on its own, to its own model or error.
        models = []
        for params in ({"coupling": 0.0}, {"coupling": -0.0}, {"coupling": 0}, {"n": 1}):
            model = _resolve(ExperimentConfig(model={"name": chain, "params": params})).model
            assert model.A.tobytes() == get_benchmark(chain, **params).model.A.tobytes()
            models.append(model)
        assert len(set(map(id, models))) == 4
        assert models[0].A.tobytes() != models[1].A.tobytes()
        for params, message in (({"n": True}, "n must be an integer, not True"),
                                ({"n": 1.0}, "n must be an integer, not 1.0")):
            with pytest.raises(ValueError, match=re.escape(message)):
                _resolve(ExperimentConfig(model={"name": chain, "params": params}))
        assert len(built) == 4

    def test_registering_a_name_anew_builds_anew(self, chain, built):
        calls = []

        def counted(n: int = 3, coupling: float = 0.05) -> Benchmark:
            calls.append(coupling)
            return _chain(n, 2 * coupling)

        config = ExperimentConfig(model={"name": chain}, steps=5, monitors=False)
        first = run_experiment(config, write_outputs=False)
        assert run_experiment(config, write_outputs=False).content_digest() \
            == first.content_digest()
        register_benchmark(chain, counted)
        second = run_experiment(config, write_outputs=False)
        assert calls == [0.05]
        assert not np.array_equal(second.xhat_post, first.xhat_post)
        assert_same_record(run_experiment(config, write_outputs=False), second)
        assert calls == [0.05]
        register_benchmark(chain, _chain)
        assert_same_record(run_experiment(config, write_outputs=False), first)

    def test_the_last_few_small_builds_are_kept(self, chain, built, monkeypatch):
        couplings = [0.01 * j for j in range(1, harness._KEPT + 3)]
        plans = {c: _resolve(ExperimentConfig(model={"name": chain, "params": {"coupling": c}}))
                 for c in couplings}
        assert len(built) == harness._KEPT
        # A hit makes the oldest kept build the newest.
        oldest = couplings[2]
        assert _resolve(ExperimentConfig(model={"name": chain, "params": {
            "coupling": oldest}})).model is plans[oldest].model
        _resolve(ExperimentConfig(model={"name": chain, "params": {"coupling": 1.0}}))
        assert [json.loads(text)["coupling"] for _, _, text in built] \
            == couplings[4:] + [oldest, 1.0]
        # A model of more than _KEPT_NX states is built on every call and
        # freed with its plan.
        monkeypatch.setattr(harness, "_KEPT_NX", 3)
        config = ExperimentConfig(model={"name": chain, "params": {"n": 4}}, steps=3)
        plan = _resolve(config)
        assert not any(text == '{"n":4}' for _, _, text in built)
        assert _resolve(config).model is not plan.model
        model = weakref.ref(plan.model)
        del plan
        gc.collect()
        assert model() is None

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_writing_into_a_warm_record_cannot_change_the_next_run(self, chain, name):
        config = self.CONFIGS[name]
        cold = run_experiment(config, write_outputs=False)
        warm = run_experiment(config, write_outputs=False)
        writeable = [a for _, a in _content(warm) if a.flags.writeable]
        assert writeable
        for a in writeable:
            a[...] = 7
        assert_same_record(run_experiment(config, write_outputs=False), cold)

    def test_writing_into_the_callers_x0_list_is_a_new_config(self):
        x0 = (LINEAR_X0 + 0.5).tolist()
        config = BASE.replace(steps=5, monitors=False, x0=x0)
        first = run_experiment(config, write_outputs=False)
        x0[0] += 1.0
        moved = run_experiment(config, write_outputs=False)
        assert moved.xs[0, 0] == first.xs[0, 0] + 1.0
        assert_same_record(moved, run_experiment(config.replace(x0=list(x0)),
                                                 write_outputs=False))

    def test_a_config_the_key_cannot_hold_gives_the_same_run(self, chain, built):
        inline = {"dims": [1, 1, 1], "out_dims": [1, 1, 1], "subsystems": [
            {"index": i, "A": [[0.9]], "C": [[1.0]], "Q": [[0.01]], "R": [[0.01]],
             "coupling": {0: [[0.05]], "2": [[0.05]]} if i == 1 else {}} for i in range(3)]}
        mixed = _inline_config(model={"inline": inline}, x0=[1.0, -1.0, 0.5],
                               estimator={"Q": 0.01, "R": 0.01, "P0": 1.0,
                                          "x0_guess": [0.0, 0.0, 0.0]})
        as_json = _inline_config(model={"inline": json.loads(json.dumps(inline))},
                                 x0=mixed.x0, estimator=mixed.estimator)
        numpy_param = ExperimentConfig(model={"name": chain, "params": {
            "coupling": np.float64(0.07)}}, steps=5)
        for config, same, kept in (
                (mixed, as_json, 0),
                (numpy_param, numpy_param.replace(model={"name": chain, "params": {
                    "coupling": 0.07}}), 0)):
            built.clear()
            runs = [run_experiment(config, write_outputs=False) for _ in range(2)]
            assert len(built) == kept
            runs.append(run_experiment(same, write_outputs=False))
            for rec in runs[1:]:
                assert_same_arrays(rec, runs[0])

    def test_an_unhashable_builder_builds_on_every_call(self, monkeypatch, built):
        @dataclasses.dataclass
        class Builder:   # compares by value, so instances are unhashable
            n: int = 3

            def __call__(self, coupling: float = 0.05) -> Benchmark:
                return _chain(self.n, coupling)

        monkeypatch.setitem(benchmarks._REGISTRY, "test-chain", Builder())
        config = ExperimentConfig(model={"name": "test-chain"}, steps=3)
        first = run_experiment(config, write_outputs=False)
        assert_same_record(run_experiment(config, write_outputs=False), first)
        assert built == {}

    def test_an_error_is_raised_again_on_every_call(self, chain, built, monkeypatch):
        calls = []

        def broken(n: int = 3) -> Benchmark:
            calls.append(n)
            raise ValueError(f"test-chain: cannot build n={n}")

        monkeypatch.setitem(benchmarks._REGISTRY, chain, broken)
        config = ExperimentConfig(model={"name": chain}, steps=3)
        for _ in range(2):
            with pytest.raises(ValueError, match="^test-chain: cannot build n=3$"):
                run_experiment(config, write_outputs=False)
        assert calls == [3, 3]
        assert built == {}

    def test_a_second_ensemble_computes_its_gains_anew(self, monkeypatch):
        calls = []
        exact = partkf.dkf.gain_and_covariance

        def counted(*args):
            calls.append(1)
            return exact(*args)

        monkeypatch.setattr(partkf.dkf, "gain_and_covariance", counted)
        config = BASE.replace(steps=10, monitors=False)
        counts = []
        for _ in range(2):
            monte_carlo(config, runs=4)
            counts.append(len(calls))
            calls.clear()
        assert counts == [config.steps, config.steps]
