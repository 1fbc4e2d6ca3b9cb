import csv
import json

import pytest

from partkf.cli import main


VERIFY_CHECKS = ["DKF=FIE k<=5", "centralized FIE=KF k=3", "n=1 DKF=centralized KF",
                 "n=1 DEKF=classical EKF", "DEKF=DKF on affine model"]


class TestVerify:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "DKF=FIE k<=5: PASS" in out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    # From 2**64 - 1 the checks derive three more seeds modulo 2**64.
    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 2 ** 64 - 1])
    def test_five_checks_in_order_all_pass(self, seed, capsys):
        assert main(["verify", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines] == VERIFY_CHECKS
        assert all(line.split(": ")[1].startswith("PASS (") for line in lines)


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        code = main(["run", "--model", "linear-4state", "--steps", "20",
                     "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run complete" in out
        assert (tmp_path / "linear-4state_dkf_seed4.csv").exists()
        assert (tmp_path / "linear-4state_dkf_seed4.json").exists()

    def test_run_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"name": "reactor-chain"},
                                   "steps": 8, "seed": 2, "monitors": False,
                                   "out_dir": str(tmp_path)}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "reactor-chain_dekf_seed2.csv").exists()

    def test_unknown_model_exits_one(self, capsys):
        assert main(["run", "--model", "no-such-benchmark"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [
        ('{"foo": 1}', "benchmark 'linear-4state': got an unexpected keyword argument 'foo'"),
        ("[1]", "model params must map parameter names to values, not [1]"),
        ('{"noise_std": "x"}',
         "benchmark 'linear-4state': noise_std must be a finite real number, not 'x'"),
    ], ids=["unknown-name", "list", "string-value"])
    def test_bad_benchmark_params_exit_one_by_name(self, params, message, capsys):
        # Accepted, all three exited 1 with a bare TypeError traceback.
        assert main(["run", "--model", "linear-4state", "--steps", "3",
                     "--params", params]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_unknown_noise_key_in_config_exits_one(self, tmp_path, capsys):
        # Accepted, the run went ahead at the defaults and exited 0.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"name": "linear-4state"}, "steps": 5,
                                   "noise": {"w_sd": 100}, "estimator": {"P_0": 5},
                                   "out_dir": str(tmp_path)}))
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error: unknown noise keys: ['w_sd']" in capsys.readouterr().err

    def test_missing_model_and_config_exits_one(self, capsys):
        assert main(["run"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_steps_exits_one(self, capsys):
        assert main(["run", "--model", "linear-4state", "--steps", "0"]) == 1
        assert "steps" in capsys.readouterr().err

    def test_fractional_steps_in_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"name": "linear-4state"}, "steps": 2.5,
                                   "out_dir": str(tmp_path)}))
        assert main(["run", "--config", str(cfg)]) == 1
        assert "steps must be an integer" in capsys.readouterr().err

    def test_unknown_flag_usage_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--model", "linear-4state", "--frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestMonteCarlo:
    def test_ensemble_csv_has_one_entry_per_run_per_instant(self, tmp_path, capsys):
        code = main(["montecarlo", "--model", "linear-4state", "--runs", "5",
                     "--steps", "12", "--seed", "6", "--out", str(tmp_path)])
        assert code == 0
        with (tmp_path / "linear-4state_montecarlo_runs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 13
        per_k = {}
        for row in rows:
            per_k.setdefault(int(row["k"]), set()).add(int(row["run"]))
        assert all(runs == {0, 1, 2, 3, 4} for runs in per_k.values())
        assert (tmp_path / "linear-4state_montecarlo_summary.csv").exists()

    def test_explicit_single_run_means_one_run(self, tmp_path, capsys):
        assert main(["montecarlo", "--model", "linear-4state", "--runs", "1",
                     "--steps", "3", "--out", str(tmp_path)]) == 0
        with (tmp_path / "linear-4state_montecarlo_runs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert "1 runs of 3 steps" in capsys.readouterr().out


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ["run", "--model", "linear-4state", "--steps", "3", "--runs", "5"],
        ["montecarlo", "--model", "linear-4state", "--runs", "2", "--steps", "3",
         "--monitors"],
        ["montecarlo", "--model", "linear-4state", "--runs", "2", "--steps", "3",
         "--no-monitors"],
    ], ids=["run-runs", "montecarlo-monitors", "montecarlo-no-monitors"])
    def test_flag_of_the_other_subcommand_is_a_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_config_runs_key_is_valid_for_both_commands(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"name": "linear-4state"}, "steps": 3,
                                   "runs": 2, "seed": 1, "out_dir": str(tmp_path)}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["montecarlo", "--config", str(cfg)]) == 0
        assert "2 runs of 3 steps" in capsys.readouterr().out


class TestMonitors:
    def test_reanalyze_stored_record(self, tmp_path, capsys):
        assert main(["run", "--model", "reactor-chain", "--steps", "10",
                     "--seed", "3", "--out", str(tmp_path), "--no-monitors"]) == 0
        record_path = tmp_path / "reactor-chain_dekf_seed3.json"
        assert record_path.exists()
        assert main(["monitors", "--record", str(record_path),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "satisfied at every instant" in out
        assert (tmp_path / "reactor-chain_dekf_seed3_monitors.csv").exists()
        assert (tmp_path / "reactor-chain_dekf_seed3_summary.json").exists()

    def test_corrupt_covariance_exits_one_naming_subsystem_and_instant(self, tmp_path,
                                                                        capsys):
        assert main(["run", "--model", "reactor-chain", "--steps", "6",
                     "--seed", "3", "--out", str(tmp_path), "--no-monitors"]) == 0
        record_path = tmp_path / "reactor-chain_dekf_seed3.json"
        payload = json.loads(record_path.read_text())
        payload["covs"][3][1] = [[0.0] * len(row) for row in payload["covs"][3][1]]
        record_path.write_text(json.dumps(payload))
        assert main(["monitors", "--record", str(record_path),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "covs[3][1] (subsystem 1, instant 3)" in err
        assert not (tmp_path / "reactor-chain_dekf_seed3_monitors.csv").exists()

    def test_missing_record_exits_one(self, capsys):
        assert main(["monitors", "--record", "/nonexistent/rec.json"]) == 1
        assert "error:" in capsys.readouterr().err
