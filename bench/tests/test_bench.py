"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import partkf.dkf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "chain-64": {"model": {"name": "linear-chain",
                           "params": {"n": 4, "d": 2, "m": 1, "coupling": 0.04}},
                 "steps": 5},
    "reactor-500": {"steps": 20},
    "mc-4state": {"mc_runs": 3},
}
TINY_SWEEP = ((16, 32, 64, 128), 2)


def run_tiny(name: str, trace: bool, out_dir: Path):
    wl = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    return run.run(wl, seed=3, seconds=0.2, trace=trace, import_s=0.0,
                   out_dir=out_dir, sweep=TINY_SWEEP)


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_METRICS


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_prints_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    result, info = run_tiny(name, trace, tmp_path)
    run.report(result, info)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0, info["notes"]
    assert printed["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for spec in specs:
        metric = printed["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)), spec["name"]
    if trace:
        spans = json.loads(Path(info["spans"]).read_text())["spans"]
        assert spans and set(spans[0]) == {"id", "name", "start", "end", "parent",
                                           "workload"}


def test_samples_are_calibrated_by_the_kernel_samples_around_them():
    samples = [("calib", 0.1), ("estimate", 0.3), ("calib", 0.2),
               ("monitors", 0.1), ("calib", 0.2), ("estimate", 0.6), ("calib", 0.1)]
    ratios = workloads.calibrated(samples)
    assert set(ratios) == {"estimate", "monitors"}
    assert ratios["estimate"] == pytest.approx([2.0, 4.0])
    assert ratios["monitors"] == pytest.approx([0.5])


def test_negative_control_fails_the_chain_check(monkeypatch, tmp_path):
    exact = partkf.dkf.gain_and_covariance

    def perturbed(*args):
        L, P = exact(*args)
        return L * (1.0 + 1e-6), P

    monkeypatch.setattr(partkf.dkf, "gain_and_covariance", perturbed)
    result, info = run_tiny("chain-64", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("batch oracle" in note for note in info["notes"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "chain-64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
