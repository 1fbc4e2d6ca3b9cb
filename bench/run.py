"""partkf benchmark.

    python3 bench/run.py --workload chain-64 --seed 1 --seconds 36 --trace 0

Runs one workload in this process with BLAS pinned to one thread.  With
``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it runs
the traced replay instead, reports the per-layer metrics and writes its spans
to ``.bench_out/`` when it ends.  Both modes check the outputs.  Lines before
the last describe the run; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero, with
no result, when the package cannot be imported from ``src/`` next to this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

E2E_METRICS = {
    "setup_s": "s", "estimate_s": "s", "monitors_s": "s", "export_s": "s",
    "record_mb": "MB", "mc_runs_per_s": "runs/s", "peak_rss_mb": "MB",
}
SWEEP_NAMES = ("dkf.ms_per_step", "analysis.monitors_ms_per_step", "records.record_mb")
LAYER_METRICS = {
    **{f"dkf.{p}_ms": "ms" for p in ("predict", "gain_cov", "update", "record")},
    **{f"dekf.{p}_ms": "ms" for p in ("jacobian", "predict", "gain_cov", "update",
                                       "record")},
    "dekf.floor_events": "count",
    "model.linearize_analytic_ms": "ms", "model.linearize_fd_ms": "ms",
    "simulate.ms_per_step": "ms", "benchmarks.build_ms": "ms",
    "harness.overhead_ms": "ms",
    **{f"analysis.{p}_s": "s" for p in ("bounds", "weak_coupling", "contraction",
                                         "lyapunov")},
    **{f"records.{p}_s": "s" for p in ("to_json", "csv", "from_json", "digest")},
    "fie.oracle_s": "s",
    **{f"{name}.n{n}": "MB" if name.endswith("_mb") else "ms"
       for name in SWEEP_NAMES for n in (16, 32, 64, 128)},
    "trace.overhead_pct": "%",
}


def git_revision() -> str:
    """HEAD of the repository around this file, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_revision": git_revision(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def import_package() -> float:
    """Import partkf from this checkout's ``src``; returns the seconds taken."""
    src = ROOT / "src"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import partkf
    elapsed = time.perf_counter() - t0
    if not Path(partkf.__file__).resolve().is_relative_to(src):
        raise ImportError(f"partkf was imported from {partkf.__file__}, not {src}")
    return elapsed


def run(wl, seed: int, seconds: float, trace: bool, import_s: float,
        out_dir: Path, sweep=None) -> tuple[dict, dict]:
    """Run one ``workloads.Workload``; returns the result object and the run
    description.  ``sweep`` overrides the scaling sweep as ``(sizes, steps)``.
    """
    import chain
    import workloads

    chain.register()
    info = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "config": wl.config(seed, wl.steps).as_dict(),
            "montecarlo": {"runs": wl.mc_runs, "steps": wl.mc_steps},
            "env": environment()}
    if wl.model["name"] == chain.NAME:
        info["fixture"] = {**wl.model["params"], "seed": seed}

    if trace:
        import layers
        from spans import Tracer

        tracer = Tracer(wl.name)
        values, session = layers.traced_run(tracer, wl, seed, out_dir, sweep)
        info["spans"] = str(OUT / f"spans-{wl.name}-seed{seed}.json")
        units = LAYER_METRICS
    else:
        session = workloads.Session(wl, seed, out_dir)
        samples = session.measure(seconds)
        info["samples"] = workloads.sample_summary(samples)
        session.run_checks()
        values = workloads.end_to_end(session, samples, import_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = E2E_METRICS

    info["notes"] = session.notes
    if trace:
        tracer.write(Path(info["spans"]), info)
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain-64", "reactor-500", "mc-4state"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64 or args.seconds <= 0:
        parser.error("--seed must fit in 64 unsigned bits and --seconds be positive")
    # Nothing has imported numpy yet, so its BLAS pool starts with one thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    out_dir = OUT / f"run-{os.getpid()}"
    try:
        result, info = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), import_s, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report(result, info)
    return 0


def report(result: dict, info: dict) -> None:
    """Print the run description, one line per metric, then the result."""
    print("run " + json.dumps(info))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    for note in info["notes"]:
        print("note: " + note)
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
