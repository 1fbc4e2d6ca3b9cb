"""Command line interface.

Subcommands:

- ``run``: simulate one experiment and write record/monitor files.
- ``montecarlo``: repeat an experiment with derived seeds, write the RMSE
  ensemble and its per-instant summary.
- ``verify``: run the oracle-equivalence and reduction suites, print one
  PASS/FAIL line each, exit non-zero on any failure.
- ``monitors``: re-analyze a stored record JSON and write the monitor table.

Any validation or runtime error exits with status 1 and a message on stderr;
usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analysis
from .benchmarks import available_benchmarks
from .harness import (
    ExperimentConfig,
    import_record,
    load_config,
    run_experiment,
    verify_suite,
    write_monte_carlo_csv,
)

DEFAULT_OUT = os.environ.get("PARTKF_OUT", "out")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="experiment config JSON")
    parser.add_argument("--model", help="registered benchmark name "
                        f"({', '.join(available_benchmarks())})")
    parser.add_argument("--params", help="JSON object of benchmark parameters")
    parser.add_argument("--steps", type=int, help="number of sampling instants")
    parser.add_argument("--runs", type=int, help="Monte Carlo repetitions")
    parser.add_argument("--seed", type=int, help="64-bit master seed")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--mode", choices=["dkf", "dekf", "auto"],
                        help="filter selection")
    parser.add_argument("--monitors", dest="monitors", action="store_true",
                        default=None, help="enable stability monitors")
    parser.add_argument("--no-monitors", dest="monitors", action="store_false",
                        help="disable stability monitors")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        config = load_config(args.config)
    elif args.model is not None:
        params = json.loads(args.params) if args.params else {}
        config = ExperimentConfig(model={"name": args.model, "params": params})
    else:
        raise ValueError("either --config or --model is required")
    updates = {}
    for key in ("steps", "runs", "seed", "mode", "monitors"):
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    if args.out is not None:
        updates["out_dir"] = str(args.out)
    elif config.out_dir is None:
        updates["out_dir"] = DEFAULT_OUT
    return config.replace(**updates) if updates else config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    record = run_experiment(config)
    print(f"run complete: kind={record.kind} steps={record.steps} "
          f"seed={record.seed}")
    print(f"rmse: first={record.rmse[0]:.6g} last={record.rmse[-1]:.6g}")
    if record.monitors is not None:
        ok = all(record.monitors["coupling_ok"][1:])
        print(f"weak-coupling condition: {'satisfied at every instant' if ok else 'VIOLATED'}")
    if config.out_dir:
        print(f"outputs written to {config.out_dir}/")
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    config = _build_config(args)
    runs = config.runs if config.runs > 1 else 500
    result = analysis.monte_carlo(config, runs=runs, base_seed=config.seed)
    out_dir = config.out_dir or DEFAULT_OUT
    name = config.model.get("name", "inline")
    long_path, summary_path = write_monte_carlo_csv(result, out_dir,
                                                    stem=f"{name}_montecarlo")
    print(f"{result.runs} runs of {result.rmse.shape[1] - 1} steps")
    print(f"rmse(0) mean={result.mean[0]:.6g}  "
          f"final mean={result.mean[-1]:.6g} min={result.lo[-1]:.6g} "
          f"max={result.hi[-1]:.6g}")
    print(f"ensemble written to {long_path} and {summary_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 1
    results = verify_suite(seed=seed)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status} ({detail})")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


def _cmd_monitors(args: argparse.Namespace) -> int:
    record = import_record(args.record)
    analysis.attach_monitors(record)
    out = Path(args.out) if args.out is not None else Path(DEFAULT_OUT)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.record).stem
    csv_path = analysis.write_monitor_csv(record, out / f"{stem}_monitors.csv")
    json_path = analysis.write_summary_json(record, out / f"{stem}_summary.json")
    ok = all(record.monitors["coupling_ok"][1:])
    print(f"weak-coupling condition: {'satisfied at every instant' if ok else 'VIOLATED'}")
    print(f"monitor table: {csv_path}")
    print(f"summary: {json_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partkf",
        description="Partition-based distributed Kalman filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_mc = sub.add_parser("montecarlo", help="Monte Carlo RMSE ensemble")
    _add_common(p_mc)
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_ver = sub.add_parser("verify",
                           help="oracle-equivalence and reduction suites")
    p_ver.add_argument("--seed", type=int, help="seed for the check runs")
    p_ver.set_defaults(func=_cmd_verify)

    p_mon = sub.add_parser("monitors", help="re-analyze a stored record")
    p_mon.add_argument("--record", type=Path, required=True,
                       help="record JSON produced by run")
    p_mon.add_argument("--out", type=Path, help="output directory")
    p_mon.set_defaults(func=_cmd_monitors)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
