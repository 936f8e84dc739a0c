"""Command line entry points.

    powderdose run-trial   one closed-loop trial, trace CSV written
    powderdose run-suite   full benchmark cross product with artifacts
    powderdose report      rebuild summary tables from an artifact dir
    powderdose validate-config   parse a config and report every problem

Each command is a thin wrapper: configs are read through config, trials
and suites run through harness, a trace is written through artifacts and
a report is built by report.

Output directory precedence: --out flag (for report, its artifact_dir
argument), then the POWDERDOSE_OUT environment variable, then the
config's out_dir (for report, that of --config). Exit status is zero on
success and nonzero when configuration or input artifacts are invalid, or
when an output path cannot be written (1, with one stderr line naming the
path and the OS error).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .artifacts import write_trace_csv
from .config import ConfigError, ExperimentConfig, load_config, resolve_out_dir
from .harness import run_suite, run_trial
from .report import build_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powderdose",
        description="Closed-loop powder dispensing benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    trial = sub.add_parser("run-trial", help="run a single dispensing trial")
    _common_flags(trial)
    trial.add_argument("--powder", help="powder archetype name")
    trial.add_argument("--controller",
                       help="controller to drive the trial: model-based "
                            "(model) or direct-pid (pid)")
    trial.add_argument("--target", type=float, help="target mass in mg")
    trial.add_argument("--trial-index", type=int, default=0,
                       help="trial index within the condition (default 0)")

    suite = sub.add_parser("run-suite", help="run the full benchmark suite")
    _common_flags(suite)

    rep = sub.add_parser("report",
                         help="recompute tables from suite artifacts")
    rep.add_argument("artifact_dir", nargs="?",
                     help="artifact directory (default: resolved output dir)")
    rep.add_argument("--config", help="config JSON, used only to resolve "
                                      "the default artifact directory")

    check = sub.add_parser("validate-config",
                           help="validate a config file and exit")
    check.add_argument("--config", required=True, help="config JSON to check")

    return parser


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="experiment config JSON")
    sub.add_argument("--seed", type=int, help="override the suite seed")
    sub.add_argument("--out", help="override the output directory")


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_run_trial(args) -> int:
    config = _load(args)
    record = run_trial(config, args.trial_index, powder=args.powder,
                       controller=args.controller, target_mg=args.target)
    path = Path(resolve_out_dir(config, args.out)) / record.trace_csv
    path.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(record, path)
    print(f"{record.trial_id}: {record.status.value}, "
          f"dispensed {record.final_mass_mg:g} mg of {record.target_mg:g} mg "
          f"in {record.total_steps} steps "
          f"({record.total_sim_time_s:.1f} s simulated)")
    print(f"trace: {path}")
    return 0


def _cmd_run_suite(args) -> int:
    config = _load(args)
    out = resolve_out_dir(config, args.out)
    summary = run_suite(config, out_dir=out)
    for c in summary.conditions:
        print(f"{c.powder} / {c.controller} / {c.target_mg:g} mg: "
              f"{c.successes}/{c.trials} ok, "
              f"dropped {c.dropped_mean_mg:.2f} +/- {c.dropped_std_mg:.2f} mg, "
              f"steps {c.steps_mean:.1f} +/- {c.steps_std:.1f}")
    print(f"artifacts: {out}")
    return 0


def _cmd_report(args) -> int:
    target = args.artifact_dir or resolve_out_dir(_load(args))
    result = build_report(target)
    for message in result.errors:
        print(f"report: {message}", file=sys.stderr)
    if result.report_dir is not None:
        text = (result.report_dir / "report.txt")
        if text.is_file():
            print(text.read_text(), end="")
        print(f"report files: {result.report_dir}")
    return 0 if result.ok else 1


def _cmd_validate_config(args) -> int:
    config = load_config(args.config)
    print(f"{args.config}: ok")
    print(f"conditions: {len(config.conditions())} "
          f"({len(config.powders)} powders x {len(config.controllers)} "
          f"controllers x {len(config.targets_mg)} targets), "
          f"{config.trials} trials each")
    print(f"seed: {config.seed}, out_dir: {config.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run-trial": _cmd_run_trial,
        "run-suite": _cmd_run_suite,
        "report": _cmd_report,
        "validate-config": _cmd_validate_config,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
