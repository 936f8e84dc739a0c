"""Rebuild summary tables and fit diagnostics from persisted artifacts.

Reads an artifact directory produced by run_suite (summary.json plus the
per-trial trace CSVs), recomputes the condition statistics and pooled
drop-model fits from scratch, checks them against the stored summary
(the conditions and pooled fits in summary.json, and summary.csv), and
writes a report/ subdirectory:

    report/summary_recomputed.csv   same schema as summary.csv
    report/report.txt               formatted condition and fit tables
    report/fit_<powder>_<mode>.csv  regressor, measured and predicted drop
                                    per pooled data point

Because trials are rebuilt in their original order from exact string
round-tripped floats, the recomputed summary matches the one written at
run time byte for byte; any difference is reported as an error, per
condition and per pooled fit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .harness import (ConditionStats, PooledFit, TrialRecord,
                      compute_metrics, config_from_dict, index_entry_problem,
                      pooled_fits, pooled_observations, read_trace_csv,
                      record_from_index, summary_csv_text, write_summary_csv)
from .identify import regressor, select_mode


@dataclass(frozen=True)
class ReportResult:
    artifact_dir: Path
    report_dir: Path | None
    conditions: tuple[ConditionStats, ...]
    fits: tuple[PooledFit, ...]
    errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def load_suite_records(artifact_dir: str | Path
                       ) -> tuple[list[TrialRecord], dict, list[str]]:
    """Rebuild trial records from summary.json and the trace CSVs.

    Returns the records, the parsed summary.json and the problems found.
    """
    root = Path(artifact_dir)
    errors: list[str] = []
    index_path = root / "summary.json"
    if not index_path.is_file():
        return [], {}, [f"no data: {index_path} not found"]
    try:
        with index_path.open() as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [], {}, [f"cannot read {index_path}: {exc}"]
    if not isinstance(payload, dict) \
            or not isinstance(payload.get("trials", []), list):
        return [], {}, [f"{index_path}: expected an object with a "
                        f"'trials' list"]
    records: list[TrialRecord] = []
    for position, entry in enumerate(payload.get("trials", [])):
        problem = index_entry_problem(entry)
        if problem is not None:
            errors.append(f"{index_path}: trials[{position}]: {problem}")
            continue
        try:
            steps = read_trace_csv(root / entry["trace_csv"])
        except (OSError, ValueError, csv.Error) as exc:
            errors.append(f"trial {entry['trial_id']}: {exc}")
            continue
        if len(steps) != entry["total_steps"]:
            errors.append(
                f"trial {entry['trial_id']}: index says "
                f"{entry['total_steps']} steps, trace has {len(steps)}")
            continue
        records.append(record_from_index(entry, steps))
    return records, payload, errors


def build_report(artifact_dir: str | Path, *,
                 write: bool = True) -> ReportResult:
    """Recompute statistics from an artifact directory; optionally persist."""
    root = Path(artifact_dir)
    records, payload, errors = load_suite_records(root)
    if not records and not errors:
        errors.append(f"no data: {root} holds no trials")
    if not records:
        return ReportResult(root, None, (), (), tuple(errors))
    try:
        config = config_from_dict(payload.get("config", {}))
    except ValueError as exc:
        errors.append(f"config echo invalid: {exc}")
        return ReportResult(root, None, (), (), tuple(errors))
    conditions = compute_metrics(records, config.tolerance_mg)
    try:
        pools = pooled_observations(records)
        fits = pooled_fits(pools, config.kinematics)
    except ValueError as exc:  # a trace step outside the valve's envelope
        errors.append(f"cannot refit the traces: {exc}")
        return ReportResult(root, None, (), (), tuple(errors))
    if not errors:  # a trial that failed to load already explains a mismatch
        errors.extend(_stored_summary_problems(root, payload, conditions,
                                               fits))
    report_dir = None
    if write:
        report_dir = root / "report"
        report_dir.mkdir(parents=True, exist_ok=True)
        write_summary_csv(conditions, report_dir / "summary_recomputed.csv")
        _write_fit_points(pools, fits, config.kinematics, report_dir)
        _write_text_report(conditions, fits, records,
                           report_dir / "report.txt")
    return ReportResult(root, report_dir, tuple(conditions), tuple(fits),
                        tuple(errors))


def _stored_summary_problems(root: Path, payload: dict,
                             conditions: list[ConditionStats],
                             fits: list[PooledFit]) -> list[str]:
    """Where the stored summary differs from the recomputed one.

    Both list conditions and pooled fits in the order the trials ran, so
    entries are compared position by position.
    """
    problems = []
    for section, recomputed, keys in (
            ("conditions", [asdict(c) for c in conditions],
             ("powder", "controller", "target_mg")),
            ("pooled_fits", [asdict(f) for f in fits],
             ("powder", "mode"))):
        stored = payload.get(section)
        if not isinstance(stored, list) or len(stored) != len(recomputed):
            problems.append(f"summary.json: {section} does not hold the "
                            f"{len(recomputed)} entries recomputed from the "
                            f"traces")
            continue
        for entry, fresh in zip(stored, recomputed):
            if entry == fresh:
                continue
            label = " / ".join(str(fresh[k]) for k in keys)
            if not isinstance(entry, dict):
                entry = {}
            differences = ", ".join(
                f"{k} stored {entry.get(k)!r}, recomputed {fresh.get(k)!r}"
                for k in sorted(entry.keys() | fresh.keys())
                if k not in entry or k not in fresh or entry[k] != fresh[k])
            problems.append(f"summary.json: {section} {label}: {differences}")
    try:
        with (root / "summary.csv").open(newline="") as handle:
            stored_csv = handle.read()
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read summary.csv: {exc}")
    else:
        if stored_csv != summary_csv_text(conditions):
            problems.append("summary.csv: does not match the summary "
                            "recomputed from the traces")
    return problems


def _write_fit_points(pools, fits, kin, report_dir: Path) -> None:
    for fit in fits:
        path = report_dir / f"fit_{fit.powder}_{fit.mode}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("regressor", "measured_mg", "predicted_mg"))
            for o in select_mode(pools[fit.powder], fit.mode):
                x = regressor(kin, o.l_command, o.t_pose_s)
                predicted = (fit.c_prime * x if fit.c_prime is not None
                             else None)
                writer.writerow((x, o.delta_w_mg, predicted))


def _write_text_report(conditions, fits, records, path: Path) -> None:
    lines = []
    lines.append("Dispensing benchmark report")
    lines.append(f"trials: {len(records)}")
    lines.append("")
    lines.append("Per-condition accuracy")
    header = (f"{'powder':<16} {'controller':<12} {'target':>9} "
              f"{'ok':>5} {'dropped mg':>22} {'steps':>16} {'time s':>18}")
    lines.append(header)
    lines.append("-" * len(header))
    for c in conditions:
        rate = f"{c.successes}/{c.trials}"
        dropped = f"{c.dropped_mean_mg:.2f} +/- {c.dropped_std_mg:.2f}"
        steps = f"{c.steps_mean:.1f} +/- {c.steps_std:.1f}"
        time_s = f"{c.time_mean_s:.1f} +/- {c.time_std_s:.1f}"
        flag = " *" if c.degenerate_stats else ""
        lines.append(f"{c.powder:<16} {c.controller:<12} "
                     f"{c.target_mg:>9g} {rate:>5} {dropped:>22} "
                     f"{steps:>16} {time_s:>18}{flag}")
    if any(c.degenerate_stats for c in conditions):
        lines.append("* fewer than two completed trials behind these numbers")
    lines.append("")
    lines.append("Pooled drop-model fits")
    fit_header = (f"{'powder':<16} {'mode':<10} {'coefficient':>14} "
                  f"{'R^2':>8} {'points':>7}")
    lines.append(fit_header)
    lines.append("-" * len(fit_header))
    for f in fits:
        coeff = "unfitted" if f.c_prime is None else f"{f.c_prime:.6g}"
        score = "n/a" if f.r_squared is None else f"{f.r_squared:.4f}"
        lines.append(f"{f.powder:<16} {f.mode:<10} {coeff:>14} "
                     f"{score:>8} {f.n_points:>7}")
    lines.append("")
    path.write_text("\n".join(lines) + "\n")
