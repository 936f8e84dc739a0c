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

A report over an earlier one rewrites these files and removes the fit
CSVs of fits it no longer has.

Because trials are rebuilt in their original order from exact string
round-tripped floats, the recomputed summary matches the one written at
run time byte for byte; any difference is reported as an error, per
condition and per pooled fit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from .artifacts import (ConditionStats, PooledFit, load_suite_records,
                        stored_config, stored_summary_problems,
                        summary_csv_text, write_bytes)
from .harness import compute_metrics, pooled_fits, pooled_observations
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


def build_report(artifact_dir: str | Path) -> ReportResult:
    """Recompute statistics from an artifact directory and write report/."""
    root = Path(artifact_dir)
    records, payload, errors = load_suite_records(root)
    if not records and not errors:
        errors.append(f"no data: {root} holds no trials")
    if not records:
        return ReportResult(root, None, (), (), tuple(errors))
    try:
        config = stored_config(payload)
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
        errors.extend(stored_summary_problems(root, payload, conditions,
                                              fits))
    report_dir = root / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    write_bytes(report_dir / "summary_recomputed.csv",
                summary_csv_text(conditions).encode())
    _write_fit_points(pools, fits, config.kinematics, report_dir)
    _write_text_report(conditions, fits, records, report_dir / "report.txt")
    return ReportResult(root, report_dir, tuple(conditions), tuple(fits),
                        tuple(errors))


def _write_fit_points(pools, fits, kin, report_dir: Path) -> None:
    """One fit CSV per pooled fit; the fit CSVs an earlier report wrote
    for a fit this one does not have are removed."""
    written = set()
    for fit in fits:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(("regressor", "measured_mg", "predicted_mg"))
        for o in select_mode(pools[fit.powder], fit.mode):
            x = regressor(kin, o.l_command, o.t_pose_s)
            predicted = (fit.c_prime * x if fit.c_prime is not None
                         else None)
            writer.writerow((x, o.delta_w_mg, predicted))
        path = report_dir / f"fit_{fit.powder}_{fit.mode}.csv"
        write_bytes(path, buffer.getvalue().encode())
        written.add(path)
    for path in report_dir.glob("fit_*.csv"):
        if path not in written:
            path.unlink()


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
    write_bytes(path, ("\n".join(lines) + "\n").encode())
