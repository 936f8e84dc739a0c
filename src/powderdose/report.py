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

The condition statistics come from summary.json's trial entries (status,
final mass, steps and simulated time); the traces give each trial's step
count, checked against its entry, and the pooled fits' points. A trace
is read a column at a time by artifacts' one trace parser, the one
read_trace_csv builds its rows from, with every check it makes: UTF-8,
CRLF, LF or CR line ends, the last line ended too, no cell quoted, each
cell of its column's kind and the steps numbered from 1. The report
keeps the columns and builds no per-step row.

Because trials are rebuilt in their original order from exact string
round-tripped floats, the recomputed summary matches the one written at
run time byte for byte; any difference is reported as an error, per
condition and per pooled fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .artifacts import (ConditionStats, PooledFit, load_suite_records,
                        stored_summary_problems, summary_csv_text,
                        write_bytes, write_fit_csv)
from .config import ConfigError, config_from_dict, shown_path
from .harness import compute_metrics, pooled_fits, pooled_points


# Masses print with two decimals below this magnitude and with six
# significant digits from it on. A config keeps masses under about 1e7 mg,
# but a hand-edited final_mass_mg in summary.json may be any finite float,
# and at two decimals it runs to 300 digits and breaks the table's columns.
_FIXED_POINT_MASS_MG = 1e6


def format_mass(value: float) -> str:
    """A mass in mg as run-suite's summary lines and report.txt print it."""
    if abs(value) < _FIXED_POINT_MASS_MG:
        return f"{value:.2f}"
    return f"{value:.6g}"


@dataclass(frozen=True)
class ReportResult:
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
    trials, payload, errors = load_suite_records(root)
    if not trials and not errors:
        errors.append(f"no data: {shown_path(root)} holds no trials")
    if not trials:
        return ReportResult(None, (), (), tuple(errors))
    if "config" not in payload:
        errors.append("summary.json: no 'config' key; the report needs the "
                      "run's config echo to recompute the summary")
        return ReportResult(None, (), (), tuple(errors))
    try:
        config = config_from_dict(payload["config"])
    except ConfigError as exc:  # one line per problem, as validate-config
        errors.extend(f"config echo invalid: {message}"
                      for message in exc.errors)
        return ReportResult(None, (), (), tuple(errors))
    conditions = compute_metrics(record for record, _ in trials)
    try:
        # a step's point, (L, t_pose_s, vibration, measured_delta_mg), is
        # the trace's columns 1, 2, 3 and 5
        points = pooled_points(
            ((record, zip(*columns[1:4], columns[5]))
             for record, columns in trials), config.rig)
        fits = pooled_fits(points)
    except ValueError as exc:  # a trace step or a fit the refit cannot take
        errors.append(f"cannot refit the traces: {exc}")
        return ReportResult(None, (), (), tuple(errors))
    summary_csv = summary_csv_text(conditions).encode()
    if not errors:  # a trial that failed to load already explains a mismatch
        errors.extend(stored_summary_problems(root, payload, conditions,
                                              fits, summary_csv))
    report_dir = root / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    write_bytes(report_dir / "summary_recomputed.csv", summary_csv)
    _write_fit_points(points, fits, report_dir)
    _write_text_report(conditions, fits, len(trials),
                       report_dir / "report.txt")
    return ReportResult(report_dir, tuple(conditions), tuple(fits),
                        tuple(errors))


def _write_fit_points(points, fits, report_dir: Path) -> None:
    """One fit CSV per pooled fit, of the points it was fitted to; the
    fit CSVs an earlier report wrote for a fit this one does not have are
    removed."""
    written = set()
    for fit in fits:
        path = report_dir / f"fit_{fit.powder}_{fit.mode}.csv"
        write_fit_csv(*points[fit.powder, fit.mode], fit.c_prime, path)
        written.add(path)
    for path in report_dir.glob("fit_*.csv"):
        if path not in written:
            path.unlink()


def _write_text_report(conditions, fits, trials: int, path: Path) -> None:
    lines = []
    lines.append("Dispensing benchmark report")
    lines.append(f"trials: {trials}")
    lines.append("")
    lines.append("Per-condition accuracy")
    masses = [f"{format_mass(c.dropped_mean_mg)} +/- "
              f"{format_mass(c.dropped_std_mg)}" for c in conditions]
    width = max([22, *map(len, masses)])
    header = (f"{'powder':<16} {'controller':<12} {'target':>9} "
              f"{'ok':>5} {'dropped mg':>{width}} {'steps':>16} "
              f"{'time s':>18}")
    lines.append(header)
    lines.append("-" * len(header))
    for c, dropped in zip(conditions, masses):
        rate = f"{c.successes}/{c.trials}"
        steps = f"{c.steps_mean:.1f} +/- {c.steps_std:.1f}"
        time_s = f"{c.time_mean_s:.1f} +/- {c.time_std_s:.1f}"
        flag = " *" if c.degenerate_stats else ""
        lines.append(f"{c.powder:<16} {c.controller:<12} "
                     f"{c.target_mg:>9g} {rate:>5} {dropped:>{width}} "
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
