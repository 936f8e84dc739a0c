"""The persisted records and every artifact format: written, read, checked.

Artifacts written by run_suite:

    <out>/summary.csv        one row per condition, SUMMARY_COLUMNS
    <out>/summary.json       config echo, condition stats, pooled fits,
                             per-trial index
    <out>/trials/<id>.csv    per-step trace of each trial, TRACE_COLUMNS

Each format is defined once, below, and written and read through that one
definition. A summary.json trial entry must name trial_id(powder,
controller, target_mg, trial_index). A trial's trace is trials/<id>.csv,
derived from that id and stored nowhere, so a reader opens no path that
an index names.

Every CSV table, a trace, summary.csv and the report's tables, is
rendered by one writer, _csv_table, from the table's format: one
(column, ..., cell kind) entry per column, in file order. It writes a
header line of the column names, then one line per row, every line ended
by CRLF and its cells joined by commas, and turns the values into text a
column at a time by their cell kinds in _CELL_KINDS: a name is itself, an
integer its decimal digits, a float its Python repr (which is its str())
and None an empty cell. No cell ever holds a comma, a quote or a line
end, so none is quoted, and these are the bytes csv.writer gives the same
rows.

A trace CSV's bytes: a header line of TRACE_COLUMNS, then one line per
step, vibration written 0 or 1. The reader takes CRLF, LF or CR line
ends, but every line, the last one too, must end, no cell may be quoted
(a quote is a bad cell like any other), and data row r (0 for the first)
must hold step r + 1. One parser, _trace_columns, reads a trace a
column at a time and makes every one of these checks and the check of
each cell against its column's kind. read_trace_csv builds its
StepTraces from those columns; load_suite_records, which report reads
through, keeps the columns and builds no StepTrace.

The fit CSVs that report writes, report/fit_<powder>_<mode>.csv, follow
the same rules: a header line regressor,measured_mg,predicted_mg, then
one line per pooled point, its regressor, its measured delta and the
fit's prediction C' * regressor, an empty cell while the fit is unfitted.
A summary.csv line holds a condition's SUMMARY_COLUMNS.

A rerun into an existing directory rewrites each file it writes in place
to exactly the new bytes; the trace files of trials the new config no
longer has are left as they are.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Any, NamedTuple

from .config import (DIRECT_PID, MODEL_BASED, ExperimentConfig,
                     config_to_dict, finite, is_run_count, shown, shown_path)
from .control import TrialStatus
from .powders import ARCHETYPES

class StepTrace(NamedTuple):
    """One executed dispensing step of a trial, an immutable record.

    true_delta_mg is the plant's actual dispensed mass, kept in memory for
    diagnostics; the persisted trace carries only the measured delta, which
    is all the controller ever saw.
    """

    step: int
    l_command: float
    t_pose_s: float
    vibration: bool
    predicted_mg: float | None
    measured_delta_mg: float
    cprime_gravity: float | None
    cprime_vibration: float | None
    w_error_mg: float
    sim_time_s: float
    true_delta_mg: float = 0.0
    probe: bool = False


class TrialRecord(NamedTuple):
    """One trial's outcome and every step it executed, an immutable record."""

    trial_id: str
    powder: str
    controller: str
    target_mg: float
    trial_index: int
    status: TrialStatus
    final_mass_mg: float
    total_steps: int
    total_sim_time_s: float
    steps: tuple[StepTrace, ...]

    @property
    def trace_csv(self) -> str:
        return _trace_csv(self.trial_id)


class ConditionStats(NamedTuple):
    """Success count and dispersion statistics for one condition.

    trials counts the condition's completed (not aborted) trials and
    successes those whose status is SUCCESS, the controllers' stop rule's
    verdict. Standard deviations are sample deviations (n-1).
    degenerate_stats is set when fewer than two completed trials back the
    numbers.
    """

    powder: str
    controller: str
    target_mg: float
    trials: int
    successes: int
    dropped_mean_mg: float
    dropped_std_mg: float
    steps_mean: float
    steps_std: float
    time_mean_s: float
    time_std_s: float
    degenerate_stats: bool = False


class PooledFit(NamedTuple):
    """Suite-wide single-coefficient refit for one powder and mode."""

    powder: str
    mode: str
    c_prime: float | None
    r_squared: float | None
    n_points: int


@dataclass(frozen=True)
class SuiteSummary:
    config: ExperimentConfig
    conditions: tuple[ConditionStats, ...]
    pooled_fits: tuple[PooledFit, ...]
    trials: tuple[TrialRecord, ...]



def trial_id(powder: str, controller: str, target_mg: float,
             trial_index: int) -> str:
    return f"{powder}--{controller}--t{target_mg:g}--{trial_index:03d}"


def _trace_csv(trial_id: str) -> str:
    return f"trials/{trial_id}.csv"


def _bools(cells: tuple[str, ...]) -> list[bool]:
    if not {"0", "1"}.issuperset(cells):
        raise ValueError("not 0 or 1")
    return list(map("1".__eq__, cells))


# Per cell kind: the text of a whole column of values as written, a parser
# of a whole column of read cells, and what a read cell must be. Both go
# through a column with no Python call per cell: str, str, repr, repr or
# "" for None, and "0" or "1" for a bool.
_CELL_KINDS = {
    "str": (partial(map, str), list, "text"),
    "int": (partial(map, str), lambda cells: list(map(int, cells)),
            "an integer"),
    "float": (partial(map, repr), lambda cells: list(map(float, cells)),
              "a number"),
    "float?": (lambda values: ["" if value is None else repr(value)
                               for value in values],
               lambda cells: [float(text) if text else None
                              for text in cells], "a number"),
    "0/1": (partial(map, ("0", "1").__getitem__), _bools, "0 or 1"),
}


def _csv_table(table_format: tuple, columns: Iterable[Iterable]) -> str:
    """The CSV table of a format's columns of values, in the byte format
    above. Columns past the format's are left out; a column longer or
    shorter than the others is a ValueError."""
    texts = [_CELL_KINDS[entry[-1]][0](values)
             for entry, values in zip(table_format, columns)]
    return "\r\n".join([",".join([entry[0] for entry in table_format]),
                        *map(",".join, zip(*texts, strict=True)), ""])


# The trace CSV format: (column, StepTrace attribute, cell kind) in file
# order. The attributes are StepTrace's leading fields, in order.
_TRACE_FORMAT = (
    ("step", "step", "int"), ("L", "l_command", "float"),
    ("t_pose_s", "t_pose_s", "float"), ("vibration", "vibration", "0/1"),
    ("predicted_mg", "predicted_mg", "float?"),
    ("measured_delta_mg", "measured_delta_mg", "float"),
    ("cprime_gravity", "cprime_gravity", "float?"),
    ("cprime_vibration", "cprime_vibration", "float?"),
    ("w_error_mg", "w_error_mg", "float"),
    ("sim_time_s", "sim_time_s", "float"),
)
TRACE_COLUMNS = tuple(column for column, _, _ in _TRACE_FORMAT)
# The StepTrace fields past the traced ones, as a read trace gives them.
_UNTRACED_DEFAULTS = tuple(StepTrace._field_defaults[name] for name
                           in StepTrace._fields[len(_TRACE_FORMAT):])

_FIT_FORMAT = (("regressor", "float"), ("measured_mg", "float"),
               ("predicted_mg", "float?"))


def write_trace_csv(record: TrialRecord, path: Path) -> None:
    """Write a trial's trace as one buffer, in the byte format above."""
    # zip(*steps) gives StepTrace's columns, of which the table keeps the
    # traced ones
    write_bytes(path, _csv_table(_TRACE_FORMAT, zip(*record.steps)).encode())


def write_fit_csv(xs: list[float], deltas: list[float],
                  c_prime: float | None, path: Path) -> None:
    """Write one pooled fit's points, regressors xs and measured deltas,
    as one buffer in the byte format above; ValueError if their lengths
    differ."""
    fitted = [None if c_prime is None else c_prime * x for x in xs]
    write_bytes(path, _csv_table(_FIT_FORMAT, (xs, deltas, fitted)).encode())


def write_bytes(path: Path, data: bytes) -> None:
    """Make data the whole file at path, writing over any old bytes in place.

    Permissions and errors are open(path, "wb")'s, but an existing file is
    not truncated to zero first: only its tail past the new length is cut,
    and only when it has one, so a new file costs no more than with "wb".
    README.md's "Performance notes" give what that saves on a rerun.

    That is a trade against durability. A write that fails partway
    (ENOSPC, EIO) or a process killed before the cut leaves the new bytes
    so far followed by the old file's tail, where open(path, "wb") left a
    bare prefix; and after a crash the file may hold old or mixed blocks
    at its new length. `powderdose report` rejects a trace, summary.json
    or summary.csv that holds new bytes over an old tail, so it is the
    check to run after an interrupted rerun.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        old_size = os.fstat(fd).st_size
        # os.write may write less than it is given; the rest goes next
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if old_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_trace_csv(path: Path) -> list[StepTrace]:
    """Parse a trace CSV into its StepTraces; ValueError on a bad cell.

    The rows are built from the columns _trace_columns parses, which
    makes every check and gives every message.
    """
    # tuple.__new__ builds each StepTrace without a Python call per row
    return list(map(tuple.__new__, repeat(StepTrace),
                    zip(*_trace_columns(path),
                        *map(repeat, _UNTRACED_DEFAULTS))))


def _trace_columns(path: Path) -> list[list]:
    """Parse a trace CSV a column at a time into its TRACE_COLUMNS'
    values, one list per column in file order; ValueError on a bad cell.

    The one trace parser: read_trace_csv builds its rows from these
    columns, and load_suite_records keeps them as they are. The text is
    read once, as UTF-8 with universal newlines, so CRLF, LF and CR line
    ends all read alike, and split into lines and then cells with no
    quoting, so data row r (0 for the first) is line r + 2. A last line
    with no line end is an error: the file was cut short. So is a byte
    that is not UTF-8, named with its line, and a step that does not
    number its row from 1. Each message names the file as
    config.shown_path echoes it.
    """
    name = shown_path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except UnicodeDecodeError as exc:
        # exc.object is the whole file, decoded in one piece; its line
        # ends are counted as the text read counts them
        head = exc.object[:exc.start].replace(b"\r\n", b"\n")
        line = head.replace(b"\r", b"\n").count(b"\n") + 1
        raise ValueError(f"{name}: line {line}: byte "
                         f"0x{exc.object[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})") from None
    if lines.pop():
        raise ValueError(f"{name}: line {len(lines) + 1} has no line end")
    rows = list(map(str.split, lines, repeat(",")))
    header = tuple(rows[0]) if rows else ()
    if header != TRACE_COLUMNS:
        raise ValueError(f"{name}: unexpected trace header "
                         f"{shown(header)}")
    del rows[0]
    width = len(TRACE_COLUMNS)
    if any(map(width.__ne__, map(len, rows))):
        row = next(row for row, cells in enumerate(rows)
                   if len(cells) != width)
        raise ValueError(f"{name}: line {row + 2} has "
                         f"{len(rows[row])} fields, expected {width}")
    # a trace of no steps has every column empty
    columns = [_parse_cells(name, column, cell, cells) for (column, _, cell),
               cells in zip(_TRACE_FORMAT, list(zip(*rows)) or [()] * width)]
    # the step column, the first, numbers the rows from 1
    if columns[0] != list(range(1, len(rows) + 1)):
        row = next(row for row, step in enumerate(columns[0])
                   if step != row + 1)
        raise ValueError(f"{name}: line {row + 2}: step must be {row + 1}, "
                         f"got {shown(rows[row][0])}")
    return columns


def _parse_cells(name: str, column: str, cell: str,
                 cells: tuple[str, ...]) -> list:
    _, parse, rule = _CELL_KINDS[cell]
    try:
        return parse(cells)
    except ValueError:
        # scan again, a cell at a time, to name the first bad one
        for row, text in enumerate(cells):
            try:
                parse((text,))
            except ValueError:
                raise ValueError(f"{name}: line {row + 2}: "
                                 f"{column} must be {rule}, got "
                                 f"{shown(text)}") from None
        raise


# The summary.csv format: (column, cell kind) in file order, for every
# ConditionStats field but the degenerate flag, the last; each column is
# the field of its name, in field order.
_SUMMARY_FORMAT = (
    ("powder", "str"), ("controller", "str"), ("target_mg", "float"),
    ("trials", "int"), ("successes", "int"), ("dropped_mean_mg", "float"),
    ("dropped_std_mg", "float"), ("steps_mean", "float"),
    ("steps_std", "float"), ("time_mean_s", "float"), ("time_std_s", "float"))
SUMMARY_COLUMNS = tuple(column for column, _ in _SUMMARY_FORMAT)


def summary_csv_text(conditions: Iterable[ConditionStats]) -> str:
    return _csv_table(_SUMMARY_FORMAT, zip(*conditions))


# A summary.json trial entry: (key, type) in file order, every TrialRecord
# field but steps, in field order. Each value is written as is (a
# TrialStatus as its string) and read back through its type. The trace
# path is not stored: a reader derives it from the trial_id.
_INDEX_ENTRY = (
    ("trial_id", str), ("powder", str), ("controller", str),
    ("target_mg", float), ("trial_index", int), ("status", TrialStatus),
    ("final_mass_mg", float), ("total_steps", int),
    ("total_sim_time_s", float),
)
# a saved trial has ended, so RUNNING is no status it can hold
_STATUSES = {status.value for status in TrialStatus
             if status is not TrialStatus.RUNNING}


def _index_entry_problem(entry: Any) -> str | None:
    """What is wrong with one summary.json trial entry, or None.

    The trial_id must follow from the condition, so the trace a reader
    opens for a valid entry, _trace_csv(trial_id), lies in the artifact
    directory's trials/. Keys past _INDEX_ENTRY's, such as the trace_csv
    path an older index stores, are not read.
    """
    if not isinstance(entry, dict):
        return "entry is not an object"
    for key, kind in _INDEX_ENTRY:
        if key not in entry:
            return f"missing key {key!r}"
        value = entry[key]
        if kind is int:
            ok = is_run_count(value)
        elif kind is float:
            ok = finite(value)
        else:
            ok = isinstance(value, str)
        if not ok:
            return f"{key} has the wrong type or value: {shown(value)}"
    if entry["status"] not in _STATUSES:
        return f"unknown status {shown(entry['status'])}"
    if entry["powder"] not in ARCHETYPES:
        return f"unknown powder {shown(entry['powder'])}"
    if entry["controller"] not in (MODEL_BASED, DIRECT_PID):
        return f"unknown controller {shown(entry['controller'])}"
    expected = trial_id(entry["powder"], entry["controller"],
                        entry["target_mg"], entry["trial_index"])
    if entry["trial_id"] != expected:
        return (f"trial_id {shown(entry['trial_id'])} does not match its "
                f"condition, expected {shown(expected)}")
    return None


def _record_from_index(entry: Mapping) -> TrialRecord:
    """The TrialRecord of a valid summary.json trial entry, its steps
    left empty."""
    return TrialRecord(*[kind(entry[key]) for key, kind in _INDEX_ENTRY], ())


# The summary.json sections of the suite statistics, each with the keys
# that name one of its entries.
_SECTION_KEYS = {"conditions": ("powder", "controller", "target_mg"),
                 "pooled_fits": ("powder", "mode")}


def _summary_sections(conditions: Iterable[ConditionStats],
                      fits: Iterable[PooledFit]) -> dict[str, list[dict]]:
    """The conditions and pooled_fits sections of summary.json, as written
    and as a report recomputes them."""
    return {"conditions": [c._asdict() for c in conditions],
            "pooled_fits": [f._asdict() for f in fits]}


def write_suite_artifacts(summary: SuiteSummary,
                          out_dir: str | Path | None = None) -> Path:
    out = Path(out_dir if out_dir is not None else summary.config.out_dir)
    (out / "trials").mkdir(parents=True, exist_ok=True)
    for record in summary.trials:
        write_trace_csv(record, out / record.trace_csv)
    write_bytes(out / "summary.csv",
                summary_csv_text(summary.conditions).encode())
    payload = {
        "config": config_to_dict(summary.config),
        **_summary_sections(summary.conditions, summary.pooled_fits),
        "trials": [{key: getattr(r, key) for key, _ in _INDEX_ENTRY}
                   for r in summary.trials],
    }
    write_bytes(out / "summary.json",
                (json.dumps(payload, indent=2) + "\n").encode())
    return out


def load_suite_records(artifact_dir: str | Path
                       ) -> tuple[list[tuple[TrialRecord, list[list]]],
                                  dict, list[str]]:
    """Rebuild trial records from summary.json and the trace CSVs.

    Returns the trials, the parsed summary.json and the problems found.
    Each trial is a (record, columns) pair: the record of its index entry,
    whose steps are left empty, and its trace's columns as
    _trace_columns parses them, TRACE_COLUMNS' values in StepTrace field
    order. No StepTrace is built.
    """
    root = Path(artifact_dir)
    errors: list[str] = []
    index_path = root / "summary.json"
    try:
        with index_path.open(encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer of more digits
        # than int() takes; RecursionError: arrays or objects nested too
        # deep to parse
        reason = exc.strerror if isinstance(exc, OSError) else exc
        return [], {}, [f"cannot read {shown_path(index_path)}: {reason}"]
    if not isinstance(payload, dict) \
            or not isinstance(payload.get("trials", []), list):
        return [], {}, [f"{shown_path(index_path)}: expected an object "
                        f"with a 'trials' list"]
    trials: list[tuple[TrialRecord, list[list]]] = []
    for position, entry in enumerate(payload.get("trials", [])):
        problem = _index_entry_problem(entry)
        if problem is not None:
            errors.append(f"{shown_path(index_path)}: trials[{position}]: "
                          f"{problem}")
            continue
        trace = root / _trace_csv(entry["trial_id"])
        try:
            columns = _trace_columns(trace)
        except (OSError, ValueError) as exc:
            reason = (f"{shown_path(trace)}: {exc.strerror}"
                      if isinstance(exc, OSError) else exc)
            errors.append(f"trial {entry['trial_id']}: {reason}")
            continue
        if len(columns[0]) != entry["total_steps"]:
            errors.append(
                f"trial {entry['trial_id']}: index says "
                f"{entry['total_steps']} steps, trace has "
                f"{len(columns[0])}")
            continue
        trials.append((_record_from_index(entry), columns))
    return trials, payload, errors


def stored_summary_problems(root: Path, payload: Mapping,
                            conditions: list[ConditionStats],
                            fits: list[PooledFit],
                            summary_csv: bytes) -> list[str]:
    """Where the stored summary differs from the recomputed one.

    Both list conditions and pooled fits in the order the trials ran, so
    entries are compared position by position. Values are written as JSON,
    so a key stored as null reads apart from a missing one. summary.csv's
    bytes are compared with summary_csv, the recomputed conditions'
    summary_csv_text as UTF-8, in any locale.
    """
    problems = []
    for section, recomputed in _summary_sections(conditions, fits).items():
        stored = payload.get(section)
        if not isinstance(stored, list) or len(stored) != len(recomputed):
            problems.append(f"summary.json: {section} does not hold the "
                            f"{len(recomputed)} entries recomputed from the "
                            f"traces")
            continue
        for entry, fresh in zip(stored, recomputed):
            if entry == fresh:
                continue
            label = " / ".join(str(fresh[k]) for k in _SECTION_KEYS[section])
            if not isinstance(entry, dict):
                problems.append(f"summary.json: {section} {label}: not an "
                                f"object, stored {shown(entry, json.dumps)}")
                continue
            # the keys in the order summary.json writes them, then the
            # stored ones it does not write, sorted; the line echoes as
            # much of their differences as any other outside value
            keys = [*fresh, *sorted(entry.keys() - fresh.keys())]
            differences = ", ".join(
                (f"{k} stored {json.dumps(entry[k])}" if k in entry
                 else f"{k} missing")
                + (f", recomputed {json.dumps(fresh[k])}" if k in fresh
                   else "")
                for k in keys
                if k not in entry or k not in fresh or entry[k] != fresh[k])
            problems.append(f"summary.json: {section} {label}: "
                            f"{shown(differences, str)}")
    path = root / "summary.csv"
    try:
        stored_csv = path.read_bytes()
    except OSError as exc:
        problems.append(f"cannot read {shown_path(path)}: {exc.strerror}")
    else:
        if stored_csv != summary_csv:
            problems.append("summary.csv: does not match the summary "
                            "recomputed from the traces")
    return problems
