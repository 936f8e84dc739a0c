"""The persisted records and every artifact format: written, read, checked.

Artifacts written by run_suite:

    <out>/summary.csv        one row per condition, SUMMARY_COLUMNS
    <out>/summary.json       config echo, condition stats, pooled fits,
                             per-trial index
    <out>/trials/<id>.csv    per-step trace of each trial, TRACE_COLUMNS

Each format is defined once, below, and written and read through that one
definition. A summary.json trial entry must name trial_id(powder,
controller, target_mg, trial_index) and that trial's trials/<id>.csv.

A trace CSV's bytes: a header line of TRACE_COLUMNS, then one line per
step, every line ended by CRLF and its cells joined by commas. step and
vibration are decimal integers (vibration 0 or 1), a float is its Python
repr, and None is an empty cell. Every cell is numeric, so none is ever
quoted, and these are the bytes csv.writer gives the same rows.

A rerun into an existing directory rewrites each file it writes in place
to exactly the new bytes; the trace files of trials the new config no
longer has are left as they are.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, fields as dataclass_fields
from itertools import islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import Any, NamedTuple

from .config import (DIRECT_PID, MODEL_BASED, ExperimentConfig,
                     config_from_dict, config_to_dict, finite, is_count)
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


@dataclass(frozen=True)
class TrialRecord:
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


@dataclass(frozen=True)
class ConditionStats:
    """Success count and dispersion statistics for one condition.

    Standard deviations are sample deviations (n-1). degenerate_stats is
    set when fewer than two completed trials back the numbers.
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


@dataclass(frozen=True)
class PooledFit:
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


# The trace CSV format: (column, StepTrace attribute, cell) in file order.
# A cell is an "int", a "float", a "float?" (None as an empty cell) or a
# "0/1" bool. The attributes are StepTrace's leading fields, in order.
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


# A trace line's %-format, one conversion per cell kind. A "float?" cell is
# turned into its text (repr, or "" for None) before it is formatted.
_CELL_CONVERSION = {"int": "%d", "0/1": "%d", "float": "%r", "float?": "%s"}
_TRACE_HEADER = ",".join(TRACE_COLUMNS) + "\r\n"
_TRACE_LINE = ",".join(_CELL_CONVERSION[cell]
                       for _, _, cell in _TRACE_FORMAT) + "\r\n"
# The StepTrace fields past the traced ones, as a read trace gives them.
_UNTRACED_DEFAULTS = tuple(StepTrace._field_defaults[name] for name
                           in StepTrace._fields[len(_TRACE_FORMAT):])


def write_trace_csv(record: TrialRecord, path: Path) -> None:
    """Write a trial's trace as one buffer, in the byte format above."""
    # zip(*steps) gives StepTrace's columns; zipping with _TRACE_FORMAT
    # keeps the traced ones.
    columns = [["" if value is None else repr(value) for value in values]
               if cell == "float?" else values
               for (_, _, cell), values in zip(_TRACE_FORMAT,
                                               zip(*record.steps))]
    text = _TRACE_HEADER + "".join(map(_TRACE_LINE.__mod__, zip(*columns)))
    write_bytes(path, text.encode())


def write_bytes(path: Path, data: bytes) -> None:
    """Make data the whole file at path, writing over any old bytes in place.

    Permissions and errors are open(path, "wb")'s, but an existing file is
    not truncated to zero first: only its tail past the new length is cut,
    and only when it has one, so a new file costs no more than with "wb".
    On ext4, rewriting a trace-sized file through a truncation to zero
    cost about ten times formatting it, most likely because closing such
    a file starts its writeback at once.

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
    with open(fd, "wb") as handle:
        old_size = os.fstat(fd).st_size
        handle.write(data)
        if old_size > len(data):
            handle.truncate()


def read_trace_csv(path: Path) -> list[StepTrace]:
    """Parse a trace CSV a column at a time; ValueError on a bad cell."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = tuple(rows[0]) if rows else ()
    if header != TRACE_COLUMNS:
        raise ValueError(f"{path}: unexpected trace header {header!r}")
    del rows[0]
    width = len(TRACE_COLUMNS)
    if any(map(width.__ne__, map(len, rows))):
        row = next(row for row, cells in enumerate(rows)
                   if len(cells) != width)
        raise ValueError(f"{path}: line {_line_of(path, row)} has "
                         f"{len(rows[row])} fields, expected {width}")
    if not rows:
        return []
    columns = [_parse_cells(path, column, cell, cells) for (column, _, cell),
               cells in zip(_TRACE_FORMAT, zip(*rows))]
    # tuple.__new__ builds each StepTrace without a Python call per row
    return list(map(tuple.__new__, repeat(StepTrace),
                    zip(*columns, *map(repeat, _UNTRACED_DEFAULTS))))


def _line_of(path: Path, row: int) -> int:
    """The line a trace's data row (0 for the first) ends on, read again,
    since a quoted cell may span lines."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for _ in islice(reader, row + 2):
            pass
        return reader.line_num


def _bools(cells: tuple[str, ...]) -> list[bool]:
    if not {"0", "1"}.issuperset(cells):
        raise ValueError("not 0 or 1")
    return list(map("1".__eq__, cells))


# Per cell kind: a parser of a whole column, and what a cell must be.
_CELL_PARSERS = {
    "int": (lambda cells: list(map(int, cells)), "an integer"),
    "float": (lambda cells: list(map(float, cells)), "a number"),
    "float?": (lambda cells: [float(text) if text else None
                              for text in cells], "a number"),
    "0/1": (_bools, "0 or 1"),
}


def _parse_cells(path: Path, column: str, cell: str,
                 cells: tuple[str, ...]) -> list:
    parse, rule = _CELL_PARSERS[cell]
    try:
        return parse(cells)
    except ValueError:
        # scan again, a cell at a time, to name the first bad one
        for row, text in enumerate(cells):
            try:
                parse((text,))
            except ValueError:
                raise ValueError(f"{path}: line {_line_of(path, row)}: "
                                 f"{column} must be {rule}, got {text!r}"
                                 ) from None
        raise


# summary.csv holds every ConditionStats field but the degenerate flag.
SUMMARY_COLUMNS = tuple(f.name for f in dataclass_fields(ConditionStats)
                        if f.name != "degenerate_stats")


def summary_csv_text(conditions: Iterable[ConditionStats]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(map(attrgetter(*SUMMARY_COLUMNS), conditions))
    return buffer.getvalue()


# A summary.json trial entry: (key, type) in file order. Each key is a
# TrialRecord attribute, written as is (a TrialStatus as its string) and
# read back through its type.
_INDEX_ENTRY = (
    ("trial_id", str), ("powder", str), ("controller", str),
    ("target_mg", float), ("trial_index", int), ("status", TrialStatus),
    ("final_mass_mg", float), ("total_steps", int),
    ("total_sim_time_s", float), ("trace_csv", str),
)
_RECORD_FIELDS = {f.name for f in dataclass_fields(TrialRecord)}
_STATUSES = {status.value for status in TrialStatus}


def index_entry_problem(entry: Any) -> str | None:
    """What is wrong with one summary.json trial entry, or None.

    The trace path must follow from the condition, so a reader of a valid
    entry opens nothing outside the artifact directory's trials/.
    """
    if not isinstance(entry, dict):
        return "entry is not an object"
    for key, kind in _INDEX_ENTRY:
        if key not in entry:
            return f"missing key {key!r}"
        value = entry[key]
        if kind is int:
            ok = is_count(value, 0)
        elif kind is float:
            ok = finite(value)
        else:
            ok = isinstance(value, str)
        if not ok:
            return f"{key} has the wrong type or value: {value!r}"
    if entry["status"] not in _STATUSES:
        return f"unknown status {entry['status']!r}"
    if entry["powder"] not in ARCHETYPES:
        return f"unknown powder {entry['powder']!r}"
    if entry["controller"] not in (MODEL_BASED, DIRECT_PID):
        return f"unknown controller {entry['controller']!r}"
    expected = trial_id(entry["powder"], entry["controller"],
                        entry["target_mg"], entry["trial_index"])
    if entry["trial_id"] != expected:
        return (f"trial_id {entry['trial_id']!r} does not match its "
                f"condition, expected {expected!r}")
    if entry["trace_csv"] != _trace_csv(expected):
        return (f"trace_csv {entry['trace_csv']!r} is not the trial's trace "
                f"{_trace_csv(expected)!r}")
    return None


def record_from_index(entry: Mapping,
                      steps: Iterable[StepTrace]) -> TrialRecord:
    """The TrialRecord of a valid summary.json trial entry and its trace."""
    return TrialRecord(steps=tuple(steps), **{
        key: kind(entry[key]) for key, kind in _INDEX_ENTRY
        if key in _RECORD_FIELDS})


# The summary.json sections of the suite statistics, each with the keys
# that name one of its entries.
_SECTION_KEYS = {"conditions": ("powder", "controller", "target_mg"),
                 "pooled_fits": ("powder", "mode")}


def summary_sections(conditions: Iterable[ConditionStats],
                     fits: Iterable[PooledFit]) -> dict[str, list[dict]]:
    """The conditions and pooled_fits sections of summary.json, as written
    and as a report recomputes them."""
    return {"conditions": [asdict(c) for c in conditions],
            "pooled_fits": [asdict(f) for f in fits]}


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
        **summary_sections(summary.conditions, summary.pooled_fits),
        "trials": [{key: getattr(r, key) for key, _ in _INDEX_ENTRY}
                   for r in summary.trials],
    }
    write_bytes(out / "summary.json",
                (json.dumps(payload, indent=2) + "\n").encode())
    return out


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
        with index_path.open(encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def stored_config(payload: Mapping) -> ExperimentConfig:
    """The config a parsed summary.json echoes; ConfigError if invalid."""
    return config_from_dict(payload.get("config", {}))


def stored_summary_problems(root: Path, payload: Mapping,
                            conditions: list[ConditionStats],
                            fits: list[PooledFit]) -> list[str]:
    """Where the stored summary differs from the recomputed one.

    Both list conditions and pooled fits in the order the trials ran, so
    entries are compared position by position.
    """
    problems = []
    for section, recomputed in summary_sections(conditions, fits).items():
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
