"""Benchmark harness: configuration, trial and suite runners, artifacts.

A suite is the cross product powders x controllers x targets with a fixed
number of trials per condition. Every trial gets its own pair of random
substreams derived from (suite seed, condition checksum, trial index), so
a single trial rerun standalone reproduces its in-suite twin bit for bit
and reordering conditions never shifts anybody's draws.

Artifacts written by run_suite:

    <out>/summary.csv        one row per condition, SUMMARY_COLUMNS
    <out>/summary.json       config echo, condition stats, pooled fits,
                             per-trial index
    <out>/trials/<id>.csv    per-step trace of each trial, TRACE_COLUMNS

Each format is defined once, below, and written and read through that one
definition. A summary.json trial entry must name trial_id(powder,
controller, target_mg, trial_index) and that trial's trials/<id>.csv.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, fields as dataclass_fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Mapping

from .control import (DEFAULT_K_P, DEFAULT_MAX_STEPS, DEFAULT_PID_PROFILE,
                      DEFAULT_TOLERANCE_MG, DispensingController,
                      PidBaselineController, PidGains, TrialStatus)
from .flow import GRAVITY, VIBRATION, PowderSpec, ValveKinematics
from .identify import MIN_OBSERVABLE_MG, Observation, fit_coefficient
from .plant import BalanceModel, SimulatedPlant
from .powders import ARCHETYPES, archetype

MODEL_BASED = "model-based"
DIRECT_PID = "direct-pid"
CONTROLLER_ALIASES = {
    "model": MODEL_BASED, "model-based": MODEL_BASED,
    "pid": DIRECT_PID, "direct-pid": DIRECT_PID,
}

OUT_DIR_ENV = "POWDERDOSE_OUT"


class ConfigError(ValueError):
    """Raised on invalid configuration; carries all field-level messages."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved benchmark configuration.

    k_p may be a single gain or a per-powder mapping; k_p_for() resolves it.
    powder_overrides patches archetype fields per powder before a trial
    builds its plant.
    """

    powders: tuple[str, ...] = tuple(ARCHETYPES)
    controllers: tuple[str, ...] = (MODEL_BASED,)
    targets_mg: tuple[float, ...] = (20.0, 50.0, 500.0, 3000.0)
    trials: int = 10
    tolerance_mg: float = DEFAULT_TOLERANCE_MG
    max_steps: int = DEFAULT_MAX_STEPS
    k_p: float | Mapping[str, float] = DEFAULT_K_P
    pid_gains: PidGains = DEFAULT_PID_PROFILE
    kinematics: ValveKinematics = ValveKinematics()
    balance: BalanceModel = BalanceModel()
    powder_overrides: Mapping[str, Mapping[str, float]] = None  # type: ignore
    seed: int = 7
    out_dir: str = "artifacts"

    def __post_init__(self) -> None:
        if self.powder_overrides is None:
            object.__setattr__(self, "powder_overrides", {})

    def k_p_for(self, powder: str) -> float:
        if isinstance(self.k_p, Mapping):
            return float(self.k_p.get(powder, DEFAULT_K_P))
        return float(self.k_p)

    def powder_spec(self, powder: str) -> PowderSpec:
        overrides = dict(self.powder_overrides.get(powder, {}))
        return archetype(powder, **overrides)

    def conditions(self) -> list[tuple[str, str, float]]:
        return [(p, c, t) for p in self.powders for c in self.controllers
                for t in self.targets_mg]


@dataclass(frozen=True)
class StepTrace:
    """One executed dispensing step of a trial.

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


def _condition_checksum(powder: str, controller: str, target_mg: float) -> int:
    return zlib.crc32(f"{powder}/{controller}/{target_mg:g}".encode())


def trial_id(powder: str, controller: str, target_mg: float,
             trial_index: int) -> str:
    return f"{powder}--{controller}--t{target_mg:g}--{trial_index:03d}"


def _trace_csv(trial_id: str) -> str:
    return f"trials/{trial_id}.csv"


def build_plant(config: ExperimentConfig, powder: str, controller: str,
                target_mg: float, trial_index: int) -> SimulatedPlant:
    key = (_condition_checksum(powder, controller, target_mg), trial_index)
    return SimulatedPlant(config.powder_spec(powder), config.kinematics,
                          config.balance, seed=config.seed, stream_key=key)


def _needs_vibration(spec: PowderSpec, kin: ValveKinematics) -> bool:
    return spec.critical_arch_diameter >= kin.opening_per_command * kin.l_max


def run_trial(config: ExperimentConfig, trial_index: int = 0, *,
              powder: str | None = None, controller: str | None = None,
              target_mg: float | None = None) -> TrialRecord:
    """Run one closed-loop trial and return its full record.

    The condition may come from keyword overrides; otherwise the config
    must pin exactly one powder, controller and target.
    """
    powder = powder if powder is not None else _only(config.powders, "powder")
    controller_name = (controller if controller is not None
                       else _only(config.controllers, "controller"))
    controller_name = CONTROLLER_ALIASES.get(controller_name, controller_name)
    target = float(target_mg if target_mg is not None
                   else _only(config.targets_mg, "target"))
    spec = config.powder_spec(powder)
    kin = config.kinematics
    plant = build_plant(config, powder, controller_name, target, trial_index)
    if controller_name == MODEL_BASED:
        ctl: DispensingController | PidBaselineController = \
            DispensingController(
                target, kin, k_p=config.k_p_for(powder),
                tolerance=config.tolerance_mg, max_steps=config.max_steps)
    elif controller_name == DIRECT_PID:
        ctl = PidBaselineController(
            target, kin, gains=config.pid_gains,
            vibration=_needs_vibration(spec, kin),
            tolerance=config.tolerance_mg, max_steps=config.max_steps)
    else:
        raise ConfigError([f"controller: unknown controller "
                           f"{controller_name!r}"])
    reading, _ = plant.read_balance(wait_settle=False)
    steps: list[StepTrace] = []
    while True:
        decision = ctl.step(reading, hopper_empty=plant.depleted)
        if decision.status.terminal:
            break
        action = decision.action
        true_delta, _ = plant.execute(action.l_command, action.t_pose_s,
                                      action.vibration)
        previous = reading
        reading, _ = plant.read_balance()
        estimate = getattr(ctl, "estimate", None)
        steps.append(StepTrace(
            step=len(steps) + 1,
            l_command=action.l_command,
            t_pose_s=action.t_pose_s,
            vibration=action.vibration,
            predicted_mg=decision.predicted_mg,
            measured_delta_mg=reading - previous,
            cprime_gravity=(estimate.c_prime_gravity if estimate else None),
            cprime_vibration=(estimate.c_prime_vibration if estimate else None),
            w_error_mg=target - reading,
            sim_time_s=plant.sim_clock,
            true_delta_mg=true_delta,
            probe=decision.probe,
        ))
    return TrialRecord(
        trial_id=trial_id(powder, controller_name, target, trial_index),
        powder=powder,
        controller=controller_name,
        target_mg=target,
        trial_index=trial_index,
        status=ctl.status,
        final_mass_mg=float(ctl.w_measured),
        total_steps=len(steps),
        total_sim_time_s=plant.sim_clock,
        steps=tuple(steps),
    )


def _only(values: Iterable, what: str):
    values = list(values)
    if len(values) != 1:
        raise ConfigError([f"{what}: run_trial needs exactly one {what}, "
                           f"config names {len(values)}"])
    return values[0]


def compute_metrics(records: Iterable[TrialRecord],
                    tolerance: float = DEFAULT_TOLERANCE_MG
                    ) -> list[ConditionStats]:
    """Per-condition statistics over completed trials.

    Success means the final dispensed reading landed within the tolerance
    band of the target. Aborted trials are excluded from the statistics.
    """
    grouped: dict[tuple[str, str, float], list[TrialRecord]] = {}
    for record in records:
        if record.status is TrialStatus.ABORTED:
            continue
        key = (record.powder, record.controller, record.target_mg)
        grouped.setdefault(key, []).append(record)
    out = []
    for (powder, controller, target), group in grouped.items():
        finals = [r.final_mass_mg for r in group]
        steps = [float(r.total_steps) for r in group]
        times = [r.total_sim_time_s for r in group]
        successes = sum(1 for f in finals if abs(f - target) <= tolerance)
        out.append(ConditionStats(
            powder=powder, controller=controller, target_mg=target,
            trials=len(group), successes=successes,
            dropped_mean_mg=_mean(finals), dropped_std_mg=_sample_std(finals),
            steps_mean=_mean(steps), steps_std=_sample_std(steps),
            time_mean_s=_mean(times), time_std_s=_sample_std(times),
            degenerate_stats=len(group) < 2,
        ))
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _sample_std(values: list[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def pooled_observations(records: Iterable[TrialRecord]
                        ) -> dict[str, list[Observation]]:
    """Measurable steps of model-based trials, pooled per powder.

    Every executed step whose measured delta clears the observability gate
    counts, probe steps included; the pool is what a suite-wide refit of
    the drop model sees.
    """
    pools: dict[str, list[Observation]] = {}
    for record in records:
        if record.controller != MODEL_BASED:
            continue
        for row in record.steps:
            if row.measured_delta_mg < MIN_OBSERVABLE_MG:
                continue
            pools.setdefault(record.powder, []).append(Observation(
                l_command=row.l_command, t_pose_s=row.t_pose_s,
                vibration=row.vibration, delta_w_mg=row.measured_delta_mg))
    return pools


def pooled_fits(records: Iterable[TrialRecord]
                | Mapping[str, list[Observation]],
                kin: ValveKinematics) -> list[PooledFit]:
    """One refit per powder and mode of the pooled observations.

    records may also be the pools pooled_observations made of them, for a
    caller that needs the pools too.
    """
    pools = (records if isinstance(records, Mapping)
             else pooled_observations(records))
    fits = []
    for powder, observations in pools.items():
        for mode in (GRAVITY, VIBRATION):
            selected = [o for o in observations
                        if (VIBRATION if o.vibration else GRAVITY) == mode]
            if not selected:
                continue
            fit = fit_coefficient(selected, kin, mode)
            fits.append(PooledFit(
                powder=powder, mode=mode, c_prime=fit.c_prime,
                r_squared=fit.r_squared, n_points=len(selected)))
    return fits


def run_suite(config: ExperimentConfig, *, out_dir: str | Path | None = None,
              write_artifacts: bool = True) -> SuiteSummary:
    """Run every (powder x controller x target) condition of the config.

    Trials run sequentially in a deterministic order; artifacts land under
    out_dir (default: the config's out_dir) unless write_artifacts is off.
    """
    records: list[TrialRecord] = []
    for powder, controller, target in config.conditions():
        for index in range(config.trials):
            records.append(run_trial(config, index, powder=powder,
                                     controller=controller, target_mg=target))
    summary = SuiteSummary(
        config=config,
        conditions=tuple(compute_metrics(records, config.tolerance_mg)),
        pooled_fits=tuple(pooled_fits(records, config.kinematics)),
        trials=tuple(records),
    )
    if write_artifacts:
        write_suite_artifacts(summary, out_dir)
    return summary


# ---------------------------------------------------------------------------
# persistence

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


def write_trace_csv(record: TrialRecord, path: Path) -> None:
    columns = []
    for _, attr, cell in _TRACE_FORMAT:
        values = map(attrgetter(attr), record.steps)
        columns.append(map(int, values) if cell == "0/1" else values)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(*columns))


def read_trace_csv(path: Path) -> list[StepTrace]:
    """Parse a trace CSV a column at a time; ValueError on a bad cell."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        rows = []
        for raw in reader:
            if len(raw) != len(TRACE_COLUMNS):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(raw)} fields, "
                    f"expected {len(TRACE_COLUMNS)}")
            rows.append(raw)
    columns = [_parse_cells(path, column, cell, cells) for (column, _, cell),
               cells in zip(_TRACE_FORMAT, zip(*rows))]
    return list(map(StepTrace, *columns)) if rows else []


def _parse_cells(path: Path, column: str, cell: str,
                 cells: tuple[str, ...]) -> list:
    if cell == "float":
        return list(map(float, cells))
    if cell == "float?":
        return [float(text) if text else None for text in cells]
    if cell == "int":
        return list(map(int, cells))
    for line, text in enumerate(cells, start=2):
        if text not in ("0", "1"):
            raise ValueError(f"{path}: line {line}: {column} must be 0 or 1, "
                             f"got {text!r}")
    return [text == "1" for text in cells]


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical JSON form of a config; loads back via config_from_dict."""
    return {
        "powder": list(config.powders),
        "controller": list(config.controllers),
        "targets_mg": list(config.targets_mg),
        "trials": config.trials,
        "tolerance_mg": config.tolerance_mg,
        "max_steps": config.max_steps,
        "k_p": (dict(config.k_p) if isinstance(config.k_p, Mapping)
                else config.k_p),
        "pid_gains": asdict(config.pid_gains),
        "kinematics": asdict(config.kinematics),
        "plant": {
            "balance": asdict(config.balance),
            "powders": {name: dict(ov)
                        for name, ov in config.powder_overrides.items()},
        },
        "seed": config.seed,
        "out_dir": config.out_dir,
    }


# summary.csv holds every ConditionStats field but the degenerate flag.
SUMMARY_COLUMNS = tuple(f.name for f in dataclass_fields(ConditionStats)
                        if f.name != "degenerate_stats")


def write_summary_csv(conditions: Iterable[ConditionStats],
                      path: Path) -> None:
    path.write_text(summary_csv_text(conditions), newline="")


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
            ok = (isinstance(value, int) and not isinstance(value, bool)
                  and value >= 0)
        elif kind is float:
            try:  # an int too large for a float overflows
                ok = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):
                ok = False
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


def write_suite_artifacts(summary: SuiteSummary,
                          out_dir: str | Path | None = None) -> Path:
    out = Path(out_dir if out_dir is not None else summary.config.out_dir)
    (out / "trials").mkdir(parents=True, exist_ok=True)
    for record in summary.trials:
        write_trace_csv(record, out / record.trace_csv)
    write_summary_csv(summary.conditions, out / "summary.csv")
    payload = {
        "config": config_to_dict(summary.config),
        "conditions": [asdict(c) for c in summary.conditions],
        "pooled_fits": [asdict(p) for p in summary.pooled_fits],
        "trials": [{key: getattr(r, key) for key, _ in _INDEX_ENTRY}
                   for r in summary.trials],
    }
    with (out / "summary.json").open("w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return out


# ---------------------------------------------------------------------------
# configuration ingestion

def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file. Raises ConfigError."""
    try:
        with Path(path).open() as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    return config_from_dict(data)


def config_from_dict(data: Any) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain dict, fail-fast.

    Unknown keys at any level are errors; all problems found are reported
    together in the raised ConfigError.
    """
    errors: list[str] = []
    if not isinstance(data, Mapping):
        raise ConfigError(["config root must be a JSON object"])
    known = {"powder", "controller", "targets_mg", "trials", "tolerance_mg",
             "max_steps", "k_p", "pid_gains", "kinematics", "plant", "seed",
             "out_dir"}
    for key in data:
        if key not in known:
            errors.append(f"unknown key {key!r}")

    powders = _str_list(data.get("powder"), list(ARCHETYPES), "powder", errors)
    for name in powders:
        if name not in ARCHETYPES:
            errors.append(f"powder: unknown archetype {name!r}")
    controllers_raw = _str_list(data.get("controller"), [MODEL_BASED],
                                "controller", errors)
    controllers = []
    for name in controllers_raw:
        canon = CONTROLLER_ALIASES.get(name)
        if canon is None:
            errors.append(f"controller: must be one of "
                          f"{sorted(set(CONTROLLER_ALIASES))}, got {name!r}")
        else:
            controllers.append(canon)

    for name, values in (("powder", powders), ("controller", controllers)):
        for value in sorted({v for v in values if values.count(v) > 1}):
            errors.append(f"{name}: {value!r} is listed more than once")

    targets = data.get("targets_mg", [20.0, 50.0, 500.0, 3000.0])
    targets_out: list[float] = []
    if not isinstance(targets, (list, tuple)) or not targets:
        errors.append("targets_mg: must be a non-empty list of masses")
    else:
        for t in targets:
            if not isinstance(t, (int, float)) or isinstance(t, bool) \
                    or not math.isfinite(t) or t <= 0:
                errors.append(f"targets_mg: entries must be positive finite "
                              f"numbers, got {t!r}")
            else:
                targets_out.append(float(t))
        errors.extend(_target_collisions(targets_out))

    trials = _int_field(data, "trials", 10, 1, errors)
    max_steps = _int_field(data, "max_steps", DEFAULT_MAX_STEPS, 1, errors)
    tolerance = _num_field(data, "tolerance_mg", DEFAULT_TOLERANCE_MG, errors)
    if tolerance is not None and tolerance <= 0:
        errors.append("tolerance_mg: must be > 0")

    k_p_raw = data.get("k_p", DEFAULT_K_P)
    k_p: float | dict[str, float]
    if isinstance(k_p_raw, Mapping):
        k_p = {}
        for name, value in k_p_raw.items():
            if name not in ARCHETYPES:
                errors.append(f"k_p: unknown powder {name!r}")
            if not _valid_gain(value):
                errors.append(f"k_p[{name!r}]: must be in (0, 1]")
            else:
                k_p[str(name)] = float(value)
    elif _valid_gain(k_p_raw):
        k_p = float(k_p_raw)
    else:
        errors.append("k_p: must be in (0, 1]")
        k_p = DEFAULT_K_P

    pid_gains = _build(data.get("pid_gains", {}), PidGains,
                       DEFAULT_PID_PROFILE, "pid_gains", errors)
    kinematics = _build(data.get("kinematics", {}), ValveKinematics,
                        ValveKinematics(), "kinematics", errors)

    plant_raw = data.get("plant", {})
    balance = BalanceModel()
    overrides: dict[str, dict[str, float]] = {}
    if not isinstance(plant_raw, Mapping):
        errors.append("plant: must be an object")
    else:
        for key in plant_raw:
            if key not in ("balance", "powders"):
                errors.append(f"plant: unknown key {key!r}")
        balance = _build(plant_raw.get("balance", {}), BalanceModel,
                         BalanceModel(), "plant.balance", errors)
        powders_raw = plant_raw.get("powders", {})
        if not isinstance(powders_raw, Mapping):
            errors.append("plant.powders: must be an object")
        else:
            spec_fields = {f.name for f in dataclass_fields(PowderSpec)} - {"name"}
            for name, patch in powders_raw.items():
                if name not in ARCHETYPES:
                    errors.append(f"plant.powders: unknown powder {name!r}")
                    continue
                if not isinstance(patch, Mapping):
                    errors.append(f"plant.powders[{name!r}]: must be an object")
                    continue
                clean = {}
                for field_name, value in patch.items():
                    if field_name not in spec_fields:
                        errors.append(f"plant.powders[{name!r}]: unknown field "
                                      f"{field_name!r}")
                    else:
                        clean[field_name] = value
                if clean:
                    try:
                        archetype(name, **clean)
                    except ValueError as exc:
                        errors.append(f"plant.powders[{name!r}]: {exc}")
                    overrides[name] = clean

    seed = data.get("seed", 7)
    if not valid_seed(seed):
        errors.append(SEED_ERROR)
        seed = 7
    out_dir = data.get("out_dir", "artifacts")
    if not isinstance(out_dir, str) or not out_dir:
        errors.append("out_dir: must be a non-empty string")
        out_dir = "artifacts"

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        powders=tuple(powders), controllers=tuple(controllers),
        targets_mg=tuple(targets_out), trials=trials,
        tolerance_mg=float(tolerance), max_steps=max_steps, k_p=k_p,
        pid_gains=pid_gains, kinematics=kinematics, balance=balance,
        powder_overrides=overrides, seed=seed, out_dir=out_dir)


def resolve_out_dir(config: ExperimentConfig,
                    cli_out: str | None = None) -> str:
    """Output directory precedence: CLI flag, then environment, then config."""
    if cli_out:
        return cli_out
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return env
    return config.out_dir


SEED_ERROR = "seed: must be an unsigned 64-bit integer"


def valid_seed(value) -> bool:
    """The one seed rule, shared by config files and the --seed flag."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and 0 <= value < 2 ** 64)


def _target_collisions(targets: list[float]) -> list[str]:
    """Pairs of targets that trial ids and stream keys cannot tell apart.

    Both key a target by f"{t:g}", so targets equal to six significant
    digits, duplicates included, would share a trace file and RNG stream.
    """
    errors = []
    for i, first in enumerate(targets):
        for second in targets[i + 1:]:
            if f"{first:g}" == f"{second:g}":
                errors.append(
                    f"targets_mg: {first!r} and {second!r} both key as "
                    f"t{first:g}; their trials would share a trial id, "
                    f"trace file and RNG stream")
    return errors


def _str_list(value, default: list[str], name: str,
              errors: list[str]) -> list[str]:
    if value is None:
        return list(default)
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple)) and value \
            and all(isinstance(v, str) for v in value):
        return list(value)
    errors.append(f"{name}: must be a name or non-empty list of names")
    return list(default)


def _int_field(data: Mapping, name: str, default: int, minimum: int,
               errors: list[str]) -> int:
    value = data.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        errors.append(f"{name}: must be an integer >= {minimum}")
        return default
    return value


def _num_field(data: Mapping, name: str, default: float,
               errors: list[str]) -> float:
    value = data.get(name, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value):
        errors.append(f"{name}: must be a finite number")
        return default
    return float(value)


def _valid_gain(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and 0 < value <= 1)


def _build(raw, cls, default, name: str, errors: list[str]):
    if not isinstance(raw, Mapping):
        errors.append(f"{name}: must be an object")
        return default
    allowed = {f.name for f in dataclass_fields(cls)}
    clean = {}
    bad = False
    for key, value in raw.items():
        if key not in allowed:
            errors.append(f"{name}: unknown field {key!r}")
            bad = True
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{name}.{key}: must be a number")
            bad = True
        else:
            clean[key] = float(value)
    if bad:
        return default
    try:
        return replace(default, **clean)
    except ValueError as exc:
        errors.append(f"{name}: {exc}")
        return default
