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
from collections.abc import Iterable, Mapping
from dataclasses import (asdict, dataclass, field,
                         fields as dataclass_fields, replace)
from operator import attrgetter
from pathlib import Path
from typing import Any

from .control import (DEFAULT_K_P, DEFAULT_MAX_STEPS, DEFAULT_PID_PROFILE,
                      DEFAULT_TOLERANCE_MG, DispensingController,
                      PidBaselineController, PidGains, TrialStatus)
from .flow import GRAVITY, VIBRATION, PowderSpec, ValveKinematics
from .identify import (MIN_OBSERVABLE_MG, Observation, fit_coefficient,
                       select_mode)
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
    """Resolved benchmark configuration; every config rule lives here.

    Construction, from JSON, Python or dataclasses.replace, checks every
    field and raises one ConfigError listing each problem under its JSON
    name. It normalises a single powder or controller name to a one-tuple,
    an alias to its controller, and targets, tolerance and k_p to floats.
    With direct-pid among the controllers, pid_gains.t_pose_fixed_s must
    lie in the kinematics dwell range.

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
    powder_overrides: Mapping[str, Mapping[str, float]] = field(
        default_factory=dict)
    seed: int = 7
    out_dir: str = "artifacts"

    def __post_init__(self) -> None:
        errors: list[str] = []
        powders = _names(self.powders, "powder", errors)
        errors.extend(f"powder: unknown archetype {name!r}"
                      for name in powders if name not in ARCHETYPES)
        names = _names(self.controllers, "controller", errors)
        errors.extend(f"controller: must be one of "
                      f"{sorted(CONTROLLER_ALIASES)}, got {name!r}"
                      for name in names if name not in CONTROLLER_ALIASES)
        controllers = [CONTROLLER_ALIASES[name] for name in names
                       if name in CONTROLLER_ALIASES]
        for what, listed in (("powder", powders),
                             ("controller", controllers)):
            errors.extend(f"{what}: {name!r} is listed more than once"
                          for name in sorted({n for n in listed
                                              if listed.count(n) > 1}))

        targets: list[float] = []
        if not isinstance(self.targets_mg, (list, tuple)) \
                or not self.targets_mg:
            errors.append("targets_mg: must be a non-empty list of masses")
        else:
            for t in self.targets_mg:
                if _finite(t) and t > 0:
                    targets.append(float(t))
                else:
                    errors.append(f"targets_mg: entries must be positive "
                                  f"finite numbers, got {t!r}")
            errors.extend(_target_collisions(targets))

        for name in ("trials", "max_steps"):
            if not _is_count(getattr(self, name), 1):
                errors.append(f"{name}: must be an integer >= 1")
        if not _finite(self.tolerance_mg):
            errors.append("tolerance_mg: must be a finite number")
        elif self.tolerance_mg <= 0:
            errors.append("tolerance_mg: must be > 0")

        k_p = self.k_p
        if isinstance(k_p, Mapping):
            gains = {}
            for name, value in k_p.items():
                if name not in ARCHETYPES:
                    errors.append(f"k_p: unknown powder {name!r}")
                if _finite(value) and 0 < value <= 1:
                    gains[name] = float(value)
                else:
                    errors.append(f"k_p[{name!r}]: must be in (0, 1]")
            k_p = gains
        elif _finite(k_p) and 0 < k_p <= 1:
            k_p = float(k_p)
        else:
            errors.append("k_p: must be in (0, 1]")

        pid, kin = self.pid_gains, self.kinematics
        wrong = [f"{name}: must be a {kind.__name__}"
                 for value, name, kind in (
                     (pid, "pid_gains", PidGains),
                     (kin, "kinematics", ValveKinematics),
                     (self.balance, "plant.balance", BalanceModel))
                 if not isinstance(value, kind)]
        errors.extend(wrong)
        if DIRECT_PID in controllers and not wrong and not (
                kin.t_pose_min <= pid.t_pose_fixed_s <= kin.t_pose_max):
            errors.append(
                f"pid_gains.t_pose_fixed_s: {pid.t_pose_fixed_s:g} s is "
                f"outside the kinematics dwell range "
                f"[{kin.t_pose_min:g}, {kin.t_pose_max:g}] s")
        overrides = _powder_overrides(self.powder_overrides, errors)

        if not (_is_count(self.seed, 0) and self.seed < 2 ** 64):
            errors.append("seed: must be an unsigned 64-bit integer")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            errors.append("out_dir: must be a non-empty string")
        if errors:
            raise ConfigError(errors)
        for name, value in (("powders", tuple(powders)),
                            ("controllers", tuple(controllers)),
                            ("targets_mg", tuple(targets)),
                            ("tolerance_mg", float(self.tolerance_mg)),
                            ("k_p", k_p), ("powder_overrides", overrides)):
            object.__setattr__(self, name, value)

    def k_p_for(self, powder: str) -> float:
        if isinstance(self.k_p, Mapping):
            return self.k_p.get(powder, DEFAULT_K_P)
        return self.k_p

    def powder_spec(self, powder: str) -> PowderSpec:
        return archetype(powder, **self.powder_overrides.get(powder, {}))

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

    The overrides replace the config's lists, under the config's rules;
    the config must then pin exactly one powder, controller and target.
    """
    overrides = {name: (value,) for name, value in (
        ("powders", powder), ("controllers", controller),
        ("targets_mg", target_mg)) if value is not None}
    config = replace(config, **overrides)
    conditions = config.conditions()
    if len(conditions) != 1:
        raise ConfigError([f"run_trial needs exactly one condition, config "
                           f"names {len(conditions)}"])
    if not _is_count(trial_index, 0):
        raise ConfigError([f"trial_index: must be an integer >= 0, "
                           f"got {trial_index!r}"])
    ((powder, controller_name, target),) = conditions
    spec = config.powder_spec(powder)
    kin = config.kinematics
    plant = build_plant(config, powder, controller_name, target, trial_index)
    if controller_name == MODEL_BASED:
        ctl: DispensingController | PidBaselineController = \
            DispensingController(
                target, kin, k_p=config.k_p_for(powder),
                tolerance=config.tolerance_mg, max_steps=config.max_steps)
    else:
        ctl = PidBaselineController(
            target, kin, gains=config.pid_gains,
            vibration=_needs_vibration(spec, kin),
            tolerance=config.tolerance_mg, max_steps=config.max_steps)
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
            selected = select_mode(observations, mode)
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


# JSON key -> ExperimentConfig field, but for the three sections
_JSON_FIELDS = {"powder": "powders", "controller": "controllers",
                "targets_mg": "targets_mg", "trials": "trials",
                "tolerance_mg": "tolerance_mg", "max_steps": "max_steps",
                "k_p": "k_p", "seed": "seed", "out_dir": "out_dir"}


def config_from_dict(data: Any) -> ExperimentConfig:
    """Map a JSON config onto ExperimentConfig, which checks its values.

    Keys are the fields but for powder, controller, plant.balance and
    plant.powders (powder_overrides); a key left out takes the field's
    default. Unknown keys at any level are errors, raised in one
    ConfigError with every problem the config's own rules find.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(["config root must be a JSON object"])
    errors = [f"unknown key {key!r}" for key in data if key not in
              (*_JSON_FIELDS, "pid_gains", "kinematics", "plant")]
    fields = {_JSON_FIELDS[key]: value for key, value in data.items()
              if key in _JSON_FIELDS}
    plant = data.get("plant", {})
    if not isinstance(plant, Mapping):
        errors.append("plant: must be an object")
        plant = {}
    errors.extend(f"plant: unknown key {key!r}" for key in plant
                  if key not in ("balance", "powders"))
    if "powders" in plant:
        fields["powder_overrides"] = plant["powders"]
    for name, path, raw in (
            ("pid_gains", "pid_gains", data.get("pid_gains", {})),
            ("kinematics", "kinematics", data.get("kinematics", {})),
            ("balance", "plant.balance", plant.get("balance", {}))):
        fields[name] = _build(raw, name, path, errors)
    try:
        config = ExperimentConfig(**fields)
    except ConfigError as exc:
        errors.extend(exc.errors)
    if errors:
        raise ConfigError(errors)
    return config


def resolve_out_dir(config: ExperimentConfig,
                    cli_out: str | None = None) -> str:
    """Output directory precedence: CLI flag, then environment, then config."""
    if cli_out:
        return cli_out
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return env
    return config.out_dir


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


def _names(value: Any, what: str, errors: list[str]) -> list[str]:
    """A name or a non-empty list of names, as a list."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple)) and value \
            and all(isinstance(v, str) for v in value):
        return list(value)
    errors.append(f"{what}: must be a name or non-empty list of names")
    return []


def _is_count(value: Any, minimum: int) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value: Any) -> bool:
    try:  # an int too large for a float overflows
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


_SPEC_FIELDS = {f.name for f in dataclass_fields(PowderSpec)} - {"name"}


def _powder_overrides(raw: Any, errors: list[str]) -> dict:
    """plant.powders' non-empty patches, each tried on its archetype."""
    if not isinstance(raw, Mapping):
        errors.append("plant.powders: must be an object")
        return {}
    overrides = {}
    for name, patch in raw.items():
        where = f"plant.powders[{name!r}]"
        if name not in ARCHETYPES:
            errors.append(f"plant.powders: unknown powder {name!r}")
            continue
        if not isinstance(patch, Mapping):
            errors.append(f"{where}: must be an object")
            continue
        clean = {}
        for key, value in patch.items():
            if key not in _SPEC_FIELDS:
                errors.append(f"{where}: unknown field {key!r}")
            elif not _is_number(value):
                errors.append(f"{where}.{key}: must be a number")
            else:
                clean[key] = value
        if clean:
            try:
                archetype(name, **clean)
            except (ValueError, OverflowError) as exc:
                errors.append(f"{where}: {exc}")
            overrides[name] = clean
    return overrides


def _build(raw: Any, field_name: str, path: str, errors: list[str]):
    """The field's default with raw's fields replaced; on a problem, as is."""
    default = getattr(ExperimentConfig, field_name)  # a plain field default
    if not isinstance(raw, Mapping):
        errors.append(f"{path}: must be an object")
        return default
    allowed = {f.name for f in dataclass_fields(default)}
    found = len(errors)
    for key, value in raw.items():
        if key not in allowed:
            errors.append(f"{path}: unknown field {key!r}")
        elif not _is_number(value):
            errors.append(f"{path}.{key}: must be a number")
    if len(errors) > found:
        return default
    try:
        return replace(default, **{k: float(v) for k, v in raw.items()})
    except (ValueError, OverflowError) as exc:
        errors.append(f"{path}: {exc}")
        return default
