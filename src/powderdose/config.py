"""Experiment configuration: every config rule, the JSON form and its I/O.

An ExperimentConfig checks itself on construction, from JSON, Python or
dataclasses.replace alike; config_from_dict maps the JSON form onto it and
config_to_dict writes it back. The validation helpers here (is_count,
is_run_count, finite) are the one copy of the integer and finite-number
rules, and shown the one rule for how much of an outside value an error
message echoes; the artifact checks use them too.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from collections.abc import Callable, Mapping
from dataclasses import (asdict, dataclass, field,
                         fields as dataclass_fields, replace)
from pathlib import Path
from typing import Any

from .control import (DEFAULT_K_P, DEFAULT_MAX_STEPS, DEFAULT_TOLERANCE_MG,
                      ActionGrid, PidGains)
from .flow import PowderSpec, ValveKinematics
from .identify import Rig
from .plant import BalanceModel
from .powders import ARCHETYPES, archetype

MODEL_BASED = "model-based"
DIRECT_PID = "direct-pid"
CONTROLLER_ALIASES = {
    "model": MODEL_BASED, "model-based": MODEL_BASED,
    "pid": DIRECT_PID, "direct-pid": DIRECT_PID,
}

OUT_DIR_ENV = "POWDERDOSE_OUT"

# A suite keeps every executed step's row in memory until it returns,
# about 453 bytes a step at a trial's end (tracemalloc, CPython 3.11, a
# 200 000-step PID trial). A suite may take at most _MAX_RUN_STEPS steps
# in all, powders x controllers x targets x trials x max_steps: about
# 0.9 GB, and 13-22 s at the benchmark's 6.5-11 us a step. The shipped
# configs take at most 12 000.
_MAX_RUN_STEPS = 2_000_000

# The physical domain of each numeric config field by JSON path, with
# plant.powders fields under plant.powders: (low, high) admits 0 and the
# magnitudes from low to high. Signs and finiteness are the section
# dataclasses' rules. As a suite takes at most n = _MAX_RUN_STEPS = 2e6
# steps, no sum in the package overflows (1.8e308) and no grid regressor
# squares below 2.2e-308:
# - a regressor x = max(L - L0, 0)**2.5 * (L / travel_rate + t_pose) is
#   at most 1e10 * (1e7 + 1e4) = 1e17. Every positive grid command is
#   1e-3 or more (l_min is 0 or at least 1e-3, and l_step is 5), so
#   L / travel_rate >= 1e-9. With L0 = 0 the smallest positive x,
#   L = 1e-3 at t_pose 0 and travel_rate 1e6, is 3e-17, its square
#   1e-33. A command a hair above L0 > 0 is no smaller case than one ulp:
#   when L0 >= L / 2, both are floats of at least 5e-4 > 2**-11, so
#   L - L0 is exact and a multiple of 2**-63 = 1.1e-19, and otherwise it
#   exceeds L / 2. So a positive x is at least 1.1e-19**2.5 * 1e-9 =
#   3.9e-57, its square 1.5e-113, and a command at or below L0 has x = 0,
#   which no ratio or fit divides by;
# - a delta D is at most the load, 28 noise sigmas and one resolution
#   step, about 1e7 mg, so a pooled fit's sums stay under n * x_max**2 =
#   2e40 and n * x_max * D = 2e30, its squared residuals under
#   4 * n**2 * D**2 = 1.6e27, and the online fit's n * D / x_min under
#   5.2e69, its predictions C' * x under 3e80;
# - a cycle, 2 * l_max / travel_rate + t_pose_max and a 14-sigma settle,
#   is at most 2e7 s, so trial-time sums stay under 4e13 s;
# - the PID output |k_p| E + |k_i| integral_limit + 2 |k_d| E stays under
#   1e18 (E = 2e7 mg), its command before the clamp under 1e24;
# - the plant's rate is at most 10 * 100 * 99 * (10 * 1e4)**2.5 * 1e3 =
#   3e20 mg/s before the hopper's clamp, a reading 1e19 ticks.
_DOMAIN: dict[str, tuple[float, float]] = {
    "targets_mg": (0.0, 1e7),
    "tolerance_mg": (0.0, 1e7),
    "pid_gains.k_p": (0.0, 1e6),
    "pid_gains.k_i": (0.0, 1e6),
    "pid_gains.k_d": (0.0, 1e6),
    "pid_gains.output_slope": (0.0, 1e6),
    "pid_gains.t_pose_fixed_s": (0.0, 1e4),
    "pid_gains.integral_limit": (0.0, 1e12),
    "kinematics.opening_per_command": (0.0, 10.0),
    "kinematics.travel_rate": (1e-3, 1e6),
    "kinematics.l_min": (1e-3, 1e4),
    "kinematics.l_max": (1e-3, 1e4),
    "kinematics.t_pose_min": (0.0, 1e4),
    "kinematics.t_pose_max": (0.0, 1e4),
    "plant.balance.resolution": (1e-12, 100.0),
    "plant.balance.noise_sigma": (0.0, 100.0),
    "plant.balance.settle_time_mean": (0.0, 1e4),
    "plant.balance.settle_time_sigma": (0.0, 1e4),
    "plant.powders.bulk_density": (0.0, 100.0),
    "plant.powders.particle_diameter": (0.0, 100.0),
    "plant.powders.flow_coefficient": (0.0, 10.0),
    "plant.powders.particle_correction": (0.0, 10.0),
    "plant.powders.critical_arch_diameter": (0.0, 1e5),
    "plant.powders.vibration_gain": (0.0, 1e3),
    "plant.powders.flow_noise_sigma": (0.0, 10.0),
    "plant.powders.initial_load": (0.0, 1e7),
}


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
    an alias to its controller, and targets, tolerance, k_p and powder
    override values to floats. Every numeric field must lie in its domain
    (_DOMAIN), and a suite may take at most _MAX_RUN_STEPS steps in
    all. With direct-pid among the controllers, t_pose_fixed_s must lie
    in the dwell range; with model-based, the envelope must pass
    ActionGrid.check, the action table's cell cap. No two conditions may
    share a stream key.

    k_p, one gain in (0, 1] for every powder, and tolerance_mg are plain
    numbers that only the controllers read: the stop rule's verdict on
    |W_error| < tolerance_mg is the trial's status, and the summary counts
    those statuses.
    powder_overrides patches archetype fields per powder before a trial
    builds its plant, under the same rule as a JSON section (_patch).
    """

    powders: tuple[str, ...] = tuple(ARCHETYPES)
    controllers: tuple[str, ...] = (MODEL_BASED,)
    targets_mg: tuple[float, ...] = (20.0, 50.0, 500.0, 3000.0)
    trials: int = 10
    tolerance_mg: float = DEFAULT_TOLERANCE_MG
    max_steps: int = DEFAULT_MAX_STEPS
    k_p: float = DEFAULT_K_P
    pid_gains: PidGains = PidGains()
    kinematics: ValveKinematics = ValveKinematics()
    balance: BalanceModel = BalanceModel()
    powder_overrides: Mapping[str, Mapping[str, float]] = field(
        default_factory=dict)
    seed: int = 7
    out_dir: str = "artifacts"

    def __post_init__(self) -> None:
        errors: list[str] = []
        powders = _names(self.powders, "powder", errors)
        errors.extend(f"powder: unknown archetype {shown(name)}"
                      for name in powders if name not in ARCHETYPES)
        names = _names(self.controllers, "controller", errors)
        errors.extend(f"controller: must be one of "
                      f"{sorted(CONTROLLER_ALIASES)}, got {shown(name)}"
                      for name in names if name not in CONTROLLER_ALIASES)
        controllers = [CONTROLLER_ALIASES[name] for name in names
                       if name in CONTROLLER_ALIASES]
        for what, listed in (("powder", powders),
                             ("controller", controllers)):
            errors.extend(f"{what}: {shown(name)} is listed more than once"
                          for name in sorted({n for n in listed
                                              if listed.count(n) > 1}))

        targets: list[float] = []
        if not isinstance(self.targets_mg, (list, tuple)) \
                or not self.targets_mg:
            errors.append("targets_mg: must be a non-empty list of masses")
        else:
            for t in self.targets_mg:
                if finite(t) and t > 0:
                    targets.append(float(t))
                    errors.extend(_outside("", {"targets_mg": t}))
                else:
                    errors.append(f"targets_mg: entries must be positive "
                                  f"finite numbers, got {shown(t)}")
            errors.extend(_target_collisions(targets))
            errors.extend(_stream_collisions(powders, controllers, targets))

        for name in ("trials", "max_steps"):
            if not is_count(getattr(self, name), 1):
                errors.append(f"{name}: must be an integer >= 1")
        if not finite(self.tolerance_mg):
            errors.append("tolerance_mg: must be a finite number")
        elif self.tolerance_mg <= 0:
            errors.append("tolerance_mg: must be > 0")
        else:
            errors.extend(_outside("", {"tolerance_mg": self.tolerance_mg}))
        if is_count(self.trials, 1) and is_count(self.max_steps, 1) \
                and (n := len(powders) * len(controllers) * len(targets)
                     * self.trials * self.max_steps) > _MAX_RUN_STEPS:
            errors.append(f"max_steps: powders x controllers x targets x "
                          f"trials x max_steps is {shown(n, str)}, more than "
                          f"{_MAX_RUN_STEPS}")

        if not (finite(self.k_p) and 0 < self.k_p <= 1):
            errors.append("k_p: must be a number in (0, 1]")

        pid, kin = self.pid_gains, self.kinematics
        sections = (("pid_gains", pid, PidGains),
                    ("kinematics", kin, ValveKinematics),
                    ("plant.balance", self.balance, BalanceModel))
        wrong = [f"{path}: must be a {kind.__name__}"
                 for path, value, kind in sections
                 if not isinstance(value, kind)]
        # asdict, not vars: a read __dict__ doubles the cost of every later
        # attribute load on these objects, which each trial step makes
        outside = [error for path, value, kind in sections
                   if isinstance(value, kind)
                   for error in _outside(path, asdict(value))]
        overrides = {}
        if isinstance(self.powder_overrides, Mapping):
            for name, raw in self.powder_overrides.items():
                if name not in ARCHETYPES:
                    errors.append(f"plant.powders: unknown powder "
                                  f"{shown(name)}")
                elif patch := _patch(ARCHETYPES[name], raw,
                                     f"plant.powders[{name!r}]", errors):
                    overrides[name] = patch
                    outside += _outside("plant.powders", patch,
                                        f"plant.powders[{name!r}]")
        else:
            errors.append("plant.powders: must be an object")
        errors += wrong + outside
        # a value past its domain is one error; these rules would add more
        in_domain = not (wrong or outside)
        if in_domain and DIRECT_PID in controllers and not (
                kin.t_pose_min <= pid.t_pose_fixed_s <= kin.t_pose_max):
            errors.append(
                f"pid_gains.t_pose_fixed_s: {pid.t_pose_fixed_s:g} s is "
                f"outside the kinematics dwell range "
                f"[{kin.t_pose_min:g}, {kin.t_pose_max:g}] s")
        if in_domain and MODEL_BASED in controllers:
            try:
                ActionGrid().check(kin)
            except ValueError as error:
                errors.append(f"kinematics: {error}")

        if not (is_count(self.seed, 0) and self.seed < 2 ** 64):
            errors.append("seed: must be an unsigned 64-bit integer")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            errors.append("out_dir: must be a non-empty string")
        if errors:
            raise ConfigError(errors)
        for name, value in (("powders", tuple(powders)),
                            ("controllers", tuple(controllers)),
                            ("targets_mg", tuple(targets)),
                            ("tolerance_mg", float(self.tolerance_mg)),
                            ("k_p", float(self.k_p)),
                            ("powder_overrides", overrides),
                            ("_rigs", {})):
            object.__setattr__(self, name, value)

    def powder_spec(self, powder: str) -> PowderSpec:
        return archetype(powder, **self.powder_overrides.get(powder, {}))

    def rig(self, powder: str) -> Rig:
        """The Rig of powder's model-based trials: the config's kinematics
        and the powder's Beverloo offset in command units,
        L0 = particle_correction * particle_diameter /
        opening_per_command, the plant's own. The one place a Rig is
        made from a config: run_suite's controllers and the pooled refits
        of run_suite and of report all take it from here. Built once a
        powder, so every trial of a powder hands its controller the same
        Rig, whose action table control._table_for then finds by
        identity."""
        rig = self._rigs.get(powder)
        if rig is None:
            spec = self.powder_spec(powder)
            kin = self.kinematics
            rig = self._rigs[powder] = Rig(
                kin, l_offset=spec.particle_correction
                * spec.particle_diameter / kin.opening_per_command)
        return rig

    def conditions(self) -> list[tuple[str, str, float]]:
        return [(p, c, t) for p in self.powders for c in self.controllers
                for t in self.targets_mg]


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical JSON form of a config; loads back via config_from_dict."""
    return {
        "powder": list(config.powders),
        "controller": list(config.controllers),
        "targets_mg": list(config.targets_mg),
        "trials": config.trials,
        "tolerance_mg": config.tolerance_mg,
        "max_steps": config.max_steps,
        "k_p": config.k_p,
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


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file. Raises ConfigError."""
    try:
        with Path(path).open(encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError([f"cannot read config {shown_path(path)}: "
                           f"{exc.strerror}"])
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config is not UTF-8 text: {exc}"])
    except (ValueError, RecursionError) as exc:
        # ValueError: not JSON, or an integer of more digits than int()
        # takes; RecursionError: arrays or objects nested deeper than the
        # interpreter's recursion limit
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
    errors = [f"unknown key {shown(key)}" for key in data if key not in
              (*_JSON_FIELDS, "pid_gains", "kinematics", "plant")]
    fields = {_JSON_FIELDS[key]: value for key, value in data.items()
              if key in _JSON_FIELDS}
    plant = data.get("plant", {})
    if not isinstance(plant, Mapping):
        errors.append("plant: must be an object")
        plant = {}
    errors.extend(f"plant: unknown key {shown(key)}" for key in plant
                  if key not in ("balance", "powders"))
    if "powders" in plant:
        fields["powder_overrides"] = plant["powders"]
    for name, path, raw in (
            ("pid_gains", "pid_gains", data.get("pid_gains", {})),
            ("kinematics", "kinematics", data.get("kinematics", {})),
            ("balance", "plant.balance", plant.get("balance", {}))):
        default = getattr(ExperimentConfig, name)  # a plain field default
        fields[name] = replace(default, **_patch(default, raw, path, errors))
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


def condition_checksum(powder: str, controller: str,
                       target_mg: float) -> int:
    """The stream key of a condition's trials: the CRC-32 of its text key
    powder/controller/target, the target written f"{target_mg:g}"."""
    return zlib.crc32(f"{powder}/{controller}/{target_mg:g}".encode())


def _stream_collisions(powders: list[str], controllers: list[str],
                       targets: list[float]) -> list[str]:
    """Pairs of conditions whose text keys differ but whose stream keys
    match: their trials would draw the same flow and balance noise.
    Conditions with the same text key are _target_collisions' to report."""
    errors = []
    seen: dict[int, str] = {}
    for powder in powders:
        for controller in controllers:
            for target in targets:
                key = f"{powder}/{controller}/{target:g}"
                checksum = condition_checksum(powder, controller, target)
                first = seen.setdefault(checksum, key)
                if first != key:
                    errors.append(
                        f"conditions {first} and {key} share the stream "
                        f"key {checksum}; their trials would draw the same "
                        f"flow and balance noise")
    return errors


def _outside(section: str, values: Mapping[str, float],
             path: str | None = None) -> list[str]:
    """An error for each field of values outside its _DOMAIN entry under
    section, naming the field under path (default: the section)."""
    errors = []
    for name, value in values.items():
        low, high = _DOMAIN[f"{section}.{name}".lstrip(".")]
        if not (value == 0 or low <= abs(value) <= high):
            rule = f"0 or {low:g} to {high:g}" if low else f"at most {high:g}"
            where = f"{path or section}.{name}".lstrip(".")
            errors.append(f"{where}: must be {rule} in magnitude, "
                          f"got {shown(value)}")
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


# An error message echoes an outside value, a config's or a stored
# summary's, whole up to _SHOWN_CHARS characters, so that no message line
# grows with its input.
_SHOWN_CHARS = 80


def shown(value: Any, form: Callable[[Any], str] = repr) -> str:
    """form(value) as an error message echoes it: whole if it is at most
    _SHOWN_CHARS characters, else its first 60 and its length."""
    text = form(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:60]}... ({len(text)} characters)"


# A path from the command line, or one under it, is echoed whole up to
# _SHOWN_PATH_CHARS characters, which the paths of a temporary directory
# fit, and else by shown()'s rule, so that an OS error's line, which names
# one path, stays within 300 characters.
_SHOWN_PATH_CHARS = 160


def shown_path(path: Any) -> str:
    """str(path) as an error message echoes it: whole if it is at most
    _SHOWN_PATH_CHARS characters, else its first 60 and its length."""
    text = str(path)
    return text if len(text) <= _SHOWN_PATH_CHARS else shown(text, str)


def is_count(value: Any, minimum: int) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


def is_run_count(value: Any) -> bool:
    """A trial index or a trial's step count that a valid suite can hold:
    it runs at most _MAX_RUN_STEPS steps, so neither is larger."""
    return is_count(value, 0) and value <= _MAX_RUN_STEPS


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def finite(value: Any) -> bool:
    try:  # an int too large for a float overflows
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _patch(base: Any, raw: Any, path: str, errors: list[str]) -> dict:
    """raw as a patch of the dataclass instance base, values as floats.

    Each key must name a numeric field of base and hold a number; only
    then is base patched, so that its own rules check the values. Every
    problem goes to errors under path and leaves the patch empty.
    """
    if not isinstance(raw, Mapping):
        errors.append(f"{path}: must be an object")
        return {}
    allowed = {f.name for f in dataclass_fields(base)
               if _is_number(getattr(base, f.name))}
    found = len(errors)
    for key, value in raw.items():
        if key not in allowed:
            errors.append(f"{path}: unknown field {shown(key)}")
        elif not _is_number(value):
            errors.append(f"{path}.{key}: must be a number")
    if len(errors) > found:
        return {}
    try:
        patch = {key: float(value) for key, value in raw.items()}
        replace(base, **patch)
    except (ValueError, OverflowError) as exc:
        errors.append(f"{path}: {exc}")
        return {}
    return patch
