"""Experiment configuration: every config rule, the JSON form and its I/O.

An ExperimentConfig checks itself on construction, from JSON, Python or
dataclasses.replace alike; config_from_dict maps the JSON form onto it and
config_to_dict writes it back. The validation helpers here (is_count,
finite) are the one copy of the integer and finite-number rules, which
the artifact checks use too.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import (asdict, dataclass, field,
                         fields as dataclass_fields, replace)
from pathlib import Path
from typing import Any

from .control import (DEFAULT_K_P, DEFAULT_MAX_STEPS, DEFAULT_TOLERANCE_MG,
                      PidGains)
from .flow import PowderSpec, ValveKinematics
from .plant import BalanceModel
from .powders import ARCHETYPES, archetype

MODEL_BASED = "model-based"
DIRECT_PID = "direct-pid"
CONTROLLER_ALIASES = {
    "model": MODEL_BASED, "model-based": MODEL_BASED,
    "pid": DIRECT_PID, "direct-pid": DIRECT_PID,
}

OUT_DIR_ENV = "POWDERDOSE_OUT"

# The least-squares fits square reading differences, and a float square
# overflows past about 1.3e154. A normal draw stays under 14, so with this
# bound a sum of even 1e9 squared differences stays far below the limit.
_MAX_NOISE_SIGMA_MG = 1e100


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
    override values to floats.
    With direct-pid among the controllers, pid_gains.t_pose_fixed_s must
    lie in the kinematics dwell range.

    k_p may be a single gain or a per-powder mapping; k_p_for() resolves it.
    powder_overrides patches archetype fields per powder before a trial
    builds its plant, under the same rule as a JSON section (_patch).
    """

    powders: tuple[str, ...] = tuple(ARCHETYPES)
    controllers: tuple[str, ...] = (MODEL_BASED,)
    targets_mg: tuple[float, ...] = (20.0, 50.0, 500.0, 3000.0)
    trials: int = 10
    tolerance_mg: float = DEFAULT_TOLERANCE_MG
    max_steps: int = DEFAULT_MAX_STEPS
    k_p: float | Mapping[str, float] = DEFAULT_K_P
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
                if finite(t) and t > 0:
                    targets.append(float(t))
                else:
                    errors.append(f"targets_mg: entries must be positive "
                                  f"finite numbers, got {t!r}")
            errors.extend(_target_collisions(targets))

        for name in ("trials", "max_steps"):
            if not is_count(getattr(self, name), 1):
                errors.append(f"{name}: must be an integer >= 1")
        if not finite(self.tolerance_mg):
            errors.append("tolerance_mg: must be a finite number")
        elif self.tolerance_mg <= 0:
            errors.append("tolerance_mg: must be > 0")

        k_p = self.k_p
        if isinstance(k_p, Mapping):
            gains = {}
            for name, value in k_p.items():
                if name not in ARCHETYPES:
                    errors.append(f"k_p: unknown powder {name!r}")
                if finite(value) and 0 < value <= 1:
                    gains[name] = float(value)
                else:
                    errors.append(f"k_p[{name!r}]: must be in (0, 1]")
            k_p = gains
        elif finite(k_p) and 0 < k_p <= 1:
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
        if isinstance(self.balance, BalanceModel) \
                and self.balance.noise_sigma > _MAX_NOISE_SIGMA_MG:
            errors.append(
                f"plant.balance.noise_sigma: must be <= "
                f"{_MAX_NOISE_SIGMA_MG:g} mg, got "
                f"{self.balance.noise_sigma:g}; the fits square reading "
                f"differences, and those squares overflow near 1e154 mg")
        overrides = {}
        if isinstance(self.powder_overrides, Mapping):
            for name, raw in self.powder_overrides.items():
                if name not in ARCHETYPES:
                    errors.append(f"plant.powders: unknown powder {name!r}")
                elif patch := _patch(ARCHETYPES[name], raw,
                                     f"plant.powders[{name!r}]", errors):
                    overrides[name] = patch
        else:
            errors.append("plant.powders: must be an object")

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


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file. Raises ConfigError."""
    try:
        with Path(path).open(encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config is not UTF-8 text: {exc}"])
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


def _names(value: Any, what: str, errors: list[str]) -> list[str]:
    """A name or a non-empty list of names, as a list."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple)) and value \
            and all(isinstance(v, str) for v in value):
        return list(value)
    errors.append(f"{what}: must be a name or non-empty list of names")
    return []


def is_count(value: Any, minimum: int) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


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
            errors.append(f"{path}: unknown field {key!r}")
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
