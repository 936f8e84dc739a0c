"""Hopper discharge model and valve geometry.

Units throughout the package: mass in mg, length in mm, time in s.
Gravitational acceleration is therefore 9810 mm/s^2.

The steady discharge rate of granular material through a circular orifice
follows the Beverloo correlation

    Q = C * rho_b * sqrt(g) * (D_o - k * d)**2.5        [mg/s]

where D_o is the orifice diameter, d the particle diameter, C an empirical
flow coefficient and k the particle-size correction. The rate is zero when
the corrected opening (D_o - k*d) is not positive.

The dispensing controller works in valve command units L rather than
millimetres. The valve opens the orifice proportionally, D_o = kappa * L,
so the predicted mass of a single dispense step collapses to

    W_drop = C' * L**2.5 * (T(L) + t_pose)              [mg]

with a single lumped coefficient C' that absorbs C, rho_b, sqrt(g) and
kappa**2.5 (and, when vibration is active, the vibration gain). T(L) is the
time the valve spends travelling to the commanded opening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

G_MM_S2 = 9810.0

GRAVITY = "gravity"
VIBRATION = "vibration"
MODES = (GRAVITY, VIBRATION)


@dataclass(frozen=True)
class PowderSpec:
    """Physical description of one powder as seen by the plant.

    bulk_density mg/mm^3, particle_diameter mm, critical_arch_diameter mm,
    initial_load mg. flow_coefficient and particle_correction are the
    dimensionless Beverloo C and k. vibration_gain multiplies the discharge
    rate while the vibration motor runs (vibration also defeats arching).
    flow_noise_sigma is the relative sigma of the per-step flow disturbance.
    """

    name: str
    bulk_density: float
    particle_diameter: float
    flow_coefficient: float = 0.58
    particle_correction: float = 1.4
    critical_arch_diameter: float = 0.0
    vibration_gain: float = 1.0
    flow_noise_sigma: float = 0.0
    initial_load: float = 5000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("PowderSpec.name must be non-empty")
        _require_finite("bulk_density", self.bulk_density)
        if self.bulk_density <= 0:
            raise ValueError("PowderSpec.bulk_density must be > 0")
        _require_finite("particle_diameter", self.particle_diameter)
        if self.particle_diameter < 0:
            raise ValueError("PowderSpec.particle_diameter must be >= 0")
        for field in ("flow_coefficient", "particle_correction",
                      "critical_arch_diameter", "vibration_gain",
                      "flow_noise_sigma"):
            value = getattr(self, field)
            _require_finite(field, value)
            if value < 0:
                raise ValueError(f"PowderSpec.{field} must be >= 0")
        _require_finite("initial_load", self.initial_load)
        if self.initial_load <= 0:
            raise ValueError("PowderSpec.initial_load must be > 0")


@dataclass(frozen=True)
class ValveKinematics:
    """Geometry and motion limits of the dispensing valve.

    opening_per_command: orifice mm opened per command unit (kappa).
    travel_rate: command units traversed per second, so T(L) = L / travel_rate.
    Command and dwell bounds delimit the action space; dwell t_pose is the
    hold time at the commanded opening before closing again.
    """

    opening_per_command: float = 0.05
    travel_rate: float = 100.0
    l_min: float = 0.0
    l_max: float = 210.0
    t_pose_min: float = 0.0
    t_pose_max: float = 20.0

    def __post_init__(self) -> None:
        _require_finite("opening_per_command", self.opening_per_command)
        if self.opening_per_command <= 0:
            raise ValueError("ValveKinematics.opening_per_command must be > 0")
        _require_finite("travel_rate", self.travel_rate)
        if self.travel_rate <= 0:
            raise ValueError("ValveKinematics.travel_rate must be > 0")
        for field in ("l_min", "l_max", "t_pose_min", "t_pose_max"):
            _require_finite(field, getattr(self, field))
        if not 0 <= self.l_min < self.l_max:
            raise ValueError("ValveKinematics requires 0 <= l_min < l_max")
        if not 0 <= self.t_pose_min < self.t_pose_max:
            raise ValueError(
                "ValveKinematics requires 0 <= t_pose_min < t_pose_max")


@dataclass(frozen=True)
class DispenseModel:
    """Lumped one-parameter drop model: W = coefficient * L**2.5 * duration.

    coefficient has units mg * s^-1 * (command unit)^-2.5. Gravity and
    vibration use the same functional form with separate coefficients.
    """

    coefficient: float

    def __post_init__(self) -> None:
        _require_finite("coefficient", self.coefficient)
        if self.coefficient < 0:
            raise ValueError("DispenseModel.coefficient must be >= 0")


def beverloo_rate(spec: PowderSpec, orifice_diameter: float,
                  g: float = G_MM_S2) -> float:
    """Steady discharge rate in mg/s through an orifice of the given diameter.

    Returns 0 when the particle-corrected opening is not positive. Raises
    ValueError for a negative or non-finite diameter or non-positive g.
    """
    _require_finite("orifice_diameter", orifice_diameter)
    if orifice_diameter < 0:
        raise ValueError("orifice_diameter must be >= 0")
    _require_finite("g", g)
    if g <= 0:
        raise ValueError("g must be > 0")
    return beverloo_discharge(
        spec.flow_coefficient * spec.bulk_density * math.sqrt(g),
        spec.particle_correction * spec.particle_diameter, orifice_diameter)


def beverloo_discharge(scale: float, offset: float,
                       orifice_diameter: float) -> float:
    """The Beverloo formula from its factors, without checks.

    scale is C * rho_b * sqrt(g) and offset is k * d; a caller that checked
    its inputs once computes both once. Returns 0 when the corrected
    opening orifice_diameter - offset is not positive.
    """
    effective = orifice_diameter - offset
    if effective <= 0:
        return 0.0
    return scale * effective ** 2.5


def travel_time(kin: ValveKinematics, l_command: float) -> float:
    """Seconds the valve needs to travel from closed to the commanded opening."""
    _require_finite("l_command", l_command)
    if l_command < 0:
        raise ValueError("l_command must be >= 0")
    if l_command > kin.l_max:
        raise ValueError(f"l_command {l_command} exceeds l_max {kin.l_max}")
    return l_command / kin.travel_rate


def predicted_drop(model: DispenseModel, kin: ValveKinematics,
                   l_command: float, t_pose_s: float) -> float:
    """Predicted dispensed mass in mg for one open-dwell-close cycle.

    The dispensing window is the valve travel time plus the dwell. Commands
    and dwells outside the kinematic bounds are rejected.
    """
    _require_finite("l_command", l_command)
    _require_finite("t_pose_s", t_pose_s)
    if not kin.l_min <= l_command <= kin.l_max:
        raise ValueError(
            f"l_command {l_command} outside [{kin.l_min}, {kin.l_max}]")
    if not kin.t_pose_min <= t_pose_s <= kin.t_pose_max:
        raise ValueError(
            f"t_pose_s {t_pose_s} outside [{kin.t_pose_min}, {kin.t_pose_max}]")
    return (model.coefficient * l_command ** 2.5) * (
        travel_time(kin, l_command) + t_pose_s)


def effective_coefficient(spec: PowderSpec, kin: ValveKinematics,
                          vibration: bool = False, g: float = G_MM_S2) -> float:
    """Lumped command-unit coefficient implied by the plant parameters.

    Exact only when the particle correction term k*d vanishes; otherwise the
    plant discharge deviates from the pure power law at small openings and
    the identified coefficient will differ.
    """
    gain = spec.vibration_gain if vibration else 1.0
    return (gain * spec.flow_coefficient * spec.bulk_density
            * math.sqrt(g) * kin.opening_per_command ** 2.5)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
