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
so (D_o - k*d)**2.5 = kappa**2.5 * (L - L0)**2.5 with the offset
L0 = k * d / kappa in command units, and the mass of a single dispense
step collapses to

    W_drop = C' * max(L - L0, 0)**2.5 * (T(L) + t_pose)     [mg]

with a single lumped coefficient C' that absorbs C, rho_b, sqrt(g) and
kappa**2.5 (and, when vibration is active, the vibration gain). T(L) is the
time the valve spends travelling to the commanded opening. This is the
plant's own drop, arching aside: the controller, its log and the pooled
refit model the discharge the plant computes. The drop is C' times one
quantity, the regressor x = max(L - L0, 0)**2.5 * (T(L) + t_pose), and
drop_regressor() is its one definition: identify's regressors and
control's action table all take x from it, so every prediction is the
product C' * x and the fit identifies C' against the same x. Each powder's
L0 comes with its identify.Rig, which ExperimentConfig.rig builds;
predicted_drop and a bare ValveKinematics read L0 as 0, the pure power
law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

G_MM_S2 = 9810.0

GRAVITY = "gravity"
VIBRATION = "vibration"
MODES = (GRAVITY, VIBRATION)


def check_fields(owner: object, sign: str | None, *names: str) -> None:
    """Raise ValueError unless each named field of owner is finite and,
    for sign "> 0" or ">= 0", on that side of zero (None: finite only).
    The message names the field as Class.field."""
    for name in names:
        value = getattr(owner, name)
        if not math.isfinite(value) or (
                value <= 0 if sign == "> 0" else sign == ">= 0" and value < 0):
            rule = f"finite and {sign}" if sign else "finite"
            raise ValueError(f"{type(owner).__name__}.{name} must be {rule}, "
                             f"got {value!r}")


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
        check_fields(self, "> 0", "bulk_density", "initial_load")
        check_fields(self, ">= 0", "particle_diameter", "flow_coefficient",
                     "particle_correction", "critical_arch_diameter",
                     "vibration_gain", "flow_noise_sigma")


@dataclass(frozen=True)
class ValveKinematics:
    """Geometry and motion limits of the dispensing valve.

    opening_per_command: orifice mm opened per command unit (kappa).
    travel_rate: command units traversed per second, so T(L) = L / travel_rate.
    Command and dwell bounds delimit the action space; dwell t_pose is the
    hold time at the commanded opening before closing again. check() is
    the one test of an action against that envelope.
    """

    opening_per_command: float = 0.05
    travel_rate: float = 100.0
    l_min: float = 0.0
    l_max: float = 210.0
    t_pose_min: float = 0.0
    t_pose_max: float = 20.0

    def __post_init__(self) -> None:
        check_fields(self, "> 0", "opening_per_command", "travel_rate")
        check_fields(self, ">= 0", "l_min", "t_pose_min")
        check_fields(self, None, "l_max", "t_pose_max")
        for low, high in (("l_min", "l_max"), ("t_pose_min", "t_pose_max")):
            if getattr(self, high) <= getattr(self, low):
                raise ValueError(f"ValveKinematics.{high} must be > {low}, "
                                 f"got {getattr(self, high)!r}")

    def check(self, l_command: float, t_pose_s: float) -> None:
        """Raise ValueError unless l_command lies in [l_min, l_max] and the
        dwell in [t_pose_min, t_pose_max]. NaN and +-inf fail the range
        test like any other value outside it."""
        if not (self.l_min <= l_command <= self.l_max
                and self.t_pose_min <= t_pose_s <= self.t_pose_max):
            raise ValueError(
                f"action L={l_command!r}, t_pose_s={t_pose_s!r} is outside "
                f"the valve envelope L in [{self.l_min}, {self.l_max}], "
                f"t_pose_s in [{self.t_pose_min}, {self.t_pose_max}]")


@dataclass(frozen=True)
class DispenseModel:
    """Lumped one-parameter drop model: W = coefficient * L**2.5 * duration.

    coefficient has units mg * s^-1 * (command unit)^-2.5. Gravity and
    vibration use the same functional form with separate coefficients.
    """

    coefficient: float

    def __post_init__(self) -> None:
        check_fields(self, ">= 0", "coefficient")


def beverloo_rate(spec: PowderSpec, orifice_diameter: float) -> float:
    """Steady discharge rate in mg/s through an orifice of the given diameter.

    Returns 0 when the particle-corrected opening is not positive. Raises
    ValueError for a negative or non-finite diameter.
    """
    if not (math.isfinite(orifice_diameter) and orifice_diameter >= 0):
        raise ValueError(f"beverloo_rate needs a finite orifice_diameter "
                         f">= 0, got {orifice_diameter!r}")
    return beverloo_discharge(
        spec.flow_coefficient * spec.bulk_density * math.sqrt(G_MM_S2),
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


def drop_regressor(kin: ValveKinematics, l_command: float,
                   t_pose_s: float, l_offset: float = 0.0) -> float:
    """The drop model's regressor x = max(L - L0, 0)**2.5 * (T(L) + t_pose)
    with L0 = l_offset, without checks; every prediction is C' * x. At
    L0 = 0 it is L**2.5 * (T(L) + t_pose) bit for bit, since L - 0.0 is L."""
    opening = l_command - l_offset
    if opening <= 0.0:
        return 0.0
    return opening ** 2.5 * (l_command / kin.travel_rate + t_pose_s)


def predicted_drop(model: DispenseModel, kin: ValveKinematics,
                   l_command: float, t_pose_s: float) -> float:
    """Predicted dispensed mass in mg for one open-dwell-close cycle.

    The dispensing window is the valve travel time plus the dwell. Commands
    and dwells outside the kinematic bounds are rejected.
    """
    kin.check(l_command, t_pose_s)
    return model.coefficient * drop_regressor(kin, l_command, t_pose_s)


def effective_coefficient(spec: PowderSpec, kin: ValveKinematics,
                          vibration: bool = False) -> float:
    """Lumped command-unit coefficient implied by the plant parameters.

    Exact for the drop model with the powder's offset L0 = k*d / kappa,
    the model the controller and the pooled refit identify, so their C'
    estimates this value. Against the pure power law (L0 = 0, as
    predicted_drop computes it) it is exact only when the particle
    correction term k*d vanishes; otherwise the plant discharge falls
    below that law at small openings.
    """
    gain = spec.vibration_gain if vibration else 1.0
    return (gain * spec.flow_coefficient * spec.bulk_density
            * math.sqrt(G_MM_S2) * kin.opening_per_command ** 2.5)

