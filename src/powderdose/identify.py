"""Online identification of the lumped drop coefficient.

Each dispensing step yields one observation (L, t_pose, measured delta-W).
With the regressor x = L**2.5 * (T(L) + t_pose), the drop model is linear
through the origin, W = C' * x, and the least-squares estimate over n
observations is

    C' = sum(x_i * dW_i) / sum(x_i**2)

refreshed after every accepted observation. Gravity and vibration
observations are kept strictly apart; each mode carries its own coefficient.

The controller's ObservationLog stores no observations. It is bound to one
ValveKinematics and adds each accepted delta straight into its mode's n,
sum(x*dW) and sum(x**2), in arrival order. That is the order
fit_coefficient sums in, so a refit is O(1) and C' is bit-identical to a
full refit. The controller never reads an R^2, so the log keeps none.
fit_coefficient and r_squared work on stored Observation lists for the
pooled report fits, with R^2 in the exact two-pass form.

Deltas below the balance's reliable range (default 0.5 mg) are discarded
before they reach the log, so noise-level readings never steer the fit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from .flow import GRAVITY, MODES, VIBRATION, ValveKinematics, travel_time

MIN_OBSERVABLE_MG = 0.5


@dataclass(frozen=True)
class Observation:
    """One accepted dispensing measurement."""

    l_command: float
    t_pose_s: float
    vibration: bool
    delta_w_mg: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta_w_mg) or self.delta_w_mg < 0:
            raise ValueError("Observation.delta_w_mg must be finite and >= 0")


def select_mode(observations: Iterable[Observation],
                mode: str) -> list[Observation]:
    """The observations taken in the given flow mode, in order."""
    vibration = mode == VIBRATION
    return [o for o in observations if o.vibration == vibration]


@dataclass(frozen=True)
class ModeFit:
    """Fit state for one flow mode. c_prime is None while unfitted.

    degenerate marks a fit whose raw estimate was negative and got clamped
    to zero; such a model predicts nothing useful and callers should treat
    it like an unfitted mode.
    """

    c_prime: float | None = None
    n_obs: int = 0
    r_squared: float | None = None
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.c_prime is not None and not (math.isfinite(self.c_prime)
                                             and self.c_prime >= 0):
            raise ValueError("ModeFit.c_prime must be finite and >= 0")

    @property
    def usable(self) -> bool:
        return self.c_prime is not None and not self.degenerate


@dataclass(frozen=True)
class CoefficientEstimate:
    """Per-mode coefficient estimates as of some controller step."""

    gravity: ModeFit = field(default_factory=ModeFit)
    vibration: ModeFit = field(default_factory=ModeFit)

    def for_mode(self, mode: str) -> ModeFit:
        if mode == GRAVITY:
            return self.gravity
        if mode == VIBRATION:
            return self.vibration
        raise ValueError(f"mode must be one of {MODES}")

    @property
    def c_prime_gravity(self) -> float | None:
        return self.gravity.c_prime

    @property
    def c_prime_vibration(self) -> float | None:
        return self.vibration.c_prime


def regressor(kin: ValveKinematics, l_command: float, t_pose_s: float) -> float:
    """x = L**2.5 * (T(L) + t_pose), the model's per-step regressor."""
    return l_command ** 2.5 * (travel_time(kin, l_command) + t_pose_s)


def fit_coefficient(observations: list[Observation], kin: ValveKinematics,
                    mode: str) -> ModeFit:
    """Least-squares coefficient through the origin for one mode.

    Only observations matching the requested mode enter the fit. An empty
    selection returns an unfitted ModeFit. A negative raw estimate (possible
    only with pathological inputs, the storage gate keeps deltas positive)
    is clamped to zero and flagged degenerate.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    selected = select_mode(observations, mode)
    num = 0.0
    den = 0.0
    for obs in selected:
        x = regressor(kin, obs.l_command, obs.t_pose_s)
        num += x * obs.delta_w_mg
        den += x * x
    fit = _fit_from_sums(len(selected), num, den)
    if fit.c_prime is None:
        return fit
    return replace(fit, r_squared=r_squared(selected, kin, fit.c_prime))


def _fit_from_sums(n: int, sxy: float, sxx: float) -> ModeFit:
    """C' = sxy / sxx, clamped to zero and flagged degenerate if negative;
    unfitted while sxx is zero."""
    if sxx == 0.0:
        return ModeFit()
    raw = sxy / sxx
    degenerate = raw < 0.0
    return ModeFit(c_prime=0.0 if degenerate else raw, n_obs=n,
                   degenerate=degenerate)


def r_squared(observations: list[Observation], kin: ValveKinematics,
              c_prime: float) -> float | None:
    """Coefficient of determination of c_prime against the observations.

    Needs at least two observations, otherwise None. With zero total
    variance the value is 1.0 when the residuals are all zero and None
    (undefined) when they are not.
    """
    if len(observations) < 2:
        return None
    mean = sum(o.delta_w_mg for o in observations) / len(observations)
    ss_tot = sum((o.delta_w_mg - mean) ** 2 for o in observations)
    ss_res = sum(
        (o.delta_w_mg - c_prime * regressor(kin, o.l_command, o.t_pose_s)) ** 2
        for o in observations)
    if ss_res == 0.0:
        return 1.0
    if ss_tot == 0.0:
        return None
    return 1.0 - ss_res / ss_tot


class _ModeSums:
    """n, sum(x*dW) and sum(x**2) of one mode's accepted observations."""

    __slots__ = ("n", "sxy", "sxx")

    def __init__(self) -> None:
        self.n = 0
        self.sxy = 0.0
        self.sxx = 0.0


class ObservationLog:
    """Per-mode least-squares sums of one trial's accepted observations.

    The log belongs to the ValveKinematics it is built with. record()
    drops a delta below the observability gate and reports whether it was
    kept; a kept one must come from a command inside [0, l_max], and its
    regressor and delta go straight into that mode's sums. fit() turns the
    sums into a ModeFit in O(1), with the same C', n and degenerate flag as
    fit_coefficient over the same observations, and no R^2.
    """

    def __init__(self, kin: ValveKinematics,
                 min_observable: float = MIN_OBSERVABLE_MG) -> None:
        if not math.isfinite(min_observable) or min_observable < 0:
            raise ValueError("min_observable must be finite and >= 0")
        self._kin = kin
        self.min_observable = min_observable
        self._sums = {GRAVITY: _ModeSums(), VIBRATION: _ModeSums()}

    def record(self, l_command: float, t_pose_s: float, vibration: bool,
               delta_w_mg: float) -> bool:
        """Add one measured delta if it clears the observable threshold."""
        if not math.isfinite(delta_w_mg):
            raise ValueError("delta_w_mg must be finite")
        if delta_w_mg < self.min_observable:
            return False
        kin = self._kin
        if not 0.0 <= l_command <= kin.l_max:
            raise ValueError(f"l_command {l_command} outside [0, {kin.l_max}]")
        # regressor() without its per-call checks, same arithmetic
        x = l_command ** 2.5 * (l_command / kin.travel_rate + t_pose_s)
        sums = self._sums[VIBRATION if vibration else GRAVITY]
        sums.n += 1
        sums.sxy += x * delta_w_mg
        sums.sxx += x * x
        return True

    def fit(self, mode: str) -> ModeFit:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        sums = self._sums[mode]
        return _fit_from_sums(sums.n, sums.sxy, sums.sxx)
