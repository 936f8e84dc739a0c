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
fit_coefficient works on stored Observation lists for the pooled report
fits, with R^2 in the exact two-pass form. It computes each
observation's regressor once and hands the same values, in the same
order, to the R^2 pass, so C' and R^2 are bit for bit those of computing
it in each pass. Every regressor, the log's included, comes
from regressor(), which first puts the action through
ValveKinematics.check: an action outside the valve envelope is a
ValueError, never a data point.

Deltas below the balance's reliable range (MIN_OBSERVABLE_MG, 0.5 mg) are
discarded before they reach the log, so noise-level readings never steer
the fit. A mode is fitted exactly when its c_prime is not None. Every
regressor and every stored delta is >= 0, so C' is >= 0 by construction.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from .flow import GRAVITY, MODES, VIBRATION, ValveKinematics

MIN_OBSERVABLE_MG = 0.5


@dataclass(frozen=True)
class Observation:
    """One accepted dispensing measurement."""

    l_command: float
    t_pose_s: float
    vibration: bool
    delta_w_mg: float

    def __post_init__(self) -> None:
        # inline: built per pooled row; check_fields adds 0.3 us (Xeon, timeit)
        if not math.isfinite(self.delta_w_mg) or self.delta_w_mg < 0:
            raise ValueError(f"Observation.delta_w_mg must be finite and "
                             f">= 0, got {self.delta_w_mg!r}")


def select_mode(observations: Iterable[Observation],
                mode: str) -> list[Observation]:
    """The observations taken in the given flow mode, in order."""
    vibration = mode == VIBRATION
    return [o for o in observations if o.vibration == vibration]


@dataclass(frozen=True)
class ModeFit:
    """Fit state for one flow mode. c_prime is None while unfitted and
    a finite C' >= 0 once fitted."""

    c_prime: float | None = None
    n_obs: int = 0
    r_squared: float | None = None

    def __post_init__(self) -> None:
        # inline: built every refit; check_fields adds 0.16 us (Xeon, timeit)
        if self.c_prime is not None and not (math.isfinite(self.c_prime)
                                             and self.c_prime >= 0):
            raise ValueError("ModeFit.c_prime must be finite and >= 0")


@dataclass(frozen=True)
class CoefficientEstimate:
    """Per-mode coefficient estimates as of some controller step."""

    gravity: ModeFit = field(default_factory=ModeFit)
    vibration: ModeFit = field(default_factory=ModeFit)


def regressor(kin: ValveKinematics, l_command: float, t_pose_s: float) -> float:
    """x = L**2.5 * (T(L) + t_pose), the model's per-step regressor, for
    an action inside the valve envelope."""
    kin.check(l_command, t_pose_s)
    return l_command ** 2.5 * (l_command / kin.travel_rate + t_pose_s)


def fit_coefficient(observations: list[Observation], kin: ValveKinematics,
                    mode: str) -> ModeFit:
    """Least-squares coefficient through the origin for one mode.

    Only observations matching the requested mode enter the fit. An empty
    selection, or one whose regressors are all zero, returns an unfitted
    ModeFit.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    selected = select_mode(observations, mode)
    xs = [regressor(kin, obs.l_command, obs.t_pose_s) for obs in selected]
    num = 0.0
    den = 0.0
    for obs, x in zip(selected, xs):
        num += x * obs.delta_w_mg
        den += x * x
    fit = _fit_from_sums(len(selected), num, den)
    if fit.c_prime is None:
        return fit
    return replace(fit, r_squared=_r_squared(selected, xs, fit.c_prime))


def _fit_from_sums(n: int, sxy: float, sxx: float) -> ModeFit:
    """C' = sxy / sxx; unfitted while sxx is zero."""
    if sxx == 0.0:
        return ModeFit()
    return ModeFit(c_prime=sxy / sxx, n_obs=n)


def _r_squared(observations: list[Observation], xs: list[float],
               c_prime: float) -> float | None:
    """Coefficient of determination of c_prime against the observations,
    whose regressors xs are given in the same order.

    Needs at least two observations, otherwise None. With zero total
    variance the value is 1.0 when the residuals are all zero and None
    (undefined) when they are not.
    """
    if len(observations) < 2:
        return None
    mean = sum(o.delta_w_mg for o in observations) / len(observations)
    ss_tot = sum((o.delta_w_mg - mean) ** 2 for o in observations)
    ss_res = sum((o.delta_w_mg - c_prime * x) ** 2
                 for o, x in zip(observations, xs))
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
    drops a delta below MIN_OBSERVABLE_MG and reports whether it was kept;
    a kept one must come from an action inside the valve envelope, and its
    regressor and delta go straight into that mode's sums. fit() turns the
    sums into a ModeFit in O(1), with the same C' and n as fit_coefficient
    over the same observations, and no R^2.
    """

    def __init__(self, kin: ValveKinematics) -> None:
        self._kin = kin
        self._sums = {GRAVITY: _ModeSums(), VIBRATION: _ModeSums()}

    def record(self, l_command: float, t_pose_s: float, vibration: bool,
               delta_w_mg: float) -> bool:
        """Add one measured delta if it clears the observable threshold."""
        if not math.isfinite(delta_w_mg):
            raise ValueError("delta_w_mg must be finite")
        if delta_w_mg < MIN_OBSERVABLE_MG:
            return False
        x = regressor(self._kin, l_command, t_pose_s)
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
