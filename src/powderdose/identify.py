"""Online identification of the lumped drop coefficient.

Each dispensing step yields one observation (L, t_pose, measured delta-W).
With the regressor x = max(L - L0, 0)**2.5 * (T(L) + t_pose), from
flow.drop_regressor, the model's one definition, the drop model is linear
through the origin, W = C' * x, the product the controller predicts.
Gravity and vibration observations are kept strictly apart; each mode
carries its own coefficient, and a mode is fitted exactly when its c_prime
is not None. Every regressor comes from regressor(), directly or, for a
measured delta, through observed_regressor(); it first puts the action
through ValveKinematics.check: an action outside the valve envelope is a
ValueError, never a data point.

A Rig is the rig as the identification and the controller see it: the
valve kinematics and the powder's Beverloo offset L0.
ExperimentConfig.rig alone makes one from a config, and the controllers
of run_suite and the pooled refits of run_suite and report all take it,
so a powder's controllers, their logs and its pooled refit take one
offset. fit_coefficient() and control.select_action also take a bare
ValveKinematics, read as Rig(kin): L0 = 0, the pure power law.

observed_regressor() is the one statement of which measured deltas are
evidence: the controller's log and the suite's pooled refit
(harness.pooled_points) both ask it of every delta. A delta that is not
finite is a ValueError, and one below MIN_OBSERVABLE_MG (0.5 mg) is
discarded before it reaches a fit, so noise-level readings never steer
it. Every regressor and every kept delta is >= 0, so C' is >= 0 by
construction. Two estimators of C' serve two purposes.

The controller's online fit, ObservationLog, is relative: over a mode's n
accepted observations

    C' = sum(dW_i / x_i) / n

the mean of the observed ratios, refreshed after every accepted
observation. The plant's flow noise is multiplicative, dW = C' x (1 + eps),
so each ratio carries the same relative noise, and the mean weighs every
step alike. A least-squares fit weighs a step by x**2, so once one large
step lands, C' is about that step's own (1 + eps) and the next step
overshoots by the ratio of two draws. The log keeps per mode only n and
the sum of ratios, added in arrival order, and stores no observations:
record() adds an accepted delta and returns its mode's refreshed ModeFit,
or None when it drops the delta, so a refit is O(1). An observation whose
regressor is 0 (a zero command, one at or below L0, or one whose x
underflows) has no ratio and leaves the fit as it was.

The offline fits stay least squares through the origin,

    C' = sum(x_i * dW_i) / sum(x_i**2)

in one estimator, fit_points, which adds a mode's regressor and delta
columns into sum(x*dW) and sum(x**2) in list order. The suite-wide pooled
fits (harness.pooled_fits) and fit_coefficient, which takes a list of
Observation, both go through it. Acceptance criteria 4 and 6 judge these
fits, and their R^2, as a test of the drop model's adequacy, which is a
least-squares question; moving this estimator to ratios too fails
criterion 6, whose property suite checks it against a least-squares
oracle. The controller never reads an R^2, so the log keeps none;
fit_points adds it in the exact two-pass form, from the same columns in
the same order, so C' and R^2 are bit for bit those of computing each in
its own pass.

ModeFit and CoefficientEstimate are immutable NamedTuples: a refit builds
new ones and never changes one in place.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .flow import (MODES, VIBRATION, ValveKinematics, check_fields,
                   drop_regressor)

MIN_OBSERVABLE_MG = 0.5


@dataclass(frozen=True)
class Rig:
    """The rig as the controller, its log and the pooled refit see it.

    kin is the valve and l_offset the powder's Beverloo offset L0 in
    command units, below which a command dispenses nothing. An l_offset
    of inf, which a tiny opening_per_command can give, is a powder that
    never flows.
    Frozen and hashable: control keys its action tables by the Rig.
    """

    kin: ValveKinematics
    l_offset: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kin, ValveKinematics):
            raise TypeError(f"Rig.kin must be a ValveKinematics, got "
                            f"{type(self.kin).__name__}")
        if not self.l_offset >= 0.0:    # NaN fails too
            raise ValueError(f"Rig.l_offset must be >= 0, got "
                             f"{self.l_offset!r}")


def as_rig(rig: Rig | ValveKinematics) -> Rig:
    """rig itself, or a bare ValveKinematics as Rig(kin), with no
    offset."""
    return rig if isinstance(rig, Rig) else Rig(rig)


@dataclass(frozen=True)
class Observation:
    """One accepted dispensing measurement."""

    l_command: float
    t_pose_s: float
    vibration: bool
    delta_w_mg: float

    def __post_init__(self) -> None:
        check_fields(self, ">= 0", "delta_w_mg")


class _ModeFitFields(NamedTuple):
    c_prime: float | None = None
    n_obs: int = 0
    r_squared: float | None = None


class ModeFit(_ModeFitFields):
    """Fit state for one flow mode. c_prime is None while unfitted and
    a finite C' >= 0 once fitted.

    An immutable NamedTuple. typing.NamedTuple takes no __new__ in its own
    body, so the c_prime rule sits in this subclass's __new__, which the
    constructor, _replace, _make and unpickling all go through.
    """

    __slots__ = ()

    def __new__(cls, c_prime: float | None = None, n_obs: int = 0,
                r_squared: float | None = None) -> ModeFit:
        # the c_prime rule, inline rather than through check_fields: a
        # ModeFit is built on every refit
        if c_prime is not None and not (math.isfinite(c_prime)
                                        and c_prime >= 0):
            raise ValueError("ModeFit.c_prime must be finite and >= 0")
        return tuple.__new__(cls, (c_prime, n_obs, r_squared))

    @classmethod
    def _make(cls, iterable: Iterable) -> ModeFit:
        return cls(*iterable)


class CoefficientEstimate(NamedTuple):
    """Per-mode coefficient estimates as of some controller step."""

    gravity: ModeFit = ModeFit()
    vibration: ModeFit = ModeFit()


def regressor(rig: Rig, l_command: float, t_pose_s: float) -> float:
    """x = max(L - L0, 0)**2.5 * (T(L) + t_pose), the model's per-step
    regressor, for an action inside the valve envelope."""
    rig.kin.check(l_command, t_pose_s)
    return drop_regressor(rig.kin, l_command, t_pose_s, rig.l_offset)


def observed_regressor(rig: Rig, l_command: float, t_pose_s: float,
                       delta_w_mg: float) -> float | None:
    """The regressor x of a measured delta that is evidence of the drop
    model, or None for a delta below MIN_OBSERVABLE_MG.

    The one rule for which deltas count, for the controller's log and the
    suite's pooled refit: a delta that is not finite is a ValueError, one
    below the gate is no observation, and a kept one's regressor is
    regressor()'s, so its action must lie inside the valve envelope.
    """
    # checked inline, not through check_fields: this runs on every step
    # the log takes
    if not math.isfinite(delta_w_mg):
        raise ValueError(f"measured_delta_mg must be finite, got "
                         f"{delta_w_mg!r}")
    if delta_w_mg < MIN_OBSERVABLE_MG:
        return None
    return regressor(rig, l_command, t_pose_s)


def fit_coefficient(observations: list[Observation],
                    rig: Rig | ValveKinematics, mode: str) -> ModeFit:
    """Least-squares coefficient through the origin for one mode.

    Only observations matching the requested mode, one of MODES, enter
    the fit, through fit_points, with regressor()'s x under rig (a bare
    ValveKinematics: L0 = 0). An empty selection, or one whose regressors
    are all zero, returns an unfitted ModeFit.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    vibration = mode == VIBRATION
    rig = as_rig(rig)
    selected = [o for o in observations if o.vibration == vibration]
    return fit_points([regressor(rig, o.l_command, o.t_pose_s)
                       for o in selected],
                      [o.delta_w_mg for o in selected])


def fit_points(xs: list[float], deltas: list[float]) -> ModeFit:
    """Least-squares C' through the origin of one mode's data points.

    xs are the points' regressors, as regressor() gives them, and deltas
    their measured drops (finite and >= 0), paired by position; the lists
    must be of equal length. No points, or all-zero regressors, give an
    unfitted ModeFit; a fitted one carries the fit's R^2.
    """
    sxy = sxx = 0.0
    for x, delta_w_mg in zip(xs, deltas, strict=True):
        sxy += x * delta_w_mg
        sxx += x * x
    if sxx == 0.0:
        return ModeFit()
    fit = ModeFit(c_prime=sxy / sxx, n_obs=len(xs))
    return fit._replace(r_squared=_r_squared(xs, deltas, fit.c_prime))


def _r_squared(xs: list[float], deltas: list[float],
               c_prime: float) -> float | None:
    """Coefficient of determination of c_prime against the deltas, whose
    regressors xs are given in the same order.

    Needs at least two points, otherwise None. With zero total variance
    the value is 1.0 when the residuals are all zero and None (undefined)
    when they are not.
    """
    if len(deltas) < 2:
        return None
    mean = sum(deltas) / len(deltas)
    ss_tot = sum((d - mean) ** 2 for d in deltas)
    ss_res = sum((d - c_prime * x) ** 2 for x, d in zip(xs, deltas))
    if ss_res == 0.0:
        return 1.0
    if ss_tot == 0.0:
        return None
    return 1.0 - ss_res / ss_tot


class ObservationLog:
    """Per-mode count and sum of dW/x of one trial's accepted observations.

    The log belongs to the Rig it is built with. record() takes a delta
    as observed_regressor judges it under that rig, and drops one whose
    regressor is 0 too, which has no ratio. A kept delta adds its ratio
    to its mode's sum, and record() returns that mode's refreshed
    ModeFit: C' as the mean of the ratios, in arrival order, with their
    count and no R^2; it is not fit_coefficient's least-squares C' over
    the same observations.
    """

    def __init__(self, rig: Rig) -> None:
        self._rig = rig
        self._n = [0, 0]            # gravity, vibration
        self._ratios = [0.0, 0.0]

    def record(self, l_command: float, t_pose_s: float, vibration: bool,
               delta_w_mg: float) -> ModeFit | None:
        """Add one measured delta if observed_regressor keeps it with a
        regressor above 0, else return None.

        A ValueError, from observed_regressor or from ModeFit for a ratio
        that leaves the float range, leaves the log as it was.
        """
        x = observed_regressor(self._rig, l_command, t_pose_s, delta_w_mg)
        if not x:   # None, or a regressor of 0
            return None
        n = self._n[vibration] + 1
        ratios = self._ratios[vibration] + delta_w_mg / x
        fit = ModeFit(ratios / n, n)  # positional: c_prime, n_obs
        self._n[vibration] = n
        self._ratios[vibration] = ratios
        return fit
