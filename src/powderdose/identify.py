"""Online identification of the lumped drop coefficient.

Each dispensing step yields one observation (L, t_pose, measured delta-W).
With the regressor x = L**2.5 * (T(L) + t_pose), the drop model is linear
through the origin, W = C' * x, and the least-squares estimate over n
observations is

    C' = sum(x_i * dW_i) / sum(x_i**2)

refreshed after every accepted observation. Gravity and vibration
observations are kept strictly apart; each mode carries its own coefficient.

The controller's ObservationLog keeps per-mode running sums n, sum(x*dW),
sum(x**2), sum(dW) and sum(dW**2), added in log order. That is the order
fit_coefficient sums in, so a refit is O(1) and C' is bit-identical to a
full refit. The log's R^2 comes from the same sums and may differ from
r_squared() in the last digits; it is never persisted. fit_coefficient and
r_squared keep the exact two-pass form for the pooled report fits, where
sum(dW**2) - sum(dW)**2 / n would cancel badly.

Deltas below the balance's reliable range (default 0.5 mg) are discarded
before they reach the log, so noise-level readings never steer the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .flow import GRAVITY, MODES, VIBRATION, ValveKinematics, travel_time

MIN_OBSERVABLE_MG = 0.5


@dataclass(frozen=True)
class Observation:
    """One accepted dispensing measurement."""

    l_command: float
    t_pose_s: float
    vibration: bool
    delta_w_mg: float
    step_index: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta_w_mg) or self.delta_w_mg < 0:
            raise ValueError("Observation.delta_w_mg must be finite and >= 0")


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

    @property
    def n_gravity(self) -> int:
        return self.gravity.n_obs

    @property
    def n_vibration(self) -> int:
        return self.vibration.n_obs


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
    selected = [o for o in observations if _mode_of(o) == mode]
    if not selected:
        return ModeFit()
    num = 0.0
    den = 0.0
    for obs in selected:
        x = regressor(kin, obs.l_command, obs.t_pose_s)
        num += x * obs.delta_w_mg
        den += x * x
    if den == 0.0:
        return ModeFit()
    raw = num / den
    degenerate = raw < 0.0
    c_prime = 0.0 if degenerate else raw
    return ModeFit(
        c_prime=c_prime,
        n_obs=len(selected),
        r_squared=r_squared(selected, kin, c_prime),
        degenerate=degenerate,
    )


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


class _RunningSums:
    """Per-mode sums of the observations folded in so far, in log order."""

    __slots__ = ("n", "sxy", "sxx", "sy", "syy")

    def __init__(self) -> None:
        self.n = 0
        self.sxy = 0.0
        self.sxx = 0.0
        self.sy = 0.0
        self.syy = 0.0

    def fit(self) -> ModeFit:
        """Same estimate as fit_coefficient; R^2 from the running sums."""
        if self.n == 0 or self.sxx == 0.0:
            return ModeFit()
        raw = self.sxy / self.sxx
        degenerate = raw < 0.0
        c_prime = 0.0 if degenerate else raw
        score = None
        if self.n >= 2:
            ss_res = max(self.syy - 2.0 * c_prime * self.sxy
                         + c_prime * c_prime * self.sxx, 0.0)
            ss_tot = max(self.syy - self.sy * self.sy / self.n, 0.0)
            if ss_res == 0.0:
                score = 1.0
            elif ss_tot != 0.0:
                score = 1.0 - ss_res / ss_tot
        return ModeFit(c_prime=c_prime, n_obs=self.n, r_squared=score,
                       degenerate=degenerate)


class ObservationLog:
    """Append-only store of accepted observations.

    record() applies the minimum-observable gate; everything below the
    threshold is dropped and the log reports whether the entry was kept.
    fit() folds the observations recorded since the previous fit into
    per-mode running sums, so a refit costs O(new observations) and gives
    the same coefficient as fit_coefficient over the whole log. The sums
    belong to one ValveKinematics; fitting with another rebuilds them.
    """

    def __init__(self, min_observable: float = MIN_OBSERVABLE_MG) -> None:
        if not math.isfinite(min_observable) or min_observable < 0:
            raise ValueError("min_observable must be finite and >= 0")
        self.min_observable = min_observable
        self._observations: list[Observation] = []
        self._kin: ValveKinematics | None = None
        self._sums: dict[str, _RunningSums] = {}
        self._folded = 0

    def __len__(self) -> int:
        return len(self._observations)

    @property
    def observations(self) -> tuple[Observation, ...]:
        return tuple(self._observations)

    def for_mode(self, mode: str) -> list[Observation]:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        return [o for o in self._observations if _mode_of(o) == mode]

    def record(self, l_command: float, t_pose_s: float, vibration: bool,
               delta_w_mg: float, step_index: int = 0) -> bool:
        """Store one measured delta if it clears the observable threshold."""
        if not math.isfinite(delta_w_mg):
            raise ValueError("delta_w_mg must be finite")
        if delta_w_mg < self.min_observable:
            return False
        self._observations.append(Observation(
            l_command=l_command,
            t_pose_s=t_pose_s,
            vibration=vibration,
            delta_w_mg=delta_w_mg,
            step_index=step_index,
        ))
        return True

    def fit(self, kin: ValveKinematics, mode: str) -> ModeFit:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if kin is not self._kin and kin != self._kin:
            self._kin = kin
            self._sums = {GRAVITY: _RunningSums(), VIBRATION: _RunningSums()}
            self._folded = 0
        observations = self._observations
        while self._folded < len(observations):
            obs = observations[self._folded]
            l_command = obs.l_command
            if not 0.0 <= l_command <= kin.l_max:
                raise ValueError(
                    f"l_command {l_command} outside [0, {kin.l_max}]")
            # regressor() without its per-call checks, same arithmetic
            x = l_command ** 2.5 * (l_command / kin.travel_rate
                                    + obs.t_pose_s)
            y = obs.delta_w_mg
            sums = self._sums[_mode_of(obs)]
            sums.n += 1
            sums.sxy += x * y
            sums.sxx += x * x
            sums.sy += y
            sums.syy += y * y
            self._folded += 1
        return self._sums[mode].fit()


def _mode_of(obs: Observation) -> str:
    return VIBRATION if obs.vibration else GRAVITY
