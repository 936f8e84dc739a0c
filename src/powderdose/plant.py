"""Stochastic simulated plant: hopper, valve, vibration motor, balance.

The plant integrates the Beverloo rate over each open-dwell-close cycle and
perturbs it with a multiplicative Gaussian disturbance. Arching is a hard
gate: gravity flow stops entirely once the orifice is at or below the
powder's critical arch diameter. Vibration defeats the gate and scales the
rate by the powder's vibration gain.

The balance is read between steps. Readings are the true dispensed total
plus Gaussian noise, quantised to the display resolution (round half away
from zero), and each stabilised reading costs a settling wait.

Randomness contract: a plant draws from two independent substreams, one
for flow disturbances and one for the balance. They are the children
(*stream_key, 0) and (*stream_key, 1) of the trial's seed, each the
Generator default_rng(SeedSequence(seed, spawn_key=(*stream_key, i)))
returns. _stream builds it by that recipe: the entropy words SeedSequence
would assemble, then SeedSequence, then PCG64. It assembles the words
itself (_append_words) and hands them over as one uint32 array, because
SeedSequence's own assembly from an int seed and a key tuple costs about
29 us a stream against 19 us for the array (2-CPU Xeon, numpy 2.4). As
the streams are separate, enabling or disabling either noise source never
shifts the draws of the other, and a fixed seed reproduces a trial bit
for bit. Each stream is drawn BLOCK standard normals at a time and a
variate is formed as loc + scale * z, which is what
Generator.normal(loc, scale) computes: the values, and their order, are
those of one scalar normal() draw per use (one flow draw per executed
cycle, one noise draw per reading, one settle draw per settled reading).
Draws left in a block when a trial ends are never read.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .flow import (G_MM_S2, PowderSpec, ValveKinematics, beverloo_discharge,
                   check_fields)

# Standard normals drawn from a stream at a time. A trial uses tens to a
# few hundred from each stream; one block of 64 costs about five scalar
# normal() calls.
BLOCK = 64

# The fast path of quantize_reading handles fewer ticks than this, which
# keeps its half-tick margin under 1e-5 of a tick; larger counts take the
# exact integer path.
_FAST_TICKS = 1e10


@dataclass(frozen=True)
class BalanceModel:
    """Display resolution and noise of the weighing balance, mg and s."""

    resolution: float = 0.1
    noise_sigma: float = 0.1
    settle_time_mean: float = 8.0
    settle_time_sigma: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, "> 0", "resolution", "settle_time_mean")
        check_fields(self, ">= 0", "noise_sigma", "settle_time_sigma")


def quantize_reading(value: float, resolution: float) -> float:
    """Snap a raw weight to the display grid, rounding half away from zero.

    The result is that of decimal arithmetic on the shortest reprs, so that
    e.g. 1.25 mg at 0.1 mg resolution reads 1.3 although the binary ratio
    lands a hair below the midpoint, and a negative value that rounds to no
    ticks reads -0.0.

    The reading is ticks * p / q, where p / q is the resolution's decimal
    value as an exact ratio; Python's integer true division rounds
    correctly, so this is the float nearest the exact decimal product.
    Fast path: the tick count comes from the float ratio. That ratio can
    sit up to about 3e-16 of itself away from the decimal one, so a
    fraction within 1e-9 + 1e-15 * ticks of a half tick, a count of 1e10
    ticks or more, and a non-finite ratio are left to the exact path,
    which rounds the ratio a * q / (b * p) of the integers, a / b being
    the value's decimal repr. At the noise-free config's 1e-12 resolution
    every reading of 0.01 mg or more takes that path. No step depends on
    the decimal context. A non-finite value reads as itself.
    """
    x = abs(value / resolution)
    if x < _FAST_TICKS:
        ticks = math.floor(x)
        fraction = x - ticks
        if abs(fraction - 0.5) > 1e-9 + 1e-15 * x:
            if fraction > 0.5:
                ticks += 1
            p, q = _decimal_ratio(resolution)
            return math.copysign(ticks * p / q, value)
    if not math.isfinite(value):
        return value
    a, b = Decimal(repr(abs(value))).as_integer_ratio()
    p, q = _decimal_ratio(resolution)
    # round half up: floor(a*q / (b*p) + 1/2)
    ticks = (2 * a * q + b * p) // (2 * b * p)
    return math.copysign(ticks * p / q, value)


@functools.lru_cache(maxsize=16)
def _decimal_ratio(resolution: float) -> tuple[int, int]:
    return Decimal(repr(resolution)).as_integer_ratio()


_MASK32 = 0xFFFFFFFF


def _append_words(value: int, words: list[int]) -> None:
    """value's little-endian 32-bit words, as SeedSequence splits it (0 is
    one word)."""
    try:
        n = operator.index(value)
    except TypeError:
        n = -1
    if n < 0:
        raise ValueError(f"seed and spawn key elements must be integers "
                         f">= 0, got {value!r}")
    words.append(n & _MASK32)
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32


def _stream(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """A Generator in the state of
    default_rng(SeedSequence(seed, spawn_key=spawn_key)).

    The entropy is assembled as SeedSequence assembles it: the seed's
    words, zero-padded to the pool size of 4 when a spawn key is present,
    then each key element's words. As one uint32 array it takes
    SeedSequence's array path, which mixes the same pool, and PCG64 draws
    its state from that SeedSequence as default_rng's does.
    """
    words: list[int] = []
    _append_words(seed, words)
    if spawn_key:
        words.extend([0] * (4 - len(words)))
    for element in spawn_key:
        _append_words(element, words)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def _standard_normals(rng: np.random.Generator):
    """Endless standard normals from rng, drawn BLOCK at a time."""
    while True:
        yield from rng.standard_normal(BLOCK).tolist()


class SimulatedPlant:
    """Mutable state of one simulated dispensing rig.

    remaining is derived from the dispensed total so the mass balance
    remaining + dispensed_total == initial_load holds at every step.
    sim_clock accrues 2*T(L) + t_pose per executed cycle (travel out,
    dwell, travel back) plus the settling wait of each stabilised reading.
    """

    def __init__(self, spec: PowderSpec, kin: ValveKinematics,
                 balance: BalanceModel | None = None, *, seed: int = 0,
                 stream_key: tuple[int, ...] = ()) -> None:
        self.spec = spec
        self.kin = kin
        self.balance = balance if balance is not None else BalanceModel()
        # the children (*stream_key, 0) and (*stream_key, 1) of the seed,
        # in the state default_rng gives each
        self._flow_z = _standard_normals(_stream(seed, (*stream_key, 0)))
        self._balance_z = _standard_normals(_stream(seed, (*stream_key, 1)))
        self._rate_scale = (spec.flow_coefficient * spec.bulk_density
                            * math.sqrt(G_MM_S2))
        self._rate_offset = spec.particle_correction * spec.particle_diameter
        self.dispensed_total = 0.0
        self.sim_clock = 0.0

    @property
    def remaining(self) -> float:
        return self.spec.initial_load - self.dispensed_total

    @property
    def depleted(self) -> bool:
        return self.remaining <= 0.0

    def _rate(self, l_command: float, vibration: bool) -> float:
        orifice = self.kin.opening_per_command * l_command
        base = beverloo_discharge(self._rate_scale, self._rate_offset, orifice)
        if vibration:
            return self.spec.vibration_gain * base
        if orifice > self.spec.critical_arch_diameter:
            return base
        return 0.0

    def execute(self, l_command: float, t_pose_s: float,
                vibration: bool) -> tuple[float, float]:
        """Run one open-dwell-close cycle; returns (dispensed mg, elapsed s).

        The dispensed mass is rate * (T(L) + t_pose) scaled by (1 + eps)
        with eps drawn once per step from N(0, flow_noise_sigma^2) and
        truncated at -1, then clamped to what the hopper still holds. The
        flow draw happens on every step, flowing or not, so the stream
        position depends only on the step count.
        """
        kin = self.kin
        kin.check(l_command, t_pose_s)
        # Generator.normal(0, sigma) is 0.0 + sigma * z; the 0.0 changes
        # only the sign of a zero eps, which 1 + eps does not see.
        eps = self.spec.flow_noise_sigma * next(self._flow_z)
        if eps < -1.0:
            eps = -1.0
        travel = l_command / kin.travel_rate
        duration = travel + t_pose_s
        dispensed = self._rate(l_command, vibration) * duration * (1.0 + eps)
        if dispensed >= self.remaining:
            dispensed = self.remaining
            self.dispensed_total = self.spec.initial_load
        else:
            self.dispensed_total += dispensed
        elapsed = 2.0 * travel + t_pose_s
        self.sim_clock += elapsed
        return dispensed, elapsed

    def read_balance(self, *, wait_settle: bool = True) -> tuple[float, float]:
        """Take one stabilised reading; returns (reading mg, settle wait s).

        The initial tare reading of a trial passes wait_settle=False: the
        balance is already stable before dispensing starts, so no settling
        time is charged and no settle variate is drawn.
        """
        balance = self.balance
        # As in execute, the 0.0 of 0.0 + sigma * z is left out: the total
        # it is added to is never -0.0.
        eta = balance.noise_sigma * next(self._balance_z)
        reading = quantize_reading(self.dispensed_total + eta,
                                   balance.resolution)
        settle = 0.0
        if wait_settle:
            settle = (balance.settle_time_mean
                      + balance.settle_time_sigma * next(self._balance_z))
            if settle < 0.0:
                settle = 0.0
            self.sim_clock += settle
        return reading, settle
