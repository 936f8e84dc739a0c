"""Stochastic simulated plant: hopper, valve, vibration motor, balance.

The plant integrates the Beverloo rate over each open-dwell-close cycle and
perturbs it with a multiplicative Gaussian disturbance. Arching is a hard
gate: gravity flow stops entirely once the orifice is at or below the
powder's critical arch diameter. Vibration defeats the gate and scales the
rate by the powder's vibration gain. Every action goes through
ValveKinematics.check, the one envelope test, and every rate through
flow.beverloo_discharge, the formula's one implementation.

The balance is read between steps. Readings are the true dispensed total
plus Gaussian noise, quantised to the display resolution (round half away
from zero), and each stabilised reading costs a settling wait.

Randomness contract: a plant draws from two independent substreams, one
for flow disturbances and one for the balance. They are the children
(*stream_key, 0) and (*stream_key, 1) of the trial's seed, each in the
state of the Generator default_rng(SeedSequence(seed, spawn_key=child))
returns. plant_states computes those states for any number of plants in
one call, by SeedSequence's own steps in numpy uint32 arithmetic, when
their keys take one number of 32-bit words; run_suite's keys always take
two, so it calls it once for a whole suite. The tests check every state
against SeedSequence. As the streams are separate, enabling or disabling
either noise source never shifts the draws of the other, and a fixed seed
reproduces a trial bit for bit. A variate is loc + scale * z, which is
what Generator.normal(loc, scale) computes, and the values, and their
order, are those of one scalar normal() draw per use: one flow draw per
executed cycle, one noise draw per reading, one settle draw per settled
reading. Each stream is drawn BLOCK standard normals at a time; draws left
in a block when a trial ends are never read.

README.md's "Performance notes" give what the batched seeding and the
resolution memo of quantize_reading save, and the tests that pin them.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, repeat

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
    The ratio of the last resolution object passed is kept in a one-entry
    memo, so a run that reads one balance computes it once; any other
    resolution takes its own ratio and becomes the memo's.
    Fast path: the tick count comes from the float ratio. That ratio can
    sit up to about 3e-16 of itself away from the decimal one, so a
    fraction within 1e-9 + 1e-15 * ticks of a half tick, a count of 1e10
    ticks or more, and a non-finite ratio are left to the exact path,
    which rounds the ratio a * q / (b * p) of the integers, a / b being
    the value's decimal repr. At the noise-free config's 1e-12 resolution
    every reading of 0.01 mg or more takes that path. No step depends on
    the decimal context. A non-finite value reads as itself.
    """
    last, p, q = _last_ratio
    if resolution is not last:
        p, q = _decimal_ratio(resolution)
    x = abs(value / resolution)
    if x < _FAST_TICKS:
        ticks = math.floor(x)
        fraction = x - ticks
        if abs(fraction - 0.5) > 1e-9 + 1e-15 * x:
            if fraction > 0.5:
                ticks += 1
            if value > 0.0:
                return ticks * p / q
            return math.copysign(ticks * p / q, value)
    if not math.isfinite(value):
        return value
    a, b = Decimal(repr(abs(value))).as_integer_ratio()
    # round half up: floor(a*q / (b*p) + 1/2)
    ticks = (2 * a * q + b * p) // (2 * b * p)
    return math.copysign(ticks * p / q, value)


# (resolution, p, q) of _decimal_ratio's last call, replaced whole. Every
# reading of a suite passes the one BalanceModel's resolution object, so
# an identity test finds its ratio without hashing a cache key. Holding
# the object keeps its id from being reused.
_last_ratio: tuple = (None, 1, 1)


def _decimal_ratio(resolution: float) -> tuple[int, int]:
    """The resolution's decimal value as an exact ratio (p, q), which
    becomes the memo's."""
    global _last_ratio
    p, q = Decimal(repr(resolution)).as_integer_ratio()
    _last_ratio = (resolution, p, q)
    return p, q


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


# SeedSequence's constants. Its words are uint32 and every product is
# taken mod 2**32, which numpy's uint32 array arithmetic does without a
# warning. The fixed operands are 0-d uint32 arrays, which numpy applies
# in less time than Python ints.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_MULT_R = np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)


def _hashmix(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix, its hash_const starting at init and
    multiplied by mult before each product."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ value >> _XSHIFT

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> _XSHIFT


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(row) for each row of an
    n x width uint32 array of assembled entropy words, width 4 or more,
    as n x 4 uint64.

    SeedSequence's mix_entropy and generate_state, step for step, with
    each entropy word and each pool word an array of n uint32, one per
    row: the hash constants advance once per hash whatever the data, so
    the rows take the same ones.
    """
    width = entropy.shape[1]
    entropy_array = list(np.ascontiguousarray(entropy.T))
    # mix_entropy: hash the first words into the pool
    hashmix = _hashmix(_INIT_A, _MULT_A)
    mixer = [hashmix(entropy_array[i]) for i in range(_POOL_SIZE)]
    # mix every pool word into every other one
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = _mix(mixer[i_dst], hashmix(mixer[i_src]))
    # then each remaining entropy word into every pool word
    for i_src in range(_POOL_SIZE, width):
        for i_dst in range(_POOL_SIZE):
            mixer[i_dst] = _mix(mixer[i_dst], hashmix(entropy_array[i_src]))
    # generate_state(4, uint64): 8 words from the pool in cycle, each
    # pair read as one little-endian uint64
    hashmix = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([hashmix(mixer[i % _POOL_SIZE]) for i in range(8)],
                     axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def plant_states(seed: int,
                 stream_keys: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The stream states of the plants of the given stream keys under one
    seed: shape (n, 2, 4), the flow and then the balance stream of each,
    the children (*stream_key, 0) and (*stream_key, 1). run_suite computes
    a whole suite's at once and hands each trial's to SimulatedPlant.

    Each child's entropy is assembled as SeedSequence assembles it: the
    seed's words, zero-padded to the pool size of 4, then each key
    element's words and the child's. All rows are mixed by _pcg64_seeds
    in one pass, so the keys of one call must take one number of words,
    as run_suite's do. ValueError on keys of different word counts, on no
    keys, and on a negative or non-integer seed or key element.
    """
    padded: list[int] = []
    _append_words(seed, padded)
    padded += [0] * (_POOL_SIZE - len(padded))
    rows = []
    for key in stream_keys:
        words = padded.copy()
        for element in key:
            _append_words(element, words)
        rows += (words + [0], words + [1])
    widths = {len(words) for words in rows}
    if len(widths) != 1:
        counts = sorted(width - len(padded) - 1 for width in widths)
        raise ValueError(f"plant_states needs one or more stream keys of "
                         f"one word count, got word counts {counts}")
    return _pcg64_seeds(np.array(rows, dtype=np.uint32)).reshape(-1, 2, 4)


@functools.cache
def _fixed_state_type() -> type:
    """A seed sequence type whose generate_state returns a state computed
    beforehand; PCG64 asks it for generate_state(4, np.uint64). Made on
    first use, so that a process that only reads artifacts never imports
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self._state

    return FixedState


def _generator(state: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_fixed_state_type()(state)))


def _standard_normals(rng: np.random.Generator) -> Iterator[float]:
    """Endless standard normals from rng, drawn BLOCK at a time when the
    last block runs out; an iterator of C-level parts, so that next() on
    it runs no Python frame."""
    return chain.from_iterable(map(np.ndarray.tolist,
                                   map(rng.standard_normal, repeat(BLOCK))))


class SimulatedPlant:
    """Mutable state of one simulated dispensing rig.

    remaining is derived from the dispensed total so the mass balance
    remaining + dispensed_total == initial_load holds at every step.
    sim_clock accrues 2*T(L) + t_pose per executed cycle (travel out,
    dwell, travel back) plus the settling wait of each stabilised reading.

    The random streams come from seed and stream_key, or from states: the
    two rows plant_states gives for them, computed beforehand.
    """

    def __init__(self, spec: PowderSpec, kin: ValveKinematics,
                 balance: BalanceModel | None = None, *, seed: int = 0,
                 stream_key: tuple[int, ...] = (),
                 states: np.ndarray | None = None) -> None:
        self.spec = spec
        self.kin = kin
        self.balance = balance if balance is not None else BalanceModel()
        if states is None:
            states = plant_states(seed, (stream_key,))[0]
        else:
            # PCG64 reads the rows through a raw pointer
            states = np.ascontiguousarray(states, dtype=np.uint64)
            if states.shape != (2, 4):
                raise ValueError(f"states must be 2 x 4, got shape "
                                 f"{states.shape}")
        self._flow_z = _standard_normals(_generator(states[0]))
        self._balance_z = _standard_normals(_generator(states[1]))
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
        spec = self.spec
        # Generator.normal(0, sigma) is 0.0 + sigma * z; the 0.0 changes
        # only the sign of a zero eps, which 1 + eps does not see.
        eps = spec.flow_noise_sigma * next(self._flow_z)
        if eps < -1.0:
            eps = -1.0
        travel = l_command / kin.travel_rate
        orifice = kin.opening_per_command * l_command
        if vibration:
            rate = spec.vibration_gain * beverloo_discharge(
                self._rate_scale, self._rate_offset, orifice)
        elif orifice > spec.critical_arch_diameter:
            rate = beverloo_discharge(self._rate_scale, self._rate_offset,
                                      orifice)
        else:
            rate = 0.0
        # a zero rate still multiplies: at 1 + eps = inf the step is nan
        dispensed = rate * (travel + t_pose_s) * (1.0 + eps)
        remaining = spec.initial_load - self.dispensed_total
        if dispensed >= remaining:
            dispensed = remaining
            self.dispensed_total = spec.initial_load
        else:
            self.dispensed_total += dispensed
        elapsed = 2.0 * travel + t_pose_s
        self.sim_clock += elapsed
        return dispensed, elapsed

    def read_balance(self, wait_settle: bool = True) -> tuple[float, float]:
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
