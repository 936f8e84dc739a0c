"""Stochastic plant: hopper, valve cycle, vibration motor and balance."""

import math
import struct
from decimal import ROUND_HALF_UP, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powderdose import plant as plant_module
from powderdose import (
    BalanceModel,
    DispenseModel,
    PowderSpec,
    SimulatedPlant,
    ValveKinematics,
    beverloo_rate,
    effective_coefficient,
    predicted_drop,
    quantize_reading,
)

QUIET_BALANCE = BalanceModel(resolution=1e-9, noise_sigma=0.0,
                             settle_time_mean=8.0, settle_time_sigma=0.0)


def make_spec(**kw):
    base = dict(name="test-powder", bulk_density=1.0, particle_diameter=0.1,
                flow_coefficient=0.01, initial_load=5000.0)
    base.update(kw)
    return PowderSpec(**base)


def quiet_plant(spec=None, kin=None, **kw):
    return SimulatedPlant(spec or make_spec(), kin or ValveKinematics(),
                          QUIET_BALANCE, **kw)


QUANTIZE_RESOLUTIONS = (0.1, 0.25, 1.0, 10.0, 1e-12)


def decimal_quantize(value, resolution):
    """Reference: round half away from zero in decimal arithmetic."""
    ticks = (Decimal(repr(value)) / Decimal(repr(resolution))).quantize(
        Decimal(1), rounding=ROUND_HALF_UP)
    return float(ticks * Decimal(repr(resolution)))


def quantize_values(resolution):
    """Raw weights for one resolution, biased to the quantizer's edges."""
    step = Decimal(repr(resolution))
    half = Decimal("0.5")
    signs = st.sampled_from((1.0, -1.0))

    def on_grid(ticks, sign):
        return sign * float(ticks * step)

    def half_ticks(low, high):
        return st.builds(on_grid, st.integers(low, high).map(
            lambda k: Decimal(k) + half), signs)

    return st.one_of(
        half_ticks(0, 10 ** 7),
        half_ticks(10 ** 7, 10 ** 13),               # large tick counts
        st.builds(on_grid, st.integers(0, 10 ** 13).map(Decimal), signs),
        st.sampled_from((0.0, -0.0)),
        st.floats(-0.05, 0.05),                      # tare readings
        st.floats(-1e4, 1e4),
    )


class TestQuantizeReading:
    @pytest.mark.parametrize("value,resolution,expected", [
        (1.234, 0.1, 1.2),
        (1.25, 0.1, 1.3),      # half rounds up, not to even
        (-1.25, 0.1, -1.3),    # and away from zero on the negative side
        (1.5, 1.0, 2.0),
        (1.25, 1.0, 1.0),
        (0.0, 0.1, 0.0),
        (123.456, 0.5, 123.5),
    ])
    def test_cases(self, value, resolution, expected):
        assert quantize_reading(value, resolution) == expected

    def test_multiples_pass_through(self):
        for k in range(-30, 30):
            v = k * 0.1
            assert quantize_reading(v, 0.1) == pytest.approx(v, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(case=st.one_of([st.tuples(quantize_values(r), st.just(r))
                           for r in QUANTIZE_RESOLUTIONS]))
    @example(case=(-0.0, 0.1))
    @example(case=(-0.03, 0.1))
    @example(case=(749597.95, 0.1))
    @example(case=(2.616122026331733e+16, 2.4865945709414833e-11))
    def test_matches_decimal_reference(self, case):
        value, resolution = case
        # an exact reference: the default 28 digits can round ticks * step
        with localcontext() as ctx:
            ctx.prec = 1000
            expected = decimal_quantize(value, resolution)
        assert struct.pack("d", quantize_reading(value, resolution)) == \
            struct.pack("d", expected)

    def test_reading_does_not_depend_on_the_decimal_context(self):
        cases = [(2.616122026331733e+16, 2.4865945709414833e-11),
                 (1.25, 0.1), (1e300, 0.1), (20.0, 1e-300)]
        outside = [quantize_reading(v, r) for v, r in cases]
        with localcontext() as ctx:
            ctx.prec = 3
            assert [quantize_reading(v, r) for v, r in cases] == outside
        assert outside[0] == 2.6161220263317332e+16

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_reads_as_itself(self, value):
        got = quantize_reading(value, 0.1)
        assert struct.pack("d", got) == struct.pack("d", value)

    @pytest.mark.parametrize("value,resolution", [
        (1e300, 0.1),
        (-1e300, 0.1),
        (1e28, 1.0),
        (-2.5e27, 0.01),
        (20.0, 1e-300),
        (7.000000000000001e-290, 3e-320),
        (1.7976931348623157e308, 5e-324),
    ])
    def test_tick_counts_past_the_default_decimal_context(self, value,
                                                          resolution):
        # 1e28 ticks and more overflow the default 28-digit context; the
        # reference computes in 1000 digits
        with localcontext() as ctx:
            ctx.prec = 1000
            expected = decimal_quantize(value, resolution)
        assert struct.pack("d", quantize_reading(value, resolution)) == \
            struct.pack("d", expected)


class TestFlowGate:
    # with no flow noise a step dispenses rate * (T(L) + t_pose) exactly
    def test_arching_blocks_gravity_at_and_below_critical(self):
        spec = make_spec(critical_arch_diameter=0.5, particle_correction=0.0,
                         flow_noise_sigma=0.0)
        kin = ValveKinematics(opening_per_command=0.5)

        def drop(l_command):
            return quiet_plant(spec, kin).execute(l_command, 2.0, False)[0]

        assert drop(1.0) == 0.0    # orifice == critical
        assert drop(0.5) == 0.0
        assert drop(1.2) > 0.0

    def test_vibration_bypasses_arch_and_applies_gain(self):
        spec = make_spec(critical_arch_diameter=10.0, particle_correction=0.0,
                         vibration_gain=2.5, flow_noise_sigma=0.0)
        kin = ValveKinematics()
        assert quiet_plant(spec, kin).execute(100.0, 2.0, False)[0] == 0.0
        vib = quiet_plant(spec, kin).execute(100.0, 2.0, True)[0]
        assert vib > 0.0
        free = make_spec(critical_arch_diameter=0.0, particle_correction=0.0,
                         flow_noise_sigma=0.0)
        assert vib == pytest.approx(
            2.5 * quiet_plant(free, kin).execute(100.0, 2.0, False)[0],
            rel=1e-12)


class TestExecute:
    def test_noise_free_step_matches_drop_model(self):
        # with k=0 the plant and the lumped model agree exactly
        spec = make_spec(particle_correction=0.0, flow_noise_sigma=0.0,
                         initial_load=1e7)
        kin = ValveKinematics()
        plant = quiet_plant(spec, kin)
        model = DispenseModel(effective_coefficient(spec, kin))
        for l, t in [(10.0, 2.0), (50.0, 0.0), (210.0, 20.0), (5.0, 7.5)]:
            fresh = quiet_plant(spec, kin)
            dispensed, _ = fresh.execute(l, t, False)
            assert dispensed == pytest.approx(
                predicted_drop(model, kin, l, t), rel=1e-9)

    def test_elapsed_is_two_travels_plus_dwell(self):
        plant = quiet_plant()
        _, elapsed = plant.execute(100.0, 2.0, False)
        assert elapsed == 4.0     # 2 * 1.0 s travel + 2.0 s dwell
        assert plant.sim_clock == 4.0

    def test_mass_conservation_and_depletion(self):
        spec = make_spec(initial_load=40.0, flow_noise_sigma=0.05)
        plant = quiet_plant(spec)
        total = 0.0
        for _ in range(200):
            dispensed, _ = plant.execute(210.0, 20.0, False)
            total += dispensed
            assert plant.remaining >= 0.0
            if plant.depleted:
                break
        assert plant.depleted
        assert plant.dispensed_total == 40.0          # exact, by assignment
        assert total == pytest.approx(40.0, rel=1e-12)
        assert plant.remaining == 0.0
        dispensed, _ = plant.execute(210.0, 20.0, False)
        assert dispensed == 0.0

    def test_noise_factor_never_negative(self):
        # sigma far above 1 forces the truncation at eps = -1
        spec = make_spec(flow_noise_sigma=5.0)
        plant = quiet_plant(spec, seed=3)
        for _ in range(300):
            dispensed, _ = plant.execute(50.0, 2.0, False)
            assert dispensed >= 0.0

    def test_rejects_out_of_range_actions(self):
        plant = quiet_plant()
        with pytest.raises(ValueError):
            plant.execute(-1.0, 2.0, False)
        with pytest.raises(ValueError):
            plant.execute(210.5, 2.0, False)
        with pytest.raises(ValueError):
            plant.execute(50.0, -0.1, False)
        with pytest.raises(ValueError):
            plant.execute(50.0, 20.1, False)

    def test_monotone_in_action_at_fixed_stream_position(self):
        spec = make_spec(flow_noise_sigma=0.1)
        for seed in range(5):
            def first_drop(l, t):
                plant = quiet_plant(spec, seed=seed)
                return plant.execute(l, t, False)[0]

            assert first_drop(60.0, 2.0) >= first_drop(50.0, 2.0)
            assert first_drop(50.0, 3.0) >= first_drop(50.0, 2.0)


class TestReadBalance:
    def test_quantizes_to_resolution(self):
        balance = BalanceModel(resolution=0.1, noise_sigma=0.0,
                               settle_time_mean=8.0, settle_time_sigma=0.0)
        plant = SimulatedPlant(make_spec(), ValveKinematics(), balance)
        plant.dispensed_total = 1.234
        reading, _ = plant.read_balance()
        assert reading == pytest.approx(1.2, abs=1e-12)

    def test_settle_time_charged_only_when_waiting(self):
        plant = quiet_plant()
        reading, settle = plant.read_balance(wait_settle=False)
        assert reading == 0.0
        assert settle == 0.0
        assert plant.sim_clock == 0.0
        _, settle = plant.read_balance()
        assert settle == 8.0
        assert plant.sim_clock == 8.0

    def test_settle_clamped_at_zero(self):
        balance = BalanceModel(resolution=0.1, noise_sigma=0.0,
                               settle_time_mean=1.0, settle_time_sigma=50.0)
        plant = SimulatedPlant(make_spec(), ValveKinematics(), balance, seed=5)
        for _ in range(200):
            _, settle = plant.read_balance()
            assert settle >= 0.0

    def test_cycle_clock_arithmetic(self):
        plant = quiet_plant()
        plant.read_balance(wait_settle=False)
        plant.execute(100.0, 2.0, False)     # 2*1.0 + 2.0
        plant.read_balance()                 # + 8.0
        plant.execute(50.0, 1.5, False)      # 2*0.5 + 1.5
        plant.read_balance()                 # + 8.0
        assert plant.sim_clock == pytest.approx(4.0 + 8.0 + 2.5 + 8.0,
                                                abs=1e-12)


class TestBlockDraws:
    @pytest.mark.parametrize("flow_sigma,noise_sigma,settle_sigma",
                             [(0.3, 0.2, 1.5), (0.0, 0.0, 0.0)])
    def test_draws_equal_scalar_normal_draws(self, monkeypatch, flow_sigma,
                                             noise_sigma, settle_sigma):
        # every eps, eta and settle of a plant equals one scalar
        # Generator.normal(loc, scale) call on its substream, in order
        seed, key = 11, (5, 3)
        spec = make_spec(flow_noise_sigma=flow_sigma, initial_load=1e9)
        balance = BalanceModel(resolution=0.1, noise_sigma=noise_sigma,
                               settle_time_mean=8.0,
                               settle_time_sigma=settle_sigma)
        kin = ValveKinematics()
        plant = SimulatedPlant(spec, kin, balance, seed=seed, stream_key=key)
        flow_ss, balance_ss = np.random.SeedSequence(
            seed, spawn_key=key).spawn(2)
        flow_rng = np.random.default_rng(flow_ss)
        balance_rng = np.random.default_rng(balance_ss)
        raw = []
        monkeypatch.setattr(plant_module, "quantize_reading",
                            lambda value, resolution: raw.append(value))

        plant.read_balance(wait_settle=False)
        assert raw == [0.0 + balance_rng.normal(0.0, noise_sigma)]
        for step in range(2 * plant_module.BLOCK + 7):
            l_command, t_pose = 40.0 + step % 50, 0.5 + step % 3
            before = plant.dispensed_total
            eps = max(flow_rng.normal(0.0, flow_sigma), -1.0)
            expected = (beverloo_rate(spec, kin.opening_per_command
                                      * l_command)
                        * (l_command / kin.travel_rate + t_pose)
                        * (1.0 + eps))
            assert plant.execute(l_command, t_pose, False)[0] == expected
            assert plant.dispensed_total == before + expected
            eta = balance_rng.normal(0.0, noise_sigma)
            settle = balance_rng.normal(8.0, settle_sigma)
            assert plant.read_balance()[1] == settle
            assert raw[-1] == plant.dispensed_total + eta


U64 = st.integers(0, 2 ** 64 - 1)


class TestStreamSeeding:
    @settings(max_examples=300, deadline=None)
    @given(seed=U64, key=st.lists(U64, min_size=1, max_size=4))
    @example(seed=0, key=[0])
    @example(seed=2 ** 32 - 1, key=[2 ** 32, 1])
    @example(seed=2 ** 32, key=[2 ** 32 - 1, 0])
    @example(seed=2 ** 64 - 1, key=[2 ** 64 - 1, 2 ** 33, 7, 0])
    def test_stream_is_default_rng_of_the_seed_sequence(self, seed, key):
        key = tuple(key)
        expected = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=key))
        assert (plant_module._stream(seed, key).bit_generator.state
                == expected.bit_generator.state)

    @pytest.mark.parametrize("seed, key", [
        (-1, (0,)), (0, (-1,)), (5, (3, -2 ** 40)), (1.0, (0,)),
        (0, (0.5,)), (None, (0,))])
    def test_negative_or_non_integer_input_is_a_value_error(self, seed, key):
        with pytest.raises(ValueError, match="integers >= 0"):
            plant_module._stream(seed, key)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def run(seed, key):
            spec = make_spec(flow_noise_sigma=0.1)
            plant = SimulatedPlant(spec, ValveKinematics(),
                                   BalanceModel(), seed=seed, stream_key=key)
            out = []
            for _ in range(10):
                out.append(plant.execute(50.0, 2.0, False))
                out.append(plant.read_balance())
            return out

        assert run(7, (123, 0)) == run(7, (123, 0))
        assert run(7, (123, 0)) != run(7, (123, 1))
        assert run(7, (123, 0)) != run(8, (123, 0))

    def test_flow_and_balance_streams_are_independent(self):
        # skipping balance reads must not shift the flow stream
        spec = make_spec(flow_noise_sigma=0.1)

        def drops(read_between):
            plant = SimulatedPlant(spec, ValveKinematics(), BalanceModel(),
                                   seed=42)
            out = []
            for _ in range(5):
                out.append(plant.execute(50.0, 2.0, False)[0])
                if read_between:
                    plant.read_balance()
            return out

        assert drops(True) == drops(False)


class TestBalanceModelValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BalanceModel(resolution=0.0)
        with pytest.raises(ValueError):
            BalanceModel(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            BalanceModel(settle_time_mean=0.0)
        with pytest.raises(ValueError):
            BalanceModel(settle_time_sigma=-1.0)
