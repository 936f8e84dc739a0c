"""Discharge law, valve timing and the lumped drop model."""

import dataclasses
import math
import re

import pytest

from powderdose import (
    G_MM_S2,
    ActionGrid,
    BalanceModel,
    DispenseModel,
    ObservationLog,
    PidGains,
    PowderSpec,
    Rig,
    SimulatedPlant,
    ValveKinematics,
    beverloo_rate,
    effective_coefficient,
    predicted_drop,
    regressor,
)
from powderdose.flow import drop_regressor
from powderdose.identify import observed_points, observed_regressor
from powderdose.powders import ARCHETYPES


def make_spec(**kw):
    base = dict(name="test-powder", bulk_density=1.0, particle_diameter=0.1)
    base.update(kw)
    return PowderSpec(**base)


def test_gravity_constant_is_mm_units():
    assert G_MM_S2 == 9810.0


class TestBeverlooRate:
    def test_unit_coefficients_anchor(self):
        # C=1, rho=1, k=0: rate = sqrt(9810) * 4**2.5, with 4**2.5 == 32 exact
        spec = make_spec(flow_coefficient=1.0, particle_correction=0.0,
                         particle_diameter=0.0)
        assert beverloo_rate(spec, 4.0) == 3169.454211690082
        assert beverloo_rate(spec, 4.0) == math.sqrt(9810.0) * 32.0

    def test_scales_with_density_and_coefficient(self):
        spec = make_spec(flow_coefficient=1.0, particle_correction=0.0,
                         particle_diameter=0.0)
        scaled = make_spec(bulk_density=2.0, flow_coefficient=0.5,
                           particle_correction=0.0, particle_diameter=0.0)
        assert beverloo_rate(scaled, 4.0) == pytest.approx(
            beverloo_rate(spec, 4.0), rel=1e-12)

    def test_zero_at_corrected_closure(self):
        # opening entirely eaten by the particle correction
        spec = make_spec(particle_diameter=1.0, particle_correction=1.4)
        assert beverloo_rate(spec, 1.4) == 0.0
        assert beverloo_rate(spec, 1.0) == 0.0
        assert beverloo_rate(spec, 0.0) == 0.0
        # below a closed opening there is no diameter
        for diameter in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=re.escape(
                    f"beverloo_rate needs a finite orifice_diameter >= 0, "
                    f"got {diameter!r}")):
                beverloo_rate(spec, diameter)

    def test_zero_coefficient_means_no_flow(self):
        spec = make_spec(flow_coefficient=0.0)
        assert beverloo_rate(spec, 10.0) == 0.0

    def test_monotone_in_orifice_diameter(self):
        spec = make_spec()
        rates = [beverloo_rate(spec, d / 10) for d in range(0, 120)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.0


class TestTravelTime:
    """T(L) = L / travel_rate: a cycle without dwell travels out and back."""

    @pytest.mark.parametrize("kin, l_command, travel", [
        (ValveKinematics(), 210.0, 2.1),
        (ValveKinematics(travel_rate=50.0), 100.0, 2.0),
        (ValveKinematics(), 0.0, 0.0),
    ], ids=["default-rate-full-stroke", "explicit-rate", "zero-command"])
    def test_cycle_without_dwell_is_two_travels(self, kin, l_command,
                                                travel):
        _, elapsed = SimulatedPlant(make_spec(), kin).execute(l_command, 0.0,
                                                              False)
        assert elapsed == 2.0 * travel


class TestPredictedDrop:
    def test_anchor_value(self):
        # T(10) = 1 s at travel_rate 10, so the window is exactly 3 s and
        # the drop is 0.001 * x with x = 10**2.5 * 3
        kin = ValveKinematics(travel_rate=10.0)
        model = DispenseModel(0.001)
        assert predicted_drop(model, kin, 10.0, 2.0) == 0.948683298050514

    def test_zero_coefficient_and_zero_command(self):
        kin = ValveKinematics()
        assert predicted_drop(DispenseModel(0.0), kin, 50.0, 5.0) == 0.0
        assert predicted_drop(DispenseModel(0.001), kin, 0.0, 5.0) == 0.0

    def test_linear_in_coefficient(self):
        kin = ValveKinematics()
        base = predicted_drop(DispenseModel(0.002), kin, 35.0, 4.5)
        for lam in (0.5, 3.0, 17.25):
            assert predicted_drop(DispenseModel(0.002 * lam), kin, 35.0, 4.5) \
                == pytest.approx(lam * base, rel=1e-12)

    def test_monotone_in_command_and_dwell(self):
        kin = ValveKinematics()
        model = DispenseModel(0.01)
        by_l = [predicted_drop(model, kin, l, 2.0) for l in range(0, 211, 5)]
        assert all(b > a for a, b in zip(by_l, by_l[1:]))
        by_t = [predicted_drop(model, kin, 50.0, t / 2) for t in range(0, 41)]
        assert all(b > a for a, b in zip(by_t, by_t[1:]))

    def test_rejects_out_of_range_action(self):
        kin = ValveKinematics()
        model = DispenseModel(0.01)
        with pytest.raises(ValueError):
            predicted_drop(model, kin, -5.0, 2.0)
        with pytest.raises(ValueError):
            predicted_drop(model, kin, 211.0, 2.0)
        with pytest.raises(ValueError):
            predicted_drop(model, kin, 50.0, -0.1)
        with pytest.raises(ValueError):
            predicted_drop(model, kin, 50.0, 20.5)


class TestEffectiveCoefficient:
    def test_unit_case_is_sqrt_g(self):
        spec = make_spec(flow_coefficient=1.0, particle_correction=0.0,
                         particle_diameter=0.0)
        kin = ValveKinematics(opening_per_command=1.0)
        assert effective_coefficient(spec, kin) == math.sqrt(9810.0)

    def test_vibration_applies_gain(self):
        spec = make_spec(vibration_gain=1.5)
        kin = ValveKinematics()
        grav = effective_coefficient(spec, kin)
        vib = effective_coefficient(spec, kin, vibration=True)
        assert vib == pytest.approx(1.5 * grav, rel=1e-12)
        assert grav > 0.0

    def test_matches_discharge_law_when_correction_is_zero(self):
        # with k=0 the lumped form is exact: rate(kappa*L) == coeff * L**2.5
        spec = make_spec(flow_coefficient=0.58, particle_correction=0.0)
        kin = ValveKinematics()
        coeff = effective_coefficient(spec, kin)
        for l in (5.0, 40.0, 210.0):
            assert coeff * l ** 2.5 == pytest.approx(
                beverloo_rate(spec, kin.opening_per_command * l), rel=1e-12)


class TestBeverlooOffset:
    """The drop model with the powder's offset L0 = k*d / kappa is the
    plant's discharge over C'."""

    @pytest.mark.parametrize("powder", sorted(ARCHETYPES))
    def test_offset_model_is_the_plants_drop(self, powder):
        spec = dataclasses.replace(ARCHETYPES[powder],
                                   critical_arch_diameter=0.0)
        kin = ValveKinematics()
        rig = Rig(kin, l_offset=spec.particle_correction
                  * spec.particle_diameter / kin.opening_per_command)
        coeff = effective_coefficient(spec, kin)
        for l in (5.0, 10.0, 20.0, 50.0, 210.0):
            for t in (0.0, 2.0):
                rate = beverloo_rate(spec, kin.opening_per_command * l)
                plant = rate * (l / kin.travel_rate + t)
                assert coeff * regressor(rig, l, t) == pytest.approx(
                    plant, rel=1e-12, abs=1e-300)

    def test_a_command_at_or_below_the_offset_dispenses_nothing(self):
        kin = ValveKinematics()
        for l_offset in (10.0, 12.5, math.inf):
            rig = Rig(kin, l_offset=l_offset)
            assert regressor(rig, 5.0, 2.0) == 0.0
            assert regressor(rig, 10.0, 2.0) == 0.0
        assert regressor(Rig(kin, l_offset=8.4), 10.0, 2.0) == \
            (10.0 - 8.4) ** 2.5 * (10.0 / 100.0 + 2.0)

    @pytest.mark.parametrize("l_command", [0.0, 1e-3, 5.0, 37.5, 210.0])
    def test_no_offset_is_the_pure_power_law_bit_for_bit(self, l_command):
        kin = ValveKinematics()
        for t in (0.0, 0.5, 20.0):
            power_law = l_command ** 2.5 * (l_command / kin.travel_rate + t)
            assert drop_regressor(kin, l_command, t) == power_law
            assert regressor(Rig(kin), l_command, t) == power_law

    def test_a_command_a_hair_above_the_offset_has_a_normal_square(self):
        # the config domain's smallest positive grid regressor: a command
        # of 1e-3 one ulp above L0, at travel_rate 1e6 and t_pose 0
        kin = ValveKinematics(l_min=1e-3, travel_rate=1e6)
        rig = Rig(kin, l_offset=math.nextafter(1e-3, 0.0))
        x = regressor(rig, 1e-3, 0.0)
        assert 0.0 < 3.9e-57 < x
        assert x * x >= 1e-113

    def test_rig_rejects_bad_fields(self):
        kin = ValveKinematics()
        for bad in (-1e-12, -math.inf, math.nan):
            with pytest.raises(ValueError,
                               match=re.escape("Rig.l_offset must be >= 0")):
                Rig(kin, l_offset=bad)
        with pytest.raises(TypeError, match="Rig.kin must be a "
                                            "ValveKinematics"):
            Rig(ActionGrid())
        assert Rig(kin, l_offset=math.inf).l_offset == math.inf
        assert Rig(kin) == Rig(ValveKinematics())
        assert hash(Rig(kin, 2.0)) == hash(Rig(ValveKinematics(), 2.0))


class TestValidation:
    def test_powder_spec_rejects_bad_fields(self):
        with pytest.raises(ValueError,
                           match="^PowderSpec.name must be non-empty$"):
            make_spec(name="")
        with pytest.raises(ValueError):
            make_spec(bulk_density=0.0)
        with pytest.raises(ValueError):
            make_spec(particle_diameter=-0.1)
        with pytest.raises(ValueError):
            make_spec(flow_noise_sigma=-0.5)
        with pytest.raises(ValueError):
            make_spec(initial_load=0.0)
        with pytest.raises(ValueError):
            make_spec(bulk_density=float("nan"))

    def test_powder_spec_allows_pointlike_particles(self):
        assert make_spec(particle_diameter=0.0).particle_diameter == 0.0

    def test_kinematics_rejects_inverted_ranges(self):
        with pytest.raises(ValueError):
            ValveKinematics(l_min=100.0, l_max=50.0)
        with pytest.raises(ValueError):
            ValveKinematics(t_pose_min=5.0, t_pose_max=5.0)
        with pytest.raises(ValueError):
            ValveKinematics(travel_rate=0.0)
        with pytest.raises(ValueError):
            ValveKinematics(opening_per_command=-0.05)

    def test_dispense_model_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DispenseModel(-0.001)
        with pytest.raises(ValueError):
            DispenseModel(float("inf"))
        assert DispenseModel(0.0).coefficient == 0.0


ENVELOPE = ValveKinematics(l_min=10.0, l_max=100.0, t_pose_min=1.0,
                           t_pose_max=5.0)


def take_action(entry, l_command, t_pose_s):
    """Send one action through the named entry point, with ENVELOPE."""
    if entry == "predicted_drop":
        return predicted_drop(DispenseModel(0.01), ENVELOPE, l_command,
                              t_pose_s)
    if entry == "regressor":
        return regressor(Rig(ENVELOPE), l_command, t_pose_s)
    # the entries that take a delta get one above the gate
    if entry == "observed_regressor":
        return observed_regressor(Rig(ENVELOPE), l_command, t_pose_s, 10.0)
    if entry == "observed_points":
        return observed_points(Rig(ENVELOPE),
                               [(l_command, t_pose_s, False, 10.0)])
    if entry == "ObservationLog.record":
        return ObservationLog(Rig(ENVELOPE)).record(l_command, t_pose_s,
                                                    False, 10.0)
    return SimulatedPlant(make_spec(), ENVELOPE).execute(l_command, t_pose_s,
                                                         False)


class TestValveEnvelope:
    """Every entry point that takes an action applies the same envelope."""

    ENTRIES = ("predicted_drop", "regressor", "observed_regressor",
               "observed_points", "ObservationLog.record",
               "SimulatedPlant.execute")

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("l_command", [
        9.0, 101.0, float("nan"), float("inf"), -float("inf")],
        ids=["below-l_min", "above-l_max", "nan", "inf", "-inf"])
    def test_command_outside_is_rejected(self, entry, l_command):
        with pytest.raises(ValueError, match="outside the valve envelope"):
            take_action(entry, l_command, 2.0)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("t_pose_s", [0.5, 5.5, float("nan")],
                             ids=["below-t_pose_min", "above-t_pose_max",
                                  "nan"])
    def test_dwell_outside_is_rejected(self, entry, t_pose_s):
        with pytest.raises(ValueError, match="outside the valve envelope"):
            take_action(entry, 50.0, t_pose_s)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_envelope_edges_are_accepted(self, entry):
        for l_command in (10.0, 100.0):
            for t_pose_s in (1.0, 5.0):
                take_action(entry, l_command, t_pose_s)


# (class, keyword arguments it needs, field, a value on the field's
# out-of-range side or None for a field that only has to be finite)
FIELD_RULES = [
    *((PowderSpec, {"name": "p", "bulk_density": 1.0,
                    "particle_diameter": 0.1}, field, bad)
      for field, bad in (
          ("bulk_density", 0.0), ("particle_diameter", -1.0),
          ("flow_coefficient", -1.0), ("particle_correction", -1.0),
          ("critical_arch_diameter", -1.0), ("vibration_gain", -1.0),
          ("flow_noise_sigma", -1.0), ("initial_load", 0.0))),
    *((ValveKinematics, {}, field, bad) for field, bad in (
        ("opening_per_command", 0.0), ("travel_rate", 0.0),
        ("l_min", -1.0), ("l_max", 0.0), ("t_pose_min", -1.0),
        ("t_pose_max", 0.0))),
    *((BalanceModel, {}, field, bad) for field, bad in (
        ("resolution", 0.0), ("noise_sigma", -1.0),
        ("settle_time_mean", 0.0), ("settle_time_sigma", -1.0))),
    *((PidGains, {}, field, bad) for field, bad in (
        ("k_p", None), ("k_i", None), ("k_d", None),
        ("output_slope", 0.0), ("t_pose_fixed_s", -1.0),
        ("integral_limit", -1.0))),
    *((ActionGrid, {}, field, bad) for field, bad in (
        ("l_step", 0.0), ("t_step", 0.0))),
]


class TestFieldRules:
    def test_table_covers_every_numeric_field(self):
        covered = {(cls, field) for cls, _, field, _ in FIELD_RULES}
        for cls in {cls for cls, _, _, _ in FIELD_RULES}:
            for f in dataclasses.fields(cls):
                if f.name != "name":
                    assert (cls, f.name) in covered

    @pytest.mark.parametrize(
        "cls, base, field, bad", FIELD_RULES,
        ids=[f"{cls.__name__}.{field}" for cls, _, field, _ in FIELD_RULES])
    def test_field_rejects_non_finite_and_out_of_range(self, cls, base,
                                                       field, bad):
        values = [float("nan"), float("inf"), -float("inf")]
        if bad is not None:
            values.append(bad)
        for value in values:
            with pytest.raises(ValueError,
                               match=re.escape(f"{cls.__name__}.{field} ")):
                cls(**{**base, field: value})
