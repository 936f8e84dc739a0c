"""Identification of the lumped drop coefficient: the controller's online
mean-of-ratios fit and the least-squares fits of a mode's points."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powderdose import (
    GRAVITY,
    MIN_OBSERVABLE_MG,
    MODES,
    VIBRATION,
    CoefficientEstimate,
    ModeFit,
    Observation,
    ObservationLog,
    Rig,
    ValveKinematics,
    fit_coefficient,
    regressor,
)
from powderdose.identify import fit_points, observed_points, observed_regressor

KIN = ValveKinematics()
RIG = Rig(KIN)      # L0 = 0, the pure power law


def obs(x_target, delta, vibration=False):
    """Observation whose regressor value is exactly x_target.

    Uses L=1 so L**2.5 == 1 and picks the dwell to make the time window
    land on the target without rounding (T(1) = 0.01 s).
    """
    t = x_target - 1.0 / KIN.travel_rate
    o = Observation(1.0, t, vibration, delta)
    assert regressor(RIG, o.l_command, o.t_pose_s) == x_target
    return o


class TestRegressor:
    def test_composition(self):
        # x = L**2.5 * (T(L) + t)
        assert regressor(RIG, 100.0, 2.0) == 100.0 ** 2.5 * 3.0

    def test_zero_command(self):
        assert regressor(RIG, 0.0, 5.0) == 0.0


class TestFitCoefficient:
    def test_single_observation_exact(self):
        fit = fit_coefficient([obs(2.0, 4.0)], KIN, GRAVITY)
        assert fit.c_prime == 2.0
        assert fit.n_obs == 1
        assert fit.r_squared is None

    def test_two_point_exact(self):
        # num = 1*1 + 2*3 = 7, den = 1 + 4 = 5: both exact in binary
        fit = fit_coefficient([obs(1.0, 1.0), obs(2.0, 3.0)], KIN, GRAVITY)
        assert fit.c_prime == 1.4
        assert fit.n_obs == 2
        assert fit.r_squared == pytest.approx(0.9, rel=1e-12)

    def test_empty_is_unfitted(self):
        fit = fit_coefficient([], KIN, GRAVITY)
        assert fit.c_prime is None
        assert fit.n_obs == 0

    def test_all_zero_regressors_is_unfitted(self):
        rows = [Observation(0.0, 2.0, False, 1.0),
                Observation(0.0, 5.0, False, 2.0)]
        fit = fit_coefficient(rows, KIN, GRAVITY)
        assert fit.c_prime is None

    def test_mode_filter(self):
        rows = [obs(2.0, 4.0), obs(1.0, 100.0, vibration=True)]
        grav = fit_coefficient(rows, KIN, GRAVITY)
        vib = fit_coefficient(rows, KIN, VIBRATION)
        assert grav.c_prime == 2.0
        assert vib.c_prime == 100.0

    def test_all_zero_deltas_fit_zero(self):
        rows = [obs(1.0, 0.0), obs(2.0, 0.0)]
        fit = fit_coefficient(rows, KIN, GRAVITY)
        assert fit.c_prime == 0.0
        assert fit.n_obs == 2

    def test_signed_zero_deltas_fit_positive_zero(self):
        # x * -0.0 is -0.0, but the sums start at +0.0, so C' is +0.0
        rows = [obs(1.0, 0.0), obs(2.0, -0.0)]
        fit = fit_coefficient(rows, KIN, GRAVITY)
        assert fit.c_prime == 0.0
        assert math.copysign(1.0, fit.c_prime) == 1.0

    def test_exact_recovery_of_known_coefficient(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            true_c = float(rng.uniform(1e-4, 10.0))
            n = int(rng.integers(1, 9))
            rows = []
            for _ in range(n):
                l = float(rng.uniform(0.5, 210.0))
                t = float(rng.uniform(0.0, 20.0))
                rows.append(Observation(
                    l, t, False, true_c * regressor(RIG, l, t)))
            fit = fit_coefficient(rows, KIN, GRAVITY)
            assert fit.c_prime == pytest.approx(true_c, rel=1e-12)
            if n >= 2:
                assert fit.r_squared == pytest.approx(1.0)

    def test_agrees_with_lstsq_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            l = rng.uniform(1.0, 210.0, n)
            t = rng.uniform(0.0, 20.0, n)
            x = np.array([regressor(RIG, float(a), float(b))
                          for a, b in zip(l, t)])
            y = np.abs(0.05 * x + rng.normal(0.0, 0.2 * x.mean(), n))
            rows = [Observation(float(a), float(b), False, float(c))
                    for a, b, c in zip(l, t, y)]
            fit = fit_coefficient(rows, KIN, GRAVITY)
            oracle = float(np.linalg.lstsq(x[:, None], y, rcond=None)[0][0])
            assert fit.c_prime == pytest.approx(max(oracle, 0.0), rel=1e-9)


class TestRSquared:
    """The fit's R^2, at the C' the fit itself found."""

    @staticmethod
    def r_squared(rows):
        return fit_coefficient(rows, KIN, GRAVITY).r_squared

    def test_hand_case(self):
        rows = [obs(1.0, 1.0), obs(2.0, 3.0)]
        # c' = 7/5; residuals (1-1.4), (3-2.8); SS_res=0.2, SS_tot=2.0
        assert self.r_squared(rows) == pytest.approx(0.9, rel=1e-12)

    def test_fewer_than_two_observations(self):
        assert self.r_squared([]) is None
        assert self.r_squared([obs(2.0, 4.0)]) is None

    def test_perfect_fit_is_one(self):
        # c' = 28/14 = 2 exactly, so every residual is zero
        rows = [obs(1.0, 2.0), obs(2.0, 4.0), obs(3.0, 6.0)]
        assert self.r_squared(rows) == 1.0

    def test_constant_response_with_residuals_is_undefined(self):
        # c' = 15/5 = 3 leaves residuals 2 and -1 on a constant response
        rows = [obs(1.0, 5.0), obs(2.0, 5.0)]
        assert self.r_squared(rows) is None


class TestModeFitAndEstimate:
    def test_estimate_accessors(self):
        est = CoefficientEstimate(ModeFit(c_prime=2.0, n_obs=3),
                                  ModeFit(c_prime=5.0, n_obs=1))
        assert est.gravity.c_prime == 2.0
        assert est.vibration.c_prime == 5.0

    def test_defaults_are_unfitted(self):
        assert ModeFit() == ModeFit(None, 0, None)
        assert ModeFit(2.0).n_obs == 0 and ModeFit(2.0).r_squared is None
        est = CoefficientEstimate()
        for mode in (est.gravity, est.vibration):
            assert mode == ModeFit() and mode.c_prime is None
        assert CoefficientEstimate(ModeFit(2.0)).vibration == ModeFit()

    def test_repr(self):
        assert repr(ModeFit(2.0, 3)) \
            == "ModeFit(c_prime=2.0, n_obs=3, r_squared=None)"
        assert repr(CoefficientEstimate()) == (
            "CoefficientEstimate("
            "gravity=ModeFit(c_prime=None, n_obs=0, r_squared=None), "
            "vibration=ModeFit(c_prime=None, n_obs=0, r_squared=None))")

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_c_prime_must_be_finite_and_non_negative(self, bad):
        message = "ModeFit.c_prime must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            ModeFit(bad)
        with pytest.raises(ValueError, match=message):
            ModeFit(c_prime=bad, n_obs=2)
        # every other way to build one goes through the same check
        with pytest.raises(ValueError, match=message):
            ModeFit(2.0)._replace(c_prime=bad)
        with pytest.raises(ValueError, match=message):
            ModeFit._make([bad, 2, None])


class TestObservationLog:
    def test_observability_gate(self):
        log = ObservationLog(RIG)
        assert not log.record(10.0, 2.0, False, 0.4)
        assert not log.record(10.0, 2.0, False, 0.0)
        assert log.record(10.0, 2.0, False, 0.5).n_obs == 1

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_delta(self, delta):
        log = ObservationLog(RIG)
        with pytest.raises(ValueError, match=f"^measured_delta_mg must be "
                           f"finite, got {delta!r}$"):
            log.record(10.0, 2.0, False, delta)

    def test_fit_is_the_mean_of_the_ratios(self):
        # ratios 1 and 3 average to 2; least squares gives
        # (1*1 + 2*6) / (1 + 4) = 2.6 over the same points
        log = ObservationLog(RIG)
        first, second = obs(1.0, 1.0), obs(2.0, 6.0)
        fits = [log.record(o.l_command, o.t_pose_s, False, o.delta_w_mg)
                for o in (first, second)]
        assert fits == [ModeFit(c_prime=1.0, n_obs=1),
                        ModeFit(c_prime=2.0, n_obs=2)]
        assert fit_coefficient([first, second], KIN, GRAVITY).c_prime == 2.6

    def test_zero_regressor_leaves_the_fit(self):
        # a zero command, and a command whose L**2.5 underflows, have no
        # ratio to add
        log = ObservationLog(RIG)
        assert log.record(0.0, 5.0, False, 10.0) is None
        assert log.record(1.0, 1.99, False, 4.0) == ModeFit(c_prime=2.0,
                                                            n_obs=1)
        assert log.record(1e-200, 20.0, False, 10.0) is None
        assert log.record(1.0, 1.99, False, 8.0) == ModeFit(c_prime=3.0,
                                                            n_obs=2)

    def test_mode_isolation_and_fit(self):
        log = ObservationLog(RIG)
        assert log.record(1.0, 1.99, False, 4.0) == ModeFit(2.0, 1)
        assert log.record(1.0, 0.99, True, 7.0) == ModeFit(7.0, 1)
        assert log.record(1.0, 1.99, False, 8.0) == ModeFit(3.0, 2)
        assert log.record(1.0, 0.99, True, 7.0) == ModeFit(7.0, 2)

    def test_refit_is_fixed_point_on_model_consistent_data(self):
        # feeding the fitted model's own predictions back in cannot move it
        log = ObservationLog(RIG)
        rng = np.random.default_rng(7)
        for _ in range(6):
            l = float(rng.uniform(1.0, 210.0))
            t = float(rng.uniform(0.0, 20.0))
            fit = log.record(l, t, False, 0.03 * regressor(RIG, l, t))
        first = fit.c_prime
        again = log.record(40.0, 3.0, False,
                           first * regressor(RIG, 40.0, 3.0)).c_prime
        assert math.isclose(first, again, rel_tol=1e-12)

    def test_observation_validation(self):
        with pytest.raises(ValueError):
            Observation(10.0, 2.0, False, -1.0)
        with pytest.raises(ValueError):
            Observation(10.0, 2.0, False, float("inf"))
        row = Observation(10.0, 2.0, True, 1.5)
        assert row.vibration and row.delta_w_mg == 1.5


entries = st.lists(
    st.tuples(
        st.floats(0.0, KIN.l_max),
        st.floats(KIN.t_pose_min, KIN.t_pose_max),
        st.booleans(),
        st.floats(MIN_OBSERVABLE_MG, 5000.0),
        st.booleans(),
    ),
    max_size=40)


class TestRunningSumFit:
    @settings(max_examples=300, deadline=None)
    @given(entries)
    @example([(0.0, 2.0, False, 10.0, True),         # x == 0
              (1e-123, 1.0, False, 5000.0, True),    # ratio overflows
              (5.0, 1.0, False, 1.0, True)])
    def test_matches_full_refit_bit_for_bit(self, rows):
        """The log's C' is the mean of dW/x over the observations it kept
        of a mode, summed in arrival order. An observation with x == 0,
        or one whose ratio would leave the float range, changes nothing;
        the second is a ValueError."""
        log = ObservationLog(RIG)
        kept = {GRAVITY: [], VIBRATION: []}
        fits = {GRAVITY: ModeFit(), VIBRATION: ModeFit()}

        def mean(ratios):
            total = 0.0
            for ratio in ratios:
                total += ratio
            return total / len(ratios) if ratios else None

        for l, t, vibration, delta, _ in rows:
            m = VIBRATION if vibration else GRAVITY
            x = regressor(RIG, l, t)
            if x == 0.0:
                assert log.record(l, t, vibration, delta) is None
            elif math.isfinite(mean(kept[m] + [delta / x])):
                kept[m].append(delta / x)
                fits[m] = log.record(l, t, vibration, delta)
            else:
                with pytest.raises(ValueError):
                    log.record(l, t, vibration, delta)
            for m, fit in fits.items():
                assert (fit.c_prime, fit.n_obs, fit.r_squared) \
                    == (mean(kept[m]), len(kept[m]), None)
                assert fit.c_prime is None or fit.c_prime >= 0.0

    def test_command_outside_the_envelope_is_rejected(self):
        log = ObservationLog(RIG)
        assert not log.record(KIN.l_max + 1.0, 2.0, False, 0.1)  # gated out
        with pytest.raises(ValueError):
            log.record(KIN.l_max + 1.0, 2.0, False, 10.0)
        with pytest.raises(ValueError):
            log.record(-1.0, 2.0, False, 10.0)
        assert log.record(10.0, 2.0, False, 10.0).n_obs == 1
        with pytest.raises(ValueError):
            fit_coefficient([Observation(KIN.l_max + 1.0, 2.0, False, 10.0)],
                            KIN, GRAVITY)


class TestObservedPoints:
    """observed_points is observed_regressor's rule over a trial's points:
    one verdict and one regressor per point, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(l_offset=st.one_of(st.just(0.0), st.floats(0.0, KIN.l_max)),
           points=st.lists(st.tuples(
               st.floats(-1.0, KIN.l_max + 1.0),
               st.floats(KIN.t_pose_min, KIN.t_pose_max),
               st.booleans(),
               st.one_of(st.floats(-5.0, 50.0),
                         st.sampled_from([math.nan, math.inf, -math.inf]))),
               max_size=30))
    def test_matches_observed_regressor_point_by_point(self, l_offset,
                                                       points):
        rig = Rig(KIN, l_offset=l_offset)
        expected = (([], []), ([], []))
        error = None
        for step, (l, t, vibration, delta) in enumerate(points, 1):
            try:
                x = observed_regressor(rig, l, t, delta)
            except ValueError as exc:
                error = f"step {step}: {exc}"
                break
            if x is not None:
                expected[vibration][0].append(x)
                expected[vibration][1].append(delta)
        if error is None:
            assert observed_points(rig, points) == expected
        else:
            with pytest.raises(ValueError) as info:
                observed_points(rig, points)
            assert str(info.value) == error

    def test_the_offset_is_the_rigs(self):
        rig = Rig(KIN, l_offset=20.0)
        points = [(10.0, 1.0, False, 5.0),    # at or below L0: x = 0, kept
                  (30.0, 1.0, False, 0.4),    # below the gate
                  (30.0, 1.0, True, 0.5)]     # at the gate
        assert observed_points(rig, points) == (
            ([0.0], [5.0]),
            ([10.0 ** 2.5 * (30.0 / KIN.travel_rate + 1.0)], [0.5]))
        log = ObservationLog(rig)
        assert log.record(*points[0]) is None      # no ratio at x = 0
        assert log.record(*points[1]) is None
        assert log.record(*points[2]).n_obs == 1


class TestFitPoints:
    """fit_coefficient and the pooled fits share one estimator."""

    @settings(max_examples=300, deadline=None)
    @given(entries, st.sampled_from(MODES))
    def test_fit_coefficient_is_fit_points_over_its_mode(self, rows, mode):
        observations = [Observation(l, t, vibration, delta)
                        for l, t, vibration, delta, _ in rows]
        selected = [o for o in observations
                    if o.vibration == (mode == VIBRATION)]
        fit = fit_coefficient(observations, KIN, mode)
        pooled = fit_points([regressor(RIG, o.l_command, o.t_pose_s)
                             for o in selected],
                            [o.delta_w_mg for o in selected])
        assert (fit.c_prime, fit.n_obs, fit.r_squared) \
            == (pooled.c_prime, pooled.n_obs, pooled.r_squared)

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(ValueError):
            fit_points([1.0, 2.0], [1.0])

    def test_a_fitted_mode_carries_its_r_squared(self):
        # the two-point hand case of TestRSquared, as raw columns
        fit = fit_points([1.0, 2.0], [1.0, 3.0])
        assert type(fit) is ModeFit
        assert (fit.c_prime, fit.n_obs) == (1.4, 2)
        assert fit.r_squared == pytest.approx(0.9, rel=1e-12)


class TestModeNames:
    """fit_coefficient takes a mode by name and checks it."""

    @pytest.mark.parametrize("call", [
        lambda mode: fit_coefficient([obs(2.0, 4.0)], KIN, mode),
    ], ids=["fit_coefficient"])
    @pytest.mark.parametrize("mode", ["vibratoin", "Gravity", "", None])
    def test_unknown_mode_is_rejected(self, call, mode):
        with pytest.raises(ValueError) as info:
            call(mode)
        assert str(info.value) \
            == "mode must be one of ('gravity', 'vibration')"
