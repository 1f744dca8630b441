from dataclasses import replace
import math

import pytest
from hypothesis import given, settings, strategies as st

from mergesim.config import ConfigError, RunConfig
from mergesim.driver import (blended_error, longitudinal_accel,
                             steering_command, steering_limit)
from mergesim.dynamics import GRAVITY

CFG = RunConfig()


def make_profile(q=0.5, **fields):
    """The profile at q of the default config with `fields` changed."""
    return replace(CFG, **fields).profile(q)


# Floats for the inline clamps: signed zeros and infinities drawn often,
# and small values that meet each other, and so a bound, exactly.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, math.inf, -math.inf]),
    st.floats(allow_nan=False))


def steer_limit(lat_accel_limit, v, **fields):
    """steering_limit at a lateral acceleration limit in m/s^2, for the
    profile of a config with `fields` changed."""
    profile = replace(make_profile(**fields),
                      lat_accel_g=lat_accel_limit / GRAVITY)
    return steering_limit(profile, v)


# Configs that vary every field a derived constant of the profile reads.
_PROFILE_CONFIGS = st.builds(
    RunConfig,
    nominal_accel_g=st.floats(0.01, 1.0),
    directive_accel_gain=st.floats(0.0, 3.0),
    risk_tolerance_max=st.floats(0.0, 40.0),
    slot_ride_cautious=st.floats(0.0, 1.0),
    slot_ride_aggressive=st.floats(0.0, 1.0),
    hysteresis_base=st.floats(0.0, 40.0),
    hysteresis_curve=st.floats(0.0, 40.0),
    clearance_diagonals=st.floats(0.0, 4.0),
    accel_limit_g_cautious=st.floats(0.01, 1.0),
    accel_limit_g_aggressive=st.floats(0.01, 1.0),
    body_length=st.floats(3.0, 12.0), body_width=st.floats(1.0, 3.0),
    kp_long=st.floats(0.0, 5.0), kd_long=st.floats(0.0, 5.0),
    kp_lat=st.floats(0.0, 5.0), kd_lat=st.floats(0.0, 5.0),
    accel_cap_g=st.floats(0.01, 1.0), steer_cap_deg=st.floats(0.5, 89.5),
    brake_factor=st.floats(0.1, 3.0),
    dist_front=st.floats(0.5, 2.5), dist_rear=st.floats(0.5, 2.5),
    lat_accel_g_cautious=st.floats(0.01, 1.0),
    lat_accel_g_aggressive=st.floats(0.01, 1.0),
    understeer_gradient=st.floats(0.0, 10.0),
    speed_weight=st.floats(0.0, 1.0))


class TestProfileFromQ:
    def test_magnification_endpoints(self):
        assert CFG.profile(1.0).bound_scale == pytest.approx(1.3)
        assert CFG.profile(0.0).bound_scale == pytest.approx(1.0)
        assert CFG.profile(0.5).bound_scale == pytest.approx(1.15)

    def test_accel_limit_endpoints(self):
        # The comfort bound; the physical accel_cap_g (0.5 g) lies above it.
        assert CFG.profile(0.0).accel_hi == pytest.approx(0.1 * GRAVITY)
        assert CFG.profile(1.0).accel_hi == pytest.approx(0.3 * GRAVITY)

    def test_prediction_time_midpoint(self):
        cfg = RunConfig(prediction_time_cautious=2.2,
                        prediction_time_aggressive=0.6)
        assert cfg.profile(0.5).prediction_time == pytest.approx(1.4)

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.0001, float("nan"), True):
            with pytest.raises(ConfigError):
                CFG.profile(bad)

    def test_monotone_maps(self):
        qs = [i / 100 for i in range(101)]
        profiles = [CFG.profile(q) for q in qs]
        for a, b in zip(profiles, profiles[1:]):
            assert b.prediction_time <= a.prediction_time
            assert b.accel_hi >= a.accel_hi
            assert b.bound_scale >= a.bound_scale
        for p in profiles:
            assert 1.0 <= p.bound_scale <= 1.3
            assert 0.1 * GRAVITY - 1e-12 <= p.accel_hi <= 0.3 * GRAVITY + 1e-12

    def test_continuity(self):
        for q in (0.0, 0.25, 0.5, 0.999):
            a, b = CFG.profile(q), CFG.profile(q + 1e-6)
            assert abs(a.prediction_time - b.prediction_time) < 1e-4
            assert abs(a.accel_hi - b.accel_hi) < 1e-4

    @settings(max_examples=300, deadline=None)
    @given(cfg=_PROFILE_CONFIGS, q=st.floats(0.0, 1.0))
    def test_decision_constants_follow_their_formulas(self, cfg, q):
        """Each decision and PD-law constant bit for bit, at q and at every
        value of the 0:1:0.1 sweep axis, written out from the config's
        fields."""
        for q in (q, *(i / 10 for i in range(11))):
            accel_limit = (cfg.accel_limit_g_cautious
                           + (cfg.accel_limit_g_aggressive
                              - cfg.accel_limit_g_cautious) * q) * GRAVITY
            clearance = cfg.clearance_diagonals * math.hypot(
                cfg.body_length, cfg.body_width)
            risk = cfg.risk_tolerance_max * max(0.0, 2.0 * q - 1.0)
            directive = cfg.nominal_accel_g * GRAVITY
            accel_cap = cfg.accel_cap_g * GRAVITY
            lat_accel_limit = (cfg.lat_accel_g_cautious
                               + (cfg.lat_accel_g_aggressive
                                  - cfg.lat_accel_g_cautious) * q) * GRAVITY
            want = {
                "risk_tolerance": risk,
                "hysteresis": max(0.0, cfg.hysteresis_base
                                  - cfg.hysteresis_curve * q ** 3),
                "nominal_accel": min(
                    directive * (cfg.directive_accel_gain + q), accel_limit),
                "nominal_decel": min(
                    directive * (1.0 + cfg.directive_accel_gain - q),
                    accel_limit),
                "slot_ride": cfg.slot_ride_cautious + (
                    cfg.slot_ride_aggressive - cfg.slot_ride_cautious) * q * q,
                "slot_rear_min": max(1.0, clearance - 0.8 * risk),
                "kp_long": cfg.kp_long, "kd_long": cfg.kd_long,
                "kp_lat": cfg.kp_lat, "kd_lat": cfg.kd_lat,
                "steer_cap": math.radians(cfg.steer_cap_deg),
                "accel_hi": min(accel_limit, accel_cap),
                "brake_lo": -min(accel_limit * cfg.brake_factor, accel_cap),
                "guard_lo": -accel_cap,
                "steer_scale": 57.3 * (cfg.dist_front + cfg.dist_rear)
                * GRAVITY,
                "lat_accel_g": lat_accel_limit / GRAVITY,
                "understeer_gradient": cfg.understeer_gradient,
                "speed_weight": cfg.speed_weight}
            profile = cfg.profile(q)
            assert {name: getattr(profile, name).hex() for name in want} == \
                {name: value.hex() for name, value in want.items()}


class TestLongitudinalAccel:
    def test_zero_error_zero_output(self):
        assert longitudinal_accel(make_profile(), 0.0, 0.0) == 0.0

    def test_comfort_limit_selected(self):
        # accel limit 0.1 g = 0.981
        profile = make_profile(0.0, kp_long=1.0, kd_long=0.0)
        assert longitudinal_accel(profile, 5.0, 0.0) == pytest.approx(0.981)

    def test_direct_pd_value(self):
        profile = make_profile(1.0, kp_long=0.5, kd_long=0.0, accel_cap_g=1.0)
        assert longitudinal_accel(profile, 2.0, 0.0) == pytest.approx(1.0)

    def test_symmetric_braking_clamp(self):
        profile = make_profile(0.0, kp_long=1.0, kd_long=0.0)
        assert longitudinal_accel(profile, -50.0, 0.0) == \
            pytest.approx(-0.981)

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0, 1))
    def test_bounded_by_limits(self, e, e_dot, q):
        profile = CFG.profile(q)
        a = longitudinal_accel(profile, e, e_dot)
        assert abs(a) <= min((0.1 + 0.2 * q) * GRAVITY,
                             CFG.accel_cap_g * GRAVITY) + 1e-12

    @given(st.data())
    def test_clamp_is_the_min_max_formula(self, data):
        draw = data.draw
        lo = draw(EDGE_FLOATS)
        hi = draw(st.one_of(st.just(lo), EDGE_FLOATS))
        profile = replace(CFG.profile(0.5), brake_lo=lo, accel_hi=hi,
                          kp_long=draw(st.one_of(st.just(1.0), EDGE_FLOATS)),
                          kd_long=draw(EDGE_FLOATS))
        error = draw(st.one_of(st.sampled_from([lo, hi]), EDGE_FLOATS))
        rate = draw(EDGE_FLOATS)
        raw = profile.kp_long * error + profile.kd_long * rate
        assert longitudinal_accel(profile, error, rate).hex() == \
            min(max(raw, lo), hi).hex()


class TestSteering:
    def test_zero_error_zero_output(self):
        assert steering_command(make_profile(), 0.0, 0.0, 20.0) == 0.0

    @pytest.mark.parametrize("e_lat, e_rate", [
        (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)])
    @pytest.mark.parametrize("v", [0.0, 5e-324, 20.0])
    def test_zero_command_keeps_the_sign_the_clamp_gives(self, e_lat, e_rate,
                                                         v):
        # A zero raw command returns before the limit; the clamp of the
        # full law, min(max(raw, -bound), bound), returns raw itself.
        raw = CFG.kp_lat * e_lat + CFG.kd_lat * e_rate
        profile = make_profile()
        bound = min(steering_limit(profile, v), profile.steer_cap)
        got = steering_command(profile, e_lat, e_rate, v)
        assert got.hex() == min(max(raw, -bound), bound).hex() == raw.hex()

    def test_clamped_at_lateral_limit(self):
        profile = make_profile(0.5, kp_lat=10.0, kd_lat=0.0)
        limit = min(steering_limit(profile, 25.0), profile.steer_cap)
        assert steering_command(profile, 3.3, 0.0, 25.0) == \
            pytest.approx(limit)
        assert steering_command(profile, -3.3, 0.0, 25.0) == \
            pytest.approx(-limit)

    def test_direct_pd_value(self):
        profile = make_profile(1.0, kp_lat=0.05, kd_lat=0.0,
                               steer_cap_deg=89.0)
        # slow enough that the lateral-acceleration limit is huge
        assert steering_command(profile, 1.0, 0.0, 1.0) == \
            pytest.approx(0.05)

    @given(st.floats(-100, 100), st.floats(-50, 50), st.floats(0, 1),
           st.floats(0.5, 40.0))
    def test_bounded(self, e, e_dot, q, v):
        profile = CFG.profile(q)
        delta = steering_command(profile, e, e_dot, v)
        bound = min(steering_limit(profile, v), profile.steer_cap)
        assert abs(delta) <= bound + 1e-12

    @given(st.data())
    def test_clamp_is_the_min_max_formula(self, data):
        draw = data.draw
        cap = draw(EDGE_FLOATS)
        profile = replace(CFG.profile(draw(st.floats(0, 1))), steer_cap=cap,
                          kp_lat=draw(st.one_of(st.just(1.0), EDGE_FLOATS)),
                          kd_lat=draw(EDGE_FLOATS))
        # At v = inf the limit is NaN, and the clamp must let raw through.
        v = draw(st.one_of(st.just(math.inf), EDGE_FLOATS))
        limit = steering_limit(profile, v)
        e_lat = draw(st.one_of(st.sampled_from([cap, -cap, limit, -limit]),
                               EDGE_FLOATS))
        e_rate = draw(EDGE_FLOATS)
        raw = profile.kp_lat * e_lat + profile.kd_lat * e_rate
        bound = min(limit, cap)
        want = raw if raw == 0.0 else min(max(raw, -bound), bound)
        assert steering_command(profile, e_lat, e_rate, v).hex() == want.hex()


class TestSteeringLimit:
    def test_known_value(self):
        got = steer_limit(0.3 * GRAVITY, 20.0, dist_front=1.2, dist_rear=1.5,
                          understeer_gradient=0.0)  # wheelbase 2.7
        # independent evaluation of the lateral acceleration gain relation
        gain = 20.0 ** 2 / (57.3 * 2.7 * GRAVITY)
        want = math.radians(0.3 / gain)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.019868, abs=1e-4)

    def test_inactive_at_standstill(self):
        assert steer_limit(3.0, 0.0) == math.inf
        assert steer_limit(3.0, -1.0) == math.inf

    @pytest.mark.parametrize("v", [1e-200, 5e-324])
    def test_inactive_where_the_gain_underflows(self, v):
        # v * v underflows to 0, so the gain vanishes as at standstill.
        assert v * v == 0.0
        assert steer_limit(3.0, v) == math.inf
        assert steering_command(make_profile(), 5.0, 0.0, v) == \
            math.radians(CFG.steer_cap_deg)

    def test_monotone_in_understeer_gradient(self):
        import random
        rng = random.Random(7)
        for _ in range(100):
            v = rng.uniform(5, 40)
            a_yl = rng.uniform(0.5, 5.0)
            lf, lr = rng.uniform(0.8, 1.6), rng.uniform(1.0, 2.0)
            k0, k1 = sorted((rng.uniform(0, 4), rng.uniform(0, 4)))
            if k1 - k0 < 1e-6:
                continue
            assert steer_limit(a_yl, v, dist_front=lf, dist_rear=lr,
                               understeer_gradient=k1) > \
                steer_limit(a_yl, v, dist_front=lf, dist_rear=lr,
                            understeer_gradient=k0)

    def test_matches_independent_evaluation(self):
        import random
        rng = random.Random(13)
        for _ in range(300):
            v = rng.uniform(0.5, 45.0)
            a_yl = rng.uniform(0.2, 6.0)
            fields = dict(dist_front=rng.uniform(0.8, 1.8),
                          dist_rear=rng.uniform(0.9, 2.0),
                          understeer_gradient=rng.uniform(0.0, 5.0))
            gain = v * v / (57.3 * (fields["dist_front"] + fields["dist_rear"])
                            * GRAVITY + fields["understeer_gradient"] * v * v)
            want = math.radians((a_yl / GRAVITY) / gain)
            assert steer_limit(a_yl, v, **fields) == pytest.approx(want,
                                                                   abs=1e-12)


def test_blended_error_weights():
    e, e_dot = blended_error(2.0, -4.0, 1.0, speed_weight=0.5)
    assert e == pytest.approx(-1.0)
    assert e_dot == pytest.approx(0.5)
    e, e_dot = blended_error(2.0, -4.0, 1.0, speed_weight=1.0)
    assert e == pytest.approx(2.0)
    assert e_dot == pytest.approx(0.0)
