import random

import pytest
from hypothesis import given, strategies as st

from mergesim.driver import DriverProfile
from mergesim.game import (ACTIONS, LEFT, STRAIGHT, PayoffBimatrix,
                           headway_utility, solve_stackelberg,
                           squeeze_penalty)

from test_driver import EDGE_FLOATS


def profile(scale=0.65, visibility=100.0, prediction=1.0, clearance=10.0):
    return DriverProfile(
        visibility_scale=scale, prediction_time=prediction,
        bound_scale=1.15, visibility_range=visibility,
        lane_change_clearance=clearance,
        follow_headway=0.35, risk_tolerance=0.0, hysteresis=14.675,
        nominal_accel=1.4715, nominal_decel=1.4715, slot_ride=0.4375,
        slot_rear_min=clearance, kp_long=0.3, kd_long=0.6, kp_lat=0.25,
        kd_lat=0.15, steer_cap=0.5236, accel_hi=2.0, brake_lo=-2.0,
        guard_lo=-4.905, steer_scale=1573.9, lat_accel_g=0.255,
        understeer_gradient=2.0, speed_weight=0.5)


class TestHeadwayUtility:
    def test_gap_selected_when_small(self):
        assert headway_utility(50.0, profile(scale=1.0)) == 50.0

    def test_zero_gap(self):
        assert headway_utility(0.0, profile()) == 0.0

    def test_visibility_cap(self):
        assert headway_utility(200.0, profile(scale=0.65)) == pytest.approx(65.0)

    @given(st.floats(0, 500), st.floats(0, 500))
    def test_monotone_and_bounded(self, a, b):
        p = profile(scale=0.65)
        lo, hi = sorted((a, b))
        assert headway_utility(lo, p) <= headway_utility(hi, p)
        assert headway_utility(hi, p) <= 0.65 * 100.0

    @given(st.data())
    def test_clamp_is_the_min_formula(self, data):
        scale, visibility = data.draw(EDGE_FLOATS), data.draw(EDGE_FLOATS)
        cap = scale * visibility
        gap = data.draw(st.one_of(st.just(cap), EDGE_FLOATS))
        assert headway_utility(gap, profile(scale, visibility)).hex() == \
            min(gap, cap).hex()


class TestSqueezePenalty:
    # One penalty serves a slot's follower (room: the gap behind, closing
    # speed: the follower's speed minus the ego's) and the end of the merge
    # lane (room: the distance to it, closing speed: the ego's speed).
    def test_direct_value(self):
        assert squeeze_penalty(12.0, 5.0, profile(prediction=1.0)) == \
            pytest.approx(3.0)

    def test_exact_balance(self):
        assert squeeze_penalty(10.0, 0.0, profile()) == pytest.approx(0.0)

    def test_large_gap_means_no_penalty(self):
        assert squeeze_penalty(1e6, 0.0, profile()) < -1e5

    @given(st.floats(0, 200), st.floats(0, 200), st.floats(-10, 10))
    def test_strictly_decreasing_in_gap(self, a, b, v_r):
        p = profile()
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        assert squeeze_penalty(hi, v_r, p) < squeeze_penalty(lo, v_r, p)

    @given(st.floats(0, 200), st.floats(-10, 10), st.floats(-10, 10))
    def test_nondecreasing_in_closing_speed(self, gap, a, b):
        p = profile()
        lo, hi = sorted((a, b))
        assert squeeze_penalty(gap, hi, p) >= squeeze_penalty(gap, lo, p)

    def test_lane_end_direct_value(self):
        assert squeeze_penalty(25.0, 20.0, profile(prediction=1.0)) == \
            pytest.approx(5.0)

    def test_cheap_far_from_lane_end(self):
        assert squeeze_penalty(1e6, 20.0, profile()) < -1e5


def bimatrix(u1, u2):
    pairs = ((LEFT, LEFT), (LEFT, STRAIGHT), (STRAIGHT, LEFT),
             (STRAIGHT, STRAIGHT))
    return PayoffBimatrix(leader={pair: u1[pair] for pair in pairs},
                          follower={pair: u2[pair] for pair in pairs})


def brute_force_solution(bim):
    """Independent enumeration of the secure leader strategy."""
    options = []
    for leader_action in ACTIONS:
        payoffs = {fa: bim.follower[(leader_action, fa)] for fa in ACTIONS}
        best = max(payoffs.values())
        responses = [fa for fa in ACTIONS if payoffs[fa] == best]
        secure = min(bim.leader[(leader_action, fa)] for fa in responses)
        worst_set = [fa for fa in responses
                     if bim.leader[(leader_action, fa)] == secure]
        follower = STRAIGHT if STRAIGHT in worst_set else worst_set[0]
        options.append((secure, leader_action, follower))
    top = max(value for value, _, _ in options)
    tied = [(a, f) for value, a, f in options if value == top]
    for action, follower in tied:
        if action == STRAIGHT:
            return action, follower
    return tied[0]


class TestSolveStackelberg:
    def test_worked_example(self):
        u1 = {(LEFT, LEFT): 5, (LEFT, STRAIGHT): 4,
              (STRAIGHT, LEFT): 1, (STRAIGHT, STRAIGHT): 2}
        u2 = {(LEFT, LEFT): 0, (LEFT, STRAIGHT): 3,
              (STRAIGHT, LEFT): 2, (STRAIGHT, STRAIGHT): 1}
        assert solve_stackelberg(bimatrix(u1, u2)) == (LEFT, STRAIGHT)

    def test_all_equal_prefers_straight(self):
        u = {pair: 7.0 for pair in
             ((LEFT, LEFT), (LEFT, STRAIGHT), (STRAIGHT, LEFT),
              (STRAIGHT, STRAIGHT))}
        assert solve_stackelberg(bimatrix(u, dict(u))) == (STRAIGHT, STRAIGHT)

    def test_constant_shift_invariance(self):
        rng = random.Random(17)
        pairs = [(a, b) for a in ACTIONS for b in ACTIONS]
        for _ in range(200):
            u1 = {p: rng.uniform(-10, 10) for p in pairs}
            u2 = {p: rng.uniform(-10, 10) for p in pairs}
            base = solve_stackelberg(bimatrix(u1, u2))
            c1, c2 = rng.uniform(-100, 100), rng.uniform(-100, 100)
            shifted = bimatrix({p: v + c1 for p, v in u1.items()},
                               {p: v + c2 for p, v in u2.items()})
            assert solve_stackelberg(shifted) == base

    def test_matches_brute_force_on_random_bimatrices(self):
        rng = random.Random(2024)
        pairs = [(a, b) for a in ACTIONS for b in ACTIONS]
        for _ in range(1000):
            u1 = {p: rng.uniform(-50, 50) for p in pairs}
            u2 = {p: rng.uniform(-50, 50) for p in pairs}
            bim = bimatrix(u1, u2)
            assert solve_stackelberg(bim) == brute_force_solution(bim)

    def test_matches_brute_force_with_ties(self):
        rng = random.Random(7)
        pairs = [(a, b) for a in ACTIONS for b in ACTIONS]
        for _ in range(1000):
            # small integer payoffs force frequent ties
            u1 = {p: float(rng.randint(-2, 2)) for p in pairs}
            u2 = {p: float(rng.randint(-2, 2)) for p in pairs}
            bim = bimatrix(u1, u2)
            assert solve_stackelberg(bim) == brute_force_solution(bim)
