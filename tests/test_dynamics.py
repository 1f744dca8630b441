import cmath
from dataclasses import replace
import math
import random

from hypothesis import example, given, settings, strategies as st
import pytest

from mergesim.config import RunConfig
from mergesim.dynamics import LOW_SPEED_FLOOR, Controls, VehicleState, step

from dynamics_reference import (lateral_derivative, lateral_matrices,
                                pose_derivative)

PARAMS = RunConfig().vehicle_params()


def test_lateral_equilibrium_is_zero():
    state = VehicleState(v_long=20.0, v_lat=0.0, yaw_rate=0.0)
    assert lateral_derivative(state, PARAMS, 0.0) == (0.0, 0.0)


def test_lateral_steering_column_only():
    state = VehicleState(v_long=20.0)
    dv_lat, dr = lateral_derivative(state, PARAMS, 0.01)
    assert dv_lat == pytest.approx(PARAMS.corner_stiff_front / PARAMS.mass * 0.01,
                                   abs=1e-15)
    assert dr == pytest.approx(
        PARAMS.dist_front * PARAMS.corner_stiff_front / PARAMS.yaw_inertia * 0.01,
        abs=1e-15)


def test_lateral_matches_elementwise_oracle():
    rng = random.Random(42)
    for _ in range(300):
        params = replace(
            PARAMS, mass=rng.uniform(900, 2500), yaw_inertia=rng.uniform(1200, 5000),
            dist_front=rng.uniform(0.8, 1.8), dist_rear=rng.uniform(1.0, 2.0),
            corner_stiff_front=-rng.uniform(30000, 90000),
            corner_stiff_rear=-rng.uniform(30000, 90000))
        state = VehicleState(v_long=rng.uniform(1.0, 40.0),
                             v_lat=rng.uniform(-3, 3),
                             yaw_rate=rng.uniform(-0.5, 0.5))
        steer = rng.uniform(-0.3, 0.3)
        # Element-by-element evaluation, written out separately.
        cf, cr = params.corner_stiff_front, params.corner_stiff_rear
        lf, lr = params.dist_front, params.dist_rear
        m, iz, u = params.mass, params.yaw_inertia, state.v_long
        want_dv = ((cf + cr) / (m * u) * state.v_lat
                   + ((-lf * cf + lr * cr) / (m * u) - u) * state.yaw_rate
                   + cf / m * steer)
        want_dr = ((lf * cf - lr * cr) / (iz * u) * state.v_lat
                   + (-lf ** 2 * cf + lr ** 2 * cr) / (iz * u) * state.yaw_rate
                   + lf * cf / iz * steer)
        got_dv, got_dr = lateral_derivative(state, params, steer)
        assert got_dv == pytest.approx(want_dv, abs=1e-12)
        assert got_dr == pytest.approx(want_dr, abs=1e-12)


def test_lateral_frozen_at_low_speed():
    state = VehicleState(v_long=0.05, v_lat=1.0, yaw_rate=0.2)
    assert lateral_derivative(state, PARAMS, 0.2) == (0.0, 0.0)
    assert lateral_derivative(VehicleState(v_long=0.1), PARAMS, 0.2) == (0.0, 0.0)


def test_plant_is_stable_at_nominal_speed():
    ((a, b), (c, d)), _ = lateral_matrices(PARAMS, 22.2)
    # The two roots of the characteristic polynomial of the 2x2 matrix.
    trace, root = a + d, cmath.sqrt((a + d) ** 2 - 4.0 * (a * d - b * c))
    eig = [(trace + root) / 2.0, (trace - root) / 2.0]
    assert all(value.real < 0 for value in eig)


def test_pose_rates():
    assert pose_derivative(VehicleState(v_long=20.0)) == (20.0, 0.0, 0.0)
    dy, dx, dh = pose_derivative(VehicleState(v_long=20.0, heading=math.pi / 2))
    assert dy == pytest.approx(0.0, abs=1e-12)
    assert dx == pytest.approx(20.0)
    dy, dx, dh = pose_derivative(
        VehicleState(v_long=10.0, heading=math.pi / 4, yaw_rate=0.1))
    assert dy == pytest.approx(7.0711, abs=1e-4)
    assert dx == pytest.approx(7.0711, abs=1e-4)
    assert dh == pytest.approx(0.1)


def test_step_constant_velocity():
    state = VehicleState(v_long=20.0)
    for _ in range(100):
        state = step(state, PARAMS, Controls(), 0.01)
    assert state.y == pytest.approx(20.0, abs=1e-9)
    assert state.x == 0.0
    assert state.heading == 0.0
    assert state.v_long == 20.0


def test_step_zero_dt_is_identity():
    state = VehicleState(x=1.0, y=2.0, heading=0.1, v_long=15.0,
                         v_lat=0.2, yaw_rate=0.05)
    assert step(state, PARAMS, Controls(accel=1.0, steer=0.1), 0.0) is state


def test_step_rejects_bad_inputs():
    state = VehicleState(v_long=20.0)
    with pytest.raises(ValueError):
        step(state, PARAMS, Controls(accel=float("nan")), 0.01)
    with pytest.raises(ValueError):
        step(state, PARAMS, Controls(steer=float("inf")), 0.01)
    with pytest.raises(ValueError):
        step(state, PARAMS, Controls(), -0.01)


def test_speed_never_driven_below_zero():
    state = VehicleState(v_long=0.3)
    for _ in range(200):
        state = step(state, PARAMS, Controls(accel=-2.0), 0.01)
    assert state.v_long == 0.0
    assert math.isfinite(state.x) and math.isfinite(state.y)


def _integrate(dt: float, duration: float = 10.0) -> VehicleState:
    state = VehicleState(v_long=22.2)
    controls = Controls(accel=0.0, steer=0.01)
    for _ in range(round(duration / dt)):
        state = step(state, PARAMS, controls, dt)
    return state


def _state_distance(a: VehicleState, b: VehicleState) -> float:
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2
                     + (a.heading - b.heading) ** 2
                     + (a.v_lat - b.v_lat) ** 2
                     + (a.yaw_rate - b.yaw_rate) ** 2)


def test_step_halving_shows_fourth_order():
    reference = _integrate(0.0025)
    err_coarse = _state_distance(_integrate(0.04), reference)
    err_fine = _state_distance(_integrate(0.02), reference)
    assert err_coarse / err_fine >= 8.0


def test_straight_line_stays_straight():
    state = VehicleState(v_long=25.0)
    for _ in range(1000):
        state = step(state, PARAMS, Controls(), 0.01)
    assert abs(state.x) < 1e-9
    assert abs(state.heading) < 1e-12
    assert abs(state.v_lat) < 1e-12
    assert abs(state.yaw_rate) < 1e-12
    assert state.y == pytest.approx(250.0, abs=1e-9)


def bits(state):
    """A state's six floats as their exact bits: == cannot tell 0.0 from
    -0.0, and the two print differently in the trajectory CSV."""
    return tuple(value.hex() for value in state)


def reference_step(state, params, controls, dt):
    """Textbook RK4 whose stages are VehicleStates fed to the public rates."""
    def derivative(s):
        dy, dx, dheading = pose_derivative(s)
        dv_lat, dr = lateral_derivative(s, params, controls.steer)
        dv_long = controls.accel
        if s.v_long <= 0.0 and dv_long < 0.0:
            dv_long = 0.0
        return (dx, dy, dheading, dv_long, dv_lat, dr)

    def plus(s, d, h):
        return VehicleState(
            x=s.x + d[0] * h, y=s.y + d[1] * h, heading=s.heading + d[2] * h,
            v_long=s.v_long + d[3] * h, v_lat=s.v_lat + d[4] * h,
            yaw_rate=s.yaw_rate + d[5] * h)

    k1 = derivative(state)
    k2 = derivative(plus(state, k1, dt / 2.0))
    k3 = derivative(plus(state, k2, dt / 2.0))
    k4 = derivative(plus(state, k3, dt))
    sixth = dt / 6.0
    out = VehicleState(*(
        getattr(state, name) + sixth * (a + 2 * b + 2 * c + d)
        for name, a, b, c, d in zip(
            ("x", "y", "heading", "v_long", "v_lat", "yaw_rate"),
            k1, k2, k3, k4)))
    if out.v_long < 0.0:
        out = out._replace(v_long=0.0, v_lat=0.0, yaw_rate=0.0)
    return out


_params = st.one_of(st.just(PARAMS), st.builds(
    replace, st.just(PARAMS), mass=st.floats(900, 2500),
    yaw_inertia=st.floats(1200, 5000), dist_front=st.floats(0.8, 1.8), dist_rear=st.floats(1.0, 2.0),
    corner_stiff_front=st.floats(-90000, -30000),
    corner_stiff_rear=st.floats(-90000, -30000)))
_speeds = st.one_of(st.sampled_from([0.0, LOW_SPEED_FLOOR / 2, LOW_SPEED_FLOOR]),
                    st.floats(0.0, 0.5), st.floats(0.0, 45.0))
_states = st.builds(VehicleState, x=st.floats(-5, 15), y=st.floats(-200, 400),
                    heading=st.floats(-0.4, 0.4), v_long=_speeds,
                    v_lat=st.floats(-2, 2), yaw_rate=st.floats(-0.6, 0.6))
_controls = st.builds(Controls, accel=st.floats(-12, 4),
                      steer=st.floats(-0.3, 0.3))
_dts = st.one_of(st.sampled_from([0.01, 0.02, 0.1]), st.floats(1e-4, 0.5))


@settings(max_examples=1000, deadline=None)
@given(_states, _params, _controls, _dts)
@example(VehicleState(v_long=LOW_SPEED_FLOOR / 2, v_lat=0.3, yaw_rate=0.1),
         PARAMS, Controls(accel=1.0, steer=0.1), 0.01)
@example(VehicleState(v_long=LOW_SPEED_FLOOR, v_lat=0.3, yaw_rate=0.1),
         PARAMS, Controls(accel=1.0, steer=0.1), 0.01)
@example(VehicleState(v_long=0.0, v_lat=0.2), PARAMS,
         Controls(accel=-3.0, steer=0.05), 0.01)
@example(VehicleState(v_long=0.3, v_lat=0.2, yaw_rate=0.1), PARAMS,
         Controls(accel=-40.0, steer=0.05), 0.01)
@example(VehicleState(v_long=20.0, heading=0.05, v_lat=0.4, yaw_rate=-0.2),
         replace(PARAMS, mass=1100.0, yaw_inertia=1800.0, dist_front=1.0,
                 dist_rear=1.5, corner_stiff_front=-45000.0,
                 corner_stiff_rear=-70000.0),
         Controls(accel=-2.0, steer=0.08), 0.02)
def test_step_is_bit_identical_to_reference_rk4(state, params, controls, dt):
    assert bits(step(state, params, controls, dt)) == \
        bits(reference_step(state, params, controls, dt))


_zeros = st.sampled_from([0.0, -0.0])
_straight_states = st.builds(
    VehicleState, x=_zeros, y=st.floats(-200, 400), heading=_zeros,
    v_long=st.one_of(st.sampled_from([0.0, LOW_SPEED_FLOOR / 2,
                                      LOW_SPEED_FLOOR]),
                     st.floats(15.0, 40.0)),
    v_lat=_zeros, yaw_rate=_zeros)
# -40 m/s^2 brakes LOW_SPEED_FLOOR / 2 below zero speed within a step.
_straight_controls = st.builds(
    Controls, accel=st.one_of(st.floats(-12, 4), st.just(-40.0)),
    steer=_zeros)


@settings(max_examples=1000, deadline=None)
@given(_straight_states, _params, _straight_controls, _dts)
@example(VehicleState(x=-0.0, v_long=LOW_SPEED_FLOOR / 2), PARAMS,
         Controls(accel=-40.0), 0.01)
def test_straight_step_is_bit_identical_to_reference_rk4(state, params,
                                                          controls, dt):
    """Exactly straight inputs take step's short path when their zeros are
    +0.0; every sign of zero must give the reference's bits."""
    assert bits(step(state, params, controls, dt)) == \
        bits(reference_step(state, params, controls, dt))


def test_straight_example_triggers_the_clamp():
    state = VehicleState(x=-0.0, v_long=LOW_SPEED_FLOOR / 2)
    out = step(state, PARAMS, Controls(accel=-40.0), 0.01)
    assert bits(out)[3:] == bits(VehicleState())[3:]
    assert bits(out)[0] == (0.0).hex()  # -0.0 + 0.0 is +0.0


@pytest.mark.parametrize("params", [
    replace(PARAMS, corner_stiff_front=-1.7e308, corner_stiff_rear=-1.7e308),
    replace(PARAMS, mass=1e-306)])
def test_straight_step_with_infinite_coefficients_diverges_as_before(params):
    # A lateral coefficient overflows, so even zero lateral states get
    # not-a-number rates, and step raises where the reference leaves them.
    assert not params.finite_lateral
    state = VehicleState(x=9.9, v_long=20.0)
    assert not all(map(math.isfinite,
                       reference_step(state, params, Controls(), 0.01)))
    with pytest.raises(ValueError, match="non-finite state"):
        step(state, params, Controls(), 0.01)


def test_reference_example_triggers_the_clamp():
    # The -40 m/s^2 example above ends below zero speed before the clamp.
    state = VehicleState(v_long=0.3, v_lat=0.2, yaw_rate=0.1)
    out = step(state, PARAMS, Controls(accel=-40.0, steer=0.05), 0.01)
    assert (out.v_long, out.v_lat, out.yaw_rate) == (0.0, 0.0, 0.0)
    assert out.y > state.y


def test_trajectory_is_bit_identical_to_reference_rk4():
    params = replace(PARAMS, mass=1300.0, corner_stiff_rear=-75000.0)
    state = ref = VehicleState(x=9.9, v_long=19.4)
    for i in range(400):
        controls = Controls(accel=1.5 if i < 150 else -10.0,
                            steer=0.02 * math.sin(i / 40.0))
        state = step(state, params, controls, 0.01)
        ref = reference_step(ref, params, controls, 0.01)
        assert state == ref, i
    assert state.v_long == 0.0  # the run ends braked to rest
