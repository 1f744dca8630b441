"""The textbook form of the vehicle model's rates, written on VehicleState.

dynamics.step writes its four RK4 stages out on flat floats; each stage
rate does the same float operations, in the same order, as pose_derivative
and lateral_derivative below on the stage state.  Tests compare step
against these.
"""

import math

from mergesim.dynamics import LOW_SPEED_FLOOR, VehicleParams, VehicleState


def speed(state: VehicleState) -> float:
    return math.hypot(state.v_long, state.v_lat)


def lateral_matrices(params: VehicleParams, v_long: float):
    """State matrix A and input column B of the lateral dynamics at v_long."""
    cf = params.corner_stiff_front
    cr = params.corner_stiff_rear
    lf = params.dist_front
    lr = params.dist_rear
    m = params.mass
    iz = params.yaw_inertia
    a11 = (cf + cr) / (m * v_long)
    a12 = (-lf * cf + lr * cr) / (m * v_long) - v_long
    a21 = (lf * cf - lr * cr) / (iz * v_long)
    a22 = (-lf * lf * cf + lr * lr * cr) / (iz * v_long)
    b1 = cf / m
    b2 = lf * cf / iz
    return ((a11, a12), (a21, a22)), (b1, b2)


def lateral_derivative(state: VehicleState, params: VehicleParams, steer: float):
    """Time derivatives (dv_lat, dyaw_rate) of the lateral states.

    Frozen (returns zeros) when v_long is at or below LOW_SPEED_FLOOR.
    """
    if state.v_long <= LOW_SPEED_FLOOR:
        return 0.0, 0.0
    ((a11, a12), (a21, a22)), (b1, b2) = lateral_matrices(params, state.v_long)
    dv_lat = a11 * state.v_lat + a12 * state.yaw_rate + b1 * steer
    dr = a21 * state.v_lat + a22 * state.yaw_rate + b2 * steer
    return dv_lat, dr


def pose_derivative(state: VehicleState):
    """Pose rates (dy_long, dx_lat, dheading) from speed magnitude and heading."""
    v = speed(state)
    return v * math.cos(state.heading), v * math.sin(state.heading), state.yaw_rate
